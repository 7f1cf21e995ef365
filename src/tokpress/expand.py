"""Mask expansion: density map, dense dilation, and seeded sparse flips.

A sparse anchor mask rarely covers a whole object. The density map counts,
for each cell, how many mask bits fall inside the k x k window around it.
Cells whose count clears a threshold get their entire window set (a plain
morphological dilation); cells with a small positive count instead flip one
extra unset cell in their window, chosen by a seeded draw, which lets thin
or fragmented regions grow without committing to a full dilation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import BinaryMask, DensityMap, ParameterError, RngState


@dataclass(frozen=True)
class ExpandParams:
    """Expansion knobs: window size and the density threshold."""

    kernel_size: int = 3
    threshold: int = 1

    def __post_init__(self) -> None:
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ParameterError(f"kernel_size must be odd and >= 1, got {self.kernel_size}")
        if self.threshold < 0:
            raise ParameterError(f"threshold must be >= 0, got {self.threshold}")


def density_map(mask: BinaryMask, kernel_size: int) -> DensityMap:
    """Count set bits in the k x k window centered at each cell.

    Windows are clipped at view borders (zero padding), and never cross a
    view boundary. Counts land in [0, k*k].
    """
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ParameterError(f"kernel_size must be odd and >= 1, got {kernel_size}")
    kernel = np.ones((1, kernel_size, kernel_size), dtype=np.int64)
    counts = ndimage.convolve(mask.bits.astype(np.int64), kernel, mode="constant", cval=0)
    return DensityMap(mask.grid, counts)


def _window(center: int, k: int, size: int) -> tuple[int, int]:
    # inclusive-exclusive bounds of the k-window clipped to [0, size)
    half = k // 2
    return max(0, center - half), min(size, center + half + 1)


def expand_mask(mask: BinaryMask, params: ExpandParams, rng: RngState) -> BinaryMask:
    """Grow ``mask`` by the dense and sparse expansion rules.

    With F the density map of the input and tau the threshold:

    * every cell with F > tau gets its whole k x k window set
      (deterministic dilation);
    * every cell with 0 < F < tau flips exactly one currently-unset cell
      of its window, picked uniformly by a seeded draw; a window with no
      unset cell is left alone.

    F == tau triggers neither rule, and F is an integer count, so at the
    default tau = 1 no cell is sparse: expansion is the dense dilation
    alone and the rng is never drawn. Both rules read the density of the
    original mask; dilation is applied before any flips, and flips land in
    row-major scan order of the sparse cells, so later flips see earlier
    ones. Output bits are a superset of input bits.

    Flip draws are keyed to the in-view cell coordinates of the sparse cell
    (the view index is excluded), so expanding a stacked multi-view mask
    equals expanding each view separately with the same rng.
    """
    grid = mask.grid
    k, tau = params.kernel_size, params.threshold
    counts = density_map(mask, k).counts

    out = mask.bits.copy()
    dense = counts > tau
    if dense.any():
        structure = np.ones((1, k, k), dtype=bool)
        out |= ndimage.binary_dilation(dense, structure=structure)

    sparse = (counts > 0) & (counts < tau)
    for v, i, j in np.argwhere(sparse):
        r0, r1 = _window(i, k, grid.height)
        c0, c1 = _window(j, k, grid.width)
        unset = np.argwhere(~out[v, r0:r1, c0:c1])
        if len(unset) == 0:
            continue
        pick = rng.uniform_index((i * grid.width + j) * RngState.DRAW_SLOTS, len(unset))
        out[v, r0 + unset[pick, 0], c0 + unset[pick, 1]] = True

    return BinaryMask(grid, out)
