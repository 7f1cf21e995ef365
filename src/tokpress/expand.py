"""Mask expansion: density map, dense dilation, and seeded sparse flips.

A sparse anchor mask rarely covers a whole object. The density map counts,
for each cell, how many mask bits fall inside the k x k window around it;
the counts come from per-view 2-D prefix sums, so they are exact integers.
Cells whose count clears a threshold get their entire window set (a plain
morphological dilation); cells with a small positive count instead flip one
extra unset cell in their window, chosen by a seeded draw, which lets thin
or fragmented regions grow without committing to a full dilation.

The sparse flips are order-dependent (a flip changes what later windows see
as unset), so they run as one pass in scan order. Everything that does not
depend on that order is set up in numpy once per call: every sparse cell's
window as flat token indices, and its first keyed draw; the pass itself is
plain Python over flat lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import BinaryMask, ParameterError, RngState, _accepts, _check_integer


def _check_kernel(kernel_size) -> int:
    k = _check_integer(kernel_size, "kernel_size", 1)
    if k % 2 == 0:
        raise ParameterError(f"kernel_size must be odd, got {kernel_size}")
    return k


def _window_counts(cells: np.ndarray, k: int) -> np.ndarray:
    """Set cells in the k x k window around each cell of a (views, h, w) array, per view.

    A window of kh = min(k, 2h - 1) rows and kw = min(k, 2w - 1) columns covers the view from
    every cell, so it counts the same. Each view sits in a zero buffer with kh // 2 + 1 zero rows
    and kw // 2 + 1 columns before it and kh // 2, kw // 2 after, whose 2-D prefix sums C give
    every window, clipped at the view border, as C[i + kh, j + kw] - C[i, j + kw] - C[i + kh, j] + C[i, j].
    """
    views, h, w = cells.shape
    kh, kw = min(k, 2 * h - 1), min(k, 2 * w - 1)
    c = np.zeros((views, h + kh, w + kw), dtype=np.int64)
    c[:, kh // 2 + 1 : kh // 2 + 1 + h, kw // 2 + 1 : kw // 2 + 1 + w] = cells
    np.cumsum(c, axis=1, out=c)
    np.cumsum(c, axis=2, out=c)
    return c[:, kh:, kw:] - c[:, :-kh, kw:] - c[:, kh:, :-kw] + c[:, :-kh, :-kw]


@dataclass(frozen=True)
class ExpandParams:
    """Expansion knobs: window size and the density threshold."""

    kernel_size: int = 3
    threshold: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel_size", _check_kernel(self.kernel_size))
        object.__setattr__(self, "threshold", _check_integer(self.threshold, "threshold", 0))


def density_map(mask: BinaryMask, kernel_size: int) -> np.ndarray:
    """Count set bits in the k x k window centered at each cell.

    Windows are clipped at view borders (zero padding), and never cross a
    view boundary. The counts are read off 2-D prefix sums of each view, in
    exact integer arithmetic. Returns a read-only int64 array shaped like
    the grid, with counts in [0, k*k].
    """
    counts = _window_counts(mask.bits, _check_kernel(kernel_size))  # a Python int, as numpy's -k wraps
    counts.setflags(write=False)
    return counts


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

    The flips are set up once per call: each sparse cell's window as flat
    token indices in row-major order (-1 outside the view) and the first
    word of its keyed draw. One pass over the cells in scan order then
    flips bits of a flat list, so the per-cell work is a list scan.
    """
    grid = mask.grid
    k, tau = params.kernel_size, params.threshold
    counts = density_map(mask, k)

    out = mask.bits.copy()
    dense = counts > tau
    if dense.any():
        out |= _window_counts(dense, k) > 0  # the dilation: a dense cell lies in the window

    v, i, j = np.nonzero((counts > 0) & (counts < tau))  # view-major, row-major scan order
    if v.size == 0:
        return BinaryMask(grid, out)

    kh, kw = min(k, 2 * grid.height - 1), min(k, 2 * grid.width - 1)  # clamped per axis as in _window_counts
    rh, rw = kh // 2, kw // 2  # flat token indices, each view framed by rh rows and rw columns of -1
    index = np.full((grid.views, grid.height + 2 * rh, grid.width + 2 * rw), -1)
    index[:, rh : rh + grid.height, rw : rw + grid.width] = np.arange(grid.total).reshape(grid.shape)
    windows = sliding_window_view(index, (kh, kw), axis=(1, 2))[v, i, j].reshape(v.size, kh * kw)
    keys = (i * grid.width + j) * RngState.DRAW_SLOTS
    words = rng._draws(keys.astype(np.uint64))

    bits = out.reshape(-1).tolist()
    for win, key, word in zip(windows.tolist(), keys.tolist(), words.tolist()):
        unset = [p for p in win if p >= 0 and not bits[p]]
        if not unset:
            continue
        n = len(unset)
        bits[unset[word % n if _accepts(word, n) else rng.uniform_index(key, n)]] = True
    return BinaryMask(grid, np.array(bits, dtype=bool).reshape(grid.shape))
