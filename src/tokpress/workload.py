"""Synthetic planted-foreground workloads with a provable separation margin.

Real episode frames are out of scope, so tests and benchmarks run on
constructed token sets where ground truth is known exactly: a few solid
foreground blocks whose embeddings lean toward a common direction, a
background that is orthogonal to everything foreground, and language tokens
that are verbatim copies of sampled foreground cells.

The geometry is arranged so the margin is a theorem, not a tendency:

* all special directions (the shared base, one residual per foreground
  cell, a background subspace) come from one QR factorization, hence are
  exactly orthonormal up to float error;
* foreground cell j is c_j * base + sqrt(1 - c_j^2) * w_j with c_j >= 0.9,
  so any two foreground cells have cosine >= 0.81 while background cells
  sit at cosine ~0 to every foreground cell and to the base;
* each language token equals one foreground cell bitwise, so its argmax
  anchor is that very cell.

Every draw comes from the counter rng, so a recipe is one seed away from
its tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BinaryMask, CounterStream, ParameterError, PatchGrid, RngState, _check_integer, _check_real
from .core import _row_blocks


@dataclass(frozen=True)
class WorkloadSpec:
    """Recipe for one synthetic scene."""

    grid: PatchGrid
    blocks: int = 1
    block_size: tuple[int, int] = (5, 5)
    embed_dim: int = 64
    margin: float = 0.5
    anchor_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        blocks = _check_integer(self.blocks, "blocks", 0)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "embed_dim", _check_integer(self.embed_dim, "embed_dim"))
        try:
            lo, hi = self.block_size
        except (TypeError, ValueError):
            raise ParameterError(f"block_size must be a (lo, hi) pair, got {self.block_size!r}") from None
        lo = _check_integer(lo, "block_size[0]", 1)
        hi = _check_integer(hi, "block_size[1]", lo)
        object.__setattr__(self, "block_size", (lo, hi))
        if hi > min(self.grid.height, self.grid.width):
            raise ParameterError(f"blocks of size {hi} do not fit a {self.grid.height}x{self.grid.width} view")
        # past 0.87 the foreground cosine band needed to certify the margin
        # collapses; reject rather than silently weaken it
        _check_real(self.margin, "margin", 0, 0.87, open_low=True)
        _check_real(self.anchor_fraction, "anchor_fraction", 0, 1, open_low=True)
        max_fg = blocks * hi * hi
        if self.embed_dim < max_fg + 3:
            raise ParameterError(
                f"embed_dim {self.embed_dim} too small for up to {max_fg} foreground cells"
            )
        object.__setattr__(self, "seed", RngState(self.seed).seed)  # the one seed check


@dataclass(frozen=True)
class Workload:
    """Generated tensors plus the ground truth they were built from."""

    e_img: np.ndarray
    e_lang: np.ndarray
    guidance: np.ndarray
    grid: PatchGrid
    truth: BinaryMask
    anchor_cells: np.ndarray


def _orthonormal_columns(stream: CounterStream, dim: int, n_cols: int) -> np.ndarray:
    g = stream.normals(dim * n_cols).reshape(dim, n_cols)
    q, r = np.linalg.qr(g)
    # canonical signs; QR is only unique up to column flips
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def generate_workload(spec: WorkloadSpec) -> Workload:
    grid = spec.grid
    stream = CounterStream(RngState(spec.seed))
    lo, hi = spec.block_size

    bits = np.zeros(grid.shape, dtype=bool)
    for _ in range(spec.blocks):
        r = lo + stream.below(hi - lo + 1)
        v = stream.below(grid.views)
        top = stream.below(grid.height - r + 1)
        left = stream.below(grid.width - r + 1)
        bits[v, top : top + r, left : left + r] = True
    truth = BinaryMask(grid, bits)

    fg_cells = truth.token_indices()
    n_fg = int(fg_cells.size)
    bg_dim = min(16, spec.embed_dim - 1 - n_fg)
    basis = _orthonormal_columns(stream, spec.embed_dim, 1 + n_fg + bg_dim)
    base = basis[:, 0]
    fg_residuals = basis[:, 1 : 1 + n_fg]
    bg_basis = basis[:, 1 + n_fg :]

    # foreground cosine band [c_lo, 0.98]: c_lo^2 certifies the margin
    # against an exactly-orthogonal background
    c_lo = max(0.9, math.sqrt(spec.margin) + 0.02)
    c = c_lo + (0.98 - c_lo) * stream.uniforms(n_fg)

    # rows are built in float64 and rounded once, on assignment into the float32 matrix
    e_img = np.empty((grid.total, spec.embed_dim), dtype=np.float32)
    e_img[fg_cells] = c[:, None] * base + np.sqrt(1.0 - c * c)[:, None] * fg_residuals.T

    bg_cells = np.setdiff1d(np.arange(grid.total, dtype=np.int64), fg_cells, assume_unique=True)
    coeffs = stream.normals(bg_cells.size * bg_dim).reshape(bg_cells.size, bg_dim)
    bg = coeffs @ bg_basis.T
    # unit rows, a cache-sized block at a time; the row sums are np.linalg.norm's own
    # reduction, so the bits match it
    for b in _row_blocks(*bg.shape, 8):
        blk = bg[b]
        norm = np.sqrt(np.add.reduce(blk * blk, axis=1, keepdims=True))
        e_img[bg_cells[b]] = blk / np.maximum(norm, 1e-30)

    if n_fg:
        n_anchor = max(1, math.floor(spec.anchor_fraction * n_fg))
        anchor_cells = fg_cells[np.sort(stream.sample(n_fg, n_anchor))]
        e_lang = e_img[anchor_cells].copy()
    else:
        anchor_cells = np.empty(0, dtype=np.int64)
        e_lang = base[None, :].astype(np.float32)

    guidance = np.vstack([e_lang, base[None, :].astype(np.float32)])
    return Workload(e_img, e_lang, guidance, grid, truth, anchor_cells)
