"""Shared data types: token matrices, patch grids, masks, and the seeded RNG.

Everything downstream (expansion, sampling, merging, the pipeline) operates on
the structures defined here. Token embeddings travel as plain float32 numpy
arrays validated by :func:`token_matrix`; spatial views of the visual tokens
get small frozen dataclasses so grid geometry and payload cannot drift apart.

Token order is view-major, row-major: all patches of view 0 first (scanned
row by row), then view 1, and so on. This matches a backbone sequence built
by concatenating per-camera patch grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not line up."""


class ParameterError(ValueError):
    """A parameter is outside its documented domain."""


class GridRangeError(IndexError):
    """A coordinate or token index is outside its grid or sequence."""


def token_matrix(data, *, name: str = "tokens") -> np.ndarray:
    """Validate and coerce ``data`` to an n x d float32 token matrix.

    Rejects non-2-D input, zero-width embeddings, and non-finite values.
    Returns a C-contiguous float32 array (a view when the input already
    qualifies, a copy otherwise).
    """
    arr = np.ascontiguousarray(data, dtype=np.float32)
    if arr.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D (tokens x dim) array, got shape {arr.shape}")
    if arr.shape[1] < 1:
        raise ShapeError(f"{name}: embedding dimension must be >= 1")
    if arr.size and not np.isfinite(arr).all():
        raise ParameterError(f"{name}: non-finite values are not allowed")
    return arr


def sq_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row, in the rows' dtype; equal rows get equal norms."""
    return np.einsum("ij,ij->i", rows, rows)


def index_set(indices, *, limit: int | None = None, name: str = "indices") -> np.ndarray:
    """Sorted unique int64 token indices, checked against ``limit`` when given."""
    arr = np.unique(np.asarray(indices, dtype=np.int64))
    if arr.size:
        if arr[0] < 0:
            raise GridRangeError(f"{name}: negative index {arr[0]}")
        if limit is not None and arr[-1] >= limit:
            raise GridRangeError(f"{name}: index {arr[-1]} out of range for {limit} tokens")
    return arr


@dataclass(frozen=True)
class PatchGrid:
    """Geometry of the visual token layout: ``views`` stacked height x width grids."""

    views: int
    height: int
    width: int

    def __post_init__(self) -> None:
        for axis in ("views", "height", "width"):
            if getattr(self, axis) < 1:
                raise ParameterError(f"PatchGrid.{axis} must be >= 1")

    @property
    def tokens_per_view(self) -> int:
        return self.height * self.width

    @property
    def total(self) -> int:
        return self.views * self.height * self.width

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.views, self.height, self.width)


@dataclass(frozen=True)
class BinaryMask:
    """Boolean relevance mask over a patch grid, one bit per cell per view.

    The bit array is copied on construction and frozen (read-only), so masks
    can be shared across threads without defensive copies.
    """

    grid: PatchGrid
    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != self.grid.shape:
            raise ShapeError(f"mask bits shape {bits.shape} != grid shape {self.grid.shape}")
        bits = bits.copy()
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def zeros(cls, grid: PatchGrid) -> "BinaryMask":
        return cls(grid, np.zeros(grid.shape, dtype=bool))

    @classmethod
    def from_token_indices(cls, grid: PatchGrid, indices) -> "BinaryMask":
        flat = np.zeros(grid.total, dtype=bool)
        flat[index_set(indices, limit=grid.total, name="mask indices")] = True
        return cls(grid, flat.reshape(grid.shape))

    def token_indices(self) -> np.ndarray:
        """Indices of set cells as a sorted index set (flatnonzero is row-major)."""
        return np.flatnonzero(self.bits.reshape(-1)).astype(np.int64)

    def count(self) -> int:
        return int(self.bits.sum())

    def view(self, v: int) -> np.ndarray:
        """The (height, width) bit plane of one camera view."""
        if not 0 <= v < self.grid.views:
            raise GridRangeError(f"view {v} out of range [0, {self.grid.views})")
        return self.bits[v]


_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class RngState:
    """Deterministic counter-based generator (splitmix64).

    Draw ``t`` is ``mix64(seed + (t + 1) * GOLDEN)`` where ``mix64`` is the
    standard splitmix64 output permutation. Pure wrapping uint64 arithmetic,
    so equal seeds give bitwise-equal streams on every platform, which keeps
    golden fixtures stable. Draws are addressed by counter rather than
    consumed from shared state; callers may key draws to fixed positions
    (e.g. one slot per grid cell), so results do not depend on how much of
    the counter space other cells used.
    """

    seed: int

    #: counters reserved per keyed decision; see :meth:`uniform_index`
    DRAW_SLOTS = 16

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must be an unsigned 64-bit integer")

    def values(self, start: int, count: int) -> np.ndarray:
        """Draws at counters ``start .. start + count - 1`` as uint64."""
        if start < 0 or count < 0:
            raise ParameterError("counter start and count must be non-negative")
        with np.errstate(over="ignore"):
            counters = (np.arange(count, dtype=np.uint64) + np.uint64(start + 1)) & _MASK64
            z = np.uint64(self.seed) + counters * _GOLDEN
            z = (z ^ (z >> np.uint64(30))) * _MIX_A
            z = (z ^ (z >> np.uint64(27))) * _MIX_B
            return z ^ (z >> np.uint64(31))

    def uniform_index(self, counter_base: int, n: int) -> int:
        """Uniform draw in [0, n), bias-free via rejection sampling.

        Uses the ``DRAW_SLOTS`` counters starting at ``counter_base``; keyed
        callers must space their bases at least that far apart. The rejection
        loop practically never exhausts (acceptance probability per attempt
        exceeds 1 - n / 2**64).
        """
        if n <= 0:
            raise ParameterError("uniform_index needs n >= 1")
        span = (2**64 // n) * n
        words = self.values(counter_base, self.DRAW_SLOTS)
        for w in words:
            if int(w) < span:
                return int(w) % n
        return int(words[-1]) % n  # unreachable for any realistic n


class CounterStream:
    """Sequential reader over an :class:`RngState` counter space.

    For generators that want a stream (workload synthesis) rather than keyed
    draws. Not thread-safe; create one per job.
    """

    def __init__(self, rng: RngState, start: int = 0):
        self._rng = rng
        self._next = start

    def u64(self, count: int) -> np.ndarray:
        out = self._rng.values(self._next, count)
        self._next += count
        return out

    def uniforms(self, count: int) -> np.ndarray:
        """float64 in [0, 1), 53-bit resolution."""
        return (self.u64(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller on stream uniforms."""
        pairs = (count + 1) // 2
        u1 = self.uniforms(pairs)
        u2 = self.uniforms(pairs)
        r = np.sqrt(-2.0 * np.log1p(-u1))  # log1p keeps u1 == 0 finite
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return z[:count]

    def below(self, n: int) -> int:
        """One uniform integer in [0, n)."""
        idx = self._rng.uniform_index(self._next, n)
        self._next += RngState.DRAW_SLOTS
        return idx

    def sample(self, n: int, k: int) -> np.ndarray:
        """k distinct integers from range(n), partial Fisher-Yates order."""
        if not 0 <= k <= n:
            raise ParameterError(f"cannot sample {k} of {n}")
        pool = np.arange(n, dtype=np.int64)
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k].copy()
