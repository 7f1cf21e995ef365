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

import numbers
from dataclasses import dataclass

import numpy as np

_BLOCK = 2**18  # bytes per block of the blocked passes over rows: 256 KB, so a block stays in cache
_SPAN = 4  # blocks per span of the e_img scan: 1 MB, so a span's rows stay in L2 from its products to its norms


class ShapeError(ValueError):
    """Operand shapes do not line up."""


class ParameterError(ValueError):
    """A parameter is outside its documented domain."""


class GridRangeError(IndexError):
    """A coordinate or token index is outside its grid or sequence."""


def _check_integer(value, name: str, low=None, high=None) -> int:
    """``value`` as a Python int, which fixed-width numpy arithmetic cannot overflow; a ParameterError
    naming ``name`` unless it is a Python or numpy integer in [low, high] (``bool`` is no count)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        _check_real(value, name, low, high)  # raises the one out-of-range message
    return int(value)


def _check_real(value, name: str, low=None, high=None, open_low: bool = False) -> None:
    """Raise a ParameterError naming ``name`` unless ``value`` is a real number (not ``bool``) in
    [low, high], or (low, high] if ``open_low``; a bound of None is open, and NaN is in no interval."""
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):  # ABC test last: slow
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    above = low is None or (value > low if open_low else value >= low)
    if not (above and (high is None or value <= high)) or value != value:
        left = "(-inf" if low is None else f"{'(' if open_low else '['}{low}"
        right = "inf)" if high is None else f"{high}]"
        raise ParameterError(f"{name} must lie in {left}, {right}, got {value!r}")


def token_matrix(data, *, name: str = "tokens") -> np.ndarray:
    """Validate and coerce ``data`` to an n x d float32 token matrix.

    Rejects non-2-D input, zero-width embeddings, and non-finite values.
    Returns a C-contiguous float32 array (a view when the input already
    qualifies, a copy otherwise).
    """
    return _tokens(data, name)


def _real(data, name: str, dtype) -> np.ndarray:
    """``data`` as a ``dtype`` array, or a ParameterError naming ``name`` unless it holds real numbers only."""
    try:
        if np.asarray(data).dtype.kind == "c":  # the cast would drop the imaginary parts
            raise TypeError("complex values")
        return np.asarray(data, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past the float range
        raise ParameterError(f"{name}: values must be real numbers: {exc}") from None


def _matrix(data, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(_real(data, name, np.float32))
    if arr.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D (tokens x dim) array, got shape {arr.shape}")
    if arr.shape[1] < 1:
        raise ShapeError(f"{name}: embedding dimension must be >= 1")
    return arr


def _finite(arr: np.ndarray, sq: np.ndarray, name, error=ParameterError, what="non-finite values are not allowed"):
    if not np.isfinite(sq).all() and not np.isfinite(arr).all():  # sq, squared row norms, can overflow float32
        raise error(f"{name}: {what}")


def _tokens(data, name: str, width: int | None = None, nonempty: bool = False) -> np.ndarray:
    """One public input as a float32 matrix the kernels behind it trust: 2-D, finite, width >= 1
    (``width`` when given), a row if ``nonempty``. Every message starts with ``name``."""
    arr = _matrix(data, name)
    _finite(arr, sq_norms(arr), name)
    if width is not None and arr.shape[1] != width:
        raise ShapeError(f"{name}: embedding width {arr.shape[1]}, expected {width}")
    if nonempty and arr.shape[0] == 0:
        raise ShapeError(f"{name}: needs at least one row, got 0")
    return arr


def sq_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row, in the rows' dtype, as batched 1 x d by d x 1 products (mostly faster
    than einsum's); equal rows get equal norms, and a norm that overflows is inf, with no warning."""
    with np.errstate(over="ignore"):
        return np.matmul(rows[:, None], rows[:, :, None]).reshape(-1)


def _row_blocks(rows: int, width: int, itemsize: int, span: bool = False) -> list[slice]:
    """Slices of ``rows`` rows of ``width * itemsize`` bytes, in order: ``_BLOCK`` bytes at most, or one row;
    with ``span``, ``_SPAN`` such blocks at a time (the spans of the ``e_img`` scan)."""
    step = max(1, _BLOCK // (itemsize * width)) * (_SPAN if span else 1)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _integers(values, name: str) -> np.ndarray:
    """``values`` as exact integers, or a ParameterError naming ``name``: an integer array as it is, any other
    container item by item as ``_check_integer`` judges one, so a ``bool`` is refused and ints past int64 stay exact."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    items = np.asarray(values, dtype=object)  # the items as given: numpy reads [3, True] as int64
    for item in items.flat:
        if isinstance(item, bool) or not isinstance(item, (int, np.integer)):
            raise ParameterError(f"{name} must be integers, got {item!r}")
    return items


def index_set(indices, *, limit: int | None = None, name: str = "indices") -> np.ndarray:
    """Sorted unique int64 token indices, checked against ``limit`` when given.

    Floats and bools are refused, not read as indices; Python ints past int64 are range-checked; ``[]`` is empty.
    """
    arr = np.unique(_integers(indices, f"{name}: indices"))  # checked before the int64 cast: it wraps from 2**63 on
    limit = 2**63 if limit is None else limit
    if arr.size:
        if arr[0] < 0:
            raise GridRangeError(f"{name}: negative index {arr[0]}")
        if arr[-1] >= limit:
            raise GridRangeError(f"{name}: index {arr[-1]} out of range for {limit} tokens")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class PatchGrid:
    """Geometry of the visual token layout: ``views`` stacked height x width grids."""

    views: int
    height: int
    width: int

    def __post_init__(self) -> None:
        for axis in ("views", "height", "width"):
            object.__setattr__(self, axis, _check_integer(getattr(self, axis), f"PatchGrid.{axis}", 1))

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
        bits = np.array(self.bits, dtype=bool, order="C")
        if bits.shape != self.grid.shape:
            raise ShapeError(f"mask bits shape {bits.shape} != grid shape {self.grid.shape}")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def token_indices(self) -> np.ndarray:
        """Indices of set cells as a sorted index set (flatnonzero is row-major)."""
        return np.flatnonzero(self.bits.reshape(-1)).astype(np.int64)

    def count(self) -> int:
        return int(self.bits.sum())


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

    A uniform draw in [0, n) is ``x % n`` for the first word ``x`` of its
    slots that passes the rejection test ``x < (2**64 // n) * n``
    (``_accepts``). Batch callers (the sparse flips of ``expand_mask``) test
    their first words with it and call :meth:`uniform_index` only on a miss.
    """

    seed: int

    #: counters reserved per keyed decision; see :meth:`uniform_index`
    DRAW_SLOTS = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _check_integer(self.seed, "seed", 0, 2**64 - 1))

    def _draws(self, counters: np.ndarray) -> np.ndarray:
        # the one copy of the splitmix64 arithmetic: draw t for each uint64 counter t
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + (counters + np.uint64(1)) * _GOLDEN
            z = (z ^ (z >> np.uint64(30))) * _MIX_A
            z = (z ^ (z >> np.uint64(27))) * _MIX_B
            return z ^ (z >> np.uint64(31))

    def values(self, start: int, count: int) -> np.ndarray:
        """Draws at counters ``start .. start + count - 1`` as uint64; each is below 2**64, and count <= 2**59."""
        count = _check_integer(count, "count", 0, 2**59)  # numpy's arange errs near 2**60 and gives [] at 2**63
        start = _check_integer(start, "start", 0, 2**64 - max(count, 1))
        return self._draws(np.arange(count, dtype=np.uint64) + np.uint64(start))

    def uniform_index(self, counter_base: int, n: int) -> int:
        """Uniform draw in [0, n) for n in [1, 2**32], bias-free via rejection sampling.

        Uses the ``DRAW_SLOTS`` counters starting at ``counter_base``; keyed
        callers must space their bases at least that far apart. The rejection
        test refuses 2**64 % n < n words, so a slot is refused with probability
        below 2**-32, and all 16 with probability below 2**-512.
        """
        n = _check_integer(n, "n", 1, 2**32)
        counter_base = _check_integer(counter_base, "counter_base", 0, 2**64 - self.DRAW_SLOTS)
        return next(w % n for w in self.values(counter_base, self.DRAW_SLOTS).tolist() if _accepts(w, n))


def _accepts(word: int, n: int) -> bool:
    """Rejection test of a uniform draw in [0, n): ``word % n`` is unbiased below the span."""
    return word < (2**64 // n) * n


class CounterStream:
    """Sequential reader over an :class:`RngState` counter space.

    For generators that want a stream (workload synthesis) rather than keyed
    draws. Not thread-safe; create one per job.
    """

    def __init__(self, rng: RngState):
        self._rng = rng
        self._next = 0

    def uniforms(self, count: int) -> np.ndarray:
        """float64 in [0, 1), 53-bit resolution."""
        words = self._rng.values(self._next, count)
        self._next += count
        return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53

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
        """One uniform integer in [0, n), n <= 2**32."""
        idx = self._rng.uniform_index(self._next, n)
        self._next += RngState.DRAW_SLOTS
        return idx

    def sample(self, n: int, k: int) -> np.ndarray:
        """k distinct integers from range(n), n <= 2**32, by partial Fisher-Yates on a dict of swapped slots."""
        n = _check_integer(n, "n", 0, 2**32)
        k = _check_integer(k, "k", 0, n)
        pool = {}
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool.get(j, j), pool.get(i, i)
        return np.array([pool[i] for i in range(k)], dtype=np.int64)
