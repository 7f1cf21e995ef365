"""Soft-bipartite token merging: fold target tokens into a chosen source set.

The token sequence is split into sources (kept) and targets (absorbed).
Every target spreads its content over the sources through a row-stochastic
matching matrix built from RMS-normalized dot products, and every source is
then renormalized by the total weight it received, so well-matched sources
move toward the targets they absorbed while poorly-matched ones stay put.

The public functions check every input once, through ``core``'s checks
(``match_weights`` too: its softmax is the kernel ``_fold`` calls), and
call private kernels, which do no checks of their own. The kernels take
float32 rows with their float64 squared norms. Logits are raw dot products
scaled afterwards by the two rows' RMS factors. ``match_logits`` and hard
mode are float64 throughout, and hard mode folds by a float64 segment sum
of each source's targets; the soft fold takes its products on the
float32 rows, with float64 scales and weights. Merged rows are convex
combinations of the source row and the target rows, and soft mode clamps
every coordinate into that hull, which float32 rounding could step past.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, ShapeError, _check_integer, _finite, _real, _row_blocks, _tokens, index_set, sq_norms

MODES = ("soft", "hard")
#: added to the mean square in every RMS scale, so zero rows stay at zero;
#: the merge oracle in tests/oracles.py uses the same value
EPSILON = 1e-6
#: squared magnitude past which a float32 product may overflow (float32 tops out near 2**128)
_OVERFLOW_SQ = 2.0**254


@dataclass(frozen=True)
class MergeParams:
    """Merge knobs: source-set size and matching mode (the RMS epsilon is ``EPSILON``)."""

    m: int = 80
    mode: str = "soft"

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check_integer(self.m, "m", 1))
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class MergeReport:
    """Bookkeeping for one merge: who survived and how much weight they took."""

    source_indices: np.ndarray
    absorbed_weight: np.ndarray
    tokens_before: int
    tokens_after: int


def _rms_scale(sq: np.ndarray, d: int) -> np.ndarray:
    # the module's one RMS formula: 1 / sqrt(mean of squares + EPSILON)
    return 1.0 / np.sqrt(sq / d + EPSILON)


def split_source_target(tokens, source) -> tuple[np.ndarray, np.ndarray]:
    """Partition rows into (sources at the given indices, remaining targets).

    Both halves keep ascending original order.
    """
    tokens = _tokens(tokens, "tokens")
    source = index_set(source, limit=tokens.shape[0], name="source")
    rest = np.setdiff1d(np.arange(tokens.shape[0], dtype=np.int64), source, assume_unique=True)
    return tokens[source], tokens[rest]


def _logits(sources, s_sq, targets, t_sq) -> np.ndarray:
    # dot(rms(t_i), rms(s_j)) / sqrt(d): the raw product in the rows' dtype, scaled in float64
    d = sources.shape[1]
    logits = np.asarray(targets @ sources.T, dtype=np.float64)
    logits *= _rms_scale(t_sq, d)[:, None]
    logits *= _rms_scale(s_sq, d) / np.sqrt(d)
    return logits


def match_logits(sources, targets) -> np.ndarray:
    """Scaled similarity logits, one row per target: dot(rms(t_i), rms(s_j)) / sqrt(d)."""
    sources = _tokens(sources, "sources").astype(np.float64)
    targets = _tokens(targets, "targets", sources.shape[1]).astype(np.float64)
    return _logits(sources, sq_norms(sources), targets, sq_norms(targets))


def _softmax(logits: np.ndarray) -> np.ndarray:
    # row-wise, shifted by each row's max so that no exp overflows
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    e /= e.sum(axis=1, keepdims=True)
    return e


def match_weights(logits, mode: str = "soft") -> np.ndarray:
    """Row-stochastic matching matrix from finite logits, at least one column wide.

    Soft mode is a row-wise softmax; hard mode puts the full unit weight on
    each row's argmax column (ties to the lower index).
    """
    logits = _real(logits, "logits", np.float64)
    if logits.ndim != 2 or logits.shape[1] < 1:
        raise ShapeError(f"logits must be 2-D with at least one column, got shape {logits.shape}")
    _finite(logits, logits, "logits")
    if mode == "soft":
        with np.errstate(over="ignore"):  # a row spanning past float64's range shifts to -inf, which exp makes 0
            return _softmax(logits)
    if mode == "hard":
        w = np.zeros_like(logits)
        w[np.arange(logits.shape[0]), np.argmax(logits, axis=1)] = 1.0
        return w
    raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")


def _fold(sources, s_sq, targets, t_sq, mode: str, out: np.ndarray) -> np.ndarray:
    """Write the merged sources into the float32 ``out`` and return the weight each absorbed.

    Hard mode folds float64 copies of the rows, since one flipped argmax would move a whole
    target: each source adds its targets, in target order, as one segment sum of the targets
    sorted by source. Soft mode folds the float32 rows and then clamps them into the hull; it
    too takes float64 copies when a float32 dot product or weighted sum could overflow, which
    the squared norms bound: |t.s|^2 <= |s|^2 |t|^2 and |sum_i w_i t_i|^2 <= n_t^2 max |t|^2.
    """
    n_t = targets.shape[0]
    if n_t == 0:
        out[...] = sources
        return np.zeros(sources.shape[0])
    wide = mode == "hard" or max(s_sq.max(), n_t * n_t) * t_sq.max() >= _OVERFLOW_SQ
    if wide:
        sources, targets = sources.astype(np.float64), targets.astype(np.float64)
    logits = _logits(sources, s_sq, targets, t_sq)
    if mode == "hard":  # sources is a copy here, so it takes the sums in place
        owner = np.argmax(logits, axis=1)
        order = np.argsort(owner, kind="stable")
        starts = np.flatnonzero(np.diff(owner[order], prepend=-1))
        sources[owner[order[starts]]] += np.add.reduceat(targets[order], starts)
        absorbed = np.bincount(owner, minlength=sources.shape[0]).astype(np.float64)
        np.divide(sources, (1.0 + absorbed)[:, None], out=out)
        return absorbed
    w = _softmax(logits)
    absorbed = w.sum(axis=0)
    merged = np.empty(sources.shape) if wide else out
    np.matmul(w.astype(merged.dtype, copy=False).T, targets, out=merged)
    merged += sources
    merged /= (1.0 + absorbed).astype(merged.dtype)[:, None]
    if wide:
        out[...] = merged
    t_min, t_max = targets.min(axis=0), targets.max(axis=0)
    for b in _row_blocks(*out.shape, 4):  # the hull clamp's float32 blocks, as the e_img scan's
        np.maximum(out[b], np.minimum(sources[b], t_min), out=out[b])
        np.minimum(out[b], np.maximum(sources[b], t_max), out=out[b])
    return absorbed


def soft_bipartite_merge(sources, targets, params: MergeParams) -> tuple[np.ndarray, MergeReport]:
    """Absorb every target row into the source rows.

    For each target i, a weight row W[i] distributes it over sources (softmax
    of the scaled RMS-dot logits, or one-hot at the argmax in hard mode). The
    absorbed mass A_j = sum_i W[i, j] * t_i and total weight s_j = sum_i
    W[i, j] update source j to (s_row_j + A_j) / (1 + s_j), a convex blend of
    the source with what it absorbed.

    ``params.m`` must equal the number of source rows; the report's
    ``tokens_after`` is then m by construction. With no targets the sources
    come back bitwise unchanged. The report's ``source_indices`` are the
    source rows' own positions, 0 to m - 1.
    """
    sources = _tokens(sources, "sources")
    targets = _tokens(targets, "targets", sources.shape[1])
    n_s, n_t = sources.shape[0], targets.shape[0]
    if params.m != n_s:  # m >= 1, so this also rejects an empty source set
        raise ParameterError(f"params.m = {params.m} but {n_s} source rows were given")
    s_sq, t_sq = (sq_norms(rows.astype(np.float64)) for rows in (sources, targets))
    merged = np.empty_like(sources)
    absorbed = _fold(sources, s_sq, targets, t_sq, params.mode, merged)
    return merged, MergeReport(np.arange(n_s, dtype=np.int64), absorbed, n_s + n_t, n_s)
