"""Soft-bipartite token merging: fold target tokens into a chosen source set.

The token sequence is split into sources (kept) and targets (absorbed).
Every target spreads its content over the sources through a row-stochastic
matching matrix built from RMS-normalized dot products, and every source is
then renormalized by the total weight it received, so well-matched sources
move toward the targets they absorbed while poorly-matched ones stay put.

The public functions validate their inputs once and call private kernels
that take float64 rows with their squared norms, which ``merge_stage``
computes once per visual span. All merge arithmetic is float64: logits are
raw dot products scaled afterwards by the two rows' RMS factors, and the
fold runs in place; results are cast back to float32. Merged rows are
convex combinations of the source row and the target rows, so they stay
inside the data's coordinate-wise hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, ShapeError, index_set, sq_norms, token_matrix

MODES = ("soft", "hard")
#: added to the mean square in every RMS scale, so zero rows stay at zero;
#: the merge oracle in tests/oracles.py uses the same value
EPSILON = 1e-6


@dataclass(frozen=True)
class MergeParams:
    """Merge knobs: source-set size and matching mode (the RMS epsilon is ``EPSILON``)."""

    m: int = 80
    mode: str = "soft"

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ParameterError(f"source-set size m must be >= 1, got {self.m}")
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


def rms_norm(x) -> np.ndarray:
    """Scale by the reciprocal root-mean-square of the entries, no learned gain.

    Accepts a single vector or a matrix (normalized row by row). ``EPSILON``
    keeps zero vectors at zero instead of dividing by zero. Returns float64.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] < 1:
        raise ShapeError(f"rms_norm expects a non-empty vector or matrix, got shape {x.shape}")
    rows = x.reshape(-1, x.shape[-1])
    return (rows * _rms_scale(sq_norms(rows), x.shape[-1])[:, None]).reshape(x.shape)


def split_source_target(tokens, source) -> tuple[np.ndarray, np.ndarray]:
    """Partition rows into (sources at the given indices, remaining targets).

    Both halves keep ascending original order.
    """
    tokens = token_matrix(tokens)
    source = index_set(source, limit=tokens.shape[0], name="source")
    rest = np.setdiff1d(np.arange(tokens.shape[0], dtype=np.int64), source, assume_unique=True)
    return tokens[source], tokens[rest]


def _logits(sources, s_sq, targets, t_sq) -> np.ndarray:
    # dot(rms(t_i), rms(s_j)) / sqrt(d), scaled after the raw float64 product
    d = sources.shape[1]
    logits = targets @ sources.T
    logits *= _rms_scale(t_sq, d)[:, None]
    logits *= _rms_scale(s_sq, d) / np.sqrt(d)
    return logits


def _float64_pair(sources, targets) -> tuple[np.ndarray, np.ndarray]:
    sources = token_matrix(sources, name="sources").astype(np.float64)
    targets = token_matrix(targets, name="targets").astype(np.float64)
    if sources.shape[1] != targets.shape[1]:
        raise ShapeError(f"embedding dims differ: {sources.shape[1]} vs {targets.shape[1]}")
    return sources, targets


def match_logits(sources, targets) -> np.ndarray:
    """Scaled similarity logits, one row per target: dot(rms(t_i), rms(s_j)) / sqrt(d)."""
    sources, targets = _float64_pair(sources, targets)
    return _logits(sources, sq_norms(sources), targets, sq_norms(targets))


def match_weights(logits, mode: str = "soft") -> np.ndarray:
    """Row-stochastic matching matrix from logits.

    Soft mode is a row-wise softmax; hard mode puts the full unit weight on
    each row's argmax column (ties to the lower index).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    if mode == "soft":
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        return e
    if mode == "hard":
        w = np.zeros_like(logits)
        w[np.arange(logits.shape[0]), np.argmax(logits, axis=1)] = 1.0
        return w
    raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")


def _fold(sources, s_sq, targets, t_sq, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Merged float32 sources and the weight each absorbed, from float64 rows and squared norms."""
    if targets.shape[0] == 0:
        return sources.astype(np.float32), np.zeros(sources.shape[0])
    w = match_weights(_logits(sources, s_sq, targets, t_sq), mode)
    merged = w.T @ targets
    merged += sources
    absorbed = w.sum(axis=0)
    merged /= (1.0 + absorbed)[:, None]
    return merged.astype(np.float32), absorbed


def soft_bipartite_merge(
    sources,
    targets,
    params: MergeParams,
    *,
    source_indices=None,
) -> tuple[np.ndarray, MergeReport]:
    """Absorb every target row into the source rows.

    For each target i, a weight row W[i] distributes it over sources (softmax
    of the scaled RMS-dot logits, or one-hot at the argmax in hard mode). The
    absorbed mass A_j = sum_i W[i, j] * t_i and total weight s_j = sum_i
    W[i, j] update source j to (s_row_j + A_j) / (1 + s_j), a convex blend of
    the source with what it absorbed.

    ``params.m`` must equal the number of source rows; the report's
    ``tokens_after`` is then m by construction. With no targets the sources
    come back bitwise unchanged. ``source_indices``, when given, is recorded
    in the report (positions of the sources in the caller's sequence).
    """
    sources, targets = _float64_pair(sources, targets)
    n_s, n_t = sources.shape[0], targets.shape[0]
    if n_s < 1:
        raise ParameterError("merge needs at least one source token")
    if params.m != n_s:
        raise ParameterError(f"params.m = {params.m} but {n_s} source rows were given")
    if source_indices is None:
        source_indices = np.arange(n_s, dtype=np.int64)
    else:
        source_indices = index_set(source_indices, name="source_indices")
        if source_indices.size != n_s:
            raise ShapeError(f"{source_indices.size} source indices for {n_s} source rows")

    merged, absorbed = _fold(sources, sq_norms(sources), targets, sq_norms(targets), params.mode)
    return merged, MergeReport(source_indices, absorbed, n_s + n_t, n_s)
