"""Two-stage compression pipeline over a token sequence.

Stage one runs before the backbone: language tokens vote for anchor cells,
the mask grows by density expansion, a stride context sample is unioned in,
and only the surviving visual tokens are kept. Stage two runs at a chosen
mid-layer: guidance tokens rank the remaining visual tokens, the top m
become merge sources, and the rest are absorbed into them.

No transformer is executed here. The backbone between the two reduction
points is modeled as identity (embeddings pass through unchanged), because
every operator contract is backbone-independent; callers with real
mid-layer activations can drive merge_stage directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import ParameterError, PatchGrid, RngState, ShapeError, sq_norms, token_matrix
from .costmodel import TokenSchedule
from .expand import ExpandParams, expand_mask
from .merge import MergeParams, MergeReport, _fold
from .sampling import context_indices, keep_set
from .similarity import _anchor_mask, _relevance, top_m

AGGREGATIONS = ("max", "mean")


@dataclass(frozen=True)
class CompressionConfig:
    """Every knob of the two-stage pipeline in one place.

    Defaults are the long-horizon operating point: 3x3 expansion at
    threshold 1, a quarter of the sequence as context, 80 merge sources at
    layer 16 of 32.
    """

    expand: ExpandParams = field(default_factory=ExpandParams)
    context_fraction: float = 0.25
    merge: MergeParams = field(default_factory=MergeParams)
    merge_layer: int = 16
    total_layers: int = 32
    seed: int = 0
    aggregation: str = "max"
    # score anchors inside each camera view instead of across the whole sequence
    per_view_anchors: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.context_fraction <= 1.0:
            raise ParameterError(f"context_fraction must lie in [0, 1], got {self.context_fraction}")
        if self.total_layers < 1:
            raise ParameterError("total_layers must be >= 1")
        if not 0 <= self.merge_layer < self.total_layers:
            raise ParameterError(
                f"merge_layer {self.merge_layer} out of range [0, {self.total_layers})"
            )
        if self.aggregation not in AGGREGATIONS:
            raise ParameterError(f"aggregation must be one of {AGGREGATIONS}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class PruneReport:
    """Counts from stage one."""

    anchors: int
    expanded: int
    context: int
    kept: int
    pruned: int


@dataclass(frozen=True)
class PipelineReport:
    """Summary of one pipeline run; timings are wall-clock and excluded
    from determinism guarantees."""

    keep_size: int
    pruned: int
    merged_away: int
    schedule: TokenSchedule
    timings_ms: dict


@dataclass(frozen=True)
class PipelineResult:
    """Report plus the actual tensors, so callers never rerun stages."""

    report: PipelineReport
    prune: PruneReport
    merge: MergeReport
    kept_indices: np.ndarray
    kept: np.ndarray
    compressed: np.ndarray


def _prune(e_img, e_lang, grid: PatchGrid, config: CompressionConfig):
    anchors = _anchor_mask(e_lang, e_img, grid, config.per_view_anchors)
    expanded = expand_mask(anchors, config.expand, RngState(config.seed))
    context = context_indices(grid.total, config.context_fraction)
    kept_idx = keep_set(expanded, context)
    report = PruneReport(
        anchors=anchors.count(),
        expanded=expanded.count(),
        context=int(context.size),
        kept=int(kept_idx.size),
        pruned=grid.total - int(kept_idx.size),
    )
    return e_img[kept_idx], kept_idx, report


def prune_stage(e_img, e_lang, grid: PatchGrid, config: CompressionConfig):
    """Stage one: anchors -> expansion -> context union -> row selection.

    Returns (kept tokens, kept indices, PruneReport). Kept rows preserve
    their original relative order.
    """
    e_img = token_matrix(e_img, name="e_img")
    return _prune(e_img, token_matrix(e_lang, name="e_lang"), grid, config)


def _range_bounds(visual_range, n_rows: int) -> tuple[int, int]:
    if isinstance(visual_range, range):
        if visual_range.step != 1:
            raise ParameterError("visual_range must be contiguous (step 1)")
        start, stop = visual_range.start, visual_range.stop
    else:
        start, stop = visual_range
    if not 0 <= start <= stop <= n_rows:
        raise ShapeError(f"visual range [{start}, {stop}) outside sequence of {n_rows} rows")
    return int(start), int(stop)


def _merge(hidden, guidance, visual_range, config: CompressionConfig, m: int):
    start, stop = _range_bounds(visual_range, hidden.shape[0])
    n_visual = stop - start
    if m > n_visual:
        raise ParameterError(f"merge source count {m} exceeds {n_visual} visual tokens")

    # one float64 upcast and one pass of squared norms serve scoring and merging
    visual = hidden[start:stop].astype(np.float64)
    sq = sq_norms(visual)
    source = top_m(_relevance(visual, sq, guidance, config.aggregation), m)
    rest = np.setdiff1d(np.arange(n_visual, dtype=np.int64), source, assume_unique=True)
    merged, absorbed = _fold(visual[source], sq[source], visual[rest], sq[rest], config.merge.mode)
    report = MergeReport(source + start, absorbed, n_visual, m)
    return np.vstack([hidden[:start], merged, hidden[stop:]]), report


def merge_stage(hidden, guidance, visual_range, config: CompressionConfig):
    """Stage two: replace the visual rows of ``hidden`` by m merged sources.

    ``visual_range`` is the contiguous (start, stop) row span holding visual
    tokens; rows outside it pass through untouched. Returns the shortened
    sequence and the MergeReport (source positions are absolute row indices
    of the input sequence). An m larger than the span raises ParameterError.
    """
    hidden = token_matrix(hidden, name="hidden")
    guidance = token_matrix(guidance, name="guidance")
    return _merge(hidden, guidance, visual_range, config, config.merge.m)


def run_pipeline(e_img, e_lang, guidance, grid: PatchGrid, config: CompressionConfig) -> PipelineResult:
    """Both stages end to end, with an identity backbone in between.

    The mid-layer sequence is [kept visual tokens, language tokens, guidance
    tokens]; only the visual span is merged, to min(kept, m) sources, so a
    scene that keeps fewer than m tokens passes through unmerged. The
    schedule holds the kept count up to merge_layer and the merged count
    from there on.
    """
    guidance = token_matrix(guidance, name="guidance")
    e_lang = token_matrix(e_lang, name="e_lang")

    t0 = time.perf_counter()
    kept, kept_idx, prune_rep = _prune(token_matrix(e_img, name="e_img"), e_lang, grid, config)
    t1 = time.perf_counter()
    hidden = np.vstack([kept, e_lang, guidance])
    merged = min(prune_rep.kept, config.merge.m)
    compressed, merge_rep = _merge(hidden, guidance, (0, kept.shape[0]), config, merged)
    t2 = time.perf_counter()

    schedule = TokenSchedule.two_stage(
        kept=prune_rep.kept,
        merged=merged,
        merge_layer=config.merge_layer,
        layers=config.total_layers,
        non_visual=e_lang.shape[0] + guidance.shape[0],
    )
    report = PipelineReport(
        keep_size=prune_rep.kept,
        pruned=prune_rep.pruned,
        merged_away=merge_rep.tokens_before - merge_rep.tokens_after,
        schedule=schedule,
        timings_ms={"prune": (t1 - t0) * 1e3, "merge": (t2 - t1) * 1e3},
    )
    return PipelineResult(report, prune_rep, merge_rep, kept_idx, kept, compressed)
