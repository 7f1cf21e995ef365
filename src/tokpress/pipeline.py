"""Two-stage compression pipeline over a token sequence.

Stage one runs before the backbone: language tokens vote for anchor cells,
the mask grows by density expansion, a stride context sample is unioned in,
and only the surviving visual tokens are kept. Stage two runs at a chosen
mid-layer: guidance tokens rank the remaining visual tokens, the top
min(rows, m) become merge sources, and the rest are absorbed into them.

No transformer is executed here. The backbone between the two reduction
points is modeled as identity (embeddings pass through unchanged), because
every operator contract is backbone-independent; callers with real
mid-layer activations can drive merge_stage directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import ParameterError, PatchGrid, RngState, ShapeError, _check_integer, _check_real, _tokens
from .costmodel import TokenSchedule
from .expand import ExpandParams, expand_mask
from .merge import MergeParams, MergeReport, _fold
from .sampling import _keep, context_indices
from .similarity import _anchor_mask, _relevance, _screened, _top_m


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

    def __post_init__(self) -> None:
        for name, kind in (("expand", ExpandParams), ("merge", MergeParams)):
            if not isinstance(getattr(self, name), kind):
                raise ParameterError(f"{name} must be {kind.__name__}, got {getattr(self, name)!r}")
        _check_real(self.context_fraction, "context_fraction", 0, 1)
        layers = _check_integer(self.total_layers, "total_layers", 1)
        object.__setattr__(self, "total_layers", layers)
        object.__setattr__(self, "merge_layer", _check_integer(self.merge_layer, "merge_layer", 0, layers - 1))
        object.__setattr__(self, "seed", RngState(self.seed).seed)  # the one seed check


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
    """Report plus the tensors, so callers never rerun stages; the kept rows are ``e_img[kept_indices]``."""

    report: PipelineReport
    prune: PruneReport
    merge: MergeReport
    kept_indices: np.ndarray
    compressed: np.ndarray


def _prune(e_img, e_lang, screen, grid: PatchGrid, config: CompressionConfig):
    anchors = _anchor_mask(e_img, e_lang, screen, grid)
    expanded = expand_mask(anchors, config.expand, RngState(config.seed))
    context = context_indices(grid.total, config.context_fraction)
    kept_idx = _keep(expanded, context)
    report = PruneReport(
        anchors=anchors.count(),
        expanded=expanded.count(),
        context=int(context.size),
        kept=int(kept_idx.size),
        pruned=grid.total - int(kept_idx.size),
    )
    return kept_idx, report


def prune_stage(e_img, e_lang, grid: PatchGrid, config: CompressionConfig):
    """Stage one: anchors -> expansion -> context union -> row selection.

    Returns (kept tokens, kept indices, PruneReport). Kept rows preserve
    their original relative order. Language tokens with no rows or another
    width than ``e_img`` raise ShapeError before any step runs.
    """
    e_img, e_lang, screen = _screened(e_img, e_lang)
    kept_idx, report = _prune(e_img, e_lang, screen, grid, config)
    return e_img[kept_idx], kept_idx, report


def _merge(rows, idx, guidance, config: CompressionConfig, head, tail):
    # the sequence head, rows[idx] merged to min(idx.size, m) sources, then the tail arrays, with its
    # MergeReport; sources are the top rows by relevance, reported as rows of that sequence
    h, n = head.shape[0], min(idx.size, config.merge.m)
    out = np.empty((h + n + sum(t.shape[0] for t in tail), rows.shape[1]), dtype=np.float32)
    out[:h] = head
    np.concatenate(tail, out=out[h + n :])
    scores, sq = _relevance(rows, idx, guidance)
    source = _top_m(scores, n)
    rest = np.ones(idx.size, dtype=bool)
    rest[source] = False
    absorbed = _fold(rows[idx[source]], sq[source], rows[idx[rest]], sq[rest], config.merge.mode, out[h : h + n])
    return out, MergeReport(source + h, absorbed, idx.size, n)


def _visual_span(visual_range, rows: int) -> tuple[int, int]:
    # a step-1 range or a (start, stop) pair of integers, inside the sequence
    span = visual_range
    if isinstance(span, range):  # a two-element range of another step is no span
        span = (span.start, span.stop) if span.step == 1 else ()
    try:
        start, stop = (_check_integer(i, "visual_range") for i in span)
    except (TypeError, ValueError):
        raise ParameterError(
            f"visual_range: expected a (start, stop) pair of integers, got {visual_range!r}"
        ) from None
    if start > stop:
        raise ShapeError(f"visual_range: start {start} > stop {stop}")
    if start < 0 or stop > rows:
        raise ShapeError(f"visual_range: [{start}, {stop}) outside sequence of {rows} rows")
    return start, stop


def merge_stage(hidden, guidance, visual_range, config: CompressionConfig):
    """Stage two: replace the visual rows of ``hidden`` by min(span, m) merged sources.

    ``visual_range`` is the contiguous row span holding visual tokens, a
    (start, stop) pair of integers or a step-1 ``range``; rows outside it
    pass through untouched, and a span of m rows or fewer passes through
    unmerged. Returns the shortened sequence and the MergeReport (source
    positions are absolute row indices of the input sequence). Anything
    else as ``visual_range`` raises ParameterError; a reversed span or one
    outside ``hidden``, and guidance with no rows or another width than
    ``hidden``, raise ShapeError.
    """
    hidden = _tokens(hidden, "hidden")
    guidance = _tokens(guidance, "guidance", hidden.shape[1], nonempty=True)
    start, stop = _visual_span(visual_range, hidden.shape[0])
    return _merge(hidden, np.arange(start, stop), guidance, config, hidden[:start], [hidden[stop:]])


def run_pipeline(e_img, e_lang, guidance, grid: PatchGrid, config: CompressionConfig) -> PipelineResult:
    """Both stages end to end, with an identity backbone in between.

    The mid-layer sequence is [kept visual tokens, language tokens, guidance
    tokens]; only the visual span is merged, to min(kept, m) sources, so a
    scene that keeps fewer than m tokens passes through unmerged. The
    schedule holds the kept count up to merge_layer and the merged count
    from there on. Language tokens or guidance with no rows or another width
    than ``e_img`` raise ShapeError (language first) before stage one runs.
    """
    t0 = time.perf_counter()  # stage one's time includes the scan, and so the input checks
    e_img, e_lang, screen = _screened(e_img, e_lang)
    guidance = _tokens(guidance, "guidance", e_img.shape[1], nonempty=True)
    kept_idx, prune_rep = _prune(e_img, e_lang, screen, grid, config)
    t1 = time.perf_counter()
    compressed, merge_rep = _merge(e_img, kept_idx, guidance, config, e_img[:0], [e_lang, guidance])
    t2 = time.perf_counter()

    schedule = TokenSchedule.two_stage(
        kept=prune_rep.kept,
        merged=merge_rep.tokens_after,
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
    return PipelineResult(report, prune_rep, merge_rep, kept_idx, compressed)
