"""Output checks, computed apart from the program under test.

Every check returns a list of error strings; an empty list means the output
holds. The expected values come from the naive rule-by-rule evaluators in
``tests/oracles.py`` (argmax cosine with ties to the lower index, the
rule-by-rule expansion, floor-stride context, the step-by-step merge, the
term-by-term FLOPs count) or from properties the method must have (merged
rows inside the hull of their inputs, absorbed weights summing to the target
count, token accounting). Nothing is compared against a stored copy of an
earlier output.
"""

from __future__ import annotations

import struct

import numpy as np

import oracles
from tokpress.core import RngState

MERGE_TOL = 1e-5  # the acceptance suite's merge tolerance
WEIGHT_TOL = 1e-4


def cosine(a, b) -> np.ndarray:
    """float64 cosine matrix from explicit row norms; zero rows score 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.sqrt((a * a).sum(axis=1))
    nb = np.sqrt((b * b).sum(axis=1))
    na[na == 0.0] = np.inf
    nb[nb == 0.0] = np.inf
    return (a @ b.T) / np.outer(na, nb)


def oracle_keep(load, config) -> tuple[set, np.ndarray, int]:
    """Independent anchors, keep set and sparse-flip count of one scene.

    Anchors are each language token's argmax cosine cell (``np.argmax`` takes
    the lower index on ties), then the rule-by-rule expansion, then the union
    with the floor-stride context.
    """
    grid = load.grid
    anchors = set(np.argmax(cosine(load.e_lang, load.e_img), axis=1).tolist())
    bits = np.zeros(grid.total, dtype=bool)
    bits[sorted(anchors)] = True
    bits = bits.reshape(grid.shape)
    k, tau = config.expand.kernel_size, config.expand.threshold
    expanded = oracles.expand_bits(bits, k, tau, RngState(config.seed))
    flips = int(expanded.sum()) - int(oracles.dense_region(bits, k, tau).sum())
    keep = set(np.flatnonzero(expanded).tolist())
    keep |= set(oracles.stride_indices(grid.total, config.context_fraction))
    return anchors, np.array(sorted(keep), dtype=np.int64), flips


def keep_errors(load, config, kept_indices, *, need_flips: bool = False) -> list[str]:
    """Anchors equal the planted ones inside the truth mask; the keep set equals the oracle's."""
    errors = []
    anchors, want, flips = oracle_keep(load, config)
    planted = {int(i) for i in load.anchor_cells}
    if anchors != planted:
        errors.append(f"anchors {sorted(anchors)} != planted {sorted(planted)}")
    truth = load.truth.bits.reshape(-1)
    if not all(truth[i] for i in planted):
        errors.append("a planted anchor lies outside the truth mask")
    if not np.array_equal(np.asarray(kept_indices), want):
        errors.append(f"keep set of {len(kept_indices)} differs from the oracle's {want.size}")
    if need_flips and flips == 0:
        errors.append("no sparse flip fired on this scene")
    return errors


def merge_errors(visual, guidance, config, merged, source_indices, absorbed_weight) -> list[str]:
    """Sources are the top-m by max cosine; merged rows match the step oracle and stay in the hull."""
    visual = np.asarray(visual, dtype=np.float32)
    m = config.merge.m
    scores = cosine(visual, guidance).max(axis=1).astype(np.float32)
    src = oracles.top_m_indices(scores, m)
    if [int(i) for i in source_indices] != src:
        return ["merge sources differ from the oracle's top-m"]
    rest = sorted(set(range(visual.shape[0])) - set(src))
    sources, targets = visual[src], visual[rest]
    want, _, _ = oracles.merge_steps(sources, targets, mode=config.merge.mode)
    merged = np.asarray(merged)
    errors = []
    if merged.shape != want.shape:
        return [f"merged shape {merged.shape} != {want.shape}"]
    gap = float(np.max(np.abs(merged.astype(np.float64) - want)))
    if gap > MERGE_TOL:
        errors.append(f"merged rows differ from the step oracle by {gap:.3g}")
    if targets.shape[0]:
        lo = np.minimum(sources, targets.min(axis=0))
        hi = np.maximum(sources, targets.max(axis=0))
        if not (np.all(merged >= lo) and np.all(merged <= hi)):
            errors.append("a merged coordinate leaves the hull of its source and the targets")
    if abs(float(np.sum(absorbed_weight)) - len(rest)) > WEIGHT_TOL:
        errors.append(f"absorbed weights sum to {float(np.sum(absorbed_weight))}, not {len(rest)}")
    return errors


def flops_ratio(kept: int, config, total: int, non_visual: int, hidden_dim: int, ff_dim: int) -> float:
    """Two-stage schedule against the flat one, summed term by term."""
    layers, at = config.total_layers, config.merge_layer
    visual = [kept] * at + [config.merge.m] * (layers - at)
    cand = sum(oracles.layer_flops_terms(n + non_visual, hidden_dim, ff_dim) for n in visual)
    base = layers * oracles.layer_flops_terms(total + non_visual, hidden_dim, ff_dim)
    return cand / base


def pipeline_errors(load, config, result, *, need_flips: bool = False) -> list[str]:
    """Keep set, merge and accounting of one ``run_pipeline`` result (identity backbone)."""
    grid, m = load.grid, config.merge.m
    non_visual = np.vstack([load.e_lang, load.guidance])
    errors = keep_errors(load, config, result.kept_indices, need_flips=need_flips)
    errors += merge_errors(
        load.e_img[result.kept_indices],
        load.guidance,
        config,
        result.compressed[:m],
        result.merge.source_indices,
        result.merge.absorbed_weight,
    )
    if result.prune.kept + result.prune.pruned != grid.total:
        errors.append("kept + pruned != total")
    if int(result.report.schedule.visual_counts[-1]) != m:
        errors.append(f"final visual count {result.report.schedule.visual_counts[-1]} != m = {m}")
    if result.compressed.shape[0] != m + non_visual.shape[0]:
        errors.append(f"{result.compressed.shape[0]} output rows, want m + {non_visual.shape[0]}")
    elif result.compressed[m:].tobytes() != non_visual.astype(np.float32).tobytes():
        errors.append("non-visual rows did not pass through unchanged")
    return errors


def decode_tkb(blob: bytes) -> tuple[int, int, bytes]:
    """Rows, columns and payload of a ``.tkb`` container, parsed from its spec."""
    magic, rows, cols = struct.unpack_from("<4sII", blob)
    if magic != b"TKB1" or len(blob) != 12 + 4 * rows * cols:
        raise ValueError("not a well-formed TKB1 container")
    return rows, cols, blob[12:]


def cli_errors(load, config, report: str, tkb: bytes, result) -> list[str]:
    """The CLI report and ``.tkb`` output against ``result``, a ``run_pipeline`` on the same inputs."""
    errors = pipeline_errors(load, config, result)
    fields = dict(line.partition("=")[::2] for line in report.splitlines())
    kept = result.kept_indices  # checked against the oracle above
    non_visual = load.e_lang.shape[0] + load.guidance.shape[0]
    want = {
        "kept": str(kept.size),
        "final_visual": str(config.merge.m),
        "sequence_out": str(config.merge.m + non_visual),
    }
    for key, value in want.items():
        if fields.get(key) != value:
            errors.append(f"report {key}={fields.get(key)}, want {value}")
    ratio = flops_ratio(kept.size, config, load.grid.total, non_visual, 4096, 11008)
    if float(fields.get("flops_ratio", "nan")) != ratio:
        errors.append(f"report flops_ratio={fields.get('flops_ratio')}, term-by-term {ratio!r}")
    try:
        rows, cols, payload = decode_tkb(tkb)
    except (ValueError, struct.error) as exc:
        return errors + [f".tkb output: {exc}"]
    if (rows, cols) != result.compressed.shape or payload != result.compressed.astype("<f4").tobytes():
        errors.append(".tkb output differs from run_pipeline on the same inputs")
    return errors


def step_errors(load, config, step, spec) -> list[str]:
    """One compressed action step: keep set, merge on mid-layer activations, schedule, finite state."""
    m, n_guid = config.merge.m, load.guidance.shape[0]
    non_visual = load.e_lang.shape[0] + n_guid
    errors = keep_errors(load, config, step.kept_indices)
    n_kept = len(step.kept_indices)
    errors += merge_errors(
        step.mid[:n_kept],
        step.mid[-n_guid:],
        config,
        step.merged[:m],
        step.merge_report.source_indices,
        step.merge_report.absorbed_weight,
    )
    if step.prune.kept + step.prune.pruned != load.grid.total:
        errors.append("kept + pruned != total")
    if step.merged.shape[0] != m + non_visual:
        errors.append(f"{step.merged.shape[0]} rows leave the merge, want m + {non_visual}")
    at, layers = config.merge_layer, config.total_layers
    schedule = [n_kept + non_visual] * at + [m + non_visual] * (layers - at)
    if step.rows != schedule:
        errors.append(f"per-layer token counts {step.rows} != schedule {schedule}")
    if not np.isfinite(step.final).all():
        errors.append("final hidden state is not finite")
    ratio = flops_ratio(n_kept, config, load.grid.total, non_visual, spec.hidden_dim, spec.ff_dim)
    if step.flops_ratio != ratio:
        errors.append(f"relative_flops {step.flops_ratio!r} != term-by-term {ratio!r}")
    return errors


def full_step_errors(load, final, rows, layers: int) -> list[str]:
    """An uncompressed step: every layer sees the whole sequence and the state stays finite."""
    n = load.grid.total + load.e_lang.shape[0] + load.guidance.shape[0]
    errors = [] if rows == [n] * layers else [f"uncompressed per-layer counts {rows} != {n}"]
    if not np.isfinite(final).all():
        errors.append("uncompressed final hidden state is not finite")
    return errors
