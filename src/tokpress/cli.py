"""Command line front end.

Subcommands mirror the library stages: ``prune`` and ``merge`` run one stage
each over token container files, ``pipeline`` runs both, ``cost`` compares
schedules under the FLOPs model, ``gen`` writes a synthetic workload,
``viz`` exports stage-one masks as PGM images, and ``bench`` times a stage.

Reports are line-oriented ``key=value`` text on stdout (optionally mirrored
to a file and/or JSON). All randomness is governed by the config seed; the
environment variable TEAMC_SEED, when set, overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .core import BinaryMask, ParameterError, PatchGrid, RngState
from .costmodel import BackboneSpec, TokenSchedule, relative_flops, schedule_flops
from .expand import ExpandParams, expand_mask
from .merge import MergeParams
from .pipeline import CompressionConfig, merge_stage, prune_stage, run_pipeline
from .similarity import anchor_mask
from .tokenfile import export_mask_pgm, read_tokens, write_tokens
from .workload import Workload, WorkloadSpec, generate_workload

# JSON key -> (CompressionConfig group or None for a top-level field, field, JSON type)
CONFIG_KEYS = {
    "kernel_size": ("expand", "kernel_size", "integer"),
    "tau": ("expand", "threshold", "integer"),
    "context_fraction": (None, "context_fraction", "number"),
    "top_m": ("merge", "m", "integer"),
    "merge_mode": ("merge", "mode", "string"),
    "merge_layer": (None, "merge_layer", "integer"),
    "total_layers": (None, "total_layers", "integer"),
    "seed": (None, "seed", "integer"),
    "aggregation": (None, "aggregation", "string"),
    "per_view_anchors": (None, "per_view_anchors", "boolean"),
}
_JSON_TYPES = {"integer": int, "number": (int, float), "string": str, "boolean": bool}

SEED_ENV = "TEAMC_SEED"


def load_config(path=None) -> CompressionConfig:
    """Build a CompressionConfig from a JSON file; missing keys take its defaults.

    Unknown keys and values of the wrong JSON type are rejected so typos
    fail loudly; range checks are the dataclasses' own. TEAMC_SEED in the
    environment beats the file's seed.
    """
    raw = {}
    if path is not None:
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ParameterError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(unknown)}")

    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            raw["seed"] = int(env_seed)
        except ValueError:
            raise ParameterError(f"{SEED_ENV} must be an integer, got {env_seed!r}") from None
    fields = {None: {}, "expand": {}, "merge": {}}
    for key, value in raw.items():
        group, name, kind = CONFIG_KEYS[key]
        # bool is a subclass of int in Python, but JSON true/false is no number
        if not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool) != (kind == "boolean"):
            raise ParameterError(f"config key {key} must be a JSON {kind}, got {value!r}")
        fields[group][name] = value
    return CompressionConfig(
        expand=ExpandParams(**fields["expand"]), merge=MergeParams(**fields["merge"]), **fields[None]
    )


def parse_grid(text: str) -> PatchGrid:
    """``VxHxW`` (or ``HxW`` for a single view) into a PatchGrid."""
    parts = text.lower().split("x")
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise ParameterError(f"bad grid {text!r}, expected VxHxW") from None
    if len(dims) == 2:
        dims = [1] + dims
    if len(dims) != 3:
        raise ParameterError(f"bad grid {text!r}, expected VxHxW")
    return PatchGrid(*dims)


def parse_schedule(text: str, layers: int, non_visual: int) -> TokenSchedule:
    """``flat:N`` or ``step:KEPT,MERGED@LAYER`` into a TokenSchedule."""
    kind, _, body = text.partition(":")
    try:
        if kind == "flat":
            return TokenSchedule.flat(int(body), layers, non_visual)
        if kind == "step":
            counts, _, layer = body.partition("@")
            kept, merged = counts.split(",")
            return TokenSchedule.two_stage(int(kept), int(merged), int(layer), layers, non_visual)
    except ValueError:
        pass
    raise ParameterError(f"bad schedule {text!r}, expected flat:N or step:KEPT,MERGED@LAYER")


def _emit(lines, report_path=None, json_path=None) -> None:
    text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)
    if report_path:
        Path(report_path).write_text(text)
    if json_path:
        payload = {}
        for line in lines:
            key, _, value = line.partition("=")
            payload[key] = value
        Path(json_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _mask_files(mask, out_prefix: str) -> list[str]:
    # one PGM per view; single-view masks get the bare prefix
    prefix = Path(out_prefix)
    if prefix.suffix == ".pgm":
        prefix = prefix.with_suffix("")
    written = []
    single = PatchGrid(1, mask.grid.height, mask.grid.width)
    for v in range(mask.grid.views):
        path = f"{prefix}.pgm" if mask.grid.views == 1 else f"{prefix}_v{v}.pgm"
        export_mask_pgm(BinaryMask(single, mask.view(v)[None, :, :]), path)
        written.append(path)
    return written


def _cmd_prune(args) -> int:
    config = load_config(args.config)
    grid = parse_grid(args.grid)
    e_img = read_tokens(args.tokens)
    e_lang = read_tokens(args.lang)
    kept, kept_idx, rep = prune_stage(e_img, e_lang, grid, config)
    if args.out:
        write_tokens(kept, args.out)
    lines = [
        "stage=prune",
        f"grid={grid.views}x{grid.height}x{grid.width}",
        f"seed={config.seed}",
        f"anchors={rep.anchors}",
        f"expanded={rep.expanded}",
        f"context={rep.context}",
        f"kept={rep.kept}",
        f"pruned={rep.pruned}",
        f"kept_indices={','.join(str(i) for i in kept_idx)}",
    ]
    _emit(lines, args.report, args.json)
    return 0


def _cmd_merge(args) -> int:
    config = load_config(args.config)
    hidden = read_tokens(args.tokens)
    guidance = read_tokens(args.guidance)
    if args.visual:
        start_s, _, stop_s = args.visual.partition(":")
        span = (int(start_s), int(stop_s))
    else:
        span = (0, hidden.shape[0])
    compressed, rep = merge_stage(hidden, guidance, span, config)
    if args.out:
        write_tokens(compressed, args.out)
    lines = [
        "stage=merge",
        f"seed={config.seed}",
        f"visual={span[0]}:{span[1]}",
        f"tokens_before={rep.tokens_before}",
        f"tokens_after={rep.tokens_after}",
        f"absorbed={rep.tokens_before - rep.tokens_after}",
        f"weight_total={float(rep.absorbed_weight.sum())!r}",
        f"sources={','.join(str(i) for i in rep.source_indices)}",
    ]
    _emit(lines, args.report, args.json)
    return 0


def _cmd_pipeline(args) -> int:
    config = load_config(args.config)
    grid = parse_grid(args.grid)
    e_img = read_tokens(args.tokens)
    e_lang = read_tokens(args.lang)
    guidance = read_tokens(args.guidance) if args.guidance else e_lang
    result = run_pipeline(e_img, e_lang, guidance, grid, config)
    if args.out:
        write_tokens(result.compressed, args.out)

    rep, schedule = result.report, result.report.schedule
    final = int(schedule.visual_counts[-1])
    baseline = TokenSchedule.flat(grid.total, config.total_layers, schedule.non_visual)
    ratio = relative_flops(schedule, baseline, BackboneSpec(layers=config.total_layers))
    lines = [
        "stage=pipeline",
        f"grid={grid.views}x{grid.height}x{grid.width}",
        f"seed={config.seed}",
        f"anchors={result.prune.anchors}",
        f"expanded={result.prune.expanded}",
        f"context={result.prune.context}",
        f"kept={rep.keep_size}",
        f"pruned={rep.pruned}",
        f"merged_away={rep.merged_away}",
        f"final_visual={final}",
        f"sequence_out={result.compressed.shape[0]}",
        f"schedule={rep.keep_size}until{config.merge_layer}then{final}of{config.total_layers}",
        f"non_visual={schedule.non_visual}",
        f"flops_ratio={ratio!r}",
    ]
    if not args.no_timing:
        for stage, ms in rep.timings_ms.items():
            lines.append(f"time_{stage}_ms={ms:.3f}")
    _emit(lines, args.report, args.json)
    return 0


def _cmd_cost(args) -> int:
    spec = BackboneSpec(
        layers=args.layers, hidden_dim=args.hidden_dim, ff_dim=args.ff_dim, heads=args.heads
    )
    baseline = parse_schedule(args.baseline, args.layers, args.non_visual)
    candidate = parse_schedule(args.candidate, args.layers, args.non_visual)
    lines = [
        f"baseline_flops={schedule_flops(baseline, spec)}",
        f"candidate_flops={schedule_flops(candidate, spec)}",
        f"ratio={relative_flops(candidate, baseline, spec)!r}",
    ]
    _emit(lines, args.report, args.json)
    return 0


def _cmd_gen(args) -> int:
    spec = WorkloadSpec(
        grid=parse_grid(args.grid),
        blocks=args.blocks,
        block_size=(args.block_min, args.block_max),
        embed_dim=args.dim,
        margin=args.margin,
        anchor_fraction=args.anchor_fraction,
        seed=args.seed,
    )
    load = generate_workload(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_tokens(load.e_img, out / "img.tkb")
    write_tokens(load.e_lang, out / "lang.tkb")
    write_tokens(load.guidance, out / "guidance.tkb")
    mask_paths = _mask_files(load.truth, str(out / "truth"))
    lines = [
        "stage=gen",
        f"grid={spec.grid.views}x{spec.grid.height}x{spec.grid.width}",
        f"seed={spec.seed}",
        f"foreground_cells={load.truth.count()}",
        f"anchors={load.anchor_cells.size}",
        f"wrote={out / 'img.tkb'}",
        f"wrote={out / 'lang.tkb'}",
        f"wrote={out / 'guidance.tkb'}",
    ]
    lines += [f"wrote={p}" for p in mask_paths]
    _emit(lines, args.report, args.json)
    return 0


def _cmd_viz(args) -> int:
    config = load_config(args.config)
    grid = parse_grid(args.grid)
    e_img = read_tokens(args.tokens)
    e_lang = read_tokens(args.lang)
    mask = anchor_mask(e_lang, e_img, grid, per_view=config.per_view_anchors)
    if args.mask_stage == "expand":
        mask = expand_mask(mask, config.expand, RngState(config.seed))
    paths = _mask_files(mask, args.out)
    lines = ["stage=viz", f"mask_stage={args.mask_stage}", f"bits={mask.count()}"]
    lines += [f"wrote={p}" for p in paths]
    _emit(lines, args.report, args.json)
    return 0


def _bench_target(stage: str, load: Workload, config: CompressionConfig):
    grid = load.grid
    if stage == "expand":
        mask = anchor_mask(load.e_lang, load.e_img, grid)
        rng = RngState(config.seed)
        return lambda: expand_mask(mask, config.expand, rng)
    if stage == "prune":
        return lambda: prune_stage(load.e_img, load.e_lang, grid, config)
    if stage == "merge":
        kept, _, _ = prune_stage(load.e_img, load.e_lang, grid, config)
        hidden = np.vstack([kept, load.e_lang, load.guidance])
        span = (0, kept.shape[0])
        return lambda: merge_stage(hidden, load.guidance, span, config)
    if stage == "pipeline":
        return lambda: run_pipeline(load.e_img, load.e_lang, load.guidance, grid, config)
    raise ParameterError(f"unknown bench stage {stage!r}")


def _cmd_bench(args) -> int:
    if args.reps < 1:
        raise ParameterError("bench needs at least one repetition")
    config = load_config(args.config)
    load = generate_workload(WorkloadSpec(grid=parse_grid(args.grid), seed=args.workload_seed))
    target = _bench_target(args.stage, load, config)
    for _ in range(min(10, args.reps)):
        target()  # warm caches and allocator before measuring
    samples = np.empty(args.reps, dtype=np.float64)
    for i in range(args.reps):
        t0 = time.perf_counter()
        target()
        samples[i] = time.perf_counter() - t0
    samples *= 1e3
    lines = [
        f"stage={args.stage}",
        f"reps={args.reps}",
        f"mean_ms={samples.mean():.4f}",
        f"p50_ms={np.percentile(samples, 50):.4f}",
        f"p95_ms={np.percentile(samples, 95):.4f}",
    ]
    _emit(lines, args.report, args.json)
    return 0


def _add_report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", help="also write the report text to this file")
    p.add_argument("--json", help="also write the report as JSON to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tokpress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune", help="stage one: keep anchored, expanded, and context tokens")
    p.add_argument("--tokens", required=True, help="visual token container")
    p.add_argument("--lang", required=True, help="language token container")
    p.add_argument("--grid", required=True, help="patch grid VxHxW")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="write kept tokens here")
    _add_report_args(p)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("merge", help="stage two: fold visual tokens into top-m sources")
    p.add_argument("--tokens", required=True, help="sequence token container")
    p.add_argument("--guidance", required=True, help="guidance token container")
    p.add_argument("--visual", help="visual row span START:STOP (default: whole sequence)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="write merged sequence here")
    _add_report_args(p)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("pipeline", help="both stages end to end")
    p.add_argument("--tokens", required=True)
    p.add_argument("--lang", required=True)
    p.add_argument("--guidance", help="defaults to the language tokens")
    p.add_argument("--grid", required=True)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="write compressed sequence here")
    p.add_argument("--no-timing", action="store_true", help="omit timing lines (golden tests)")
    _add_report_args(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("cost", help="FLOPs of candidate schedule relative to baseline")
    p.add_argument("--baseline", required=True, help="flat:N or step:KEPT,MERGED@LAYER")
    p.add_argument("--candidate", required=True, help="flat:N or step:KEPT,MERGED@LAYER")
    p.add_argument("--layers", type=int, default=32)
    p.add_argument("--non-visual", type=int, default=0)
    p.add_argument("--hidden-dim", type=int, default=4096)
    p.add_argument("--ff-dim", type=int, default=11008)
    p.add_argument("--heads", type=int, default=32)
    _add_report_args(p)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("gen", help="write a synthetic planted-foreground workload")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--grid", default="2x16x16")
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--block-min", type=int, default=5)
    p.add_argument("--block-max", type=int, default=5)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--margin", type=float, default=0.5)
    p.add_argument("--anchor-fraction", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    _add_report_args(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("viz", help="export the stage-one mask as PGM images")
    p.add_argument("--tokens", required=True)
    p.add_argument("--lang", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True, help="output path or prefix")
    p.add_argument(
        "--mask-stage", choices=("anchor", "expand"), default="expand", dest="mask_stage"
    )
    _add_report_args(p)
    p.set_defaults(func=_cmd_viz)

    p = sub.add_parser("bench", help="time one stage over repeated calls")
    p.add_argument("--stage", required=True, choices=("expand", "prune", "merge", "pipeline"))
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--grid", default="2x16x16")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--workload-seed", type=int, default=0)
    _add_report_args(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError) as exc:
        # ValueError covers shape/parameter/decode errors and bad JSON;
        # IndexError covers grid range errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
