"""Command line front end.

Subcommands mirror the library stages: ``prune`` and ``merge`` run one stage
each over token container files, ``pipeline`` runs both, ``cost`` compares
schedules under the FLOPs model, ``gen`` writes a synthetic workload,
``viz`` exports stage-one masks as PGM images, and ``bench`` times a stage.

Reports are line-oriented ``key=value`` text on stdout (optionally mirrored
to a file and/or JSON, where a key that repeats maps to the list of its
values). All randomness is governed by the seed in the config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from .core import BinaryMask, ParameterError, PatchGrid, RngState, _check_integer
from .costmodel import DEFAULT_BACKBONE, BackboneSpec, TokenSchedule, relative_flops, schedule_flops
from .expand import ExpandParams, expand_mask
from .merge import MergeParams
from .pipeline import CompressionConfig, merge_stage, prune_stage, run_pipeline
from .similarity import anchor_mask
from .tokenfile import _overwrite, export_mask_pgm, read_tokens, write_tokens
from .workload import Workload, WorkloadSpec, generate_workload

# JSON key -> (CompressionConfig group or None for a top-level field, field)
CONFIG_KEYS = {
    "kernel_size": ("expand", "kernel_size"),
    "tau": ("expand", "threshold"),
    "context_fraction": (None, "context_fraction"),
    "top_m": ("merge", "m"),
    "merge_mode": ("merge", "mode"),
    "merge_layer": (None, "merge_layer"),
    "total_layers": (None, "total_layers"),
    "seed": (None, "seed"),
}
_KEY_OF = {name: key for key, (_, name) in CONFIG_KEYS.items()}

def load_config(path=None) -> CompressionConfig:
    """Build a CompressionConfig from a JSON file; missing keys take its defaults.

    Unknown keys are rejected so typos fail loudly; type and range checks
    are the dataclasses' own, and their errors name the JSON key. The
    result depends on the file alone.
    """
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParameterError(f"{path}: not a JSON config: {exc}") from None
        if not isinstance(raw, dict):
            raise ParameterError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
    fields = {None: {}, "expand": {}, "merge": {}}
    for key, value in raw.items():
        group, name = CONFIG_KEYS[key]
        fields[group][name] = value
    try:
        return CompressionConfig(
            expand=ExpandParams(**fields["expand"]), merge=MergeParams(**fields["merge"]), **fields[None]
        )
    except ParameterError as exc:
        # each check's message starts with the field it names, and fields map 1:1 onto keys
        raise ParameterError(f"config key {_KEY_OF[str(exc).split()[0]]}: {exc}") from None


def _ints(pattern: str, text: str, what: str, form: str) -> list[int]:
    """``int()`` of each group ``pattern`` matched over the whole of ``text``, skipping groups that took
    no part; a ParameterError ``bad <what> <text>, expected <form>`` if it does not match or an int fails."""
    match = re.fullmatch(pattern, text, re.DOTALL)
    try:
        if match:
            return [int(group) for group in match.groups() if group is not None]
    except ValueError:
        pass
    raise ParameterError(f"bad {what} {text!r}, expected {form}")


def parse_grid(text: str) -> PatchGrid:
    """``VxHxW`` (or ``HxW`` for a single view) into a PatchGrid."""
    dims = _ints(r"(?:([^xX]*)[xX])?([^xX]*)[xX]([^xX]*)", text, "grid", "VxHxW")
    return PatchGrid(*dims) if len(dims) == 3 else PatchGrid(1, *dims)


def parse_schedule(text: str, layers: int, non_visual: int) -> TokenSchedule:
    """``flat:N`` or ``step:KEPT,MERGED@LAYER`` into a TokenSchedule."""
    form = "flat:N or step:KEPT,MERGED@LAYER"
    counts = _ints(r"flat:(.*)|step:([^,@]*),([^,@]*)@(.*)", text, "schedule", form)
    make = TokenSchedule.flat if len(counts) == 1 else TokenSchedule.two_stage
    try:
        return make(*counts, layers, non_visual)
    except ParameterError as exc:  # TokenSchedule's check names the count out of range, this the text
        raise ParameterError(f"schedule {text!r}: {exc}") from None


def _parse_span(text: str) -> tuple[int, int]:
    """``START:STOP`` into a row span; the range itself is checked by ``merge_stage``."""
    return tuple(_ints(r"([^:]*):(.*)", text, "visual span", "START:STOP"))


def _emit(lines, report_path=None, json_path=None) -> None:
    # the report and JSON files are UTF-8 whatever the locale
    text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)
    if report_path:
        _overwrite(report_path, text.encode("utf-8"))
    if json_path:
        grouped = {}
        for line in lines:
            key, _, value = line.partition("=")
            grouped.setdefault(key, []).append(value)
        payload = {k: v[0] if len(v) == 1 else v for k, v in grouped.items()}
        _overwrite(json_path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _mask_files(mask, out_prefix: str) -> list[str]:
    # one PGM per view; single-view masks get the bare prefix
    prefix = Path(out_prefix)
    if prefix.suffix == ".pgm":
        prefix = prefix.with_suffix("")
    written = []
    single = PatchGrid(1, mask.grid.height, mask.grid.width)
    for v in range(mask.grid.views):
        path = f"{prefix}.pgm" if mask.grid.views == 1 else f"{prefix}_v{v}.pgm"
        export_mask_pgm(BinaryMask(single, mask.bits[v : v + 1]), path)
        written.append(path)
    return written


def _stage_one_lines(stage: str, grid: PatchGrid, config: CompressionConfig, rep) -> list[str]:
    # the report lines prune and pipeline share, from stage one's PruneReport
    head = [f"stage={stage}", f"grid={grid.views}x{grid.height}x{grid.width}", f"seed={config.seed}"]
    return head + [f"{f.name}={getattr(rep, f.name)}" for f in dataclasses.fields(rep)]


def _scene(args):
    # (config, grid, e_img, e_lang) from the --config, --grid, --tokens and --lang arguments
    return load_config(args.config), parse_grid(args.grid), read_tokens(args.tokens), read_tokens(args.lang)


def _cmd_prune(args) -> list[str]:
    config, grid, e_img, e_lang = _scene(args)
    kept, kept_idx, rep = prune_stage(e_img, e_lang, grid, config)
    if args.out:
        write_tokens(kept, args.out)
    return _stage_one_lines("prune", grid, config, rep) + [
        f"kept_indices={','.join(str(i) for i in kept_idx)}"
    ]


def _cmd_merge(args) -> list[str]:
    config = load_config(args.config)
    hidden = read_tokens(args.tokens)
    guidance = read_tokens(args.guidance)
    span = (0, hidden.shape[0]) if args.visual is None else _parse_span(args.visual)
    compressed, rep = merge_stage(hidden, guidance, span, config)
    if args.out:
        write_tokens(compressed, args.out)
    return [
        "stage=merge",
        f"seed={config.seed}",
        f"visual={span[0]}:{span[1]}",
        f"tokens_before={rep.tokens_before}",
        f"tokens_after={rep.tokens_after}",
        f"absorbed={rep.tokens_before - rep.tokens_after}",
        f"weight_total={rep.absorbed_weight.sum():.6f}",
        f"sources={','.join(str(i) for i in rep.source_indices)}",
    ]


def _cmd_pipeline(args) -> list[str]:
    config, grid, e_img, e_lang = _scene(args)
    guidance = read_tokens(args.guidance) if args.guidance else e_lang
    result = run_pipeline(e_img, e_lang, guidance, grid, config)
    if args.out:
        write_tokens(result.compressed, args.out)

    rep, schedule = result.report, result.report.schedule
    final = int(schedule.visual_counts[-1])
    baseline = TokenSchedule.flat(grid.total, config.total_layers, schedule.non_visual)
    ratio = relative_flops(schedule, baseline, BackboneSpec(layers=config.total_layers))
    lines = _stage_one_lines("pipeline", grid, config, result.prune) + [
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
    return lines


def _cmd_cost(args) -> list[str]:
    _check_integer(args.non_visual, "--non-visual", 0)  # before the schedules, whose errors name their text
    spec = BackboneSpec(layers=args.layers, hidden_dim=args.hidden_dim, ff_dim=args.ff_dim)
    baseline = parse_schedule(args.baseline, args.layers, args.non_visual)
    candidate = parse_schedule(args.candidate, args.layers, args.non_visual)
    return [
        f"baseline_flops={schedule_flops(baseline, spec)}",
        f"candidate_flops={schedule_flops(candidate, spec)}",
        f"ratio={relative_flops(candidate, baseline, spec)!r}",
    ]


def _cmd_gen(args) -> list[str]:
    spec = WorkloadSpec(grid=parse_grid(args.grid), seed=args.seed)
    load = generate_workload(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {out / "img.tkb": load.e_img, out / "lang.tkb": load.e_lang, out / "guidance.tkb": load.guidance}
    for path, matrix in files.items():
        write_tokens(matrix, path)
    paths = [*files, *_mask_files(load.truth, str(out / "truth"))]
    return [
        "stage=gen",
        f"grid={spec.grid.views}x{spec.grid.height}x{spec.grid.width}",
        f"seed={spec.seed}",
        f"foreground_cells={load.truth.count()}",
        f"anchors={load.anchor_cells.size}",
    ] + [f"wrote={p}" for p in paths]


def _cmd_viz(args) -> list[str]:
    config, grid, e_img, e_lang = _scene(args)
    mask = anchor_mask(e_lang, e_img, grid)
    if args.mask_stage == "expand":
        mask = expand_mask(mask, config.expand, RngState(config.seed))
    paths = _mask_files(mask, args.out)
    lines = ["stage=viz", f"mask_stage={args.mask_stage}", f"bits={mask.count()}"]
    lines += [f"wrote={p}" for p in paths]
    return lines


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
    return lambda: run_pipeline(load.e_img, load.e_lang, load.guidance, grid, config)  # --stage's last choice


def _cmd_bench(args) -> list[str]:
    _check_integer(args.reps, "reps", 1)
    config = load_config(args.config)
    load = generate_workload(WorkloadSpec(grid=parse_grid(args.grid)))
    target = _bench_target(args.stage, load, config)
    for _ in range(min(10, args.reps)):
        target()  # warm caches and allocator before measuring
    samples = np.empty(args.reps, dtype=np.float64)
    for i in range(args.reps):
        t0 = time.perf_counter()
        target()
        samples[i] = time.perf_counter() - t0
    samples *= 1e3
    return [
        f"stage={args.stage}",
        f"reps={args.reps}",
        f"mean_ms={samples.mean():.4f}",
        f"p50_ms={np.percentile(samples, 50):.4f}",
        f"p95_ms={np.percentile(samples, 95):.4f}",
    ]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call and reused: construction costs more than
    # a small pipeline run, while parse_args returns a fresh Namespace per call
    parser = argparse.ArgumentParser(prog="tokpress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    mirrors = argparse.ArgumentParser(add_help=False)
    mirrors.add_argument("--report", help="also write the report text to this file")
    mirrors.add_argument("--json", help="also write the report as JSON to this file")
    scene = argparse.ArgumentParser(add_help=False)  # the arguments _scene reads
    scene.add_argument("--tokens", required=True, help="visual token container")
    scene.add_argument("--lang", required=True, help="language token container")
    scene.add_argument("--grid", required=True, help="patch grid VxHxW")
    scene.add_argument("--config", help="JSON config file")

    p = sub.add_parser(
        "prune", parents=[scene, mirrors], help="stage one: keep anchored, expanded, and context tokens"
    )
    p.add_argument("--out", help="write kept tokens here")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("merge", parents=[mirrors], help="stage two: fold visual tokens into top-m sources")
    p.add_argument("--tokens", required=True, help="sequence token container")
    p.add_argument("--guidance", required=True, help="guidance token container")
    p.add_argument("--visual", help="visual row span START:STOP (default: whole sequence)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="write merged sequence here")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("pipeline", parents=[scene, mirrors], help="both stages end to end")
    p.add_argument("--guidance", help="defaults to the language tokens")
    p.add_argument("--out", help="write compressed sequence here")
    p.add_argument("--no-timing", action="store_true", help="omit timing lines (golden tests)")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("cost", parents=[mirrors], help="FLOPs of candidate schedule relative to baseline")
    p.add_argument("--baseline", required=True, help="flat:N or step:KEPT,MERGED@LAYER")
    p.add_argument("--candidate", required=True, help="flat:N or step:KEPT,MERGED@LAYER")
    p.add_argument("--layers", type=int, default=DEFAULT_BACKBONE.layers)
    p.add_argument("--non-visual", type=int, default=0)
    p.add_argument("--hidden-dim", type=int, default=DEFAULT_BACKBONE.hidden_dim)
    p.add_argument("--ff-dim", type=int, default=DEFAULT_BACKBONE.ff_dim)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("gen", parents=[mirrors], help="write a synthetic planted-foreground workload")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--grid", default="2x16x16")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("viz", parents=[scene, mirrors], help="export the stage-one mask as PGM images")
    p.add_argument("--out", required=True, help="output path or prefix")
    p.add_argument("--mask-stage", choices=("anchor", "expand"), default="expand")
    p.set_defaults(func=_cmd_viz)

    p = sub.add_parser("bench", parents=[mirrors], help="time one stage over repeated calls")
    p.add_argument("--stage", required=True, choices=("expand", "prune", "merge", "pipeline"))
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--grid", default="2x16x16")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _emit(args.func(args), args.report, args.json)
    except (ValueError, IndexError, OSError) as exc:
        # ValueError covers shape/parameter/decode errors and bad JSON;
        # IndexError covers grid range errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
