"""One workload, one seed, in this process: set up, time a closed loop, check, report.

Run through ``run.py``, which starts this script in a fresh process with a
fixed environment. One caller sends each operation only after the previous
one returns. With ``--trace 1`` every other round runs with the tracer
installed; the per-layer metrics come from the traced rounds, except the
whole-step ``backbone.step_*`` figures, which come from the untraced ones,
and ``trace.overhead_ms`` is the traced minus the untraced median latency. The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "compress_ms_best": "ms",
    "compress_ms_slow_scenes": "ms",
    "scenes_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SPAN_MS = (
    "similarity.anchor_mask", "similarity.relevance_scores", "similarity.top_m",
    "expand.expand_mask", "expand.density_map",
    "sampling.context_indices", "sampling.keep_set",
    "merge.split_source_target", "merge.match_logits", "merge.match_weights", "merge.soft_bipartite_merge",
    "core.token_matrix",
    "pipeline.prune_stage", "pipeline.merge_stage",
    "tokenfile.read_tokens", "tokenfile.write_tokens",
    "costmodel.relative_flops",
)  # fmt: skip
COUNTS = {
    "similarity.upcast_bytes": "bytes",
    "expand.sparse_cells": "count",
    "expand.flipped_bits": "count",
    "expand.dilated_bits": "count",
    "sampling.context_tokens": "count",
    "merge.targets": "count",
    "merge.logit_flops": "flop",
    "core.token_matrix_calls": "count",
    "core.validated_bytes": "bytes",
    "pipeline.kept_tokens": "count",
    "pipeline.merged_away": "count",
    "tokenfile.bytes_read": "bytes",
    "tokenfile.bytes_written": "bytes",
    "cli.report_bytes": "bytes",
    "costmodel.flops_ratio": "ratio",
}
PER_LAYER = {
    **{f"{name}_ms": "ms" for name in SPAN_MS},
    "pipeline.run_pipeline_self_ms": "ms",
    "cli.main_self_ms": "ms",
    "workload.generate_workload_ms": "ms",
    **COUNTS,
    "backbone.layer_ms_kept": "ms",
    "backbone.layer_ms_merged": "ms",
    "backbone.layer_ms_full": "ms",
    "backbone.measured_over_analytic": "ratio",
    "backbone.step_ms_p50": "ms",
    "backbone.step_ms_p95": "ms",
    "backbone.step_speedup": "x",
    "trace.overhead_ms": "ms",
}


def _paths() -> None:
    # the program and its oracles come from this checkout, never from site-packages
    for need in (ROOT / "src" / "tokpress" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            sys.exit(f"perfbench: {need.relative_to(ROOT)} not found; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p95(values) -> float:
    return statistics.quantiles(values, n=20)[-1] if len(values) > 1 else _median(values)


def _best_of_scenes(best_compress, best_latency) -> dict:
    # The host's speed changes in phases of seconds (the same calls ran 1.5x
    # slower in some 1 s windows than in others, with no steal), so each
    # scene's fastest call is taken as its cost; a call cannot run faster
    # than the machine allows, and every scene runs in each round.
    done = [i for i, ms in enumerate(best_compress) if ms != float("inf")]
    if not done:
        return {"compress_ms_best": 0.0, "compress_ms_slow_scenes": 0.0, "scenes_per_s": 0.0}
    costs = sorted(best_compress[i] for i in done)
    return {
        "compress_ms_best": statistics.fmean(costs),
        "compress_ms_slow_scenes": statistics.fmean(costs[-max(1, len(costs) // 4) :]),
        "scenes_per_s": 1e3 / statistics.fmean(best_latency[i] for i in done),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.process_time()
    _paths()
    import spans
    import workloads  # numpy, scipy and tokpress: their import is part of set-up

    if args.workload not in workloads.NAMES:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    import_s = time.process_time() - t0

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    tracer = spans.Tracer() if args.trace else None
    try:
        return _run(args, workloads.make(args.workload), tracer, workdir, import_s)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, bench, tracer, workdir, import_s) -> int:
    if tracer:
        tracer.install()

    # set-up: scenes, token files, decoder weights, one warm-up call per scene;
    # the last repetition's warm-up outputs are the references every timed
    # operation must reproduce bit for bit
    setup_s = []
    for _ in range(SETUP_REPEATS):
        scenes = refs = None  # each repetition starts from nothing
        t0 = time.process_time()
        scenes = bench.setup(args.seed, workdir)
        refs = [bench.run(s).output for s in scenes]
        if bench.full_step:
            bench.run_full(scenes[0])
        setup_s.append(time.process_time() - t0)

    # each timed call starts from the same heap: garbage of earlier calls is
    # collected before it, outside the timed region, and the set-up heap is
    # frozen so those collections stay short; a call still pays for every
    # collection its own allocations trigger
    gc.collect()
    gc.freeze()

    attempted = failed = mismatched = 0
    compress, step, full, lat_plain, lat_traced = [], [], [], [], []
    # per scene, its fastest untraced call: the compressor alone, and the whole operation
    best_compress, best_latency = [float("inf")] * len(scenes), [float("inf")] * len(scenes)
    per_op, layer_samples, full_errors = [], {"kept": [], "merged": [], "full": []}, []
    merge_layer = bench.config.merge_layer

    def attempt(op_id, fn, traced):
        nonlocal attempted, failed
        attempted += 1
        gc.collect()
        if traced:
            tracer.begin(op_id)
        try:
            return fn(), (tracer.end() if traced else None)
        except Exception:
            if traced:
                tracer.end()
            if failed == 0:
                traceback.print_exc()
            failed += 1
            return None, None

    deadline = time.perf_counter() + args.seconds
    rnd = 0
    while True:
        traced = tracer is not None and rnd % 2 == 0
        if tracer:
            (tracer.install if traced else tracer.uninstall)()
        for i, scene in enumerate(scenes):
            sample, trace = attempt(attempted, lambda: bench.run(scene), traced)
            if sample is None:
                continue
            if not bench.same(refs[i], sample.output):
                mismatched += 1
            compress.append(sample.compress_ms)
            latency = sample.step_ms if sample.step_ms is not None else sample.compress_ms
            if sample.step_ms is not None and not traced:
                step.append(sample.step_ms)
            (lat_traced if traced else lat_plain).append(latency)
            if not traced:
                best_compress[i] = min(best_compress[i], sample.compress_ms)
                best_latency[i] = min(best_latency[i], latency)
            if trace:
                trace[1].update(bench.op_counts(sample.output))
                per_op.append(trace)
                for index, ms in trace[2]:
                    layer_samples["kept" if index < merge_layer else "merged"].append(ms)
        if bench.full_step:
            scene = scenes[rnd % len(scenes)]
            res, trace = attempt(attempted, lambda: bench.run_full(scene), traced)
            if res is not None:
                if not traced:
                    full.append(res[0])
                full_errors += bench.full_errors(scene, res[1], res[2])
                if trace:
                    layer_samples["full"] += [ms for _, ms in trace[2]]
        rnd += 1
        if time.perf_counter() >= deadline:
            break

    if tracer:
        tracer.uninstall()
    errors = list(full_errors)
    for scene, ref in zip(scenes, refs):
        errors += bench.errors(scene, ref)
    for err in errors[:10]:
        print(f"check failed: {err}", file=sys.stderr)
    if mismatched:
        print(f"check failed: {mismatched} operations differ from their scene's reference", file=sys.stderr)
    print(
        f"{args.workload}: {len(compress)} timed operations in {rnd} rounds, {len(full)} untraced uncompressed steps;"
        f" over all calls, compression p50 {_median(compress):.3f} ms and p95 {_p95(compress):.3f} ms",
        file=sys.stderr,
    )

    if tracer:
        metrics = _layer_metrics(tracer, per_op, layer_samples, lat_plain, lat_traced, step, full, bench)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_s),
            **_best_of_scenes(best_compress, best_latency),
        }
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END

    result = {
        "correct": not errors and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    print(json.dumps(result))
    return 0


def _layer_metrics(tracer, per_op, layer_samples, lat_plain, lat_traced, step, full_steps, bench) -> dict:
    n = max(len(per_op), 1)
    metrics = {}
    for name in SPAN_MS:
        metrics[f"{name}_ms"] = _median([op[0].get(name, 0.0) for op in per_op])
    metrics["pipeline.run_pipeline_self_ms"] = _median([op[0].get("pipeline.run_pipeline", 0.0) for op in per_op])
    metrics["cli.main_self_ms"] = _median([op[0].get("cli.main", 0.0) for op in per_op])
    metrics["workload.generate_workload_ms"] = _median(tracer.setup_self_ms("workload.generate_workload"))
    for name in COUNTS:
        metrics[name] = sum(op[1].get(name, 0.0) for op in per_op) / n
    kept, merged, full = (_median(layer_samples[k]) for k in ("kept", "merged", "full"))
    metrics["backbone.layer_ms_kept"] = kept
    metrics["backbone.layer_ms_merged"] = merged
    metrics["backbone.layer_ms_full"] = full
    ratio = 0.0
    if bench.full_step and full:
        # measured decoder cost of the compressed schedule over the full one,
        # divided by the analytic ratio costmodel gives for the same schedules
        layers = bench.config.total_layers
        measured = [sum(ms for _, ms in op[2]) / (full * layers) for op in per_op]
        analytic = [op[1]["costmodel.flops_ratio"] for op in per_op]
        ratio = _median([m / a for m, a in zip(measured, analytic)])
    metrics["backbone.measured_over_analytic"] = ratio
    # whole steps, from the untraced rounds only; 0 where no backbone runs
    metrics["backbone.step_ms_p50"] = _median(step)
    metrics["backbone.step_ms_p95"] = _p95(step)
    metrics["backbone.step_speedup"] = _median(full_steps) / _median(step) if step and full_steps else 0.0
    metrics["trace.overhead_ms"] = _median(lat_traced) - _median(lat_plain)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
