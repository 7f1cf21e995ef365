"""Tests of the benchmark itself: declared metrics, output checks, operation counts.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import measure
import run
import workloads
from tokpress import pipeline

BENCH = Path(__file__).resolve().parents[1]
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_metric_tables_match_benchmark_json():
    assert declared("end_to_end") == measure.END_TO_END
    assert declared("per_layer") == measure.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.NAMES) == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_printed_metrics_are_declared_with_their_units(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(units)  # every declared metric, on every workload
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float | int)


def _scene(name: str):
    bench = workloads.make(name)
    return bench, bench.setup(5, None)[0]


def test_pipeline_check_catches_flipped_keep_bit_and_perturbed_row():
    bench, load = _scene("wide-sparse")
    result = pipeline.run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, bench.config)
    assert bench.errors(load, result) == []

    kept = set(result.kept_indices.tolist())
    flip = next(i for i in range(load.grid.total) if i not in kept)
    bad_keep = np.array(sorted(kept | {flip}), dtype=np.int64)
    assert any("keep set" in e for e in bench.errors(load, dataclasses.replace(result, kept_indices=bad_keep)))

    bad_rows = result.compressed.copy()
    bad_rows[3, 7] += 1e-3
    assert any("step oracle" in e for e in bench.errors(load, dataclasses.replace(result, compressed=bad_rows)))

    bad_weight = dataclasses.replace(result.merge, absorbed_weight=result.merge.absorbed_weight * 1.01)
    assert any("absorbed" in e for e in bench.errors(load, dataclasses.replace(result, merge=bad_weight)))


def test_pipeline_check_catches_an_escaped_hull():
    bench, load = _scene("vla-4096")
    result = pipeline.run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, bench.config)
    assert bench.errors(load, result) == []
    bad = result.compressed.copy()
    bad[0, 0] = 10.0  # unit-norm inputs: no convex blend reaches 10
    assert any("hull" in e for e in bench.errors(load, dataclasses.replace(result, compressed=bad)))


def test_cli_check_catches_report_and_container_corruption(tmp_path):
    bench = workloads.make("cli-toy")
    scene = bench.setup(5, tmp_path)[0]
    out = bench.run(scene).output
    assert bench.errors(scene, out) == []

    ratio_line = next(line for line in out.report.splitlines() if line.startswith("flops_ratio="))
    wrong = out.report.replace(ratio_line, ratio_line[:-1] + ("1" if ratio_line[-1] != "1" else "2"))
    assert any("flops_ratio" in e for e in bench.errors(scene, dataclasses.replace(out, report=wrong)))

    tkb = bytearray(out.tkb)
    tkb[40] ^= 0x01
    assert any(".tkb" in e for e in bench.errors(scene, dataclasses.replace(out, tkb=bytes(tkb))))


def test_step_check_catches_schedule_merge_and_state_corruption():
    bench, load = _scene("step-256")
    out = bench.run(load).output
    assert bench.errors(load, out) == []

    assert any("schedule" in e for e in bench.errors(load, dataclasses.replace(out, rows=out.rows[:-1])))

    merged = out.merged.copy()
    merged[0, 0] += 1e-3
    assert any("step oracle" in e for e in bench.errors(load, dataclasses.replace(out, merged=merged)))

    final = out.final.copy()
    final[0, 0] = np.nan
    assert any("finite" in e for e in bench.errors(load, dataclasses.replace(out, final=final)))

    _, full, rows = bench.run_full(load)
    assert bench.full_errors(load, full, rows) == []
    assert bench.full_errors(load, full, rows[1:]) != []


class FlakyBench:
    """Two scenes; the second raises on every timed call."""

    full_step = False
    config = SimpleNamespace(merge_layer=0)

    def setup(self, seed, workdir):
        self.calls = 0
        return ["a", "b"]

    def run(self, scene):
        self.calls += 1
        if scene == "b" and self.calls > 2:
            raise RuntimeError("planted failure")
        return workloads.Sample(1.0, None, scene)

    same = staticmethod(lambda a, b: a == b)
    errors = staticmethod(lambda scene, out: [])
    op_counts = staticmethod(lambda out: {})


def test_run_reports_attempted_and_failed_counts(tmp_path, capsys):
    args = SimpleNamespace(workload="flaky", seed=0, seconds=0.01, trace=0)
    assert measure._run(args, FlakyBench(), None, tmp_path, 0.0) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] >= 2 and result["attempted"] % 2 == 0
    assert result["failed"] == result["attempted"] // 2
    assert result["correct"] is True
