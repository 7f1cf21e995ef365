"""The four benchmark workloads: scene make-up, one timed operation, output checks.

Every workload drives only the public API, through module attributes looked
up at call time (``pipeline.run_pipeline``, ``cli.main``, ...), so the traced
run can rebind them. A run uses ``scenes`` scenes (fewer where a scene is
costly to make and check, more where scene costs vary); scene i of run seed
s is ``generate_workload`` with seed ``s * 1000003 + i``. Each operation is
one call on one scene, and a round calls every scene once, in order.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import decoder
from tokpress import cli, costmodel, pipeline, tokenfile
from tokpress import workload as tp_workload
from tokpress.core import PatchGrid
from tokpress.costmodel import BackboneSpec, TokenSchedule
from tokpress.expand import ExpandParams
from tokpress.merge import MergeParams
from tokpress.pipeline import CompressionConfig
from tokpress.workload import WorkloadSpec

# Operations are timed in CPU time of this process. The host is shared, and
# time during which other tenants hold the vCPU (steal) stops this clock but
# not a wall clock; the loop is single-threaded with one BLAS thread, so on a
# quiet host the two agree.
clock = time.process_time


def scene_seed(seed: int, i: int) -> int:
    return (seed * 1000003 + i) % 2**64


@dataclass
class Sample:
    """One timed operation: compressor time, whole-step time (step workloads) and its output."""

    compress_ms: float
    step_ms: float | None
    output: object


def _generate(grid: PatchGrid, seed: int, scenes: int, **spec) -> list:
    return [
        tp_workload.generate_workload(WorkloadSpec(grid=grid, seed=scene_seed(seed, i), **spec))
        for i in range(scenes)
    ]


class PipelineBench:
    """``run_pipeline`` on one generated scene per operation."""

    full_step = False

    def __init__(self, scenes: int, grid: PatchGrid, spec: dict, config: CompressionConfig):
        self.scenes, self.grid, self.spec, self.config = scenes, grid, spec, config

    def setup(self, seed: int, workdir: Path) -> list:
        return _generate(self.grid, seed, self.scenes, **self.spec)

    def run(self, scene) -> Sample:
        t0 = clock()
        result = pipeline.run_pipeline(scene.e_img, scene.e_lang, scene.guidance, scene.grid, self.config)
        return Sample((clock() - t0) * 1e3, None, result)

    @staticmethod
    def same(a, b) -> bool:
        return np.array_equal(a.kept_indices, b.kept_indices) and a.compressed.tobytes() == b.compressed.tobytes()

    def errors(self, scene, result) -> list[str]:
        return checks.pipeline_errors(scene, self.config, result)

    def op_counts(self, output) -> dict:
        return {}


class SparseFlipBench(PipelineBench):
    """``run_pipeline`` where the sparse-flip rule must fire on every scene."""

    def errors(self, scene, result) -> list[str]:
        return checks.pipeline_errors(scene, self.config, result, need_flips=True)


@dataclass
class CliScene:
    load: object
    argv: list
    out: Path
    json: Path


@dataclass
class CliOutput:
    report: str
    tkb: bytes
    json: bytes


class CliBench:
    """One in-process ``tokpress pipeline`` over ``.tkb`` files per operation."""

    full_step = False
    scenes = 32
    grid = PatchGrid(2, 16, 16)
    # the CLI's defaults; TEAMC_SEED is removed from the environment
    config = CompressionConfig()

    def setup(self, seed: int, workdir: Path) -> list:
        scenes = []
        for i, load in enumerate(_generate(self.grid, seed, self.scenes, embed_dim=64)):
            d = workdir / f"scene{i}"
            d.mkdir(parents=True, exist_ok=True)
            for part in ("e_img", "e_lang", "guidance"):
                tokenfile.write_tokens(getattr(load, part), d / f"{part}.tkb")
            argv = [
                "pipeline",
                "--tokens", str(d / "e_img.tkb"),
                "--lang", str(d / "e_lang.tkb"),
                "--guidance", str(d / "guidance.tkb"),
                "--grid", "2x16x16",
                "--no-timing",
                "--out", str(d / "out.tkb"),
                "--json", str(d / "report.json"),
            ]  # fmt: skip
            scenes.append(CliScene(load, argv, d / "out.tkb", d / "report.json"))
        return scenes

    def run(self, scene: CliScene) -> Sample:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = clock()
            code = cli.main(scene.argv)
            elapsed = clock() - t0
        if code != 0:
            raise RuntimeError(f"tokpress pipeline exited with {code}")
        return Sample(elapsed * 1e3, None, CliOutput(buf.getvalue(), scene.out.read_bytes(), scene.json.read_bytes()))

    @staticmethod
    def same(a: CliOutput, b: CliOutput) -> bool:
        return a == b

    def errors(self, scene: CliScene, out: CliOutput) -> list[str]:
        load = scene.load
        result = pipeline.run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, self.config)
        return checks.cli_errors(load, self.config, out.report, out.tkb, result)

    def op_counts(self, output: CliOutput) -> dict:
        return {"cli.report_bytes": len(output.report.encode())}


@dataclass
class StepOutput:
    kept_indices: np.ndarray
    prune: object
    mid: np.ndarray
    merged: np.ndarray
    merge_report: object
    final: np.ndarray
    rows: list
    flops_ratio: float


class StepBench:
    """One action step: prune, decoder layers, merge on real activations, remaining layers."""

    full_step = True
    scenes = 16
    grid = PatchGrid(2, 16, 16)
    spec = BackboneSpec(layers=8, hidden_dim=256, ff_dim=1024, heads=4)
    config = CompressionConfig(merge_layer=4, total_layers=8)

    def setup(self, seed: int, workdir: Path) -> list:
        s = self.spec
        self.weights = decoder.make_weights(s.layers, s.hidden_dim, s.ff_dim, s.heads)
        return _generate(self.grid, seed, self.scenes, embed_dim=s.hidden_dim)

    def run(self, scene) -> Sample:
        cfg, w = self.config, self.weights
        n_guid = scene.guidance.shape[0]
        rows = []
        t0 = clock()
        kept, kept_idx, prune_rep = pipeline.prune_stage(scene.e_img, scene.e_lang, scene.grid, cfg)
        t1 = clock()
        mid = decoder.forward(np.vstack([kept, scene.e_lang, scene.guidance]), w, 0, cfg.merge_layer, rows)
        t2 = clock()
        merged, merge_rep = pipeline.merge_stage(mid, mid[-n_guid:], (0, kept.shape[0]), cfg)
        t3 = clock()
        final = decoder.forward(merged, w, cfg.merge_layer, cfg.total_layers, rows)
        t4 = clock()
        # the step prices its own schedule; this stays outside step_ms
        nv = scene.e_lang.shape[0] + n_guid
        schedule = TokenSchedule.two_stage(prune_rep.kept, cfg.merge.m, cfg.merge_layer, cfg.total_layers, nv)
        flat = TokenSchedule.flat(scene.grid.total, cfg.total_layers, nv)
        ratio = costmodel.relative_flops(schedule, flat, self.spec)
        out = StepOutput(kept_idx, prune_rep, mid, merged, merge_rep, final, rows, ratio)
        return Sample((t1 - t0 + t3 - t2) * 1e3, (t4 - t0) * 1e3, out)

    def run_full(self, scene) -> tuple[float, np.ndarray, list]:
        """The uncompressed step: every visual token through every layer."""
        rows = []
        t0 = clock()
        x = np.vstack([scene.e_img, scene.e_lang, scene.guidance])
        final = decoder.forward(x, self.weights, 0, self.config.total_layers, rows)
        return (clock() - t0) * 1e3, final, rows

    @staticmethod
    def same(a: StepOutput, b: StepOutput) -> bool:
        return (
            np.array_equal(a.kept_indices, b.kept_indices)
            and a.rows == b.rows
            and a.merged.tobytes() == b.merged.tobytes()
            and a.final.tobytes() == b.final.tobytes()
        )

    def errors(self, scene, out: StepOutput) -> list[str]:
        return checks.step_errors(scene, self.config, out, self.spec)

    def full_errors(self, scene, final, rows) -> list[str]:
        return checks.full_step_errors(scene, final, rows, self.config.total_layers)

    def op_counts(self, output) -> dict:
        return {}


def make(name: str):
    """A fresh benchmark object for one workload name."""
    if name == "vla-4096":
        return PipelineBench(
            8,
            PatchGrid(2, 16, 16),
            dict(embed_dim=4096, anchor_fraction=0.32),
            CompressionConfig(
                expand=ExpandParams(kernel_size=3, threshold=1),
                merge=MergeParams(m=80, mode="soft"),
            ),
        )
    if name == "wide-sparse":
        return SparseFlipBench(
            24,
            PatchGrid(3, 24, 24),
            dict(blocks=4, block_size=(3, 5), embed_dim=128),
            CompressionConfig(
                expand=ExpandParams(kernel_size=5, threshold=6),
                merge=MergeParams(m=80, mode="hard"),
            ),
        )
    if name == "cli-toy":
        return CliBench()
    if name == "step-256":
        return StepBench()
    raise KeyError(name)


NAMES = ("vla-4096", "wide-sparse", "cli-toy", "step-256")
