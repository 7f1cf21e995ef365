import argparse
import contextlib
import dataclasses
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenes import CORRUPTIONS, EDGE_SCENES, REACH_STAGE_ONE, corrupt_scenes, small_scenes
from tokpress import cli, pipeline
from tokpress.cli import CONFIG_KEYS, load_config, main, parse_grid, parse_schedule
from tokpress.core import ParameterError, ShapeError
from tokpress.expand import ExpandParams, expand_mask
from tokpress.merge import MergeParams
from tokpress.pipeline import CompressionConfig, run_pipeline
from tokpress.tokenfile import read_tokens, write_tokens
from tokpress.workload import WorkloadSpec, generate_workload


README = Path(__file__).resolve().parent.parent / "README.md"

# one out-of-range value per config key; each error names the key, also where the field is named otherwise
RANGE_ERRORS = [
    ('{"kernel_size": 4}', "kernel_size"),
    ('{"tau": -1}', "tau"),
    ('{"context_fraction": 1.5}', "context_fraction"),
    ('{"top_m": 0}', "top_m"),
    ('{"merge_mode": "mean"}', "merge_mode"),
    ('{"merge_layer": 40}', "merge_layer"),
    ('{"total_layers": 0}', "total_layers"),
    ('{"seed": -1}', "seed"),
]


def report_dict(captured: str) -> dict:
    out = {}
    for line in captured.strip().splitlines():
        key, _, value = line.partition("=")
        out.setdefault(key, []).append(value)
    return {k: v[0] if len(v) == 1 else v for k, v in out.items()}


@pytest.fixture()
def workload_dir(tmp_path):
    assert main(["gen", "--out-dir", str(tmp_path / "w"), "--seed", "3"]) == 0
    return tmp_path / "w"


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "kernel_size": 3,
                "tau": 1,
                "context_fraction": 0.25,
                "top_m": 80,
                "merge_mode": "soft",
                "merge_layer": 16,
                "total_layers": 32,
                "seed": 11,
            }
        )
    )
    return path


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.expand.kernel_size == 3 and cfg.expand.threshold == 1
        assert cfg.context_fraction == 0.25 and cfg.merge.m == 80
        assert cfg.merge_layer == 16 and cfg.total_layers == 32
        assert cfg.merge.mode == "soft"

    def test_partial_file_fills_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"tau": 2, "top_m": 40}')
        cfg = load_config(path)
        assert cfg.expand.threshold == 2 and cfg.merge.m == 40
        assert cfg.expand.kernel_size == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"kernel": 3}')
        with pytest.raises(ParameterError, match="kernel"):
            load_config(path)

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"tau": 1.9}', "tau"),
            ('{"top_m": "40"}', "top_m"),
            ('{"kernel_size": true}', "kernel_size"),
            ('{"context_fraction": "0.5"}', "context_fraction"),
            ('{"seed": null}', "seed"),
            ('{"merge_mode": null}', "merge_mode"),
            ('{"merge_layer": [4]}', "merge_layer"),
            ('{"merge_mode": {"mode": "soft"}}', "merge_mode"),
            ('{"context_fraction": true}', "context_fraction"),
            ('{"total_layers": 8.0}', "total_layers"),
        ],
    )
    def test_wrong_json_type_names_key(self, tmp_path, text, key):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ParameterError, match=f"^config key {key}: "):
            load_config(path)

    @pytest.mark.parametrize("text,key", RANGE_ERRORS)
    def test_range_error_names_key(self, tmp_path, text, key):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ParameterError, match=f"config key {key}:"):
            load_config(path)

    def test_range_errors_cover_every_key(self):
        assert sorted(key for _, key in RANGE_ERRORS) == sorted(CONFIG_KEYS)

    def test_merge_layer_range_follows_total_layers_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"merge_layer": 40, "total_layers": 64}')
        assert load_config(path).merge_layer == 40
        path.write_text('{"total_layers": 8}')  # the default merge_layer, 16, is out of range
        with pytest.raises(ParameterError, match=r"^config key merge_layer: merge_layer must lie in \[0, 7\]"):
            load_config(path)

    def test_integer_context_fraction_loads(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"context_fraction": 1}')
        assert load_config(path).context_fraction == 1.0

    def test_keys_map_one_to_one_onto_config_fields(self):
        config = CompressionConfig()
        leaves = set()
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if dataclasses.is_dataclass(value):
                leaves |= {(f.name, g.name) for g in dataclasses.fields(value)}
            else:
                leaves.add((None, f.name))
        targets = list(CONFIG_KEYS.values())
        assert len(set(targets)) == len(targets)
        assert set(targets) == leaves

    def test_every_key_round_trips(self, tmp_path):
        values = {
            "kernel_size": 5,
            "tau": 2,
            "context_fraction": 0.5,
            "top_m": 40,
            "merge_mode": "hard",
            "merge_layer": 3,
            "total_layers": 8,
            "seed": 7,
        }
        assert set(values) == set(CONFIG_KEYS)
        default = CompressionConfig()
        for key, (group, name) in CONFIG_KEYS.items():
            assert values[key] != getattr(getattr(default, group) if group else default, name)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(values))
        assert load_config(path) == CompressionConfig(
            expand=ExpandParams(kernel_size=5, threshold=2),
            context_fraction=0.5,
            merge=MergeParams(m=40, mode="hard"),
            merge_layer=3,
            total_layers=8,
            seed=7,
        )

    def test_readme_config_block_spells_out_the_defaults(self, tmp_path):
        # the ```json block under README's "### Config" heading
        section = README.read_text(encoding="utf-8").split("\n### Config\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert set(json.loads(block)) == set(CONFIG_KEYS)
        path = tmp_path / "readme.json"
        path.write_text(block)
        assert load_config(path) == CompressionConfig()

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParameterError):
            load_config(path)

    def test_seed_comes_from_the_file_alone(self, tmp_path, workload_dir, monkeypatch, capsys):
        # no environment variable reaches the seed, this name included
        monkeypatch.setenv("TEAMC_SEED", "99")
        path = tmp_path / "c.json"
        path.write_text('{"seed": 5}')
        assert load_config(path).seed == 5
        assert load_config(None).seed == 0
        capsys.readouterr()
        argv = [
            "pipeline",
            "--tokens", str(workload_dir / "img.tkb"),
            "--lang", str(workload_dir / "lang.tkb"),
            "--grid", "2x16x16",
            "--config", str(path),
            "--no-timing",
        ]  # fmt: skip
        assert main(argv) == 0
        assert report_dict(capsys.readouterr().out)["seed"] == "5"


class TestParsers:
    @pytest.mark.parametrize("text", ["2x16x16", " 2X16x16\n", "+2x1_6x16", "２x１６x16", "2 x 16 x\t16"])
    def test_grid_three_part(self, text):
        g = parse_grid(text)
        assert (g.views, g.height, g.width) == (2, 16, 16)

    def test_grid_two_part_single_view(self):
        g = parse_grid("8x12")
        assert (g.views, g.height, g.width) == (1, 8, 12)

    @pytest.mark.parametrize(
        "bad",
        ["16", "axb", "1x2x3x4", "", "1X2x3X4", "2x16x16x", "x2x16", "2xx16", "2x1__6x16", "_2x16x16",
         "2x16x16_", "2x+-16x16", "2x16.0x16", "2x16x16\nx", "2×16×16", "2ｘ16ｘ16", "2x-16x16"],
    )  # fmt: skip
    def test_grid_rejects(self, bad):
        with pytest.raises(ParameterError):
            parse_grid(bad)

    def test_schedule_flat(self):
        s = parse_schedule("flat:576", 4, 0)
        assert s.visual_counts.tolist() == [576] * 4

    @pytest.mark.parametrize("text", ["step:196,80@2", "step: 196 ,+80@2\n", "step:1_96,８０@２"])
    def test_schedule_step(self, text):
        s = parse_schedule(text, 4, 64)
        assert s.visual_counts.tolist() == [196, 196, 80, 80]
        assert s.non_visual == 64

    @pytest.mark.parametrize(
        "bad",
        ["flat", "flat:x", "step:1@2", "ramp:3", "step:9,9", "step:1,2,3@4", "step:1,2@3@4", "flat:3:4",
         " flat:3", "FLAT:3", "Step:1,2@3", "step:1,2@", "step:,2@3", "flat:1_", "flat:+-3", "step:1;2@3"],
    )  # fmt: skip
    def test_schedule_rejects(self, bad):
        with pytest.raises(ParameterError):
            parse_schedule(bad, 4, 0)


class TestSubcommands:
    def test_gen_writes_containers(self, workload_dir):
        img = read_tokens(workload_dir / "img.tkb")
        lang = read_tokens(workload_dir / "lang.tkb")
        assert img.shape == (512, 64)
        assert lang.shape[1] == 64
        assert (workload_dir / "guidance.tkb").exists()
        assert (workload_dir / "truth_v0.pgm").exists()
        assert (workload_dir / "truth_v1.pgm").exists()

    @pytest.mark.parametrize("grid,seed", [("2x16x16", 3), ("1x8x8", 0), ("3x6x9", 41)])
    def test_gen_writes_the_default_scene_of_its_grid_and_seed(self, tmp_path, grid, seed):
        out = tmp_path / "gen"
        assert main(["gen", "--out-dir", str(out), "--grid", grid, "--seed", str(seed)]) == 0
        load = generate_workload(WorkloadSpec(grid=parse_grid(grid), seed=seed))
        for name, rows in (("img", load.e_img), ("lang", load.e_lang), ("guidance", load.guidance)):
            write_tokens(rows, tmp_path / f"{name}.tkb")
            assert (out / f"{name}.tkb").read_bytes() == (tmp_path / f"{name}.tkb").read_bytes()

    def test_prune_report_and_output(self, workload_dir, config_path, tmp_path, capsys):
        out = tmp_path / "kept.tkb"
        code = main(
            [
                "prune",
                "--tokens", str(workload_dir / "img.tkb"),
                "--lang", str(workload_dir / "lang.tkb"),
                "--grid", "2x16x16",
                "--config", str(config_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        rep = report_dict(capsys.readouterr().out)
        kept = read_tokens(out)
        assert int(rep["kept"]) == kept.shape[0]
        assert int(rep["kept"]) + int(rep["pruned"]) == 512
        indices = [int(i) for i in rep["kept_indices"].split(",")]
        assert len(indices) == kept.shape[0]

    def test_pipeline_final_count_and_flops(self, workload_dir, config_path, tmp_path, capsys):
        out = tmp_path / "comp.tkb"
        code = main(
            [
                "pipeline",
                "--tokens", str(workload_dir / "img.tkb"),
                "--lang", str(workload_dir / "lang.tkb"),
                "--guidance", str(workload_dir / "guidance.tkb"),
                "--grid", "2x16x16",
                "--config", str(config_path),
                "--out", str(out),
                "--no-timing",
            ]
        )
        assert code == 0
        rep = report_dict(capsys.readouterr().out)
        assert rep["final_visual"] == "80"
        assert 0 < float(rep["flops_ratio"]) < 1
        assert "time_prune_ms" not in rep
        compressed = read_tokens(out)
        assert compressed.shape[0] == int(rep["sequence_out"])

    @pytest.mark.parametrize("grid,block", [("1x8x8", 5), ("1x12x12", 5), ("1x1x1", 1)])
    def test_pipeline_small_scene_merges_to_kept(self, tmp_path, capsys, grid, block):
        # the default config keeps fewer than its m = 80 sources here
        w = tmp_path / "w"
        w.mkdir()
        load = generate_workload(WorkloadSpec(grid=parse_grid(grid), block_size=(block, block)))
        for name, rows in (("img", load.e_img), ("lang", load.e_lang), ("guidance", load.guidance)):
            write_tokens(rows, w / f"{name}.tkb")
        code = main(
            [
                "pipeline",
                "--tokens", str(w / "img.tkb"),
                "--lang", str(w / "lang.tkb"),
                "--guidance", str(w / "guidance.tkb"),
                "--grid", grid,
                "--no-timing",
            ]
        )
        assert code == 0
        rep = report_dict(capsys.readouterr().out)
        kept = int(rep["kept"])
        assert kept < 80 and rep["final_visual"] == str(kept) and rep["merged_away"] == "0"
        assert rep["schedule"] == f"{kept}until16then{kept}of32"

    def test_pipeline_timing_lines_present_by_default(
        self, workload_dir, config_path, capsys
    ):
        code = main(
            [
                "pipeline",
                "--tokens", str(workload_dir / "img.tkb"),
                "--lang", str(workload_dir / "lang.tkb"),
                "--grid", "2x16x16",
                "--config", str(config_path),
            ]
        )
        assert code == 0
        rep = report_dict(capsys.readouterr().out)
        assert "time_prune_ms" in rep and "time_merge_ms" in rep

    def test_merge_subcommand(self, workload_dir, config_path, tmp_path, capsys):
        out = tmp_path / "merged.tkb"
        code = main(
            [
                "merge",
                "--tokens", str(workload_dir / "img.tkb"),
                "--guidance", str(workload_dir / "guidance.tkb"),
                "--config", str(config_path),
                "--visual", "0:512",
                "--out", str(out),
            ]
        )
        assert code == 0
        rep = report_dict(capsys.readouterr().out)
        assert rep["tokens_after"] == "80"
        assert read_tokens(out).shape[0] == 80
        assert abs(float(rep["weight_total"]) - 432.0) < 1e-3

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_merge_weight_total_is_the_target_count_to_six_decimals(self, workload_dir, tmp_path, capsys, mode):
        cfg = tmp_path / "mode.json"
        cfg.write_text(json.dumps({"merge_mode": mode}))
        tokens = ["--tokens", str(workload_dir / "img.tkb"), "--guidance", str(workload_dir / "guidance.tkb")]
        assert main(["merge", *tokens, "--config", str(cfg), "--visual", "0:512"]) == 0
        assert report_dict(capsys.readouterr().out)["weight_total"] == f"{512 - 80:.6f}"

    def test_prune_then_merge_matches_pipeline_on_a_small_scene(self, tmp_path, capsys):
        # 1x8x8 keeps fewer rows than m = 80; merge_stage then passes them
        # through unmerged, as run_pipeline does
        w = tmp_path / "w"
        assert main(["gen", "--out-dir", str(w), "--grid", "1x8x8"]) == 0
        scene = ["--tokens", str(w / "img.tkb"), "--lang", str(w / "lang.tkb"), "--grid", "1x8x8"]
        assert main(["prune", *scene, "--out", str(tmp_path / "kept.tkb")]) == 0
        capsys.readouterr()
        guidance = ["--guidance", str(w / "guidance.tkb")]
        kept = ["--tokens", str(tmp_path / "kept.tkb")]
        assert main(["merge", *kept, *guidance, "--out", str(tmp_path / "merged.tkb")]) == 0
        rep = report_dict(capsys.readouterr().out)
        assert (rep["tokens_before"], rep["tokens_after"], rep["absorbed"]) == ("51", "51", "0")
        pipe = ["pipeline", *scene, *guidance, "--out", str(tmp_path / "pipe.tkb"), "--no-timing"]
        assert main(pipe) == 0
        assert report_dict(capsys.readouterr().out)["final_visual"] == "51"
        merged = read_tokens(tmp_path / "merged.tkb")
        assert merged.tobytes() == read_tokens(tmp_path / "pipe.tkb")[:51].tobytes()

    def test_cost_ignores_head_count(self, capsys):
        # 100 is not a multiple of the old default of 32 heads; the ratio is
        # the formula's, term by term: 8nd^2 + 4n^2d + 4nd*d_ff per layer
        argv = ["cost", "--baseline", "flat:512", "--candidate", "step:196,80@16",
                "--layers", "32", "--hidden-dim", "100", "--ff-dim", "300"]  # fmt: skip
        assert main(argv) == 0
        rep = report_dict(capsys.readouterr().out)

        def layer(n, d=100, d_ff=300):
            return 8 * n * d * d + 4 * n * n * d + 4 * n * d * d_ff

        base, cand = 32 * layer(512), 16 * layer(196) + 16 * layer(80)
        assert (rep["baseline_flops"], rep["candidate_flops"]) == (str(base), str(cand))
        assert rep["ratio"] == repr(cand / base)

    def test_cost_schedule_range_error_names_the_field(self, capsys):
        code = main(["cost", "--baseline", "flat:100", "--candidate", "step:100,50@40"])
        assert code == 1
        assert capsys.readouterr().err == "error: schedule 'step:100,50@40': merge_layer must lie in [0, 31], got 40\n"
        assert main(["cost", "--baseline=flat:-1", "--candidate", "flat:1"]) == 1
        err = "error: schedule 'flat:-1': TokenSchedule.visual_counts must be non-negative\n"
        assert capsys.readouterr().err == err

    def test_cost_non_visual_range_error_names_the_option(self, capsys):
        assert main(["cost", "--baseline", "flat:1", "--candidate", "flat:1", "--non-visual=-1"]) == 1
        assert capsys.readouterr().err == "error: --non-visual must lie in [0, inf), got -1\n"

    def test_cost_identity_ratio(self, capsys):
        code = main(["cost", "--baseline", "flat:576", "--candidate", "flat:576"])
        assert code == 0
        assert report_dict(capsys.readouterr().out)["ratio"] == "1.0"

    def test_cost_reference_point(self, capsys):
        code = main(
            [
                "cost",
                "--baseline", "flat:512",
                "--candidate", "step:196,80@16",
                "--non-visual", "64",
            ]
        )
        assert code == 0
        ratio = float(report_dict(capsys.readouterr().out)["ratio"])
        assert 0.29 <= ratio <= 0.49

    def test_viz_single_view_name(self, tmp_path, capsys):
        assert main(["gen", "--out-dir", str(tmp_path / "w1"), "--grid", "1x16x16"]) == 0
        capsys.readouterr()
        code = main(
            [
                "viz",
                "--tokens", str(tmp_path / "w1" / "img.tkb"),
                "--lang", str(tmp_path / "w1" / "lang.tkb"),
                "--grid", "1x16x16",
                "--out", str(tmp_path / "mask"),
                "--mask-stage", "anchor",
            ]
        )
        assert code == 0
        assert (tmp_path / "mask.pgm").exists()

    def test_viz_out_pgm_suffix_is_not_doubled(self, workload_dir, tmp_path, capsys):
        out = tmp_path / "masks"
        out.mkdir()
        capsys.readouterr()
        viz = ["viz", "--tokens", str(workload_dir / "img.tkb"), "--lang", str(workload_dir / "lang.tkb")]
        assert main(viz + ["--grid", "2x16x16", "--out", str(out / "mask.pgm")]) == 0
        assert report_dict(capsys.readouterr().out)["wrote"] == [str(out / "mask_v0.pgm"), str(out / "mask_v1.pgm")]
        assert sorted(p.name for p in out.iterdir()) == ["mask_v0.pgm", "mask_v1.pgm"]

    def test_bench_reports_percentiles(self, capsys):
        code = main(["bench", "--stage", "expand", "--reps", "30"])
        assert code == 0
        rep = report_dict(capsys.readouterr().out)
        assert float(rep["p50_ms"]) <= float(rep["p95_ms"])
        assert float(rep["mean_ms"]) > 0

    @pytest.mark.parametrize("stage", ["prune", "merge", "pipeline"])
    def test_bench_times_every_stage(self, capsys, stage):
        assert main(["bench", "--stage", stage, "--reps", "3"]) == 0
        rep = report_dict(capsys.readouterr().out)
        assert rep["stage"] == stage and rep["reps"] == "3"
        assert 0 < float(rep["p50_ms"]) <= float(rep["p95_ms"])

    def test_bench_reads_its_config(self, tmp_path, monkeypatch, capsys):
        # the sparse-flip timing the README quotes runs at {"kernel_size": 5, "tau": 6} on a 3x24x24 grid
        path = tmp_path / "cfg.json"
        path.write_text('{"kernel_size": 5, "tau": 6}')
        seen = []

        def expand(mask, params, rng):
            seen.append((mask.grid.shape, params))
            return expand_mask(mask, params, rng)

        monkeypatch.setattr(cli, "expand_mask", expand)
        assert main(["bench", "--stage", "expand", "--grid", "3x24x24", "--reps", "3", "--config", str(path)]) == 0
        rep = report_dict(capsys.readouterr().out)
        assert list(rep) == ["stage", "reps", "mean_ms", "p50_ms", "p95_ms"]
        assert (rep["stage"], rep["reps"]) == ("expand", "3")
        assert set(seen) == {((3, 24, 24), ExpandParams(kernel_size=5, threshold=6))}

    def test_report_and_json_mirrors(self, workload_dir, config_path, tmp_path, capsys):
        rep_path = tmp_path / "rep.txt"
        json_path = tmp_path / "rep.json"
        code = main(
            [
                "pipeline",
                "--tokens", str(workload_dir / "img.tkb"),
                "--lang", str(workload_dir / "lang.tkb"),
                "--grid", "2x16x16",
                "--config", str(config_path),
                "--no-timing",
                "--report", str(rep_path),
                "--json", str(json_path),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert rep_path.read_text() == stdout
        mirrored = json.loads(json_path.read_text())
        assert mirrored["final_visual"] == "80"

    def test_shorter_report_and_json_leave_no_stale_tail(self, workload_dir, tmp_path, capsys):
        scene = ["--tokens", str(workload_dir / "img.tkb"), "--lang", str(workload_dir / "lang.tkb")]
        mirrors = ["--report", str(tmp_path / "rep.txt"), "--json", str(tmp_path / "rep.json")]
        assert main(["pipeline", *scene, "--grid", "2x16x16", *mirrors]) == 0
        long = [(tmp_path / name).stat().st_size for name in ("rep.txt", "rep.json")]
        cost = ["cost", "--baseline", "flat:512", "--candidate", "flat:256"]
        assert main(cost + mirrors) == 0
        assert main(cost + ["--report", str(tmp_path / "fresh.txt"), "--json", str(tmp_path / "fresh.json")]) == 0
        stdout = capsys.readouterr().out.splitlines(keepends=True)
        for name, fresh in (("rep.txt", "fresh.txt"), ("rep.json", "fresh.json")):
            assert (tmp_path / name).read_bytes() == (tmp_path / fresh).read_bytes()
        assert (tmp_path / "rep.txt").read_text() == "".join(stdout[-3:])
        assert [(tmp_path / name).stat().st_size for name in ("rep.txt", "rep.json")] < long

    def test_report_is_utf8(self, tmp_path, capsys):
        out_dir = tmp_path / "wörk"
        assert main(["gen", "--out-dir", str(out_dir), "--report", str(tmp_path / "rep.txt")]) == 0
        assert (tmp_path / "rep.txt").read_bytes() == capsys.readouterr().out.encode("utf-8")
        assert "wörk".encode("utf-8") in (tmp_path / "rep.txt").read_bytes()

    @pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
    def test_json_and_out_to_dev_null(self, workload_dir, capsys):
        scene = ["--tokens", str(workload_dir / "img.tkb"), "--lang", str(workload_dir / "lang.tkb")]
        argv = ["prune", *scene, "--grid", "2x16x16", "--out", "/dev/null", "--json", "/dev/null"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["gen", "viz", "prune", "pipeline", "merge", "cost", "bench"])
    def test_json_groups_stdout_lines_by_key(self, workload_dir, tmp_path, capsys, command):
        img, lang = str(workload_dir / "img.tkb"), str(workload_dir / "lang.tkb")
        scene = ["--tokens", img, "--lang", lang, "--grid", "2x16x16"]
        argv = {
            "gen": ["gen", "--out-dir", str(tmp_path / "g")],
            "viz": ["viz", *scene, "--out", str(tmp_path / "mask")],
            "prune": ["prune", *scene],
            "pipeline": ["pipeline", *scene, "--no-timing"],
            "merge": ["merge", "--tokens", img, "--guidance", str(workload_dir / "guidance.tkb")],
            "cost": ["cost", "--baseline", "flat:512", "--candidate", "step:196,80@16"],
            "bench": ["bench", "--stage", "expand", "--reps", "3"],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--json", str(tmp_path / "rep.json")]) == 0
        rep = report_dict(capsys.readouterr().out)
        assert json.loads((tmp_path / "rep.json").read_text()) == rep
        # a repeated key keeps every value, in report order
        if command == "gen":
            names = ["img.tkb", "lang.tkb", "guidance.tkb", "truth_v0.pgm", "truth_v1.pgm"]
            assert rep["wrote"] == [str(tmp_path / "g" / n) for n in names]
        if command == "viz":
            assert rep["wrote"] == [str(tmp_path / f"mask_v{v}.pgm") for v in (0, 1)]


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code = main(
            ["prune", "--tokens", "/nonexistent.tkb", "--lang", "/nope.tkb", "--grid", "2x16x16"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_config_json(self, tmp_path, workload_dir, capsys):
        # malformed JSON, and bytes that are not UTF-8
        for text in (b"{not json", b'{"tau": 1,', b'{"tau": \xff1}'):
            bad = tmp_path / "bad.json"
            bad.write_bytes(text)
            code = main(
                [
                    "prune",
                    "--tokens", str(workload_dir / "img.tkb"),
                    "--lang", str(workload_dir / "lang.tkb"),
                    "--grid", "2x16x16",
                    "--config", str(bad),
                ]
            )
            assert code == 1
            assert capsys.readouterr().err.startswith(f"error: {bad}: not a JSON config: ")

    @pytest.mark.parametrize(
        "span", ["abc", "5", "3:x", "", "1:2:3", "1::2", ":", "1:", ":5", "1_:2", "1:2\n:", "1.0:2", "１:２:３"]
    )
    def test_bad_visual_span(self, workload_dir, capsys, span):
        argv = ["merge", "--tokens", str(workload_dir / "img.tkb"), "--visual", span]
        assert main(argv + ["--guidance", str(workload_dir / "guidance.tkb")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad visual span {span!r}, expected START:STOP\n"

    @pytest.mark.parametrize(
        "span,message",
        [
            ("5:3", "start 5 > stop 3"),
            ("0:600", "[0, 600) outside sequence of 512 rows"),
            (" 5 :\t3\n", "start 5 > stop 3"),
            ("+5:３", "start 5 > stop 3"),
            ("0:6_00", "[0, 600) outside sequence of 512 rows"),
            ("0:-1", "start 0 > stop -1"),
        ],
    )
    def test_visual_span_out_of_order_or_range(self, workload_dir, capsys, span, message):
        argv = ["merge", "--tokens", str(workload_dir / "img.tkb"), "--visual", span]
        assert main(argv + ["--guidance", str(workload_dir / "guidance.tkb")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: visual_range: {message}\n")

    @pytest.mark.parametrize("command", ["viz", "pipeline", "prune"])
    def test_language_width_names_e_lang(self, tmp_path, workload_dir, capsys, command):
        lang = tmp_path / "lang10.tkb"
        write_tokens(np.ones((3, 10), dtype=np.float32), lang)
        argv = [command, "--tokens", str(workload_dir / "img.tkb"), "--lang", str(lang), "--grid", "2x16x16"]
        if command == "viz":
            argv += ["--out", str(tmp_path / "mask")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: e_lang: embedding width 10, expected 64\n"

    @pytest.mark.parametrize("command", ["pipeline", "merge"])
    def test_guidance_width_names_guidance(self, tmp_path, workload_dir, capsys, command):
        guidance = tmp_path / "guidance10.tkb"
        write_tokens(np.ones((3, 10), dtype=np.float32), guidance)
        argv = [command, "--tokens", str(workload_dir / "img.tkb"), "--guidance", str(guidance)]
        if command == "pipeline":
            argv += ["--lang", str(workload_dir / "lang.tkb"), "--grid", "2x16x16"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "_prune", TestCorruptInputs.stage_one)
            assert main(argv) == 1
        assert capsys.readouterr().err == "error: guidance: embedding width 10, expected 64\n"

    @pytest.mark.parametrize("text,key", RANGE_ERRORS)
    def test_prune_range_error_names_key(self, tmp_path, workload_dir, capsys, text, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        code = main(
            [
                "prune",
                "--tokens", str(workload_dir / "img.tkb"),
                "--lang", str(workload_dir / "lang.tkb"),
                "--grid", "2x16x16",
                "--config", str(cfg),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: config key {key}:")

    def test_pipeline_empty_guidance(self, tmp_path, workload_dir, capsys):
        empty = tmp_path / "guidance0.tkb"
        write_tokens(np.zeros((0, 64), dtype=np.float32), empty)
        code = main(
            [
                "pipeline",
                "--tokens", str(workload_dir / "img.tkb"),
                "--lang", str(workload_dir / "lang.tkb"),
                "--guidance", str(empty),
                "--grid", "2x16x16",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: guidance:")

    @pytest.mark.parametrize(
        "command,guidance", [("pipeline", False), ("pipeline", True), ("prune", False), ("viz", False)]
    )
    def test_empty_language_names_e_lang(self, tmp_path, workload_dir, capsys, command, guidance):
        empty = tmp_path / "lang0.tkb"
        write_tokens(np.zeros((0, 64), dtype=np.float32), empty)
        argv = [
            command,
            "--tokens", str(workload_dir / "img.tkb"),
            "--lang", str(empty),
            "--grid", "2x16x16",
        ]  # fmt: skip
        if guidance:
            argv += ["--guidance", str(workload_dir / "guidance.tkb")]
        if command == "viz":
            argv += ["--out", str(tmp_path / "mask")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: e_lang:")

    def test_unknown_subcommand_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["compress"])
        assert exc.value.code == 2

    def test_merge_m_exceeds_range(self, workload_dir, config_path, capsys):
        code = main(
            [
                "merge",
                "--tokens", str(workload_dir / "img.tkb"),
                "--guidance", str(workload_dir / "guidance.tkb"),
                "--config", str(config_path),
                "--visual", "0:40",
            ]
        )
        # m = 80 covers the 40-row span, which passes through unmerged
        assert code == 0
        rep = report_dict(capsys.readouterr().out)
        assert rep["tokens_after"] == "40" and rep["absorbed"] == "0"

    @pytest.mark.parametrize(
        "text,key",
        [('{"aggregation": "max"}', "aggregation"), ('{"per_view_anchors": false}', "per_view_anchors")],
    )
    @pytest.mark.parametrize("command", ["prune", "pipeline", "viz", "merge"])
    def test_deleted_config_keys_are_unknown(self, tmp_path, workload_dir, capsys, command, text, key):
        path = tmp_path / "c.json"
        path.write_text(text)
        img, lang = str(workload_dir / "img.tkb"), str(workload_dir / "lang.tkb")
        argv = {
            "prune": ["prune", "--tokens", img, "--lang", lang, "--grid", "2x16x16"],
            "pipeline": ["pipeline", "--tokens", img, "--lang", lang, "--grid", "2x16x16"],
            "viz": ["viz", "--tokens", img, "--lang", lang, "--grid", "2x16x16", "--out", str(tmp_path / "m")],
            "merge": ["merge", "--tokens", img, "--guidance", str(workload_dir / "guidance.tkb")],
        }[command]
        assert main(argv + ["--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: unknown config keys: {key}\n"

    def test_bench_zero_reps(self, capsys):
        code = main(["bench", "--stage", "expand", "--reps", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestRepeatedCalls:
    """``main`` reuses one parser per process; no call may see another's state."""

    @staticmethod
    def call(argv, files):
        # exit code, stdout and stderr of one main call, plus the bytes of the
        # files it wrote (removed afterwards so the next call starts clean)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
        written = {}
        for path in files:
            if path.exists():
                written[path.name] = path.read_bytes()
                path.unlink()
        return code, out.getvalue(), err.getvalue(), written

    @staticmethod
    def untimed(result):
        # wall times are the one part of a report that may differ between calls
        code, out, err, written = result
        out = [line for line in out.splitlines() if not line.startswith("time_")]
        written = dict(written)
        if "report.json" in written:
            payload = json.loads(written["report.json"])
            written["report.json"] = {k: v for k, v in payload.items() if not k.startswith("time_")}
        return code, out, err, written

    @staticmethod
    def inputs(d: Path, stage: str = "pipeline") -> list[str]:
        return [stage, "--tokens", str(d / "img.tkb"), "--lang", str(d / "lang.tkb")]

    def test_calls_match_a_freshly_built_parser(self, workload_dir, config_path, tmp_path):
        files = (tmp_path / "out.tkb", tmp_path / "report.json")
        outputs = ["--out", str(files[0]), "--json", str(files[1])]
        pipe = self.inputs(workload_dir) + ["--grid", "2x16x16"] + outputs
        guided = ["--guidance", str(workload_dir / "guidance.tkb")]
        config = ["--config", str(config_path)]
        calls = [
            pipe + guided + ["--no-timing"],
            pipe + ["--no-timing"],
            pipe + guided + config,
            self.inputs(workload_dir) + ["--bogus"],
            pipe + config + ["--no-timing"],
            ["pipeline", "--help"],
            pipe + guided + ["--no-timing"],
            self.inputs(workload_dir, "prune") + ["--grid", "2x16x16"] + config + outputs,
            pipe,
        ]
        assert main(calls[0]) == 0  # the parser is warm before the sequence
        reused = [self.call(argv, files) for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(self.call(argv, files))

        assert [r[0] for r in reused] == [0, 0, 0, ("exit", 2), 0, ("exit", 0), 0, 0, 0]
        assert "time_prune_ms=" in reused[2][1] and "time_prune_ms=" not in reused[0][1]
        # the previous call's --guidance does not carry over
        assert reused[1][3]["out.tkb"] != reused[0][3]["out.tkb"]
        assert reused[6] == reused[0]
        for a, b in zip(reused, fresh):
            assert self.untimed(a) == self.untimed(b)

    def test_parser_built_once_per_process(self, workload_dir, monkeypatch, capsys):
        pipe = self.inputs(workload_dir) + ["--grid", "2x16x16"]
        assert main(pipe + ["--no-timing"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(pipe) == 0
        assert main(self.inputs(workload_dir, "prune") + ["--grid", "2x16x16"]) == 0
        assert main(["cost", "--baseline", "flat:512", "--candidate", "flat:256"]) == 0
        assert len(built) == 0
        # the count does see a build: one parser per subcommand, the top level, and
        # the two parents that hold the shared arguments (--report/--json and the scene)
        cli._parser.cache_clear()
        assert main(["cost", "--baseline", "flat:512", "--candidate", "flat:256"]) == 0
        assert len(built) == 10

    @given(small_scenes(), st.booleans())
    @example(EDGE_SCENES[0], False)
    @example(EDGE_SCENES[1], True)
    @example(EDGE_SCENES[2], True)
    @example(EDGE_SCENES[3], False)
    @example(EDGE_SCENES[4], True)
    @settings(max_examples=25, deadline=None)
    def test_pipeline_accounting_property(self, scene, guided):
        load, config = scene
        grid, m = load.grid, config.merge.m
        guidance = load.guidance if guided else load.e_lang
        groups = {None: config, "expand": config.expand, "merge": config.merge}
        values = {key: getattr(groups[g], name) for key, (g, name) in CONFIG_KEYS.items()}
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            for name, rows in (("img", load.e_img), ("lang", load.e_lang), ("guidance", load.guidance)):
                write_tokens(rows, d / f"{name}.tkb")
            (d / "cfg.json").write_text(json.dumps(values))
            files = (d / "out.tkb", d / "report.json")
            argv = self.inputs(d) + [
                "--grid", f"{grid.views}x{grid.height}x{grid.width}",
                "--config", str(d / "cfg.json"),
                "--out", str(files[0]),
                "--json", str(files[1]),
                "--no-timing",
            ]  # fmt: skip
            if guided:
                argv += ["--guidance", str(d / "guidance.tkb")]
            first, again = self.call(argv, files), self.call(argv, files)
            result = run_pipeline(load.e_img, load.e_lang, guidance, grid, config)
            write_tokens(result.compressed, d / "expected.tkb")
            expected = (d / "expected.tkb").read_bytes()

        code, out, err, written = first
        assert (code, err) == (0, "")
        rep = report_dict(out)
        kept, final = int(rep["kept"]), int(rep["final_visual"])
        assert kept + int(rep["pruned"]) == grid.total
        assert final == min(kept, m)
        non_visual = load.e_lang.shape[0] + guidance.shape[0]
        assert int(rep["non_visual"]) == non_visual
        assert int(rep["sequence_out"]) == final + non_visual
        assert written["out.tkb"] == expected
        assert json.loads(written["report.json"]) == rep
        assert again == first


class TestCorruptInputs:
    """One corrupted input ends in a result or a typed error that names it."""

    @staticmethod
    def stage_one(*args):
        raise AssertionError("stage one ran")

    @staticmethod
    def container(rows: np.ndarray) -> bytes:
        # the .tkb layout, built without write_tokens' finiteness check
        return struct.pack("<4sII", b"TKB1", *rows.shape) + rows.astype("<f4").tobytes()

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_corrupt_input_property(self, kind, data):
        inputs, grid, config = data.draw(corrupt_scenes(kind))
        name = CORRUPTIONS[kind]
        groups = {None: config, "expand": config.expand, "merge": config.merge}
        values = {key: getattr(groups[g], f) for key, (g, f) in CONFIG_KEYS.items()}
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            if name is not None and kind not in REACH_STAGE_ONE:
                mp.setattr(pipeline, "_prune", self.stage_one)
            d = Path(tmp)
            paths = {key: d / f"{key}.tkb" for key in inputs}
            for key, rows in inputs.items():
                paths[key].write_bytes(self.container(rows))
            (d / "cfg.json").write_text(json.dumps(values))
            files = (d / "out.tkb",)
            argv = [
                "pipeline",
                "--tokens", str(paths["e_img"]),
                "--lang", str(paths["e_lang"]),
                "--guidance", str(paths["guidance"]),
                "--grid", f"{grid.views}x{grid.height}x{grid.width}",
                "--config", str(d / "cfg.json"),
                "--out", str(files[0]),
                "--no-timing",
            ]  # fmt: skip
            code, out, err, written = TestRepeatedCalls.call(argv, files)
            try:
                result = run_pipeline(inputs["e_img"], inputs["e_lang"], inputs["guidance"], grid, config)
            except (ShapeError, ParameterError) as exc:
                result, message = None, str(exc)

        if name is None:
            rep = result.report
            final = min(rep.keep_size, config.merge.m)
            assert rep.keep_size + rep.pruned == grid.total
            assert int(rep.schedule.visual_counts[-1]) == final == result.merge.tokens_after
            assert result.compressed.shape[0] == final + rep.schedule.non_visual
            assert (code, err) == (0, "")
            counts = {k: int(v) for k, v in report_dict(out).items() if k in ("kept", "pruned", "final_visual")}
            assert counts == {"kept": rep.keep_size, "pruned": rep.pruned, "final_visual": final}
            assert written["out.tkb"] == self.container(result.compressed)
            return
        assert result is None and message.startswith(f"{name}: ")
        assert (code, out, written) == (1, "", {})
        # a non-finite payload is refused by the container reader, which names the file
        assert err in (f"error: {message}\n", f"error: {paths[name]}: payload contains non-finite values\n")
