import dataclasses
import json

import numpy as np
import pytest

from tokpress.cli import CONFIG_KEYS, load_config, main, parse_grid, parse_schedule
from tokpress.core import ParameterError
from tokpress.expand import ExpandParams
from tokpress.merge import MergeParams
from tokpress.pipeline import CompressionConfig, prune_stage
from tokpress.tokenfile import read_tokens


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
                "aggregation": "max",
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
        assert cfg.merge.mode == "soft" and cfg.aggregation == "max"

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

    def test_per_view_anchors_must_be_boolean(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"per_view_anchors": "false"}')
        with pytest.raises(ParameterError, match="per_view_anchors"):
            load_config(path)

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"tau": 1.9}', "tau"),
            ('{"top_m": "40"}', "top_m"),
            ('{"kernel_size": true}', "kernel_size"),
            ('{"context_fraction": "0.5"}', "context_fraction"),
        ],
    )
    def test_wrong_json_type_names_key(self, tmp_path, text, key):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ParameterError, match=key):
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
        targets = [(group, name) for group, name, _ in CONFIG_KEYS.values()]
        assert len(set(targets)) == len(targets)
        assert set(targets) == leaves

    def test_every_key_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TEAMC_SEED", raising=False)
        values = {
            "kernel_size": 5,
            "tau": 2,
            "context_fraction": 0.5,
            "top_m": 40,
            "merge_mode": "hard",
            "merge_layer": 3,
            "total_layers": 8,
            "seed": 7,
            "aggregation": "mean",
            "per_view_anchors": True,
        }
        assert set(values) == set(CONFIG_KEYS)
        default = CompressionConfig()
        for key, (group, name, _) in CONFIG_KEYS.items():
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
            aggregation="mean",
            per_view_anchors=True,
        )

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParameterError):
            load_config(path)

    def test_env_seed_overrides(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 5}')
        monkeypatch.setenv("TEAMC_SEED", "99")
        assert load_config(path).seed == 99
        monkeypatch.delenv("TEAMC_SEED")
        assert load_config(path).seed == 5

    def test_env_seed_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("TEAMC_SEED", "pi")
        with pytest.raises(ParameterError):
            load_config(None)


class TestParsers:
    def test_grid_three_part(self):
        g = parse_grid("2x16x16")
        assert (g.views, g.height, g.width) == (2, 16, 16)

    def test_grid_two_part_single_view(self):
        g = parse_grid("8x12")
        assert (g.views, g.height, g.width) == (1, 8, 12)

    @pytest.mark.parametrize("bad", ["16", "axb", "1x2x3x4", ""])
    def test_grid_rejects(self, bad):
        with pytest.raises(ParameterError):
            parse_grid(bad)

    def test_schedule_flat(self):
        s = parse_schedule("flat:576", 4, 0)
        assert s.visual_counts.tolist() == [576] * 4

    def test_schedule_step(self):
        s = parse_schedule("step:196,80@2", 4, 64)
        assert s.visual_counts.tolist() == [196, 196, 80, 80]
        assert s.non_visual == 64

    @pytest.mark.parametrize("bad", ["flat", "flat:x", "step:1@2", "ramp:3", "step:9,9"])
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

    @pytest.mark.parametrize("grid,block", [("1x8x8", "5"), ("1x12x12", "5"), ("1x1x1", "1")])
    def test_pipeline_small_scene_merges_to_kept(self, tmp_path, capsys, grid, block):
        # the default config keeps fewer than its m = 80 sources here
        w = tmp_path / "w"
        gen = ["gen", "--out-dir", str(w), "--grid", grid, "--block-min", block, "--block-max", block]
        assert main(gen) == 0
        capsys.readouterr()
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

    def test_per_view_anchors_key_reaches_viz_prune_and_pipeline(self, workload_dir, tmp_path, capsys):
        path = tmp_path / "per_view.json"
        path.write_text('{"per_view_anchors": true}')
        config = load_config(path)
        assert config.per_view_anchors
        grid = parse_grid("2x16x16")
        img, lang = read_tokens(workload_dir / "img.tkb"), read_tokens(workload_dir / "lang.tkb")
        _, want_idx, want = prune_stage(img, lang, grid, config)
        assert want.anchors != prune_stage(img, lang, grid, load_config(None))[2].anchors

        args = ["--tokens", str(workload_dir / "img.tkb"), "--lang", str(workload_dir / "lang.tkb"),
                "--grid", "2x16x16", "--config", str(path)]  # fmt: skip
        assert main(["viz", *args, "--out", str(tmp_path / "pv"), "--mask-stage", "anchor"]) == 0
        assert int(report_dict(capsys.readouterr().out)["bits"]) == want.anchors
        assert main(["prune", *args]) == 0
        rep = report_dict(capsys.readouterr().out)
        assert [int(i) for i in rep["kept_indices"].split(",")] == want_idx.tolist()
        assert main(["pipeline", *args, "--no-timing"]) == 0
        rep = report_dict(capsys.readouterr().out)
        assert (int(rep["anchors"]), int(rep["expanded"]), int(rep["kept"])) == (want.anchors, want.expanded, want.kept)

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

    def test_bench_reports_percentiles(self, capsys):
        code = main(["bench", "--stage", "expand", "--reps", "30"])
        assert code == 0
        rep = report_dict(capsys.readouterr().out)
        assert float(rep["p50_ms"]) <= float(rep["p95_ms"])
        assert float(rep["mean_ms"]) > 0

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


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code = main(
            ["prune", "--tokens", "/nonexistent.tkb", "--lang", "/nope.tkb", "--grid", "2x16x16"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_config_json(self, tmp_path, workload_dir, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
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
        assert capsys.readouterr().err.startswith("error:")

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
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bench_zero_reps(self, capsys):
        code = main(["bench", "--stage", "expand", "--reps", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
