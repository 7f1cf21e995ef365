import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tokpress.core import ParameterError, PatchGrid, RngState, ShapeError
from tokpress.expand import ExpandParams
from tokpress.merge import MergeParams
from tokpress.pipeline import CompressionConfig, merge_stage, prune_stage, run_pipeline
from tokpress.workload import WorkloadSpec, generate_workload


def goal_long(seed=0, **overrides):
    base = dict(
        expand=ExpandParams(3, 1),
        context_fraction=0.25,
        merge=MergeParams(m=80),
        merge_layer=16,
        total_layers=32,
        seed=seed,
    )
    base.update(overrides)
    return CompressionConfig(**base)


def load_2view(seed=0):
    return generate_workload(WorkloadSpec(grid=PatchGrid(2, 16, 16), seed=seed))


class TestConfig:
    def test_bad_layer(self):
        with pytest.raises(ParameterError):
            goal_long(merge_layer=32)
        with pytest.raises(ParameterError):
            goal_long(merge_layer=-1)

    def test_bad_fraction(self):
        with pytest.raises(ParameterError):
            goal_long(context_fraction=1.5)

    def test_bad_aggregation(self):
        with pytest.raises(ParameterError):
            goal_long(aggregation="sum")

    def test_bad_seed(self):
        with pytest.raises(ParameterError):
            goal_long(seed=2**64)


class TestPruneStage:
    def test_full_context_keeps_everything(self):
        load = load_2view(1)
        kept, idx, rep = prune_stage(
            load.e_img, load.e_lang, load.grid, goal_long(context_fraction=1.0)
        )
        assert np.array_equal(kept, load.e_img)
        assert idx.tolist() == list(range(512))
        assert rep.pruned == 0

    def test_orthogonal_language_keeps_anchor_only(self):
        # language lives in a direction no patch uses, all similarities are
        # zero, and the argmax parks on token 0; tau=1 stops any expansion
        grid = PatchGrid(1, 4, 4)
        e_img = np.zeros((16, 20), dtype=np.float32)
        e_img[np.arange(16), np.arange(16)] = 1.0
        e_lang = np.zeros((3, 20), dtype=np.float32)
        e_lang[:, 18] = 1.0
        kept, idx, rep = prune_stage(e_img, e_lang, grid, goal_long(context_fraction=0.0))
        assert idx.tolist() == [0]
        assert rep.kept == 1 and rep.kept <= 3
        assert np.array_equal(kept, e_img[:1])

    def test_matches_composition_of_stage_oracles(self):
        load = load_2view(2)
        config = goal_long(seed=5)
        kept, idx, rep = prune_stage(load.e_img, load.e_lang, load.grid, config)

        anchor = sorted(oracles.anchor_cells(load.e_lang, load.e_img))
        bits = np.zeros(load.grid.shape, dtype=bool)
        bits.reshape(-1)[anchor] = True
        expanded = oracles.expand_bits(bits, 3, 1, RngState(5))
        ctx = oracles.stride_indices(512, 0.25)
        want = sorted(set(np.flatnonzero(expanded.reshape(-1)).tolist()) | set(ctx))
        assert idx.tolist() == want
        assert np.array_equal(kept, load.e_img[want])
        assert rep.pruned == 512 - len(want)

    def test_row_count_mismatch(self):
        load = load_2view(3)
        with pytest.raises(ShapeError):
            prune_stage(load.e_img[:-1], load.e_lang, load.grid, goal_long())


class TestMergeStage:
    def test_noop_when_m_covers_range(self):
        load = load_2view(4)
        hidden = load.e_img[:64]
        config = goal_long(merge=MergeParams(m=64))
        out, rep = merge_stage(hidden, load.guidance, (0, 64), config)
        assert np.array_equal(out, hidden)
        assert (rep.absorbed_weight == 0).all()

    def test_single_source_absorbs_all(self):
        rng = np.random.default_rng(6)
        visual = rng.standard_normal((4, 8)).astype(np.float32)
        guidance = visual[2:3].copy()
        config = goal_long(merge=MergeParams(m=1))
        out, rep = merge_stage(visual, guidance, (0, 4), config)
        assert rep.source_indices.tolist() == [2]
        sources, targets = visual[[2]], visual[[0, 1, 3]]
        want, _, s_vec = oracles.merge_steps(sources, targets)
        assert np.allclose(out, want, atol=1e-5)
        assert abs(s_vec.sum() - 3) < 1e-6

    def test_vla_width_matches_step_oracle(self):
        # d=4096, the scale where merge_stage scores and folds one float64 upcast
        load = generate_workload(WorkloadSpec(grid=PatchGrid(1, 8, 12), embed_dim=4096, seed=15))
        hidden = np.vstack([load.e_img, load.e_lang])
        out, rep = merge_stage(hidden, load.guidance, (0, 96), goal_long(merge=MergeParams(m=40)))
        scores = oracles.cosine(load.e_img, load.guidance).max(axis=1).astype(np.float32)
        src = oracles.top_m_indices(scores, 40)
        assert rep.source_indices.tolist() == src
        rest = sorted(set(range(96)) - set(src))
        want, _, s_vec = oracles.merge_steps(load.e_img[src], load.e_img[rest])
        assert np.max(np.abs(out[:40].astype(np.float64) - want)) <= 1e-5
        assert np.allclose(rep.absorbed_weight, s_vec, atol=1e-8)
        assert np.array_equal(out[40:], load.e_lang)

    def test_goal_long_count(self):
        load = load_2view(7)
        out, rep = merge_stage(load.e_img, load.guidance, (0, 512), goal_long())
        assert out.shape[0] == 80
        assert rep.tokens_after == 80 and rep.tokens_before == 512

    def test_non_visual_rows_untouched(self):
        load = load_2view(8)
        hidden = np.vstack([load.e_lang, load.e_img[:100], load.e_lang * 2])
        start, stop = load.e_lang.shape[0], load.e_lang.shape[0] + 100
        config = goal_long(merge=MergeParams(m=10))
        out, rep = merge_stage(hidden, load.guidance, (start, stop), config)
        assert out.shape[0] == hidden.shape[0] - 90
        assert np.array_equal(out[:start], hidden[:start])
        assert np.array_equal(out[start + 10 :], hidden[stop:])
        assert (rep.source_indices >= start).all() and (rep.source_indices < stop).all()

    def test_m_too_large(self):
        load = load_2view(9)
        with pytest.raises(ParameterError):
            merge_stage(load.e_img[:50], load.guidance, (0, 50), goal_long())

    def test_range_forms(self):
        load = load_2view(10)
        config = goal_long(merge=MergeParams(m=16))
        a, _ = merge_stage(load.e_img[:64], load.guidance, (0, 64), config)
        b, _ = merge_stage(load.e_img[:64], load.guidance, range(0, 64), config)
        assert np.array_equal(a, b)
        with pytest.raises(ParameterError):
            merge_stage(load.e_img[:64], load.guidance, range(0, 64, 2), config)
        with pytest.raises(ShapeError):
            merge_stage(load.e_img[:64], load.guidance, (0, 65), config)


class TestRunPipeline:
    def test_noop_config_keeps_flat_schedule(self):
        load = load_2view(11)
        config = goal_long(context_fraction=1.0, merge=MergeParams(m=512))
        result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, config)
        assert (result.report.schedule.visual_counts == 512).all()
        assert result.report.pruned == 0 and result.report.merged_away == 0

    def test_goal_long_two_step_downs(self):
        load = load_2view(12)
        result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, goal_long())
        counts = result.report.schedule.visual_counts
        assert counts[0] == result.report.keep_size < 512
        assert counts[15] == result.report.keep_size
        assert counts[16] == 80 and counts[31] == 80
        assert len(set(counts.tolist())) == 2
        assert result.compressed.shape[0] == 80 + result.report.schedule.non_visual

    def test_conservation(self):
        for seed in range(10):
            load = load_2view(seed + 40)
            result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, goal_long())
            rep = result.report
            assert rep.pruned + rep.keep_size == 512
            assert rep.keep_size - rep.merged_away == 80
            assert (np.diff(rep.schedule.visual_counts) <= 0).all()

    def test_determinism_excluding_timings(self):
        load = load_2view(13)
        config = goal_long(seed=21, expand=ExpandParams(3, 2))
        a = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, config)
        b = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, config)
        assert a.report.keep_size == b.report.keep_size
        assert a.report.pruned == b.report.pruned
        assert np.array_equal(a.kept_indices, b.kept_indices)
        assert np.array_equal(a.compressed, b.compressed)
        assert np.array_equal(a.report.schedule.visual_counts, b.report.schedule.visual_counts)

    def test_seed_only_affects_sparse_flips(self):
        load = load_2view(14)
        cfg_a = goal_long(seed=1, expand=ExpandParams(3, 2))
        cfg_b = goal_long(seed=2, expand=ExpandParams(3, 2))
        ra = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, cfg_a)
        rb = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, cfg_b)

        anchor = sorted(oracles.anchor_cells(load.e_lang, load.e_img))
        bits = np.zeros(load.grid.shape, dtype=bool)
        bits.reshape(-1)[anchor] = True
        deterministic = set(
            np.flatnonzero(oracles.dense_region(bits, 3, 2).reshape(-1)).tolist()
        ) | set(oracles.stride_indices(512, 0.25))
        sym_diff = set(ra.kept_indices.tolist()) ^ set(rb.kept_indices.tolist())
        assert deterministic <= set(ra.kept_indices.tolist())
        assert deterministic <= set(rb.kept_indices.tolist())
        assert not (sym_diff & deterministic)

    @pytest.mark.parametrize("shape,block", [((1, 8, 8), 5), ((1, 12, 12), 5), ((1, 1, 1), 1)])
    def test_default_config_merges_to_kept_when_kept_below_m(self, shape, block):
        load = generate_workload(WorkloadSpec(grid=PatchGrid(*shape), block_size=(block, block)))
        result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, CompressionConfig())
        rep = result.report
        assert rep.keep_size < 80 and rep.merged_away == 0
        assert (rep.schedule.visual_counts == rep.keep_size).all()
        assert np.array_equal(result.compressed[: rep.keep_size], result.kept)

    @given(
        st.integers(1, 2),
        st.integers(1, 10),
        st.integers(1, 10),
        st.sampled_from([1, 3, 5]),
        st.integers(0, 3),
        st.floats(0.0, 1.0),
        st.integers(1, 120),
        st.sampled_from(["soft", "hard"]),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_accounting_property(self, views, h, w, k, tau, fraction, m, mode, seed):
        grid = PatchGrid(views, h, w)
        block = min(h, w, 3)
        load = generate_workload(WorkloadSpec(grid=grid, block_size=(1, block), seed=seed % 1000))
        config = CompressionConfig(
            expand=ExpandParams(k, tau),
            context_fraction=fraction,
            merge=MergeParams(m=m, mode=mode),
            seed=seed,
        )
        a = run_pipeline(load.e_img, load.e_lang, load.guidance, grid, config)
        b = run_pipeline(load.e_img, load.e_lang, load.guidance, grid, config)
        rep = a.report
        final = min(rep.keep_size, m)
        assert rep.keep_size + rep.pruned == grid.total
        assert int(rep.schedule.visual_counts[-1]) == final == a.merge.tokens_after
        assert rep.merged_away == rep.keep_size - final
        assert (np.diff(rep.schedule.visual_counts) <= 0).all()
        assert a.compressed.shape[0] == final + rep.schedule.non_visual
        assert a.compressed.tobytes() == b.compressed.tobytes()
        assert a.kept_indices.tobytes() == b.kept_indices.tobytes()
