import warnings

import numpy as np
import pytest

import oracles
from tokpress import core
from tokpress.core import ParameterError, ShapeError, sq_norms
from tokpress.merge import (
    EPSILON,
    MergeParams,
    _fold,
    match_logits,
    match_weights,
    soft_bipartite_merge,
    split_source_target,
)
from tokpress.pipeline import CompressionConfig, merge_stage
from tokpress.similarity import relevance_scores, top_m


def rand(shape, seed, scale=1.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(np.float32)


def random_instance(seed):
    rng = np.random.default_rng(seed)
    n_s = int(rng.integers(1, 33))
    n_t = int(rng.integers(0, 97))
    d = int(rng.integers(2, 65))
    s = rng.standard_normal((n_s, d)).astype(np.float32)
    t = rng.standard_normal((n_t, d)).astype(np.float32)
    return s, t


class TestMergeParams:
    def test_bad_m(self):
        with pytest.raises(ParameterError):
            MergeParams(m=0)

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            MergeParams(mode="fuzzy")

    def test_defaults(self):
        p = MergeParams()
        assert p.m == 80 and p.mode == "soft" and EPSILON == 1e-6


def rms_norm(x):
    # against the unit basis a target's logits are its RMS-normalized row: up to EPSILON,
    # rms(e_j) = sqrt(d) e_j, which cancels the logits' 1 / sqrt(d)
    x = np.atleast_2d(x)
    return match_logits(np.eye(x.shape[1]), x)


class TestRmsNorm:
    """The RMS normalization inside ``match_logits``, read off through ``rms_norm`` above."""

    def test_constant_vector(self):
        got = rms_norm(np.full(8, 5.0))
        assert np.allclose(got, 1.0, atol=1e-4)

    def test_zero_vector_stays_zero(self):
        assert np.array_equal(rms_norm(np.zeros(4)), np.zeros((1, 4)))

    def test_closed_form(self):
        got = rms_norm(np.array([3.0, 4.0]))
        assert np.allclose(got, [0.84853, 1.13137], atol=1e-4)

    def test_rowwise_on_matrix(self):
        x = rand((3, 5), 0)
        got = rms_norm(x)
        for i in range(3):
            assert np.allclose(got[i], rms_norm(x[i])[0])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            rms_norm(np.zeros((2, 0)))


class TestSplit:
    def test_all_sources(self):
        tokens = rand((4, 3), 1)
        s, t = split_source_target(tokens, [0, 1, 2, 3])
        assert np.array_equal(s, tokens) and t.shape == (0, 3)

    def test_no_sources(self):
        tokens = rand((4, 3), 2)
        s, t = split_source_target(tokens, [])
        assert s.shape == (0, 3) and np.array_equal(t, tokens)

    def test_partition_order(self):
        tokens = rand((6, 2), 3)
        s, t = split_source_target(tokens, [1, 4])
        assert np.array_equal(s, tokens[[1, 4]])
        assert np.array_equal(t, tokens[[0, 2, 3, 5]])

    def test_bad_index(self):
        from tokpress.core import GridRangeError

        with pytest.raises(GridRangeError):
            split_source_target(rand((3, 2), 4), [3])


class TestSoftMerge:
    def test_no_targets_bitwise_noop(self):
        s = rand((5, 7), 5)
        merged, rep = soft_bipartite_merge(s, np.empty((0, 7), np.float32), MergeParams(m=5))
        assert np.array_equal(merged, s)
        assert merged.dtype == np.float32
        assert (rep.absorbed_weight == 0).all()
        assert rep.tokens_before == rep.tokens_after == 5

    def test_shared_vector_fixed_point(self):
        x = rand((1, 6), 6)
        s = np.repeat(x, 3, axis=0)
        t = np.repeat(x, 4, axis=0)
        merged, _ = soft_bipartite_merge(s, t, MergeParams(m=3))
        assert np.allclose(merged, x, atol=1e-5)

    def test_worked_two_source_instance(self):
        s = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        t = np.array([[1.0, 0.0]], dtype=np.float32)
        merged, rep = soft_bipartite_merge(s, t, MergeParams(m=2))
        want, w, s_vec = oracles.merge_steps(s, t)
        assert np.allclose(merged, want, atol=1e-5)
        assert np.allclose(rep.absorbed_weight, s_vec, atol=1e-9)
        assert rep.source_indices.tolist() == [0, 1]
        # the matching source absorbs strictly more weight
        assert rep.absorbed_weight[0] > rep.absorbed_weight[1]
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_m_must_match_sources(self):
        with pytest.raises(ParameterError):
            soft_bipartite_merge(rand((4, 3), 7), rand((2, 3), 8), MergeParams(m=3))

    def test_no_sources_rejected(self):
        with pytest.raises(ParameterError):
            soft_bipartite_merge(np.empty((0, 3), np.float32), rand((2, 3), 9), MergeParams(m=1))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            soft_bipartite_merge(rand((2, 3), 0), rand((2, 4), 1), MergeParams(m=2))

    def test_width_error_names_targets(self):
        with pytest.raises(ShapeError, match="^targets: embedding width 4, expected 3$"):
            soft_bipartite_merge(rand((2, 3), 0), rand((2, 4), 1), MergeParams(m=2))
        with pytest.raises(ShapeError, match="^targets: embedding width 4, expected 3$"):
            match_logits(rand((2, 3), 0), rand((2, 4), 1))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_step_oracle(self, seed):
        s, t = random_instance(seed)
        merged, rep = soft_bipartite_merge(s, t, MergeParams(m=s.shape[0]))
        want, w, s_vec = oracles.merge_steps(s, t)
        assert np.allclose(merged, want, atol=1e-5)
        assert np.allclose(rep.absorbed_weight, s_vec, atol=1e-8)
        if t.shape[0]:
            assert abs(rep.absorbed_weight.sum() - t.shape[0]) < 1e-4

    def test_convex_hull_bound(self):
        for seed in range(8):
            s, t = random_instance(seed + 100)
            if t.shape[0] == 0:
                continue
            merged, _ = soft_bipartite_merge(s, t, MergeParams(m=s.shape[0]))
            lo = np.minimum(s, t.min(axis=0))
            hi = np.maximum(s, t.max(axis=0))
            assert (merged >= lo).all() and (merged <= hi).all()

    def test_vla_width_degenerate_columns_stay_in_hull(self):
        # where the targets and a source share a column value, the hull can be one
        # point, and the float32 fold's rounding alone would step off it
        cols = np.random.default_rng(40).permutation(4096)
        point, one_source, constant = cols[:1024], cols[1024:2048], cols[2048:2560]
        s, t = rand((16, 4096), 41), rand((120, 4096), 42)
        t[:, one_source] = s[3, one_source]
        t[:, constant] = np.float32(0.1)
        t[:, point] = s[:, point] = rand((1, 1024), 43)
        merged, _ = soft_bipartite_merge(s, t, MergeParams(m=16))
        lo, hi = np.minimum(s, t.min(axis=0)), np.maximum(s, t.max(axis=0))
        assert (merged >= lo).all() and (merged <= hi).all()
        assert (merged[:, point] == s[:, point]).all() and (merged[3, one_source] == s[3, one_source]).all()

    @pytest.mark.parametrize("d", [64, 4096])
    def test_clamp_block_size_leaves_the_rows_bitwise(self, monkeypatch, d):
        # the hull clamp is elementwise, so its row blocks (one block of 80 rows at d=64,
        # 16 rows at d=4096 by default) cannot change a bit
        s, t = rand((80, d), 44), rand((200, d), 45)
        want, _ = soft_bipartite_merge(s, t, MergeParams(m=80))
        monkeypatch.setattr(core, "_BLOCK", 4 * d)
        got, _ = soft_bipartite_merge(s, t, MergeParams(m=80))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_large_activations_match_step_oracle(self, seed):
        # rows at |x| up to 10, as decoder mid-layer activations reach, with each
        # target near one source so the softmax weights are peaked
        gen = np.random.default_rng(seed)
        s = gen.standard_normal((80, 256))
        t = s[gen.integers(0, 80, 120)] + gen.standard_normal((120, 256))
        scale = 10.0 / np.abs(np.vstack([s, t])).max()
        s, t = (s * scale).astype(np.float32), (t * scale).astype(np.float32)
        merged, rep = soft_bipartite_merge(s, t, MergeParams(m=80))
        want, _, s_vec = oracles.merge_steps(s, t)
        assert np.max(np.abs(merged.astype(np.float64) - want)) <= 1e-5
        assert np.allclose(rep.absorbed_weight, s_vec, atol=1e-8)

    @pytest.mark.parametrize("scale", [1e20, 3e37])
    def test_huge_finite_rows_fold_without_overflow(self, scale):
        # float32 products of such rows overflow, so the fold must take float64 copies
        s, t = rand((4, 8), 70, scale), rand((6, 8), 71, scale)
        with np.errstate(over="ignore"):
            assert not np.isfinite(t @ s.T).all()
        merged, rep = soft_bipartite_merge(s, t, MergeParams(m=4))
        hidden = np.vstack([t[:3], s, t[3:]])
        out, stage = merge_stage(hidden, rand((2, 8), 72), (0, 10), CompressionConfig(merge=MergeParams(m=4)))
        rest = np.setdiff1d(np.arange(10), stage.source_indices)
        cases = [(merged, rep, s, t), (out, stage, hidden[stage.source_indices], hidden[rest])]
        for got, report, src, tgt in cases:
            want, _, s_vec = oracles.merge_steps(src, tgt)
            assert np.isfinite(got).all() and np.isfinite(report.absorbed_weight).all()
            assert abs(report.absorbed_weight.sum() - 6) < 1e-9
            assert np.allclose(report.absorbed_weight, s_vec, atol=1e-8)
            assert np.allclose(got, want, rtol=1e-6, atol=0)

    def test_hard_mode_one_hot_assignment(self):
        s, t = rand((4, 5), 20), rand((9, 5), 21)
        logits = match_logits(s, t)
        w = match_weights(logits, "hard")
        assert ((w == 0) | (w == 1)).all()
        assert (w.sum(axis=1) == 1).all()
        assert np.array_equal(np.argmax(w, axis=1), np.argmax(logits, axis=1))
        merged, rep = soft_bipartite_merge(s, t, MergeParams(m=4, mode="hard"))
        want, _, s_vec = oracles.merge_steps(s, t, mode="hard")
        assert np.allclose(merged, want, atol=1e-5)
        assert np.allclose(rep.absorbed_weight, s_vec)
        assert abs(rep.absorbed_weight.sum() - 9) < 1e-12

    def test_hard_tie_breaks_low(self):
        logits = np.array([[0.5, 0.5, 0.1]])
        w = match_weights(logits, "hard")
        assert w.tolist() == [[1.0, 0.0, 0.0]]

    @pytest.mark.parametrize("logits", [np.zeros(3), np.zeros((2, 2, 2))])
    def test_weights_need_2d_logits(self, logits):
        with pytest.raises(ShapeError, match="logits must be 2-D"):
            match_weights(logits)

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_weights_need_a_column(self, mode):
        with pytest.raises(ShapeError, match=r"^logits must be 2-D with at least one column, got shape \(2, 0\)$"):
            match_weights(np.zeros((2, 0)), mode)

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_weights_refuse_complex_logits(self, mode):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the float64 cast would drop the imaginary part with a ComplexWarning
            with pytest.raises(ParameterError, match="^logits: values must be real numbers"):
                match_weights(np.array([[1 + 5j, 2.0]]), mode)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weights_refuse_non_finite_logits(self, bad):
        with pytest.raises(ParameterError, match="^logits: non-finite values are not allowed$"):
            match_weights([[bad, 1.0]])

    def test_weights_keep_empty_target_rows(self):
        assert match_weights(np.zeros((0, 3))).shape == match_weights(np.zeros((0, 3)), "hard").shape == (0, 3)

    def test_weights_unknown_mode(self):
        with pytest.raises(ParameterError, match="mode must be one of"):
            match_weights(np.zeros((2, 3)), "argmax")

    def test_soft_rows_stochastic(self):
        s, t = random_instance(300)
        if t.shape[0] == 0:
            s, t = rand((5, 8), 1), rand((11, 8), 2)
        w = match_weights(match_logits(s, t), "soft")
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-5)
        assert (w >= 0).all()

    def test_temperature_limit_reaches_hard(self):
        # sharpening the soft weights recovers the hard assignment
        for seed in range(6):
            s, t = rand((6, 8), seed), rand((10, 8), seed + 50)
            logits = match_logits(s, t)
            # tie-free check so the limit is well defined; sharpen relative
            # to the narrowest gap so the runner-up weight is ~exp(-40)
            gaps = np.diff(np.sort(logits, axis=1)[:, -2:], axis=1)
            assert (gaps > 1e-6).all()
            soft = match_weights(logits / (gaps.min() / 40.0), "soft")
            hard = match_weights(logits, "hard")
            assert np.abs(soft - hard).max() <= 1e-9

    def test_guidance_scaling_leaves_selection(self):
        e_img, guides = rand((30, 8), 60), rand((4, 8), 61)
        base = top_m(relevance_scores(e_img, guides), 10)
        scaled = top_m(relevance_scores(e_img, guides * np.float32(12.0)), 10)
        assert np.array_equal(base, scaled)



def hard_fold(s, t):
    out = np.empty_like(s)
    absorbed = _fold(s, sq_norms(s.astype(np.float64)), t, sq_norms(t.astype(np.float64)), "hard", out)
    return out, absorbed


class TestHardFold:
    """The hard fold's segment sums against the step oracle, which adds one-hot rows target by target.

    Both add each source's targets in target order in float64, so where the argmax is clear
    the float32 rows are the oracle's, rounded.
    """

    def check(self, s, t):
        got, absorbed = hard_fold(s, t)
        want, w, s_vec = oracles.merge_steps(s, t, mode="hard")
        assert np.array_equal(got, want.astype(np.float32))
        assert np.array_equal(absorbed, s_vec)
        return absorbed

    def test_a_source_absorbs_nothing(self):
        s = np.eye(3, 6, dtype=np.float32)
        t = np.float32(0.1) * rand((9, 6), 80) + np.eye(3, 6, dtype=np.float32)[[0, 1, 1, 0, 1, 0, 0, 1, 1]]
        absorbed = self.check(s, t)
        assert absorbed.tolist() == [4.0, 5.0, 0.0]
        assert np.array_equal(hard_fold(s, t)[0][2], s[2])

    def test_every_target_on_one_source(self):
        s = rand((5, 8), 81)
        t = s[3] + np.float32(0.05) * rand((12, 8), 82)
        assert self.check(s, t).tolist() == [0.0, 0.0, 0.0, 12.0, 0.0]

    def test_exact_logit_ties_go_to_the_lower_source(self):
        s = rand((4, 8), 83)
        s[2], s[3] = s[0], s[1]  # sources 2 and 3 tie exactly with 0 and 1 on every target
        t = s[[0, 1, 0, 0, 1]] + np.float32(0.05) * rand((5, 8), 84)
        assert self.check(s, t).tolist() == [3.0, 2.0, 0.0, 0.0]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        s, t = random_instance(seed + 200)
        if t.shape[0]:
            self.check(s, t)

    def test_rows_at_1e20(self):
        s, t = rand((4, 8), 85, 1e20), rand((10, 8), 86, 1e20)
        got, absorbed = hard_fold(s, t)
        want, _, s_vec = oracles.merge_steps(s, t, mode="hard")
        assert np.isfinite(got).all() and np.array_equal(absorbed, s_vec)
        assert np.allclose(got, want, rtol=1e-6, atol=0)
