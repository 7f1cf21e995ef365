import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tokpress.core import ParameterError, ShapeError
from tokpress.merge import (
    EPSILON,
    MergeParams,
    match_logits,
    match_weights,
    rms_norm,
    soft_bipartite_merge,
    split_source_target,
)
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


class TestRmsNorm:
    def test_constant_vector(self):
        got = rms_norm(np.full(8, 5.0))
        assert np.allclose(got, 1.0, atol=1e-4)

    def test_zero_vector_stays_zero(self):
        assert np.array_equal(rms_norm(np.zeros(4)), np.zeros(4))

    def test_closed_form(self):
        got = rms_norm(np.array([3.0, 4.0]))
        assert np.allclose(got, [0.84853, 1.13137], atol=1e-4)

    def test_rowwise_on_matrix(self):
        x = rand((3, 5), 0)
        got = rms_norm(x)
        for i in range(3):
            assert np.allclose(got[i], rms_norm(x[i]))

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

    def test_source_indices_recorded(self):
        s, t = rand((3, 4), 70), rand((2, 4), 71)
        _, rep = soft_bipartite_merge(s, t, MergeParams(m=3), source_indices=[2, 5, 9])
        assert rep.source_indices.tolist() == [2, 5, 9]
        with pytest.raises(ShapeError):
            soft_bipartite_merge(s, t, MergeParams(m=3), source_indices=[1, 2])
