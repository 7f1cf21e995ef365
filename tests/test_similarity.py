import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scenes import BLOCK_EDGES
from tokpress import similarity
from tokpress.core import GridRangeError, ParameterError, PatchGrid, ShapeError, sq_norms
from tokpress.similarity import _cosine, _top_m, anchor_mask, relevance_scores, top_m
from tokpress.workload import WorkloadSpec, generate_workload


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


class TestCosineMatrix:
    """``_cosine``, the one cosine formula behind anchors and relevance scores."""

    @staticmethod
    def cosine(a, b):
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        return _cosine(a @ b.T, sq_norms(a), sq_norms(b))

    def test_identical_vectors(self):
        assert self.cosine([[1.0, 0.0]], [[1.0, 0.0]])[0, 0] == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert self.cosine([[1.0, 0.0]], [[0.0, 1.0]])[0, 0] == pytest.approx(0.0)

    def test_closed_form_diagonal(self):
        got = self.cosine([[1.0, 1.0]], [[1.0, 0.0]])[0, 0]
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-5)

    def test_zero_norm_rows_score_zero(self):
        got = self.cosine([[0.0, 0.0], [1.0, 0.0]], [[1.0, 1.0]])
        assert got[0, 0] == 0.0
        assert got[1, 0] != 0.0

    def test_matches_loop_oracle(self):
        a, b = rand((5, 7), 0), rand((4, 7), 1)
        assert np.allclose(self.cosine(a, b), oracles.cosine(a, b), atol=1e-6)

    def test_entries_bounded_and_symmetric(self):
        a = rand((6, 9), 2)
        got = self.cosine(a, a)
        assert (np.abs(got) <= 1 + 1e-5).all()
        assert np.allclose(got, got.T, atol=1e-12)

    @given(st.integers(0, 2**32), st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, seed, scale):
        a, b = rand((3, 5), seed % 1000), rand((4, 5), seed % 997)
        scaled = a.copy()
        scaled[1] *= np.float32(scale)
        assert np.allclose(self.cosine(a, b), self.cosine(scaled, b), atol=1e-5)


class TestAnchorMask:
    def test_exact_copy_sets_that_bit(self):
        grid = PatchGrid(1, 4, 4)
        e_img = rand((16, 8), 3)
        mask = anchor_mask(e_img[5:6], e_img, grid)
        assert mask.token_indices().tolist() == [5]

    def test_union_semantics(self):
        grid = PatchGrid(1, 2, 2)
        e_img = np.eye(4, dtype=np.float32)
        e_lang = np.stack([e_img[0], e_img[0] * 2.0])
        mask = anchor_mask(e_lang, e_img, grid)
        assert mask.count() == 1
        assert mask.token_indices().tolist() == [0]

    def test_matches_argmax_oracle(self):
        grid = PatchGrid(1, 4, 4)
        e_img, e_lang = rand((16, 6), 4), rand((4, 6), 5)
        mask = anchor_mask(e_lang, e_img, grid)
        assert set(mask.token_indices().tolist()) == oracles.anchor_cells(e_lang, e_img)
        assert mask.count() <= 4

    def test_argmax_tie_goes_low(self):
        grid = PatchGrid(1, 1, 3)
        e_img = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        mask = anchor_mask(np.array([[2.0, 0.0]], dtype=np.float32), e_img, grid)
        assert mask.token_indices().tolist() == [0]

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            anchor_mask(rand((1, 4), 0), rand((9, 4), 1), PatchGrid(1, 4, 4))

    @pytest.mark.parametrize("shape", [(0, 4), (2, 3), (2, 5)])
    def test_language_errors_name_e_lang(self, shape):
        with pytest.raises(ShapeError, match="^e_lang: "):
            anchor_mask(rand(shape, 0), rand((16, 4), 1), PatchGrid(1, 4, 4))

    def test_scaling_language_row_leaves_mask(self):
        grid = PatchGrid(1, 4, 4)
        e_img, e_lang = rand((16, 6), 8), rand((3, 6), 9)
        base = anchor_mask(e_lang, e_img, grid)
        scaled = anchor_mask(e_lang * np.float32(7.5), e_img, grid)
        assert np.array_equal(base.bits, scaled.bits)


class TestScreenedArgmax:
    """The float32 screen never changes the float64 decision the oracle makes."""

    @pytest.mark.parametrize("d", [7, 64, 100, 4096])
    def test_exact_duplicates_lower_index_wins(self, d):
        grid = PatchGrid(1, 4, 10)
        e_img = rand((40, d), 20)
        copies = [3, 8, 17, 22, 31, 39]
        e_img[copies] = e_img[copies[0]]
        e_lang = np.vstack([e_img[3] + 0.01 * rand((1, d), 21)[0], e_img[3] * np.float32(5.0)])
        mask = anchor_mask(e_lang, e_img, grid)
        assert mask.token_indices().tolist() == [3]
        assert set(mask.token_indices().tolist()) == oracles.anchor_cells(e_lang, e_img)

    def test_near_duplicates_a_few_ulps_apart(self):
        # rows that differ by one float32 ulp in a few coordinates are closer
        # than float32 can resolve at d=4096, far apart in float64
        d, grid = 4096, PatchGrid(1, 2, 3)
        gen = np.random.default_rng(22)
        flipped = 0
        for seed in range(24):
            base = rand((1, d), 100 + seed)[0]
            e_img = np.repeat(base[None], 6, axis=0)
            for row in range(1, 6):
                coords = gen.choice(d, size=int(gen.integers(1, 6)), replace=False)
                toward = np.where(gen.random(coords.size) < 0.5, np.inf, -np.inf).astype(np.float32)
                e_img[row, coords] = np.nextafter(e_img[row, coords], toward)
            e_lang = (base + 0.5 * rand((1, d), 200 + seed)[0])[None]
            want = oracles.anchor_cells(e_lang, e_img)
            assert set(anchor_mask(e_lang, e_img, grid).token_indices().tolist()) == want
            screen = (e_lang @ e_img.T) / np.sqrt(np.einsum("ij,ij->i", e_img, e_img))
            flipped += int(np.argmax(screen[0])) not in want
        assert flipped > 0  # float32 alone would have picked another row

    def test_zero_rows(self):
        grid = PatchGrid(1, 3, 3)
        e_img = np.abs(rand((9, 5), 23))
        e_img[[2, 6]] = 0.0
        # nonzero image rows score negative against the first language row, so
        # the lower zero image row wins; a zero language row scores 0 everywhere
        e_lang = np.stack([np.full(5, -1.0, np.float32), np.zeros(5, np.float32), e_img[4]])
        mask = anchor_mask(e_lang, e_img, grid)
        assert set(mask.token_indices().tolist()) == oracles.anchor_cells(e_lang, e_img) == {0, 2, 4}

    @pytest.mark.parametrize("img_scale", [1e-30, 1.0, 1e20])
    @pytest.mark.parametrize("lang_scale", [1e-30, 1.0, 1e20, 1e37])
    def test_extreme_row_scales(self, img_scale, lang_scale):
        # at 1e37 an unscaled float32 dot with a row of norm 1e8 overflows
        grid = PatchGrid(2, 4, 4)
        e_img, e_lang = rand((32, 48), 24), rand((5, 48), 25)
        e_img[::3] *= np.float32(img_scale)
        e_img[1::3] *= np.float32(1e8)
        e_lang[::2] *= np.float32(lang_scale)
        got = anchor_mask(e_lang, e_img, grid)
        assert set(got.token_indices().tolist()) == oracles.anchor_cells(e_lang, e_img)

    def test_subnormal_language_row(self):
        # unscaled, both float32 products with row 0 round to zero and row 1 wins the screen
        tiny = np.float32(2.0**-149)
        e_lang = np.array([[tiny, tiny]], dtype=np.float32)
        e_img = np.array([[0.49, 0.49], [0.51, 0.0]], dtype=np.float32)
        got = anchor_mask(e_lang, e_img, PatchGrid(1, 1, 2)).token_indices().tolist()
        assert set(got) == oracles.anchor_cells(e_lang, e_img) == {0}

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(1, 24),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_random_grids(self, seed, views, h, w, d):
        gen = np.random.default_rng(seed)
        grid = PatchGrid(views, h, w)
        e_img = gen.standard_normal((grid.total, d)).astype(np.float32)
        e_lang = gen.standard_normal((int(gen.integers(1, 5)), d)).astype(np.float32)
        n = grid.total
        e_img[gen.random(n) < 0.2] = 0.0
        dup = gen.random(n) < 0.2
        e_img[dup] = e_img[int(gen.integers(0, n))]
        e_img *= np.float32(10.0) ** gen.choice([-30, 0, 20], size=(n, 1)).astype(np.float32)
        got = anchor_mask(e_lang, e_img, grid)
        assert set(got.token_indices().tolist()) == oracles.anchor_cells(e_lang, e_img)


class TestLoneCandidate:
    """A language row with one screen candidate takes it; two or more are re-scored in float64."""

    @pytest.fixture()
    def rescored(self, monkeypatch):
        # anchor_mask reaches the float64 cosine only through the re-scoring
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            return _cosine(*args)

        monkeypatch.setattr(similarity, "_cosine", counted)
        return calls

    @staticmethod
    def default_scene():
        return generate_workload(WorkloadSpec(grid=PatchGrid(2, 16, 16)))

    def test_default_scene_is_never_rescored(self, rescored):
        load = self.default_scene()
        got = anchor_mask(load.e_lang, load.e_img, load.grid).token_indices().tolist()
        assert set(got) == oracles.anchor_cells(load.e_lang, load.e_img)
        assert rescored == []

    def test_higher_index_duplicate_of_an_anchor_is_rescored_and_the_lower_wins(self, rescored):
        load = self.default_scene()
        anchors = anchor_mask(load.e_lang, load.e_img, load.grid).token_indices()
        copy = max(set(range(load.grid.total)) - set(anchors.tolist()))
        e_img = load.e_img.copy()
        e_img[copy] = e_img[anchors[0]]
        rescored.clear()
        got = anchor_mask(load.e_lang, e_img, load.grid).token_indices()
        assert got.tolist() == anchors.tolist()
        assert set(got.tolist()) == oracles.anchor_cells(load.e_lang, e_img)
        assert len(rescored) == 1

    def test_zero_image_row_matches_oracle(self, rescored):
        # a zero row is outside the screen's bound, so it is always a candidate
        load = self.default_scene()
        e_img = load.e_img.copy()
        e_img[5] = 0.0
        got = anchor_mask(load.e_lang, e_img, load.grid).token_indices().tolist()
        assert set(got) == oracles.anchor_cells(load.e_lang, e_img)
        assert len(rescored) == 1

    def test_one_image_row_matches_oracle(self, rescored):
        e_img, e_lang = rand((1, 16), 40), rand((3, 16), 41)
        got = anchor_mask(e_lang, e_img, PatchGrid(1, 1, 1)).token_indices().tolist()
        assert set(got) == oracles.anchor_cells(e_lang, e_img) == {0}
        assert rescored == []


class TestRelevanceScores:
    def test_copy_scores_one(self):
        e_img = rand((8, 5), 10)
        scores = relevance_scores(e_img, e_img[3:4])
        assert scores[3] == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_scores_zero(self):
        e_img = np.array([[1.0, 0.0, 0.0]], dtype=np.float32)
        guides = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=np.float32)
        assert relevance_scores(e_img, guides)[0] == pytest.approx(0.0, abs=1e-7)

    def test_max_matches_oracle(self):
        e_img, guides = rand((8, 6), 11), rand((3, 6), 12)
        expected = oracles.cosine(e_img, guides).max(axis=1)
        assert np.allclose(relevance_scores(e_img, guides), expected, atol=1e-6)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 4)])
    def test_guide_errors_name_guides(self, shape):
        with pytest.raises(ShapeError, match="^guides: "):
            relevance_scores(rand((5, 3), 0), rand(shape, 1))

    def test_image_errors_name_e_img(self):
        with pytest.raises(ShapeError, match="^e_img: needs at least one row, got 0$"):
            relevance_scores(rand((0, 3), 0), rand((2, 3), 1))
        with pytest.raises(ParameterError, match="^e_img: "):
            relevance_scores(np.full((2, 3), np.nan, np.float32), rand((2, 3), 1))

    def test_zero_norm_rows_score_zero(self):
        e_img = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32)
        assert relevance_scores(e_img, [[1.0, 1.0]]).tolist() == [0.0, pytest.approx(2**-0.5)]
        # a zero guide scores 0, so it beats guides that every image row opposes
        assert relevance_scores(e_img, [[-1.0, 0.0], [0.0, 0.0]]).tolist() == [0.0, 0.0]

    @given(st.integers(0, 2**32), st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, seed, scale):
        e_img, guides = rand((4, 5), seed % 1000), rand((3, 5), seed % 997)
        scaled_img, scaled_guides = e_img.copy(), guides.copy()
        scaled_img[1] *= np.float32(scale)
        scaled_guides[2] *= np.float32(scale)
        base = relevance_scores(e_img, guides)
        assert np.allclose(relevance_scores(scaled_img, guides), base, atol=1e-6)
        assert np.allclose(relevance_scores(e_img, scaled_guides), base, atol=1e-6)


class TestBlockedRelevance:
    """Rows are scored a block at a time; row counts on and around the block edges."""

    @pytest.mark.parametrize("d,n", BLOCK_EDGES)
    def test_scores_and_ranking_match_the_whole_matrix_cosine(self, d, n):
        e_img, guides = rand((n, d), n), rand((5, d), d)
        rows, g = e_img.astype(np.float64), guides.astype(np.float64)
        whole = (rows @ g.T / np.outer(np.sqrt(sq_norms(rows)), np.sqrt(sq_norms(g)))).max(axis=1)
        got = relevance_scores(e_img, guides)
        # each float32 score is the rounding of a value within 1e-12 of the whole-matrix score
        assert ((whole - 1e-12).astype(np.float32) <= got).all()
        assert (got <= (whole + 1e-12).astype(np.float32)).all()
        m = (n + 1) // 2
        assert top_m(got, m).tolist() == oracles.top_m_indices(whole.astype(np.float32), m)


class TestTopMKernel:
    """``_top_m``, which the pipeline calls on unchecked float32 scores, against the sort oracle."""

    @pytest.mark.parametrize("m", [0, 1, 4, 7, 12])
    def test_tied_scores_match_oracle(self, m):
        scores = np.array([0.5, 0.9, 0.5, 0.1, 0.9, 0.5, 0.1, 0.9, 0.0, 0.5, -0.0, 0.9], dtype=np.float32)
        got = _top_m(scores, m)
        assert got.dtype == np.int64 and got.tolist() == oracles.top_m_indices(scores, m)

    @pytest.mark.parametrize("n", [1, 25])
    def test_zero_and_all(self, n):
        scores = rand((n,), 17)
        assert _top_m(scores, 0).tolist() == oracles.top_m_indices(scores, 0) == []
        assert _top_m(scores, n).tolist() == oracles.top_m_indices(scores, n) == list(range(n))


class TestTopM:
    def test_full_and_empty(self):
        scores = np.array([0.5, 0.1, 0.9], dtype=np.float32)
        assert top_m(scores, 3).tolist() == [0, 1, 2]
        assert top_m(scores, 0).tolist() == []

    def test_tie_breaks_low(self):
        assert top_m(np.array([0.2, 0.9, 0.9, 0.1], dtype=np.float32), 2).tolist() == [1, 2]

    def test_float64_scores_are_ranked_unrounded(self):
        # both scores round to 1.0 in float32, which would tie them and pick index 0
        assert top_m(np.array([1.0, 1.0 + 1e-9]), 1).tolist() == [1]

    def test_float64_scores_beyond_float32_range_are_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert top_m(np.array([1e300, 0.0]), 1).tolist() == [0]

    def test_m_too_large(self):
        with pytest.raises(GridRangeError):
            top_m(np.array([0.1, 0.2], dtype=np.float32), 3)

    def test_2d_scores_rejected(self):
        with pytest.raises(ShapeError, match="scores must be 1-D"):
            top_m(np.zeros((2, 3), dtype=np.float32), 1)

    def test_min_selected_beats_max_unselected(self):
        scores = rand((40,), 15)
        chosen = top_m(scores, 12)
        rest = np.setdiff1d(np.arange(40), chosen)
        assert scores[chosen].min() >= scores[rest].max()

    def test_matches_sort_oracle(self):
        scores = rand((25,), 16)
        assert top_m(scores, 9).tolist() == oracles.top_m_indices(scores, 9)

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            top_m(np.array([0.1, np.nan], dtype=np.float32), 1)

    @pytest.mark.parametrize("m", [1.5, 2.0, True, np.float64(1)])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(ParameterError, match="^m must be an integer"):
            top_m(np.array([0.1, 0.2, 0.3]), m)

    def test_numpy_integer_m_accepted(self):
        assert top_m(np.array([0.1, 0.3, 0.2]), np.int64(2)).tolist() == [1, 2]
