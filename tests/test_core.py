import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import splitmix
from scenes import mask_of
from tokpress.core import (
    BinaryMask,
    CounterStream,
    GridRangeError,
    ParameterError,
    PatchGrid,
    RngState,
    ShapeError,
    _accepts,
    _row_blocks,
    index_set,
    sq_norms,
    token_matrix,
)
from tokpress.similarity import relevance_scores

grids = st.builds(
    PatchGrid,
    st.integers(1, 3),
    st.integers(1, 12),
    st.integers(1, 12),
)


class TestTokenMatrix:
    def test_accepts_nested_lists(self):
        m = token_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.dtype == np.float32 and m.flags.c_contiguous
        assert m.shape == (2, 2)

    def test_zero_rows_allowed(self):
        assert token_matrix(np.empty((0, 5), dtype=np.float32)).shape == (0, 5)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2, 2)), np.zeros((3, 0))])
    def test_rejects_bad_shapes(self, bad):
        with pytest.raises(ShapeError):
            token_matrix(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ParameterError):
            token_matrix([[1.0, value]])

    @pytest.mark.parametrize(
        "bad", [np.array([[1 + 2j, 3]]), [[1 + 2j, 3]], [[np.complex64(1), 3]], [["a"]], [[1.0, 2.0], [3.0]]]
    )
    def test_rejects_non_real_values_naming_input(self, bad):
        with pytest.raises(ParameterError, match="^e_img: values must be real numbers"):
            token_matrix(bad, name="e_img")
        with pytest.raises(ParameterError, match="^e_img: values must be real numbers"):
            relevance_scores(bad, [[1.0, 0.0]])

    def test_float32_view_not_copied(self):
        src = np.ones((2, 2), dtype=np.float32)
        assert token_matrix(src) is src


class TestSqNorms:
    def test_overflowing_float32_norm_is_inf_without_a_warning(self):
        # callers test the norms for finiteness, so an overflow is an answer, not a warning
        row = np.full((1, 3), 3e38, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sq_norms(row).tolist() == [np.inf]

    @given(st.integers(0, 2048), st.sampled_from([np.float32, np.float64]), st.integers(0, 7), st.integers(0, 2**32))
    def test_equal_rows_get_bitwise_equal_norms(self, half, dtype, offset, seed):
        # odd widths start the rows of a flat buffer at every alignment, and offset shifts them all
        width = 2 * half + 1
        row = np.random.default_rng(seed).standard_normal(width).astype(dtype)
        rows = np.empty(offset + 3 * width, dtype)[offset:].reshape(3, width)
        rows[...] = row
        norms = np.concatenate([sq_norms(rows), sq_norms(row[None]), sq_norms(np.vstack([row, -row]))])
        assert norms.dtype == dtype
        assert np.unique(norms.view(f"u{norms.itemsize}")).size == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_row_gets_the_same_norm_in_any_batch(self, dtype):
        # each row's norm, alone, in a 16-row block, in a 1 MB span (64 float32 or 32 float64
        # rows at d=4096) and in the whole matrix, has the same bits: the scan takes its norms
        # per span, relevance per block and the anchor re-score per candidate row
        rng = np.random.default_rng(7)
        rows = (rng.standard_normal((600, 4096)) * np.exp2(rng.integers(-30, 30, (600, 1)))).astype(dtype)
        whole = sq_norms(rows)
        assert whole.dtype == dtype
        for size in (1, 16, 2**20 // (4096 * rows.itemsize)):
            batched = np.concatenate([sq_norms(rows[i : i + size]) for i in range(0, 600, size)])
            assert batched.tobytes() == whole.tobytes(), size


class TestRowBlocks:
    # 256 KB blocks: 16 float32 or 8 float64 rows at d=4096, and one row when a row is larger
    @pytest.mark.parametrize(
        "rows,width,itemsize,size",
        [(512, 4096, 4, 16), (517, 4096, 8, 8), (300, 64, 4, 1024), (3, 2**17, 4, 1), (0, 64, 8, 512)],
    )
    def test_blocks_of_one_size_cover_the_rows_in_order(self, rows, width, itemsize, size):
        blocks = _row_blocks(rows, width, itemsize)
        assert [i for b in blocks for i in range(rows)[b]] == list(range(rows))
        assert {b.stop - b.start for b in blocks} <= {size}

    # the e_img scan's spans: four blocks, 1 MB at d=4096, or four rows when a row is larger than a block
    @pytest.mark.parametrize(
        "rows,width,itemsize,size", [(600, 4096, 4, 64), (517, 4096, 8, 32), (3, 2**17, 4, 4), (0, 64, 4, 4096)]
    )
    def test_spans_of_four_blocks_cover_the_rows_in_order(self, rows, width, itemsize, size):
        spans = _row_blocks(rows, width, itemsize, span=True)
        assert [i for s in spans for i in range(rows)[s]] == list(range(rows))
        assert {s.stop - s.start for s in spans} <= {size}


class TestIndexSet:
    def test_sorts_and_dedups(self):
        assert index_set([5, 1, 5, 3]).tolist() == [1, 3, 5]

    def test_negative_rejected(self):
        with pytest.raises(GridRangeError):
            index_set([-1, 2])

    def test_limit_enforced(self):
        with pytest.raises(GridRangeError):
            index_set([0, 10], limit=10)
        assert index_set([0, 9], limit=10).tolist() == [0, 9]

    def test_empty(self):
        assert index_set([]).size == 0

    def test_uint64_past_int64_is_out_of_range_not_negative(self):
        # the range checks read the values before the int64 cast, which would wrap 2**64 - 1 to -1
        with pytest.raises(GridRangeError, match="^indices: index 18446744073709551615 out of range for 10 tokens$"):
            index_set(np.array([2**64 - 1], np.uint64), limit=10)

    def test_python_int_past_int64_is_out_of_range_not_a_float(self):
        # numpy reads [2**63, 5] as float64; the list's ints are checked as given
        with pytest.raises(GridRangeError, match="^indices: index 9223372036854775808 out of range for 10 tokens$"):
            index_set([2**63, 5], limit=10)
        with pytest.raises(GridRangeError, match="^indices: negative index -1$"):
            index_set([np.uint64(5), -1])
        assert index_set([2**63 - 1, np.uint64(5)]).tolist() == [5, 2**63 - 1]

    def test_bool_in_a_list_refused(self):
        with pytest.raises(ParameterError, match="^indices: indices must be integers, got True$"):
            index_set([3, True], limit=10)

    @pytest.mark.parametrize("bad", [[1.5, 2.7], [1.0, 2.0], np.array([True, False, True])])
    def test_non_integer_dtype_rejected(self, bad):
        with pytest.raises(ParameterError, match="^context: indices must be integers"):
            index_set(bad, name="context")

    def test_integer_dtypes_accepted(self):
        assert index_set(np.array([3, 1], dtype=np.uint8)).tolist() == [1, 3]
        assert index_set(np.array([2, 0], dtype=np.int32)).dtype == np.int64


class TestPatchGrid:
    def test_degenerate_dims_rejected(self):
        with pytest.raises(ParameterError):
            PatchGrid(0, 4, 4)
        with pytest.raises(ParameterError):
            PatchGrid(1, 4, 0)

    def test_narrow_numpy_axes_do_not_wrap(self):
        grid = PatchGrid(np.uint8(2), np.uint8(16), np.uint8(16))
        assert grid.total == 512 and grid == PatchGrid(2, 16, 16)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("value", [2.0, 16.5, True, np.float64(4)])
    def test_non_integer_axis_rejected(self, axis, value):
        dims = [2, 16, 16]
        dims[axis] = value
        name = ("views", "height", "width")[axis]
        with pytest.raises(ParameterError, match=f"^PatchGrid.{name} must be an integer"):
            PatchGrid(*dims)

    def test_numpy_integer_axes_accepted(self):
        grid = PatchGrid(np.int64(2), np.int32(3), np.uint8(4))
        assert grid.total == 24 and grid.shape == (2, 3, 4)

    # Token order is view-major, then row-major:
    # token index = view * height * width + row * width + col.
    def test_flatten_second_view(self):
        bits = np.zeros((2, 16, 16), dtype=bool)
        bits[1, 0, 0] = True
        assert BinaryMask(PatchGrid(2, 16, 16), bits).token_indices().tolist() == [256]
        bits = np.zeros((2, 3, 4), dtype=bool)
        bits[1, 2, 3] = bits[0, 1, 0] = True
        assert BinaryMask(PatchGrid(2, 3, 4), bits).token_indices().tolist() == [4, 23]

    def test_unflatten_examples(self):
        def cells(grid, index):
            return np.argwhere(mask_of(grid, [index]).bits).tolist()

        assert cells(PatchGrid(2, 16, 16), 256) == [[1, 0, 0]]
        assert cells(PatchGrid(2, 3, 4), 23) == [[1, 2, 3]]
        assert cells(PatchGrid(2, 3, 4), 4) == [[0, 1, 0]]


class TestBinaryMask:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            BinaryMask(PatchGrid(1, 2, 2), np.zeros((2, 2), dtype=bool))

    def test_bits_frozen(self):
        mask = mask_of(PatchGrid(1, 2, 2))
        with pytest.raises(ValueError):
            mask.bits[0, 0, 0] = True

    def test_token_indices_round_trip(self):
        grid = PatchGrid(2, 3, 3)
        mask = mask_of(grid, [0, 7, 17])
        assert mask.token_indices().tolist() == [0, 7, 17]
        assert mask.count() == 3

    @given(grids, st.data())
    def test_token_order_property(self, grid, data):
        cell = tuple(data.draw(st.integers(0, n - 1)) for n in grid.shape)
        idx = np.ravel_multi_index(cell, grid.shape)
        mask = mask_of(grid, [idx])
        assert mask.count() == 1 and mask.bits[cell]
        assert mask.token_indices().tolist() == [idx]


class TestRngState:
    def test_seed_range(self):
        with pytest.raises(ParameterError):
            RngState(-1)
        with pytest.raises(ParameterError):
            RngState(2**64)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ParameterError, match="^seed must be an integer"):
            RngState(seed)

    def test_numpy_integer_seed_gives_the_same_stream(self):
        assert np.array_equal(RngState(np.uint64(7)).values(0, 20), RngState(7).values(0, 20))

    def test_equal_seeds_equal_streams(self):
        # 10^6 draws, bitwise
        a = RngState(12345).values(0, 1_000_000)
        b = RngState(12345).values(0, 1_000_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngState(1).values(0, 100), RngState(2).values(0, 100))

    def test_counter_addressing_is_offset_stable(self):
        rng = RngState(9)
        assert np.array_equal(rng.values(100, 50), rng.values(0, 150)[100:])

    def test_uniform_index_bounds(self):
        rng = RngState(77)
        for n in (1, 2, 7, 97):
            draws = {rng.uniform_index(base * 16, n) for base in range(200)}
            assert all(0 <= d < n for d in draws)
        assert rng.uniform_index(0, 1) == 0

    def test_uniform_index_covers_support(self):
        rng = RngState(5)
        draws = {rng.uniform_index(base * 16, 5) for base in range(300)}
        assert draws == {0, 1, 2, 3, 4}

    def test_uniform_index_invalid_n(self):
        with pytest.raises(ParameterError):
            RngState(0).uniform_index(0, 0)

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_uniform_index_non_integer_n_rejected(self, n):
        with pytest.raises(ParameterError, match="^n must be an integer"):
            RngState(0).uniform_index(0, n)

    @pytest.mark.parametrize("start, count, name", [(0, 2.5, "count"), (1.5, 2, "start"), (0, True, "count")])
    def test_values_non_integer_rejected(self, start, count, name):
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            RngState(1).values(start, count)

    @pytest.mark.parametrize("start, count", [(2**64, 1), (2**64 - 1, 2), (2**64, 0), (2**64 - 16, 17)])
    def test_values_past_the_last_counter_rejected(self, start, count):
        # counters are uint64, so start + count may not pass 2**64
        with pytest.raises(ParameterError, match="^start must lie in "):
            RngState(0).values(start, count)

    def test_values_up_to_the_last_counter(self):
        rng = RngState(3)
        assert rng.values(2**64 - 2, 2).tolist() == [splitmix.draw(3, t) for t in (2**64 - 2, 2**64 - 1)]
        assert rng.values(2**64 - 1, 0).size == 0

    @pytest.mark.parametrize("base", [2**64, 2**64 - 15])
    def test_uniform_index_past_the_last_counter_rejected(self, base):
        with pytest.raises(ParameterError, match="^counter_base must lie in "):
            RngState(0).uniform_index(base, 3)

    def test_values_numpy_integers_accepted(self):
        assert np.array_equal(RngState(1).values(np.int64(3), np.uint8(4)), RngState(1).values(3, 4))

    def test_draws_match_integer_splitmix64(self):
        # the standard splitmix64 stream for seed 0 starts e220a839..., 6e789e6a...
        assert RngState(0).values(0, 2).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
        for seed in (0, 1, 2**63 + 5, 2**64 - 1):
            rng = RngState(seed)
            assert rng.values(37, 5).tolist() == [splitmix.draw(seed, t) for t in range(37, 42)]

    def test_rejection_rule(self):
        # for n = 3 the span is (2**64 // 3) * 3 = 2**64 - 1, so the top word is refused
        assert not _accepts(2**64 - 1, 3)
        assert _accepts(2**64 - 2, 3)
        assert _accepts(2**64 - 1, 1) and _accepts(2**64 - 1, 2)  # powers of two: no bias

    def test_rejected_word_falls_through_to_next(self):
        seed = splitmix.seed_with_draw(32, 2**64 - 1)
        rng = RngState(seed)
        first, second = rng.values(32, 2).tolist()
        assert first == 2**64 - 1 and _accepts(second, 3)
        assert rng.uniform_index(32, 3) == second % 3 != first % 3


class TestCounterStream:
    def test_uniforms_in_unit_interval(self):
        u = CounterStream(RngState(3)).uniforms(10_000)
        assert (u >= 0).all() and (u < 1).all()
        assert abs(u.mean() - 0.5) < 0.02

    def test_normals_moments(self):
        z = CounterStream(RngState(8)).normals(20_001)
        assert np.isfinite(z).all()
        assert abs(z.mean()) < 0.05
        assert abs(z.std() - 1.0) < 0.05

    def test_sample_distinct_subset(self):
        got = CounterStream(RngState(2)).sample(20, 8)
        assert len(set(got.tolist())) == 8
        assert ((got >= 0) & (got < 20)).all()

    def test_sample_full_permutation(self):
        got = CounterStream(RngState(2)).sample(6, 6)
        assert sorted(got.tolist()) == list(range(6))

    def test_sample_numpy_integers_match_python_ints(self):
        got = CounterStream(RngState(3)).sample(np.int64(9), np.uint8(4))
        assert got.tolist() == CounterStream(RngState(3)).sample(9, 4).tolist()
        assert RngState(3).uniform_index(0, np.int32(7)) == RngState(3).uniform_index(0, 7)

    def test_sample_invalid(self):
        with pytest.raises(ParameterError):
            CounterStream(RngState(0)).sample(3, 4)

    @pytest.mark.parametrize("n, k, name", [(3.0, 1, "n"), (3, 1.0, "k"), (True, 1, "n"), (3, False, "k")])
    def test_sample_non_integer_rejected(self, n, k, name):
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            CounterStream(RngState(0)).sample(n, k)

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_below_non_integer_rejected(self, n):
        with pytest.raises(ParameterError, match="^n must be an integer"):
            CounterStream(RngState(0)).below(n)

    def test_stream_is_deterministic(self):
        a = CounterStream(RngState(42))
        b = CounterStream(RngState(42))
        assert np.array_equal(a.uniforms(64), b.uniforms(64))
        assert a.below(17) == b.below(17)
