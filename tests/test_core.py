import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokpress.core import (
    BinaryMask,
    CounterStream,
    GridRangeError,
    ParameterError,
    PatchGrid,
    RngState,
    ShapeError,
    index_set,
    token_matrix,
)

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

    def test_float32_view_not_copied(self):
        src = np.ones((2, 2), dtype=np.float32)
        assert token_matrix(src) is src


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


class TestPatchGrid:
    def test_degenerate_dims_rejected(self):
        with pytest.raises(ParameterError):
            PatchGrid(0, 4, 4)
        with pytest.raises(ParameterError):
            PatchGrid(1, 4, 0)

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
            return np.argwhere(BinaryMask.from_token_indices(grid, [index]).bits).tolist()

        assert cells(PatchGrid(2, 16, 16), 256) == [[1, 0, 0]]
        assert cells(PatchGrid(2, 3, 4), 23) == [[1, 2, 3]]
        assert cells(PatchGrid(2, 3, 4), 4) == [[0, 1, 0]]


class TestBinaryMask:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            BinaryMask(PatchGrid(1, 2, 2), np.zeros((2, 2), dtype=bool))

    def test_bits_frozen(self):
        mask = BinaryMask.zeros(PatchGrid(1, 2, 2))
        with pytest.raises(ValueError):
            mask.bits[0, 0, 0] = True

    def test_token_indices_round_trip(self):
        grid = PatchGrid(2, 3, 3)
        mask = BinaryMask.from_token_indices(grid, [0, 7, 17])
        assert mask.token_indices().tolist() == [0, 7, 17]
        assert mask.count() == 3

    @given(grids, st.data())
    def test_token_order_property(self, grid, data):
        cell = tuple(data.draw(st.integers(0, n - 1)) for n in grid.shape)
        idx = np.ravel_multi_index(cell, grid.shape)
        mask = BinaryMask.from_token_indices(grid, [idx])
        assert mask.count() == 1 and mask.bits[cell]
        assert mask.token_indices().tolist() == [idx]

    def test_view_plane(self):
        grid = PatchGrid(2, 2, 2)
        mask = BinaryMask.from_token_indices(grid, [5])
        assert not mask.view(0).any()
        assert mask.view(1)[0, 1]
        with pytest.raises(GridRangeError):
            mask.view(2)


class TestRngState:
    def test_seed_range(self):
        with pytest.raises(ParameterError):
            RngState(-1)
        with pytest.raises(ParameterError):
            RngState(2**64)

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

    def test_sample_invalid(self):
        with pytest.raises(ParameterError):
            CounterStream(RngState(0)).sample(3, 4)

    def test_stream_is_deterministic(self):
        a = CounterStream(RngState(42))
        b = CounterStream(RngState(42))
        assert np.array_equal(a.u64(64), b.u64(64))
        assert a.below(17) == b.below(17)
