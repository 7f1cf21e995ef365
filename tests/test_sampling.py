import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scenes import mask_of
from tokpress.core import BinaryMask, GridRangeError, ParameterError, PatchGrid
from tokpress.sampling import _keep, context_indices, keep_set


class TestContextIndices:
    @pytest.mark.filterwarnings("error")
    def test_zero_fraction(self):
        # a zero fraction, no tokens, or a fraction whose floor is 0: the same empty int64 sample, with no warning
        for n, u in [(100, 0.0), (0, 0.0), (0, 0.5), (7, 0.1)]:
            got = context_indices(n, u)
            assert got.size == 0
            assert got.dtype == np.int64

    def test_full_fraction(self):
        assert context_indices(9, 1.0).tolist() == list(range(9))

    def test_quarter_of_512(self):
        got = context_indices(512, 0.25)
        assert got.tolist() == list(range(0, 512, 4))
        assert got.size == 128

    @pytest.mark.parametrize("u", [0.0, 0.1, 0.25, 0.35, 0.5, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 100, 511, 512, 1000, 4095, 4096])
    def test_count_is_floor(self, n, u):
        assert context_indices(n, u).size == math.floor(u * n)

    @given(st.integers(0, 4096), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_range(self, n, u):
        got = context_indices(n, u)
        assert got.size == math.floor(u * n)
        if got.size:
            assert got[0] == 0
            assert (np.diff(got) > 0).all()
            assert got[-1] < n

    def test_matches_stride_oracle(self):
        # 3037000499 = isqrt(2**63 - 1) is the largest n_tokens whose products t * n_tokens all fit int64
        for n, u in [(512, 0.25), (300, 0.35), (17, 0.5), (4096, 0.1), (3037000499, 1e-9), (3037000499, 1e-6)]:
            assert context_indices(n, u).tolist() == oracles.stride_indices(n, u)

    def test_fraction_out_of_range(self):
        with pytest.raises(ParameterError):
            context_indices(10, -0.01)
        with pytest.raises(ParameterError):
            context_indices(10, 1.01)

    @pytest.mark.parametrize("n, u", [(-1, 0.5), (3037000500, 1e-9), (2**62, 1e-17), (2**64, 1e-18)])
    def test_count_out_of_range(self, n, u):
        with pytest.raises(ParameterError, match="^n_tokens must lie in "):
            context_indices(n, u)

    @pytest.mark.parametrize("n", [10.5, 10.0, True, np.float64(10)])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(ParameterError, match="^n_tokens must be an integer"):
            context_indices(n, 0.5)

    def test_numpy_integer_count_accepted(self):
        assert context_indices(np.int64(10), 0.5).tolist() == context_indices(10, 0.5).tolist()


class TestKeepKernel:
    """``_keep``, which the pipeline calls on unchecked context, against ``np.union1d``."""

    @pytest.mark.parametrize(
        "bits,context",
        [
            ([1, 8, 30], [17, 2, 30, 0]),  # unsorted, overlapping the mask
            ([5, 6], [9, 9, 3, 9, 6]),  # duplicates
            ([0, 31], []),  # no context
            ([], [4, 1, 12]),  # an empty mask
            ([], []),
        ],
    )
    def test_matches_union1d(self, bits, context):
        mask = mask_of(PatchGrid(2, 4, 4), bits)
        got = _keep(mask, np.array(context, dtype=np.int64))
        want = np.union1d(mask.token_indices(), np.array(context, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == want.tolist()


class TestKeepSet:
    def test_both_empty(self):
        mask = mask_of(PatchGrid(1, 3, 3))
        assert keep_set(mask, []).size == 0

    def test_boolean_context_rejected(self):
        # a mask is not a list of indices: [True, False, True, False] must not read as {0, 1}
        with pytest.raises(ParameterError, match="^context: indices must be integers"):
            keep_set(mask_of(PatchGrid(1, 2, 2)), np.array([True, False, True, False]))

    def test_union_example(self):
        grid = PatchGrid(1, 3, 4)
        mask = mask_of(grid, [3, 7])
        assert keep_set(mask, [7, 9]).tolist() == [3, 7, 9]

    def test_idempotent_union(self):
        grid = PatchGrid(2, 4, 4)
        mask = mask_of(grid, [1, 8, 30])
        ctx = context_indices(grid.total, 0.25)
        once = keep_set(mask, ctx)
        again = keep_set(mask_of(grid, once), ctx)
        assert np.array_equal(once, again)

    def test_out_of_range_context(self):
        with pytest.raises(GridRangeError):
            keep_set(mask_of(PatchGrid(1, 2, 2)), [4])

    def test_uint64_context_past_int64_is_out_of_range_not_negative(self):
        with pytest.raises(GridRangeError, match="^context: index 9223372036854775808 out of range for 4 tokens$"):
            keep_set(mask_of(PatchGrid(1, 2, 2)), np.array([2**63], np.uint64))

    def test_size_against_set_arithmetic(self):
        grid = PatchGrid(2, 16, 16)
        rng = np.random.default_rng(0)
        mask = BinaryMask(grid, rng.random(grid.shape) < 0.1)
        ctx = context_indices(grid.total, 0.25)
        got = keep_set(mask, ctx)
        want = set(mask.token_indices().tolist()) | set(ctx.tolist())
        assert set(got.tolist()) == want
        assert got.size == len(want)
        overlap = len(set(mask.token_indices().tolist()) & set(ctx.tolist()))
        assert got.size == mask.count() + ctx.size - overlap
        assert got.size >= max(mask.count(), math.floor(0.25 * grid.total)) - overlap
