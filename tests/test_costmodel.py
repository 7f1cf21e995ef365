import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tokpress.core import ParameterError, ShapeError
from tokpress.costmodel import (
    DEFAULT_BACKBONE,
    BackboneSpec,
    TokenSchedule,
    layer_flops,
    relative_flops,
    schedule_flops,
)

small = BackboneSpec(layers=4, hidden_dim=64, ff_dim=256, heads=8)


class TestBackboneSpec:
    def test_defaults_are_7b_class(self):
        assert (DEFAULT_BACKBONE.layers, DEFAULT_BACKBONE.hidden_dim) == (32, 4096)
        assert (DEFAULT_BACKBONE.ff_dim, DEFAULT_BACKBONE.heads) == (11008, 32)

    def test_positive_fields(self):
        with pytest.raises(ParameterError):
            BackboneSpec(layers=0)


class TestIntegerChecks:
    """Every count a costmodel constructor or function takes rejects floats and bools by name."""

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: BackboneSpec(layers=2.5), "BackboneSpec.layers"),
            (lambda: BackboneSpec(hidden_dim=True), "BackboneSpec.hidden_dim"),
            (lambda: BackboneSpec(ff_dim=11008.0), "BackboneSpec.ff_dim"),
            (lambda: BackboneSpec(heads=np.float64(32)), "BackboneSpec.heads"),
            (lambda: layer_flops(10.5), "^n must"),
            (lambda: TokenSchedule.flat(10, 3, 1.5), "TokenSchedule.non_visual"),
            (lambda: TokenSchedule([2.5, 1.0]), "TokenSchedule.visual_counts"),
            (lambda: TokenSchedule(np.array([True, False])), "TokenSchedule.visual_counts"),
            (lambda: TokenSchedule.flat(10.5, 3), "TokenSchedule.visual_counts"),
            (lambda: TokenSchedule.two_stage(196.5, 80, 3, 8), "TokenSchedule.visual_counts"),
            (lambda: TokenSchedule.two_stage(196, 80, 2.5, 8), "^merge_layer must"),
            (lambda: TokenSchedule.two_stage(196, 80, 3, 8.5), "^layers must"),
            (lambda: TokenSchedule.flat(10, 3.0), "^layers must"),
            (lambda: TokenSchedule.flat(10, True), "^layers must"),
        ],
    )
    def test_non_integer_raises_naming_field(self, build, field):
        with pytest.raises(ParameterError, match=field):
            build()

    def test_numpy_integers_match_python_ints(self):
        spec = BackboneSpec(*(np.int64(v) for v in (4, 64, 256, 8)))
        assert layer_flops(np.int32(100), spec) == layer_flops(100, small)
        got = TokenSchedule.two_stage(np.int64(196), np.uint8(80), np.int16(3), np.int64(8), np.int32(64))
        assert got.visual_counts.tolist() == TokenSchedule.two_stage(196, 80, 3, 8, 64).visual_counts.tolist()
        assert TokenSchedule(np.array([3, 2], dtype=np.uint8)).visual_counts.tolist() == [3, 2]


class TestTokenSchedule:
    def test_flat(self):
        s = TokenSchedule.flat(196, 8, 64)
        assert s.layers == 8
        assert s.visual_counts[0] + s.non_visual == 260

    def test_two_stage_shape(self):
        s = TokenSchedule.two_stage(196, 80, 3, 8, 64)
        assert s.visual_counts.tolist() == [196, 196, 196, 80, 80, 80, 80, 80]

    def test_two_stage_bad_layer(self):
        with pytest.raises(ParameterError):
            TokenSchedule.two_stage(196, 80, 8, 8)

    @pytest.mark.parametrize("counts", [np.array([], dtype=np.int64), np.array([[4, 4], [2, 2]])])
    def test_counts_must_be_non_empty_1d(self, counts):
        with pytest.raises(ShapeError, match="non-empty 1-D"):
            TokenSchedule(counts)

    def test_counts_may_not_increase(self):
        with pytest.raises(ParameterError):
            TokenSchedule(np.array([10, 20]))

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            TokenSchedule(np.array([5, -1]))
        with pytest.raises(ParameterError):
            TokenSchedule(np.array([5, 5]), non_visual=-1)

    def test_uint64_count_past_int64_is_out_of_range_not_negative(self):
        # the checks read the counts before the int64 cast, which would wrap 2**63 to -2**63
        msg = r"^TokenSchedule.visual_counts must lie in \[0, 9223372036854775807\], got 9223372036854775808$"
        with pytest.raises(ParameterError, match=msg):
            TokenSchedule(np.array([2**63, 5], np.uint64))

    def test_python_int_past_int64_is_out_of_range_not_a_float(self):
        # numpy reads both lists as float64; their ints are checked as given
        msg = r"^TokenSchedule.visual_counts must lie in \[0, 9223372036854775807\], got 9223372036854775808$"
        with pytest.raises(ParameterError, match=msg):
            TokenSchedule([2**63, 5])
        with pytest.raises(ParameterError, match="^TokenSchedule.visual_counts must be non-negative$"):
            TokenSchedule([np.uint64(5), -1])

    def test_bool_in_a_list_refused(self):
        with pytest.raises(ParameterError, match="^TokenSchedule.visual_counts must be integers, got True$"):
            TokenSchedule([3, True])


class TestLayerFlops:
    def test_zero_tokens(self):
        assert layer_flops(0, small) == 0

    def test_matches_term_oracle(self):
        assert layer_flops(100, small) == oracles.layer_flops_terms(100, 64, 256)
        assert layer_flops(576) == oracles.layer_flops_terms(576, 4096, 11008)

    def test_quadratic_term_scales_by_four(self):
        def quad(n):
            # whatever is not linear in n must be the attention term
            return layer_flops(n, small) - n * (layer_flops(1, small) - 4 * small.hidden_dim)

        assert quad(50) == 4 * 50 * 50 * small.hidden_dim
        assert quad(100) == 4 * quad(50)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            layer_flops(-1, small)

    @given(st.integers(1, 2000))
    @settings(max_examples=30, deadline=None)
    def test_strictly_increasing_in_n(self, n):
        assert layer_flops(n + 1, small) > layer_flops(n, small)

    def test_increasing_in_dims(self):
        wider = BackboneSpec(layers=4, hidden_dim=128, ff_dim=256, heads=8)
        deeper_ff = BackboneSpec(layers=4, hidden_dim=64, ff_dim=512, heads=8)
        assert layer_flops(10, wider) > layer_flops(10, small)
        assert layer_flops(10, deeper_ff) > layer_flops(10, small)


class TestScheduleFlops:
    def test_flat_is_layers_times_one(self):
        s = TokenSchedule.flat(100, 4, 0)
        assert schedule_flops(s, small) == 4 * layer_flops(100, small)

    def test_two_stage_is_piecewise(self):
        s = TokenSchedule.two_stage(196, 80, 1, 4, 64)
        want = layer_flops(260, small) + 3 * layer_flops(144, small)
        assert schedule_flops(s, small) == want

    def test_narrow_numpy_dims_do_not_wrap(self):
        spec = BackboneSpec(*(np.uint8(v) for v in (4, 64, 255, 8)))
        assert layer_flops(100, spec) == layer_flops(100, BackboneSpec(4, 64, 255, 8))

    def test_zero_visual_rides_on_non_visual(self):
        s = TokenSchedule.flat(0, 4, 64)
        assert schedule_flops(s, small) == 4 * layer_flops(64, small)

    def test_layer_count_mismatch(self):
        with pytest.raises(ShapeError):
            schedule_flops(TokenSchedule.flat(10, 3, 0), small)

    def test_additive_over_partitions(self):
        s = TokenSchedule(np.array([40, 30, 20, 10]), 5)
        total = schedule_flops(s, small)
        by_layer = sum(layer_flops(s.visual_counts[i] + s.non_visual, small) for i in range(4))
        assert total == by_layer

    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=48), st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_layer_sum(self, counts, non_visual):
        s = TokenSchedule(np.sort(counts)[::-1], non_visual)
        spec = BackboneSpec(layers=len(counts), hidden_dim=96, ff_dim=384)
        per_layer = (layer_flops(s.visual_counts[i] + s.non_visual, spec) for i in range(s.layers))
        assert schedule_flops(s, spec) == sum(per_layer)


class TestRelativeFlops:
    def test_identity_ratio(self):
        s = TokenSchedule.flat(576, 4, 0)
        assert relative_flops(s, s, small) == 1.0

    def test_halving_is_strictly_cheaper(self):
        base = TokenSchedule.flat(200, 4, 0)
        half = TokenSchedule.flat(100, 4, 0)
        assert relative_flops(half, base, small) < 1.0

    def test_zero_baseline_rejected(self):
        base = TokenSchedule.flat(0, 4, 0)
        cand = TokenSchedule.flat(10, 4, 0)
        with pytest.raises(ParameterError):
            relative_flops(cand, base, small)

    def test_reference_compression_point(self):
        # flat 576-token baseline vs 196+64 then 80+64 at layer 16 of 32
        base = TokenSchedule.flat(512, 32, 64)
        cand = TokenSchedule.two_stage(196, 80, 16, 32, 64)
        ratio = relative_flops(cand, base)
        by_hand = (
            16 * oracles.layer_flops_terms(260, 4096, 11008)
            + 16 * oracles.layer_flops_terms(144, 4096, 11008)
        ) / (32 * oracles.layer_flops_terms(576, 4096, 11008))
        assert ratio == pytest.approx(by_hand, rel=1e-12)
        assert 0.29 <= ratio <= 0.49
