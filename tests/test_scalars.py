"""Every integer and real parameter of the public API ends in a result or in a typed error naming it.

One property feeds each parameter below integers (Python and numpy, negatives included), floats
(Python and numpy, with NaN and infinities), fractions, bools, None and strings. A call either
returns, or raises a tokpress error whose message starts with the parameter's name. A second
property does the same for the inputs that take a list or an array of numbers: scores, logits,
index sets, schedule counts and span ends.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tokpress import (
    BackboneSpec,
    BinaryMask,
    CompressionConfig,
    CounterStream,
    ExpandParams,
    GridRangeError,
    MergeParams,
    ParameterError,
    PatchGrid,
    RngState,
    ShapeError,
    TokenSchedule,
    WorkloadSpec,
    context_indices,
    density_map,
    index_set,
    layer_flops,
    match_weights,
    merge_stage,
    top_m,
)

#: a view that fits every block the values below ask for; with embed_dim=2048, so do 40x40 cells
GRID = PatchGrid(1, 48, 48)
MASK = BinaryMask(PatchGrid(1, 4, 4), np.eye(4, dtype=bool)[None])
SCORES = np.linspace(0.0, 1.0, 12)

#: (the name each message must start with, a call that feeds the value to that parameter)
CASES = [
    ("PatchGrid.views", lambda x: PatchGrid(x, 2, 2)),
    ("PatchGrid.height", lambda x: PatchGrid(1, x, 2)),
    ("PatchGrid.width", lambda x: PatchGrid(1, 2, x)),
    ("seed", lambda x: RngState(x)),
    ("start", lambda x: RngState(1).values(x, 2)),
    ("count", lambda x: RngState(1).values(0, x)),
    ("n", lambda x: RngState(1).uniform_index(0, x)),
    ("n", lambda x: CounterStream(RngState(1)).sample(x, 0)),
    ("k", lambda x: CounterStream(RngState(1)).sample(12, x)),
    ("BackboneSpec.layers", lambda x: BackboneSpec(layers=x)),
    ("BackboneSpec.hidden_dim", lambda x: BackboneSpec(hidden_dim=x)),
    ("BackboneSpec.ff_dim", lambda x: BackboneSpec(ff_dim=x)),
    ("BackboneSpec.heads", lambda x: BackboneSpec(heads=x)),
    ("TokenSchedule.non_visual", lambda x: TokenSchedule(np.array([3, 2]), x)),
    ("merge_layer", lambda x: TokenSchedule.two_stage(10, 5, x, 8)),
    ("layers", lambda x: TokenSchedule.two_stage(10, 5, 0, x)),
    ("n", lambda x: layer_flops(x)),
    ("kernel_size", lambda x: ExpandParams(kernel_size=x)),
    ("threshold", lambda x: ExpandParams(threshold=x)),
    ("m", lambda x: MergeParams(m=x)),
    ("context_fraction", lambda x: CompressionConfig(context_fraction=x)),
    ("total_layers", lambda x: CompressionConfig(merge_layer=0, total_layers=x)),
    ("merge_layer", lambda x: CompressionConfig(merge_layer=x)),
    ("n_tokens", lambda x: context_indices(x, 0.5)),
    ("fraction", lambda x: context_indices(12, x)),
    ("blocks", lambda x: WorkloadSpec(GRID, blocks=x, embed_dim=2048)),
    ("block_size", lambda x: WorkloadSpec(GRID, block_size=x, embed_dim=2048)),
    ("block_size", lambda x: WorkloadSpec(GRID, block_size=(x, x), embed_dim=2048)),
    ("block_size", lambda x: WorkloadSpec(GRID, block_size=(1, x), embed_dim=2048)),
    ("margin", lambda x: WorkloadSpec(GRID, margin=x)),
    ("anchor_fraction", lambda x: WorkloadSpec(GRID, anchor_fraction=x)),
    ("m", lambda x: top_m(SCORES, x)),
    ("kernel_size", lambda x: density_map(MASK, x)),
]

# integers stay small, so a count that is accepted allocates little
VALUES = st.one_of(
    st.integers(-3, 40),
    st.integers(-3, 40).map(np.int64),
    st.integers(0, 40).map(np.uint8),
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.fractions(-2, 2),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)


@pytest.mark.parametrize("name,call", CASES, ids=[f"{i}-{name}" for i, (name, _) in enumerate(CASES)])
@settings(max_examples=60, deadline=None)
@given(value=VALUES)
@example(value=-1)
@example(value=2.5)
@example(value=math.nan)
@example(value=True)
@example(value=np.int32(3))
@example(value=None)
@example(value="3")
def test_scalar_ends_in_result_or_named_error(name, call, value):
    try:
        call(value)
    except (ParameterError, ShapeError, GridRangeError) as exc:
        assert str(exc).startswith(name), f"{name}: {exc}"


#: a sequence of 6 rows whose span ends the visual_range case reads
HIDDEN = np.arange(24, dtype=np.float32).reshape(6, 4)
CONFIG = CompressionConfig(merge=MergeParams(m=2))

#: (the name each message must start with, a call that feeds the list or array to that input)
ARRAY_CASES = [
    ("scores", lambda x: top_m(x, 0)),
    ("logits", lambda x: match_weights([x])),
    ("indices", lambda x: index_set(x, limit=40)),
    ("TokenSchedule.visual_counts", lambda x: TokenSchedule(x)),
    ("visual_range", lambda x: merge_stage(HIDDEN, HIDDEN[:2], x, CONFIG)),
]

ITEMS = st.one_of(
    st.integers(-3, 40),
    st.integers(2**63, 2**70),  # past int64: numpy reads a list that mixes them with small ints as float64
    st.integers(-(2**70), -(2**63) - 1),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.booleans(),
    st.floats(),
    st.complex_numbers(),
    st.text(max_size=3),
    st.none(),
)
ARRAYS = st.one_of(
    st.lists(ITEMS, max_size=4),
    st.lists(ITEMS, max_size=4).map(lambda items: np.array(items, dtype=object)),
    hnp.arrays(
        st.sampled_from([np.int8, np.int64, np.uint64, np.float32, np.float64, np.complex128, np.bool_]),
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
    ),
)


@pytest.mark.parametrize("name,call", ARRAY_CASES, ids=[name for name, _ in ARRAY_CASES])
@settings(max_examples=100, deadline=None)
@given(values=ARRAYS)
@example(values=[2**63, 5])
@example(values=[np.uint64(5), -1])
@example(values=[3, True])
@example(values=[False, True])
@example(values=[1 + 5j, 2])
@example(values=[math.nan, 1.0])
@example(values=["a"])
@example(values=[None, 2])
@example(values=np.zeros((2, 0)))
def test_array_ends_in_result_or_named_error(name, call, values):
    try:
        call(values)
    except (ParameterError, ShapeError, GridRangeError) as exc:
        assert str(exc).startswith(name), f"{name}: {exc}"
