"""Random small scenes and configs, shared by the library and CLI property tests.

``small_scenes`` draws a grid of 1-2 views of 1x1 to 10x10 cells, a
generated workload on it and a config over expansion kernel and threshold,
context fraction, merge source count and mode, and seed. The source count
runs past the usual keep size, so scenes that keep fewer than m tokens are
drawn too.
"""

from hypothesis import strategies as st

from tokpress.core import PatchGrid
from tokpress.expand import ExpandParams
from tokpress.merge import MergeParams
from tokpress.pipeline import CompressionConfig
from tokpress.workload import WorkloadSpec, generate_workload


@st.composite
def small_scenes(draw):
    """(workload, config) for a random small grid and config."""
    grid = PatchGrid(draw(st.integers(1, 2)), draw(st.integers(1, 10)), draw(st.integers(1, 10)))
    expand = ExpandParams(draw(st.sampled_from([1, 3, 5])), draw(st.integers(0, 3)))
    fraction = draw(st.floats(0.0, 1.0))
    merge = MergeParams(m=draw(st.integers(1, 120)), mode=draw(st.sampled_from(["soft", "hard"])))
    seed = draw(st.integers(0, 2**64 - 1))
    config = CompressionConfig(expand=expand, context_fraction=fraction, merge=merge, seed=seed)
    block = min(grid.height, grid.width, 3)
    return generate_workload(WorkloadSpec(grid=grid, block_size=(1, block), seed=seed % 1000)), config
