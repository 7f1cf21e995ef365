"""Random small scenes and configs, shared by the library and CLI property tests.

``small_scenes`` draws a grid of 1-2 views of 1x1 to 10x10 cells, a
generated workload on it and a config over expansion kernel and threshold,
context fraction, merge source count and mode, and seed. The source count
runs past the usual keep size, so scenes that keep fewer than m tokens are
drawn too.

``corrupt_scenes`` takes such a scene and corrupts one of its inputs, in
one of the ways ``CORRUPTIONS`` lists. ``EDGE_SCENES`` are fixed scenes at
the edges of what the pipeline accepts, for the property tests' explicit
examples. ``BLOCK_EDGES`` and ``SCAN_EDGES`` are (width, row count) pairs
around the block size of the relevance upcast and of the anchor screen's
scan, which ``rows_per_block`` reads from ``core``, and around the scan's
spans of four blocks. ``mask_of`` builds a mask
from token indices.
"""

import dataclasses

import numpy as np
from hypothesis import strategies as st

from tokpress.core import BinaryMask, PatchGrid, _row_blocks
from tokpress.expand import ExpandParams
from tokpress.merge import MergeParams
from tokpress.pipeline import CompressionConfig
from tokpress.workload import WorkloadSpec, generate_workload

#: corruption -> the input it makes invalid (None: the scene stays valid)
CORRUPTIONS = {
    "e_lang-width": "e_lang",
    "guidance-width": "guidance",
    "e_img-empty": "e_img",
    "e_lang-empty": "e_lang",
    "guidance-empty": "guidance",
    "e_img-off-grid": "e_img",
    "e_img-nan": "e_img",
    "e_lang-nan": "e_lang",
    "guidance-nan": "guidance",
    "all-zero": None,
}
#: corruptions caught only by stage one's grid row-count check
REACH_STAGE_ONE = {"e_img-empty", "e_img-off-grid"}


def _edge_scenes():
    default = generate_workload(WorkloadSpec(grid=PatchGrid(2, 16, 16)))
    zero = dataclasses.replace(default, e_img=np.zeros_like(default.e_img), e_lang=np.zeros_like(default.e_lang))
    wide_kernel = CompressionConfig(expand=ExpandParams(9, 1))
    return [
        (zero, CompressionConfig()),  # every cosine is 0: one anchor, at token 0
        (generate_workload(WorkloadSpec(grid=PatchGrid(1, 1, 1), block_size=(1, 1))), wide_kernel),
        (generate_workload(WorkloadSpec(grid=PatchGrid(1, 4, 4), block_size=(3, 3))), wide_kernel),
        (default, CompressionConfig(context_fraction=0.0)),  # no context: anchors and expansion alone
        (default, CompressionConfig(context_fraction=1.0)),  # every token is context and kept
    ]


#: (workload, config): all-zero e_img and e_lang on the default scene and config,
#: a 9x9 expansion kernel on 1x1x1 and 1x4x4 grids, larger than either, and the
#: default scene at context fractions 0 and 1
EDGE_SCENES = _edge_scenes()


def rows_per_block(d: int, itemsize: int) -> int:
    """Rows of width ``d`` and ``itemsize``-byte items in each full block of the library's blocked passes."""
    return _row_blocks(1, d, itemsize)[0].stop


def _block_edges(d: int, itemsize: int) -> list[tuple[int, int]]:
    b = rows_per_block(d, itemsize)
    return [(d, n) for n in (1, b - 1, b, b + 1, 3 * b + 5)]


#: (d, rows) at d=64 and d=4096: 1, B - 1, B, B + 1 and 3B + 5 rows, B rows per float64 upcast block
BLOCK_EDGES = _block_edges(64, 8) + _block_edges(4096, 8)


def _span_edges(d: int) -> list[tuple[int, int]]:
    s = _row_blocks(1, d, 4, span=True)[0].stop  # rows per span of the e_img scan
    return [(d, n) for n in (s - 1, s + 1, s + rows_per_block(d, 4) + 5)]


#: the same around the float32 blocks of the anchor screen's scan over e_img, and S - 1, S + 1
#: and S + B + 5 rows, S rows per span of the scan (four blocks), so a last span is partial
SCAN_EDGES = _block_edges(64, 4) + _block_edges(4096, 4) + _span_edges(64) + _span_edges(4096)


def mask_of(grid, indices=()) -> BinaryMask:
    """The mask over ``grid`` whose set cells are the given token indices."""
    flat = np.zeros(grid.total, dtype=bool)
    flat[np.asarray(indices, dtype=np.int64)] = True
    return BinaryMask(grid, flat.reshape(grid.shape))


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


@st.composite
def corrupt_scenes(draw, kind: str):
    """(inputs, grid, config): the e_img, e_lang and guidance of a small scene,
    corrupted as ``kind`` names."""
    load, config = draw(small_scenes())
    inputs = {"e_img": load.e_img, "e_lang": load.e_lang, "guidance": load.guidance}
    name = CORRUPTIONS[kind]
    if kind.endswith("width"):
        rows, d = inputs[name].shape
        width = draw(st.integers(1, 2 * d).filter(lambda w: w != d))
        inputs[name] = np.resize(inputs[name], (rows, width))
    elif kind.endswith("empty"):
        inputs[name] = inputs[name][:0]
    elif kind == "e_img-off-grid":
        rows = draw(st.integers(1, load.grid.total + 3).filter(lambda r: r != load.grid.total))
        inputs[name] = np.resize(inputs[name], (rows, inputs[name].shape[1]))
    elif kind.endswith("nan"):
        bad = inputs[name].copy()
        bad[draw(st.integers(0, bad.shape[0] - 1)), draw(st.integers(0, bad.shape[1] - 1))] = np.nan
        inputs[name] = bad
    else:
        inputs["e_img"] = np.zeros_like(load.e_img)
        inputs["guidance"] = np.zeros_like(load.guidance)
    return inputs, load.grid, config
