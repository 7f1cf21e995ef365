import struct

import numpy as np
import pytest

from tokpress.core import BinaryMask, ParameterError, PatchGrid, RngState
from tokpress.expand import ExpandParams, expand_mask
from tokpress.similarity import cosine_similarity_matrix
from tokpress.tokenfile import (
    MAGIC,
    MagicError,
    PayloadError,
    SizeError,
    export_mask_pgm,
    read_tokens,
    write_tokens,
)
from tokpress.workload import WorkloadSpec, generate_workload


def parse_pgm(blob: bytes):
    # strict parser for the exact header layout the exporter writes
    head, _, rest = blob.partition(b"\n")
    dims, _, rest = rest.partition(b"\n")
    maxval, _, raster = rest.partition(b"\n")
    assert head == b"P5" and maxval == b"255"
    w, h = (int(x) for x in dims.split())
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


class TestTokenContainer:
    def test_round_trip_small(self, tmp_path):
        m = np.arange(6, dtype=np.float32).reshape(3, 2)
        path = tmp_path / "m.tkb"
        write_tokens(m, path)
        assert path.stat().st_size == 12 + 4 * 6
        got = read_tokens(path)
        assert np.array_equal(got, m) and got.dtype == np.float32
        assert got.flags.writeable and got.flags.owndata  # a private copy, not the file buffer

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tkb"
        path.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + b"\x00\x00\x00\x00")
        with pytest.raises(MagicError):
            read_tokens(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.tkb"
        path.write_bytes(b"TKB1\x01")
        with pytest.raises(SizeError):
            read_tokens(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "trunc.tkb"
        path.write_bytes(MAGIC + struct.pack("<II", 2, 2) + b"\x00" * 8)
        with pytest.raises(SizeError):
            read_tokens(path)
        path.write_bytes(MAGIC + struct.pack("<II", 1, 1) + b"\x00" * 8)
        with pytest.raises(SizeError):
            read_tokens(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.tkb"
        payload = struct.pack("<2f", 1.0, float("nan"))
        path.write_bytes(MAGIC + struct.pack("<II", 1, 2) + payload)
        with pytest.raises(PayloadError):
            read_tokens(path)

    def test_zero_column_header(self, tmp_path):
        path = tmp_path / "zero.tkb"
        path.write_bytes(MAGIC + struct.pack("<II", 3, 0))
        with pytest.raises(PayloadError):
            read_tokens(path)

    def test_zero_rows_round_trip(self, tmp_path):
        path = tmp_path / "empty.tkb"
        write_tokens(np.empty((0, 4), dtype=np.float32), path)
        got = read_tokens(path)
        assert got.shape == (0, 4)

    def test_many_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(100):
            rows = int(rng.integers(0, 1025))
            cols = int(rng.integers(1, 257))
            m = rng.standard_normal((rows, cols)).astype(np.float32)
            path = tmp_path / f"t{trial}.tkb"
            write_tokens(m, path)
            assert np.array_equal(read_tokens(path), m)

    def test_write_rejects_non_finite(self, tmp_path):
        with pytest.raises(ParameterError):
            write_tokens(np.array([[np.inf]], dtype=np.float32), tmp_path / "x.tkb")


class TestPgmExport:
    def test_empty_mask(self, tmp_path):
        path = tmp_path / "empty.pgm"
        export_mask_pgm(BinaryMask.zeros(PatchGrid(1, 4, 4)), path)
        blob = path.read_bytes()
        assert blob == b"P5\n4 4\n255\n" + b"\x00" * 16

    def test_full_mask(self, tmp_path):
        grid = PatchGrid(1, 3, 5)
        path = tmp_path / "full.pgm"
        export_mask_pgm(BinaryMask(grid, np.ones(grid.shape, dtype=bool)), path)
        raster = parse_pgm(path.read_bytes())
        assert raster.shape == (3, 5)
        assert (raster == 255).all()

    def test_expanded_mask_parses_back(self, tmp_path):
        load = generate_workload(WorkloadSpec(grid=PatchGrid(1, 16, 16), seed=4))
        mask = BinaryMask.from_token_indices(load.grid, load.anchor_cells)
        expanded = expand_mask(mask, ExpandParams(3, 0), RngState(0))
        path = tmp_path / "mask.pgm"
        export_mask_pgm(expanded, path)
        raster = parse_pgm(path.read_bytes())
        assert np.array_equal(raster != 0, expanded.view(0))

    def test_multi_view_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            export_mask_pgm(BinaryMask.zeros(PatchGrid(2, 4, 4)), tmp_path / "x.pgm")


class TestWorkload:
    def test_zero_blocks_empty_truth(self):
        load = generate_workload(WorkloadSpec(grid=PatchGrid(1, 8, 8), blocks=0, embed_dim=16))
        assert load.truth.count() == 0
        assert load.anchor_cells.size == 0
        assert load.e_lang.shape[0] == 1  # still usable downstream

    def test_margin_holds_exhaustively(self):
        spec = WorkloadSpec(
            grid=PatchGrid(1, 16, 16), block_size=(4, 4), margin=0.5, seed=11
        )
        load = generate_workload(spec)
        sims = cosine_similarity_matrix(load.e_img, load.e_lang)
        fg = load.truth.token_indices()
        bg = np.setdiff1d(np.arange(load.grid.total), fg)
        assert sims[fg].min() >= sims[bg].max() + spec.margin

    def test_same_seed_identical(self):
        spec = WorkloadSpec(grid=PatchGrid(2, 16, 16), seed=9)
        a, b = generate_workload(spec), generate_workload(spec)
        assert np.array_equal(a.e_img, b.e_img)
        assert np.array_equal(a.e_lang, b.e_lang)
        assert np.array_equal(a.guidance, b.guidance)
        assert np.array_equal(a.truth.bits, b.truth.bits)
        assert np.array_equal(a.anchor_cells, b.anchor_cells)

    def test_different_seeds_differ(self):
        grid = PatchGrid(2, 16, 16)
        a = generate_workload(WorkloadSpec(grid=grid, seed=1))
        b = generate_workload(WorkloadSpec(grid=grid, seed=2))
        assert not np.array_equal(a.e_img, b.e_img)

    def test_anchors_are_verbatim_foreground_copies(self):
        load = generate_workload(WorkloadSpec(grid=PatchGrid(1, 16, 16), seed=3))
        assert set(load.anchor_cells.tolist()) <= set(load.truth.token_indices().tolist())
        assert np.array_equal(load.e_lang, load.e_img[load.anchor_cells])

    def test_anchor_count_is_fraction_of_block(self):
        load = generate_workload(
            WorkloadSpec(grid=PatchGrid(1, 16, 16), block_size=(5, 5), seed=0)
        )
        assert load.truth.count() == 25
        assert load.anchor_cells.size == 7  # floor(0.3 * 25)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(margin=0.0),
            dict(margin=0.95),
            dict(block_size=(0, 4)),
            dict(block_size=(5, 3)),
            dict(block_size=(20, 20)),
            dict(embed_dim=10),
            dict(anchor_fraction=0.0),
            dict(blocks=-1),
        ],
    )
    def test_infeasible_specs_rejected(self, bad):
        with pytest.raises(ParameterError):
            WorkloadSpec(grid=PatchGrid(1, 16, 16), **bad)

    def test_guidance_includes_language_rows(self):
        load = generate_workload(WorkloadSpec(grid=PatchGrid(1, 16, 16), seed=5))
        n = load.e_lang.shape[0]
        assert load.guidance.shape[0] == n + 1
        assert np.array_equal(load.guidance[:n], load.e_lang)
