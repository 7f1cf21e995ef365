import errno
import io
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scenes import mask_of
from tokpress import tokenfile
from tokpress.core import BinaryMask, ParameterError, PatchGrid, RngState
from tokpress.expand import ExpandParams, expand_mask
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

    @pytest.mark.parametrize(
        "blob,error,message",
        [
            (b"TKB1\x01", SizeError, "5 bytes is shorter than the 12-byte header"),
            (b"XXXX" + struct.pack("<II", 1, 1) + bytes(4), MagicError, "bad magic b'XXXX', expected b'TKB1'"),
            (MAGIC + struct.pack("<II", 2, 2) + bytes(8), SizeError, "20 bytes, header implies 28"),
            (MAGIC + struct.pack("<II", 3, 0), PayloadError, "column count must be >= 1, got 0"),
            (MAGIC + struct.pack("<II", 1, 2) + struct.pack("<2f", 1.0, np.inf), PayloadError,
             "payload contains non-finite values"),
        ],
    )  # fmt: skip
    def test_error_messages_name_the_file(self, tmp_path, blob, error, message):
        path = tmp_path / "x.tkb"
        path.write_bytes(blob)
        with pytest.raises(error) as info:
            read_tokens(path)
        assert str(info.value) == f"{path}: {message}"

    def test_file_shrinking_after_its_size_was_read(self, tmp_path, monkeypatch):
        path = tmp_path / "x.tkb"
        write_tokens(np.ones((2, 3), dtype=np.float32), path)
        fstat = os.fstat

        def size_then_shrink(fd):
            size = fstat(fd)
            os.truncate(path, size.st_size - 4)
            return size

        monkeypatch.setattr(os, "fstat", size_then_shrink)
        with pytest.raises(SizeError, match="payload ends early, header implies 36 bytes$"):
            read_tokens(path)

    def test_extreme_finite_values_round_trip_bitwise(self, tmp_path):
        # the row norms of 3e38 overflow to inf, yet every entry is finite
        tiny = np.finfo(np.float32).smallest_subnormal
        m = np.array([[3e38, -3e38, 0.0], [-0.0, tiny, -tiny]], dtype=np.float32)
        write_tokens(m, tmp_path / "x.tkb")
        assert read_tokens(tmp_path / "x.tkb").tobytes() == m.tobytes()

    def test_payload_read_once_into_the_result(self, tmp_path):
        # no copy of the payload and no rows x cols temporary: the result is the peak
        m = np.random.default_rng(1).standard_normal((256, 1024)).astype(np.float32)
        write_tokens(m, tmp_path / "x.tkb")
        tracemalloc.start()
        try:
            got = read_tokens(tmp_path / "x.tkb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tobytes() == m.tobytes()
        assert peak < m.nbytes + m.size // 8

    @pytest.mark.parametrize("existing", [False, True])
    def test_write_holds_one_copy_of_the_payload(self, tmp_path, existing):
        # the container is built in one buffer, so the peak is one copy of the payload
        m = np.random.default_rng(3).standard_normal((512, 4096)).astype(np.float32)
        if existing:
            write_tokens(m[:100], tmp_path / "x.tkb")
        tracemalloc.start()
        try:
            write_tokens(m, tmp_path / "x.tkb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "x.tkb").read_bytes()[12:] == m.tobytes()
        assert peak <= 1.1 * m.nbytes

    def test_write_rejects_non_finite(self, tmp_path):
        with pytest.raises(ParameterError):
            write_tokens(np.array([[np.inf]], dtype=np.float32), tmp_path / "x.tkb")


class TestRewrite:
    """Writes go over an existing file in place and cut it to length."""

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        rng = np.random.default_rng(2)
        long, short = (rng.standard_normal(shape).astype(np.float32) for shape in ((40, 16), (3, 5)))
        write_tokens(long, tmp_path / "x.tkb")
        write_tokens(short, tmp_path / "x.tkb")
        write_tokens(short, tmp_path / "fresh.tkb")
        assert (tmp_path / "x.tkb").read_bytes() == (tmp_path / "fresh.tkb").read_bytes()
        assert np.array_equal(read_tokens(tmp_path / "x.tkb"), short)

    def test_shorter_pgm_rewrite_leaves_no_stale_tail(self, tmp_path):
        export_mask_pgm(mask_of(PatchGrid(1, 16, 16), [3, 40]), tmp_path / "m.pgm")
        export_mask_pgm(mask_of(PatchGrid(1, 2, 3), [1]), tmp_path / "m.pgm")
        assert (tmp_path / "m.pgm").read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 255, 0, 0, 0, 0])

    def test_new_file_gets_the_default_mode(self, tmp_path):
        write_tokens(np.ones((1, 1), dtype=np.float32), tmp_path / "x.tkb")
        (tmp_path / "y").write_bytes(b"")
        assert (tmp_path / "x.tkb").stat().st_mode == (tmp_path / "y").stat().st_mode

    @pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
    def test_write_to_dev_null(self):
        write_tokens(np.ones((4, 3), dtype=np.float32), "/dev/null")  # no length to cut

    @pytest.mark.parametrize("existing, error", [(True, MagicError), (False, SizeError)])
    def test_write_cut_short_is_rejected(self, tmp_path, monkeypatch, existing, error):
        # the disk fills 20 bytes into the write: a rewrite's zeroed magic, or a new file's
        # short length, must keep the mixed bytes from reading back as a matrix
        path = tmp_path / "x.tkb"
        if existing:
            write_tokens(np.ones((4, 4), dtype=np.float32), path)

        class DiskFull(io.FileIO):
            room = 20

            def write(self, b):
                b = bytes(b)
                if len(b) > self.room:
                    super().write(b[: self.room])
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(b)
                return super().write(b)

        monkeypatch.setattr(tokenfile, "open", lambda *a, **k: DiskFull(*a, **k), raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_tokens(np.full((4, 4), 2.0, dtype=np.float32), path)
        monkeypatch.undo()
        with pytest.raises(error):
            read_tokens(path)

    @given(
        shapes=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 24)), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_rewrite_sequence_reads_back_as_the_last(self, shapes, seed):
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.tkb"
            for shape in shapes:
                last = rng.standard_normal(shape).astype(np.float32)
                write_tokens(last, path)
            got, size = read_tokens(path), path.stat().st_size
        assert got.tobytes() == last.tobytes() and got.shape == last.shape
        assert size == 12 + last.nbytes


class TestPgmExport:
    def test_empty_mask(self, tmp_path):
        path = tmp_path / "empty.pgm"
        export_mask_pgm(mask_of(PatchGrid(1, 4, 4)), path)
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
        mask = mask_of(load.grid, load.anchor_cells)
        expanded = expand_mask(mask, ExpandParams(3, 0), RngState(0))
        path = tmp_path / "mask.pgm"
        export_mask_pgm(expanded, path)
        raster = parse_pgm(path.read_bytes())
        assert np.array_equal(raster != 0, expanded.bits[0])

    def test_multi_view_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            export_mask_pgm(mask_of(PatchGrid(2, 4, 4)), tmp_path / "x.pgm")


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
        sims = oracles.cosine(load.e_img, load.e_lang)
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
            dict(blocks=1.5),
            dict(blocks=True),
            dict(block_size=(2.5, 3)),
            dict(block_size=(2, 3.0)),
            dict(block_size=(True, 3)),
            dict(embed_dim=64.0),
            dict(seed=1.5),
            dict(seed=2**64),
            dict(block_size=3),
            dict(block_size=(2, 3, 4)),
            dict(margin="0.5"),
            dict(margin=float("nan")),
            dict(anchor_fraction=None),
        ],
    )
    def test_infeasible_specs_rejected(self, bad):
        with pytest.raises(ParameterError):
            WorkloadSpec(grid=PatchGrid(1, 16, 16), **bad)

    def test_block_size_list_accepted(self):
        grid = PatchGrid(1, 16, 16)
        got = generate_workload(WorkloadSpec(grid=grid, block_size=[2, 3], seed=4))
        want = generate_workload(WorkloadSpec(grid=grid, block_size=(2, 3), seed=4))
        assert got.e_img.tobytes() == want.e_img.tobytes()

    @pytest.mark.parametrize(
        "grid, spec",
        [
            ((2, 16, 16), dict(embed_dim=4096, anchor_fraction=0.32)),
            ((3, 24, 24), dict(blocks=4, block_size=(3, 5), embed_dim=128)),
            ((2, 16, 16), dict(embed_dim=64)),
            ((2, 16, 16), dict(embed_dim=256)),
            ((1, 8, 8), dict(blocks=0, embed_dim=16)),
            ((1, 1, 1), dict(block_size=(1, 1), embed_dim=4)),
            ((1, 16, 16), dict(margin=0.87)),
            ((1, 8, 12), dict(blocks=2, block_size=(2, 4), embed_dim=4096)),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_bytes_match_float64_reference(self, grid, spec, seed):
        # against the reference run here, not stored digests: QR and GEMM bits follow the BLAS kernel
        spec = WorkloadSpec(grid=PatchGrid(*grid), seed=seed, **spec)
        got, want = generate_workload(spec), oracles.generate_workload(spec)
        for part in ("e_img", "e_lang", "guidance", "anchor_cells"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), part
        assert got.truth.bits.tobytes() == want.truth.bits.tobytes()

    def test_guidance_includes_language_rows(self):
        load = generate_workload(WorkloadSpec(grid=PatchGrid(1, 16, 16), seed=5))
        n = load.e_lang.shape[0]
        assert load.guidance.shape[0] == n + 1
        assert np.array_equal(load.guidance[:n], load.e_lang)
