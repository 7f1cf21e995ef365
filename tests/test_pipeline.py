import ast
import inspect
import re
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings

import oracles
from scenes import BLOCK_EDGES, EDGE_SCENES, SCAN_EDGES, rows_per_block, small_scenes
from tokpress import core, pipeline, similarity
from tokpress.core import ParameterError, PatchGrid, RngState, ShapeError
from tokpress.expand import ExpandParams
from tokpress.merge import MergeParams
from tokpress.pipeline import CompressionConfig, merge_stage, prune_stage, run_pipeline
from tokpress.similarity import anchor_mask
from tokpress.workload import WorkloadSpec, generate_workload


def goal_long(seed=0, **overrides):
    base = dict(
        expand=ExpandParams(3, 1),
        context_fraction=0.25,
        merge=MergeParams(m=80),
        merge_layer=16,
        total_layers=32,
        seed=seed,
    )
    base.update(overrides)
    return CompressionConfig(**base)


def load_2view(seed=0):
    return generate_workload(WorkloadSpec(grid=PatchGrid(2, 16, 16), seed=seed))


def stage_one(*args):
    raise AssertionError("stage one ran")


def wide(rows, width=10):
    return np.ones((rows, width), dtype=np.float32)


def rand_rows(rows, width, seed):
    return np.random.default_rng(seed).standard_normal((rows, width)).astype(np.float32)


class TestConfig:
    def test_bad_layer(self):
        with pytest.raises(ParameterError):
            goal_long(merge_layer=32)
        with pytest.raises(ParameterError):
            goal_long(merge_layer=-1)

    def test_bad_fraction(self):
        with pytest.raises(ParameterError):
            goal_long(context_fraction=1.5)

    def test_bad_seed(self):
        with pytest.raises(ParameterError):
            goal_long(seed=2**64)

    @pytest.mark.parametrize(
        "field,build",
        [
            ("kernel_size", lambda: goal_long(expand=ExpandParams(kernel_size=3.0))),
            ("kernel_size", lambda: goal_long(expand=ExpandParams(kernel_size=True))),
            ("threshold", lambda: goal_long(expand=ExpandParams(threshold=1.0))),
            ("m", lambda: goal_long(merge=MergeParams(m=80.0))),
            ("m", lambda: goal_long(merge=MergeParams(m=True))),
            ("merge_layer", lambda: goal_long(merge_layer=16.0)),
            ("total_layers", lambda: goal_long(total_layers=32.0)),
            ("seed", lambda: goal_long(seed=1.5)),
            ("seed", lambda: goal_long(seed=False)),
        ],
    )
    def test_non_integer_field_rejected_before_any_stage(self, monkeypatch, field, build):
        monkeypatch.setattr(pipeline, "_prune", stage_one)
        load = load_2view(15)
        with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
            run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, build())

    @pytest.mark.parametrize(
        "field,value", [("expand", {"kernel_size": 3}), ("expand", MergeParams()), ("merge", None)]
    )
    def test_param_groups_take_their_own_type(self, field, value):
        with pytest.raises(ParameterError, match=f"^{field} must be {field.capitalize()}Params, got "):
            CompressionConfig(**{field: value})

    def test_numpy_integer_fields_match_python_ints(self):
        load = load_2view(4)
        as_numpy = CompressionConfig(
            expand=ExpandParams(np.int64(5), np.int32(6)),
            merge=MergeParams(m=np.int64(80)),
            merge_layer=np.int16(16),
            total_layers=np.uint8(32),
            seed=np.uint64(9),
        )
        as_int = CompressionConfig(expand=ExpandParams(5, 6), seed=9)
        a = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, as_numpy)
        b = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, as_int)
        assert np.array_equal(a.kept_indices, b.kept_indices)
        assert np.array_equal(a.compressed, b.compressed)
        assert np.array_equal(a.report.schedule.visual_counts, b.report.schedule.visual_counts)

    def test_narrow_numpy_m_does_not_wrap_the_output_rows(self):
        # m + language rows + guidance rows passes 255, where a uint8 m would wrap
        load = load_2view(4)
        narrow = CompressionConfig(context_fraction=1.0, merge=MergeParams(m=np.uint8(250)))
        wide = CompressionConfig(context_fraction=1.0, merge=MergeParams(m=250))
        a = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, narrow)
        b = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, wide)
        assert a.compressed.shape[0] == 250 + load.e_lang.shape[0] + load.guidance.shape[0]
        assert a.compressed.tobytes() == b.compressed.tobytes()
        assert type(narrow.merge.m) is int and type(narrow.seed) is int


class TestPruneStage:
    def test_full_context_keeps_everything(self):
        load = load_2view(1)
        kept, idx, rep = prune_stage(
            load.e_img, load.e_lang, load.grid, goal_long(context_fraction=1.0)
        )
        assert np.array_equal(kept, load.e_img)
        assert idx.tolist() == list(range(512))
        assert rep.pruned == 0

    def test_orthogonal_language_keeps_anchor_only(self):
        # language lives in a direction no patch uses, all similarities are
        # zero, and the argmax parks on token 0; tau=1 stops any expansion
        grid = PatchGrid(1, 4, 4)
        e_img = np.zeros((16, 20), dtype=np.float32)
        e_img[np.arange(16), np.arange(16)] = 1.0
        e_lang = np.zeros((3, 20), dtype=np.float32)
        e_lang[:, 18] = 1.0
        kept, idx, rep = prune_stage(e_img, e_lang, grid, goal_long(context_fraction=0.0))
        assert idx.tolist() == [0]
        assert rep.kept == 1 and rep.kept <= 3
        assert np.array_equal(kept, e_img[:1])

    def test_matches_composition_of_stage_oracles(self):
        load = load_2view(2)
        config = goal_long(seed=5)
        kept, idx, rep = prune_stage(load.e_img, load.e_lang, load.grid, config)

        anchor = sorted(oracles.anchor_cells(load.e_lang, load.e_img))
        bits = np.zeros(load.grid.shape, dtype=bool)
        bits.reshape(-1)[anchor] = True
        expanded = oracles.expand_bits(bits, 3, 1, RngState(5))
        ctx = oracles.stride_indices(512, 0.25)
        want = sorted(set(np.flatnonzero(expanded.reshape(-1)).tolist()) | set(ctx))
        assert idx.tolist() == want
        assert np.array_equal(kept, load.e_img[want])
        assert rep.pruned == 512 - len(want)

    def test_empty_language_rejected_before_stage_one(self, monkeypatch):
        def stage_one(*args):
            raise AssertionError("stage one ran")

        monkeypatch.setattr(pipeline, "_prune", stage_one)
        load = load_2view(15)
        with pytest.raises(ShapeError, match="^e_lang:"):
            prune_stage(load.e_img, load.e_lang[:0], load.grid, goal_long())

    def test_row_count_mismatch(self):
        load = load_2view(3)
        with pytest.raises(ShapeError):
            prune_stage(load.e_img[:-1], load.e_lang, load.grid, goal_long())

    def test_row_count_error_names_e_img(self):
        load = load_2view(3)
        with pytest.raises(ShapeError, match="^e_img: 511 rows, grid expects 512$"):
            prune_stage(load.e_img[:-1], load.e_lang, load.grid, goal_long())

    def test_language_width_rejected_before_stage_one(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_prune", stage_one)
        load = load_2view(15)
        with pytest.raises(ShapeError, match="^e_lang: embedding width 10, expected 64$"):
            prune_stage(load.e_img, wide(3), load.grid, goal_long())


class TestImageNormsFromValidation:
    """e_img is read in one scan, a 1 MB span of rows at a time, for its finiteness check and the anchor screen."""

    def test_row_whose_float32_norm_overflows_is_accepted_and_anchored(self):
        load = load_2view(16)
        e_img = load.e_img.copy()
        e_img[37] = np.ldexp(load.e_lang[0], 68)  # entries up to 9e19, an exact multiple of e_lang[0]
        assert np.isfinite(e_img).all() and np.isinf(core.sq_norms(e_img[37:38])).all()
        anchor = sorted(oracles.anchor_cells(load.e_lang, e_img))
        assert 37 in anchor
        bits = np.zeros(load.grid.shape, dtype=bool)
        bits.reshape(-1)[anchor] = True
        expanded = oracles.expand_bits(bits, 3, 1, RngState(0))
        want = sorted(set(np.flatnonzero(expanded.reshape(-1)).tolist()) | set(oracles.stride_indices(512, 0.25)))
        _, idx, rep = prune_stage(e_img, load.e_lang, load.grid, goal_long())
        assert idx.tolist() == want and rep.anchors == len(anchor)
        result = run_pipeline(e_img, load.e_lang, load.guidance, load.grid, goal_long())
        assert result.kept_indices.tolist() == want and result.prune.anchors == len(anchor)
        assert np.isfinite(result.compressed).all()

    @pytest.mark.parametrize("shape", [(2, 16, 16), (2, 10, 30)])
    @pytest.mark.parametrize("stage", ["anchor_mask", "prune_stage", "run_pipeline"])
    def test_image_read_once_for_validation_and_anchor_norms(self, monkeypatch, stage, shape):
        # every einsum, matmul or isfinite call that reads e_img's memory is logged with the
        # first row and the row count it reads; a matmul of 3-D row views is sq_norms' (its
        # batched 1 x d by d x 1 products), a 2-D one the scan's screen products. At d=4096 a
        # float32 block is 16 rows (256 KB) and a span four blocks, 64 rows (1 MB). The spans
        # run in order, each as one products matmul per block and then one norms matmul over
        # the whole span, so each row is read once for its products and once for its norms.
        # Finiteness is decided from those norms, so isfinite never reads a clean e_img.
        # 2x10x30 is 600 rows: its last span holds a full block and a partial one of 8 rows
        load = generate_workload(WorkloadSpec(grid=PatchGrid(*shape), embed_dim=4096, seed=16))
        e_img, n = load.e_img, load.grid.total
        reads = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                rows = [a for a in args if isinstance(a, np.ndarray) and np.shares_memory(a, e_img)]
                if rows:
                    kind = {2: "products", 3: "norms"}.get(rows[0].ndim) if name == "matmul" else name
                    reads.append((kind, (rows[0].ctypes.data - e_img.ctypes.data) // e_img.strides[0], len(rows[0])))
                return fn(*args, **kwargs)

            return wrapper

        for name in ("einsum", "matmul", "isfinite"):
            monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
        if stage == "anchor_mask":
            anchor_mask(load.e_lang, e_img, load.grid)
        else:
            args = (load.e_lang, load.guidance) if stage == "run_pipeline" else (load.e_lang,)
            getattr(pipeline, stage)(e_img, *args, load.grid, goal_long())
        assert rows_per_block(4096, 4) == 16
        want = []
        for span in range(0, n, 64):
            want += [("products", b, min(16, n - b)) for b in range(span, min(span + 64, n), 16)]
            want.append(("norms", span, min(64, n - span)))
        assert reads == want
        for kind in ("products", "norms"):
            assert [i for k, first, rows in reads if k == kind for i in range(first, first + rows)] == list(range(n))

    def test_no_product_operator_where_e_img_is_read(self):
        # a product written with @ reads its operands without a call the test above could
        # see, so the modules that handle e_img write none
        for mod in (core, similarity, pipeline):
            tree = ast.parse(inspect.getsource(mod))
            assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree)), mod.__name__

    def test_threads_never_take_each_others_norms(self):
        # guards against shared state coming back: validation hands e_img's norms to the
        # anchor screen, and rows scaled over six decades make the screen pick wrong rows
        # if a thread ever ranks one matrix with another's norms
        scenes = []
        for seed in range(6):
            load = load_2view(30 + seed)
            scale = np.float32(10.0) ** np.random.default_rng(seed).uniform(-3, 3, (512, 1)).astype(np.float32)
            e_img = load.e_img * scale
            scenes.append((e_img, load.e_lang, anchor_mask(load.e_lang, e_img, load.grid).bits, load.grid))
        outcomes = []

        def work(e_img, e_lang, want, grid):
            for _ in range(300):
                try:
                    outcomes.append(not np.array_equal(anchor_mask(e_lang, e_img, grid).bits, want))
                except ValueError as exc:  # another matrix's norms would not even broadcast
                    outcomes.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=scene) for scene in scenes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == 300 * len(scenes) and not any(outcomes)

    @pytest.mark.parametrize("stage", ["prune_stage", "run_pipeline"])
    def test_nan_row_rejected_before_stage_one(self, monkeypatch, stage):
        monkeypatch.setattr(pipeline, "_prune", stage_one)
        load = load_2view(16)
        e_img = load.e_img.copy()
        e_img[200] = np.nan
        args = (load.e_lang, load.guidance) if stage == "run_pipeline" else (load.e_lang,)
        with pytest.raises(ParameterError, match="^e_img: non-finite values are not allowed$"):
            getattr(pipeline, stage)(e_img, *args, load.grid, goal_long())

    @pytest.mark.parametrize("stage", ["anchor_mask", "prune_stage", "run_pipeline"])
    def test_language_error_comes_before_a_non_finite_image(self, monkeypatch, stage):
        # e_lang is checked before the scan whose norms the e_img finiteness check reads
        monkeypatch.setattr(pipeline, "_prune", stage_one)
        load = load_2view(16)
        e_img = load.e_img.copy()
        e_img[200] = np.nan
        with pytest.raises(ShapeError, match="^e_lang: embedding width 10, expected 64$"):
            if stage == "anchor_mask":
                anchor_mask(wide(3), e_img, load.grid)
            else:
                args = (wide(3), load.guidance) if stage == "run_pipeline" else (wide(3),)
                getattr(pipeline, stage)(e_img, *args, load.grid, goal_long())

    def test_non_finite_image_comes_before_a_guidance_error(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_prune", stage_one)
        load = load_2view(16)
        e_img = load.e_img.copy()
        e_img[200] = np.nan
        with pytest.raises(ParameterError, match="^e_img: non-finite values are not allowed$"):
            run_pipeline(e_img, load.e_lang, wide(3), load.grid, goal_long())


class TestBlockedScan:
    """The scan over e_img, on and around its block edges (``SCAN_EDGES``)."""

    @staticmethod
    def scene(d, n):
        # language rows near the first and last row of each of the first two blocks and
        # near the last row, and one random row
        e_img, b = rand_rows(n, d, n), rows_per_block(d, 4)
        near = sorted({r for r in (0, b - 1, b, 2 * b - 1, n - 1) if r < n})
        e_lang = np.vstack([e_img[near] + 0.3 * rand_rows(len(near), d, d), rand_rows(1, d, n + d)])
        return e_img, e_lang, PatchGrid(1, 1, n)

    @pytest.mark.parametrize("d,n", SCAN_EDGES)
    def test_anchors_match_oracle(self, d, n):
        e_img, e_lang, grid = self.scene(d, n)
        got = anchor_mask(e_lang, e_img, grid).token_indices().tolist()
        assert set(got) == oracles.anchor_cells(e_lang, e_img)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("d,n", SCAN_EDGES)
    def test_non_finite_in_last_block_rejected_before_stage_one(self, monkeypatch, d, n, bad):
        monkeypatch.setattr(pipeline, "_prune", stage_one)
        e_img, e_lang, grid = self.scene(d, n)
        e_img[-1, d // 2] = bad
        with pytest.raises(ParameterError, match="^e_img: non-finite values are not allowed$"):
            prune_stage(e_img, e_lang, grid, goal_long())

    @pytest.mark.parametrize("d,n", SCAN_EDGES)
    def test_overflowing_norm_in_last_block_is_accepted_and_anchored(self, d, n):
        e_img, e_lang, grid = self.scene(d, n)
        e_img[-1] = np.ldexp(e_lang[-1], 68)
        assert np.isfinite(e_img).all() and np.isinf(core.sq_norms(e_img[-1:])).all()
        got = anchor_mask(e_lang, e_img, grid).token_indices().tolist()
        assert n - 1 in got and set(got) == oracles.anchor_cells(e_lang, e_img)
        _, idx, rep = prune_stage(e_img, e_lang, grid, goal_long(context_fraction=0.0))
        assert rep.anchors == len(got) and n - 1 in idx


class TestMergeStage:
    @pytest.mark.parametrize("m", [64, 80])
    def test_noop_when_m_covers_range(self, m):
        # an m past the 64-row span merges to min(span, m) = 64 sources
        load = load_2view(4)
        hidden = load.e_img[:64]
        config = goal_long(merge=MergeParams(m=m))
        out, rep = merge_stage(hidden, load.guidance, (0, 64), config)
        assert np.array_equal(out, hidden)
        assert (rep.absorbed_weight == 0).all()
        assert (rep.tokens_before, rep.tokens_after) == (64, 64)

    def test_m_past_an_inner_span_passes_it_through(self):
        # the span sits inside the sequence; its 20 rows all become sources
        load = load_2view(5)
        hidden = load.e_img[:64]
        out, rep = merge_stage(hidden, load.guidance, (10, 30), goal_long())
        assert np.array_equal(out, hidden)
        assert rep.source_indices.tolist() == list(range(10, 30))
        assert (rep.tokens_before, rep.tokens_after) == (20, 20)

    def test_single_source_absorbs_all(self):
        rng = np.random.default_rng(6)
        visual = rng.standard_normal((4, 8)).astype(np.float32)
        guidance = visual[2:3].copy()
        config = goal_long(merge=MergeParams(m=1))
        out, rep = merge_stage(visual, guidance, (0, 4), config)
        assert rep.source_indices.tolist() == [2]
        sources, targets = visual[[2]], visual[[0, 1, 3]]
        want, _, s_vec = oracles.merge_steps(sources, targets)
        assert np.allclose(out, want, atol=1e-5)
        assert abs(s_vec.sum() - 3) < 1e-6

    def test_vla_width_matches_step_oracle(self):
        # d=4096, the scale where merge_stage upcasts its span 8 rows at a time
        load = generate_workload(WorkloadSpec(grid=PatchGrid(1, 8, 12), embed_dim=4096, seed=15))
        hidden = np.vstack([load.e_img, load.e_lang])
        out, rep = merge_stage(hidden, load.guidance, (0, 96), goal_long(merge=MergeParams(m=40)))
        scores = oracles.cosine(load.e_img, load.guidance).max(axis=1).astype(np.float32)
        src = oracles.top_m_indices(scores, 40)
        assert rep.source_indices.tolist() == src
        rest = sorted(set(range(96)) - set(src))
        want, _, s_vec = oracles.merge_steps(load.e_img[src], load.e_img[rest])
        assert np.max(np.abs(out[:40].astype(np.float64) - want)) <= 1e-5
        assert np.allclose(rep.absorbed_weight, s_vec, atol=1e-8)
        assert np.array_equal(out[40:], load.e_lang)

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    @pytest.mark.parametrize("d,n", BLOCK_EDGES)
    def test_span_off_the_block_edges_matches_step_oracle(self, d, n, mode):
        # the span starts at row 3, so its upcast blocks do not line up with the sequence's
        rng = np.random.default_rng(n)
        hidden = rng.standard_normal((n + 5, d)).astype(np.float32)
        guidance = rng.standard_normal((4, d)).astype(np.float32)
        m = min(n, 6)
        out, rep = merge_stage(hidden, guidance, (3, 3 + n), goal_long(merge=MergeParams(m=m, mode=mode)))
        span = hidden[3 : 3 + n]
        src = oracles.top_m_indices(oracles.cosine(span, guidance).max(axis=1).astype(np.float32), m)
        assert (rep.source_indices - 3).tolist() == src
        rest = sorted(set(range(n)) - set(src))
        want, _, s_vec = oracles.merge_steps(span[src], span[rest], mode=mode)
        assert np.max(np.abs(out[3 : 3 + m].astype(np.float64) - want)) <= 1e-5
        assert np.allclose(rep.absorbed_weight, s_vec, atol=1e-8)
        assert np.array_equal(out[:3], hidden[:3]) and np.array_equal(out[3 + m :], hidden[3 + n :])

    def test_goal_long_count(self):
        load = load_2view(7)
        out, rep = merge_stage(load.e_img, load.guidance, (0, 512), goal_long())
        assert out.shape[0] == 80
        assert rep.tokens_after == 80 and rep.tokens_before == 512

    def test_non_visual_rows_untouched(self):
        load = load_2view(8)
        hidden = np.vstack([load.e_lang, load.e_img[:100], load.e_lang * 2])
        start, stop = load.e_lang.shape[0], load.e_lang.shape[0] + 100
        config = goal_long(merge=MergeParams(m=10))
        out, rep = merge_stage(hidden, load.guidance, (start, stop), config)
        assert out.shape[0] == hidden.shape[0] - 90
        assert np.array_equal(out[:start], hidden[:start])
        assert np.array_equal(out[start + 10 :], hidden[stop:])
        assert (rep.source_indices >= start).all() and (rep.source_indices < stop).all()

    def test_empty_guidance(self):
        load = load_2view(9)
        with pytest.raises(ShapeError, match="guidance"):
            merge_stage(load.e_img[:50], load.guidance[:0], (0, 50), goal_long(merge=MergeParams(m=8)))

    def test_guidance_width_names_guidance(self):
        load = load_2view(9)
        with pytest.raises(ShapeError, match="^guidance: embedding width 10, expected 64$"):
            merge_stage(load.e_img[:50], wide(3), (0, 50), goal_long(merge=MergeParams(m=8)))

    def test_bool_span_ends_refused(self):
        load = load_2view(10)
        message = r"^visual_range: expected a \(start, stop\) pair of integers, got \(False, True\)$"
        with pytest.raises(ParameterError, match=message):
            merge_stage(load.e_img[:64], load.guidance, (False, True), goal_long(merge=MergeParams(m=16)))

    def test_range_forms(self):
        load = load_2view(10)
        config = goal_long(merge=MergeParams(m=16))
        a, _ = merge_stage(load.e_img[:64], load.guidance, (0, 64), config)
        b, _ = merge_stage(load.e_img[:64], load.guidance, range(0, 64), config)
        assert np.array_equal(a, b)
        c, _ = merge_stage(load.e_img[:64], load.guidance, (np.int64(0), np.int32(64)), config)
        assert np.array_equal(a, c)
        with pytest.raises(ShapeError, match=r"^visual_range: start 5 > stop 3$"):
            merge_stage(load.e_img[:64], load.guidance, (5, 3), config)
        with pytest.raises(ShapeError, match=r"^visual_range: \[0, 600\) outside sequence of 64 rows$"):
            merge_stage(load.e_img[:64], load.guidance, (0, 600), config)
        with pytest.raises(ShapeError, match=r"^visual_range: \[-1, 20\) outside sequence of 64 rows$"):
            merge_stage(load.e_img[:64], load.guidance, (-1, 20), config)
        for bad in (range(0, 64, 2), range(0, 6, 3), range(1, 5, 3), (1, 2, 3), 5, (0.5, 10), (0,), None):
            message = f"^visual_range: expected a \\(start, stop\\) pair of integers, got {re.escape(repr(bad))}$"
            with pytest.raises(ParameterError, match=message):
                merge_stage(load.e_img[:64], load.guidance, bad, config)
        with pytest.raises(ShapeError):
            merge_stage(load.e_img[:64], load.guidance, (0, 65), config)


class TestRunPipeline:
    def test_noop_config_keeps_flat_schedule(self):
        load = load_2view(11)
        config = goal_long(context_fraction=1.0, merge=MergeParams(m=512))
        result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, config)
        assert (result.report.schedule.visual_counts == 512).all()
        assert result.report.pruned == 0 and result.report.merged_away == 0

    def test_goal_long_two_step_downs(self):
        load = load_2view(12)
        result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, goal_long())
        counts = result.report.schedule.visual_counts
        assert counts[0] == result.report.keep_size < 512
        assert counts[15] == result.report.keep_size
        assert counts[16] == 80 and counts[31] == 80
        assert len(set(counts.tolist())) == 2
        assert result.compressed.shape[0] == 80 + result.report.schedule.non_visual

    def test_conservation(self):
        for seed in range(10):
            load = load_2view(seed + 40)
            result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, goal_long())
            rep = result.report
            assert rep.pruned + rep.keep_size == 512
            assert rep.keep_size - rep.merged_away == 80
            assert (np.diff(rep.schedule.visual_counts) <= 0).all()

    def test_prune_time_includes_the_scan(self, monkeypatch):
        # a fake clock that only the wrapped steps move: the e_img scan by 1 s, the rest of stage
        # one by 1/8 s and stage two by 1/4 s (exact in binary), so each stage's time is exact
        now = [0.0]

        def advancing(fn, seconds):
            def wrapper(*args, **kwargs):
                now[0] += seconds
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        for name, seconds in (("_screened", 1.0), ("_prune", 0.125), ("_merge", 0.25)):
            monkeypatch.setattr(pipeline, name, advancing(getattr(pipeline, name), seconds))
        load = load_2view(13)
        result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, goal_long())
        assert result.report.timings_ms == {"prune": 1125.0, "merge": 250.0}

    def test_determinism_excluding_timings(self):
        load = load_2view(13)
        config = goal_long(seed=21, expand=ExpandParams(3, 2))
        a = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, config)
        b = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, config)
        assert a.report.keep_size == b.report.keep_size
        assert a.report.pruned == b.report.pruned
        assert np.array_equal(a.kept_indices, b.kept_indices)
        assert np.array_equal(a.compressed, b.compressed)
        assert np.array_equal(a.report.schedule.visual_counts, b.report.schedule.visual_counts)

    def test_seed_only_affects_sparse_flips(self):
        load = load_2view(14)
        cfg_a = goal_long(seed=1, expand=ExpandParams(3, 2))
        cfg_b = goal_long(seed=2, expand=ExpandParams(3, 2))
        ra = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, cfg_a)
        rb = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, cfg_b)

        anchor = sorted(oracles.anchor_cells(load.e_lang, load.e_img))
        bits = np.zeros(load.grid.shape, dtype=bool)
        bits.reshape(-1)[anchor] = True
        deterministic = set(
            np.flatnonzero(oracles.dense_region(bits, 3, 2).reshape(-1)).tolist()
        ) | set(oracles.stride_indices(512, 0.25))
        sym_diff = set(ra.kept_indices.tolist()) ^ set(rb.kept_indices.tolist())
        assert deterministic <= set(ra.kept_indices.tolist())
        assert deterministic <= set(rb.kept_indices.tolist())
        assert not (sym_diff & deterministic)

    def test_empty_guidance_rejected_before_stage_one(self, monkeypatch):
        def stage_one(*args):
            raise AssertionError("stage one ran")

        monkeypatch.setattr(pipeline, "_prune", stage_one)
        load = load_2view(15)
        with pytest.raises(ShapeError, match="guidance"):
            run_pipeline(load.e_img, load.e_lang, load.guidance[:0], load.grid, goal_long())

    @pytest.mark.parametrize("guidance_rows", [None, 0])
    def test_empty_language_rejected_before_stage_one(self, monkeypatch, guidance_rows):
        # e_lang is checked first, so it is named also when the guidance is empty
        def stage_one(*args):
            raise AssertionError("stage one ran")

        monkeypatch.setattr(pipeline, "_prune", stage_one)
        load = load_2view(15)
        guidance = load.guidance[:guidance_rows]
        with pytest.raises(ShapeError, match="^e_lang:"):
            run_pipeline(load.e_img, load.e_lang[:0], guidance, load.grid, goal_long())

    @pytest.mark.parametrize("shape,block", [((1, 8, 8), 5), ((1, 12, 12), 5), ((1, 1, 1), 1)])
    def test_default_config_merges_to_kept_when_kept_below_m(self, shape, block):
        load = generate_workload(WorkloadSpec(grid=PatchGrid(*shape), block_size=(block, block)))
        result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, CompressionConfig())
        rep = result.report
        assert rep.keep_size < 80 and rep.merged_away == 0
        assert (rep.schedule.visual_counts == rep.keep_size).all()
        assert np.array_equal(result.compressed[: rep.keep_size], load.e_img[result.kept_indices])

    def test_peak_memory_below_one_float64_copy_of_the_kept_rows(self):
        # the kept rows are upcast a block at a time and never copied whole
        load = generate_workload(WorkloadSpec(grid=PatchGrid(2, 16, 16), embed_dim=4096))
        tracemalloc.start()
        try:
            result = run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, CompressionConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < result.report.keep_size * 4096 * 8

    @pytest.mark.parametrize("which", ["e_lang", "guidance"])
    def test_width_mismatch_rejected_before_stage_one(self, monkeypatch, which):
        monkeypatch.setattr(pipeline, "_prune", stage_one)
        load = load_2view(15)
        inputs = {"e_lang": load.e_lang, "guidance": load.guidance, which: wide(3)}
        with pytest.raises(ShapeError, match=f"^{which}: embedding width 10, expected 64$"):
            run_pipeline(load.e_img, inputs["e_lang"], inputs["guidance"], load.grid, goal_long())

    @given(small_scenes())
    @example(EDGE_SCENES[0])
    @example(EDGE_SCENES[1])
    @example(EDGE_SCENES[2])
    @example(EDGE_SCENES[3])
    @example(EDGE_SCENES[4])
    @settings(max_examples=30, deadline=None)
    def test_accounting_property(self, scene):
        load, config = scene
        grid, m = load.grid, config.merge.m
        a = run_pipeline(load.e_img, load.e_lang, load.guidance, grid, config)
        b = run_pipeline(load.e_img, load.e_lang, load.guidance, grid, config)
        rep = a.report
        final = min(rep.keep_size, m)
        assert rep.keep_size + rep.pruned == grid.total
        assert int(rep.schedule.visual_counts[-1]) == final == a.merge.tokens_after
        assert rep.merged_away == rep.keep_size - final
        assert (np.diff(rep.schedule.visual_counts) <= 0).all()
        assert a.compressed.shape[0] == final + rep.schedule.non_visual
        assert np.isfinite(a.compressed).all()
        assert a.compressed.tobytes() == b.compressed.tobytes()
        assert a.kept_indices.tobytes() == b.kept_indices.tobytes()


class TestCheckedOnce:
    """Each public call turns each of its token inputs into a matrix, and checks it is finite, exactly once.

    e_img's finiteness is checked from the anchor screen's scan, after e_lang's checks.
    """

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = {"_matrix": [], "_finite": []}
        for fname, names in calls.items():
            original = getattr(core, fname)

            def counted(*args, _names=names, _original=original):
                _names.append(args[-1])  # the input's name comes last
                return _original(*args)

            for modname, mod in list(sys.modules.items()):
                if modname.startswith("tokpress") and vars(mod).get(fname) is original:
                    monkeypatch.setattr(mod, fname, counted)
        return calls

    def test_run_pipeline(self, calls):
        load = load_2view(16)
        run_pipeline(load.e_img, load.e_lang, load.guidance, load.grid, goal_long())
        assert calls == {"_matrix": ["e_img", "e_lang", "guidance"], "_finite": ["e_lang", "e_img", "guidance"]}

    def test_prune_stage(self, calls):
        load = load_2view(16)
        prune_stage(load.e_img, load.e_lang, load.grid, goal_long())
        assert calls == {"_matrix": ["e_img", "e_lang"], "_finite": ["e_lang", "e_img"]}

    def test_merge_stage(self, calls):
        load = load_2view(16)
        merge_stage(load.e_img[:100], load.guidance, (0, 100), goal_long())
        assert calls == {"_matrix": ["hidden", "guidance"], "_finite": ["hidden", "guidance"]}
