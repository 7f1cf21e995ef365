import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import splitmix
from scenes import mask_of
from tokpress.core import BinaryMask, ParameterError, PatchGrid, RngState
from tokpress.expand import ExpandParams, density_map, expand_mask
from tokpress.similarity import anchor_mask
from tokpress.workload import WorkloadSpec, generate_workload


def mask_from_cells(grid, cells):
    bits = np.zeros(grid.shape, dtype=bool)
    for v, i, j in cells:
        bits[v, i, j] = True
    return BinaryMask(grid, bits)


def random_mask(grid, fill, seed):
    rng = np.random.default_rng(seed)
    return BinaryMask(grid, rng.random(grid.shape) < fill)


#: 1-3 views of 1-12 rows and columns, with odd windows up to 13 wide, so
#: windows can be wider than the grid in either direction
GRIDS = st.builds(PatchGrid, st.integers(1, 3), st.integers(1, 12), st.integers(1, 12))
KERNELS = st.sampled_from(range(1, 14, 2))


class TestExpandParams:
    @pytest.mark.parametrize("k", [0, 2, 4, -1])
    def test_even_or_nonpositive_kernel(self, k):
        with pytest.raises(ParameterError):
            ExpandParams(kernel_size=k)

    def test_negative_threshold(self):
        with pytest.raises(ParameterError):
            ExpandParams(threshold=-1)

    def test_defaults(self):
        p = ExpandParams()
        assert p.kernel_size == 3 and p.threshold == 1


class TestDensityMap:
    def test_zero_mask_zero_map(self):
        grid = PatchGrid(1, 4, 4)
        assert density_map(mask_of(grid), 3).sum() == 0

    def test_single_bit_block(self):
        grid = PatchGrid(1, 4, 4)
        counts = density_map(mask_from_cells(grid, [(0, 1, 1)]), 3)
        expected = np.zeros((1, 4, 4), dtype=np.int64)
        expected[0, :3, :3] = 1
        assert np.array_equal(counts, expected)

    def test_two_bits_match_sliding_window(self):
        grid = PatchGrid(1, 5, 5)
        mask = mask_from_cells(grid, [(0, 1, 1), (0, 1, 2)])
        counts = density_map(mask, 3)
        assert np.array_equal(counts, oracles.density_counts(mask.bits, 3))
        assert counts[0, 1, 1] == 2
        assert counts[0, 3, 4] == 0

    def test_even_kernel_rejected(self):
        with pytest.raises(ParameterError):
            density_map(mask_of(PatchGrid(1, 3, 3)), 2)

    @pytest.mark.parametrize("k", [3.0, True, np.float64(5)])
    def test_non_integer_kernel_rejected(self, k):
        with pytest.raises(ParameterError, match="^kernel_size must be an integer"):
            density_map(mask_of(PatchGrid(1, 3, 3)), k)

    def test_counts_frozen(self):
        counts = density_map(mask_of(PatchGrid(1, 2, 2)), 3)
        assert counts.dtype == np.int64 and counts.shape == (1, 2, 2)
        with pytest.raises(ValueError):
            counts[0, 0, 0] = 1

    def test_counts_capped_by_window(self):
        grid = PatchGrid(1, 6, 6)
        full = BinaryMask(grid, np.ones(grid.shape, dtype=bool))
        counts = density_map(full, 3)
        assert counts.max() == 9
        assert counts[0, 0, 0] == 4  # corner window is clipped

    def test_views_do_not_bleed(self):
        grid = PatchGrid(2, 4, 4)
        counts = density_map(mask_from_cells(grid, [(0, 3, 3)]), 3)
        assert counts[1].sum() == 0

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 5]))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle(self, seed, k):
        mask = random_mask(PatchGrid(2, 6, 7), 0.2, seed)
        assert np.array_equal(density_map(mask, k), oracles.density_counts(mask.bits, k))

    @given(st.integers(0, 2**32 - 1), GRIDS, KERNELS, st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_on_any_grid(self, seed, grid, k, fill):
        mask = random_mask(grid, fill, seed)
        assert np.array_equal(density_map(mask, k), oracles.density_counts(mask.bits, k))


class TestExpandMask:
    def test_empty_stays_empty(self):
        grid = PatchGrid(2, 5, 5)
        out = expand_mask(mask_of(grid), ExpandParams(3, 2), RngState(0))
        assert out.count() == 0

    def test_single_seed_tau0_dilates(self):
        # every cell of the seed's window counts 1 > 0, so each dilates
        # its own window: one bit grows to a (2k-1) x (2k-1) block
        grid = PatchGrid(1, 7, 7)
        out = expand_mask(mask_from_cells(grid, [(0, 3, 3)]), ExpandParams(3, 0), RngState(0))
        expected = np.zeros(grid.shape, dtype=bool)
        expected[0, 1:6, 1:6] = True
        assert np.array_equal(out.bits, expected)

    @given(st.integers(0, 2**32 - 1), GRIDS, KERNELS, st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_tau0_matches_dense_region_on_any_grid(self, seed, grid, k, fill):
        # no count is below 0, so at tau = 0 only the dense rule runs
        mask = random_mask(grid, fill, seed)
        out = expand_mask(mask, ExpandParams(k, 0), RngState(seed))
        assert np.array_equal(out.bits, oracles.dense_region(mask.bits, k, 0))

    def test_single_seed_tau1_inert(self):
        grid = PatchGrid(1, 5, 5)
        mask = mask_from_cells(grid, [(0, 2, 2)])
        out = expand_mask(mask, ExpandParams(3, 1), RngState(99))
        assert np.array_equal(out.bits, mask.bits)

    @given(
        st.integers(0, 2**31),
        st.sampled_from([1, 3, 5, 7]),
        st.integers(1, 3),
        st.integers(1, 9),
        st.integers(1, 9),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_tau1_never_flips(self, seed, k, views, h, w, fill):
        # F is an integer count, so 0 < F < 1 is empty: at the default
        # threshold only the dense rule runs and the seed is irrelevant
        mask = random_mask(PatchGrid(views, h, w), fill, seed)
        counts = density_map(mask, k)
        assert not ((counts > 0) & (counts < 1)).any()
        out = expand_mask(mask, ExpandParams(k, 1), RngState(seed))
        assert np.array_equal(out.bits, oracles.dense_region(mask.bits, k, 1))

    def test_adjacent_pair_tau1(self):
        # F reaches 2 around the pair, so the dense rule fires; no sparse
        # cells exist at tau=1, so the result is seed-independent
        grid = PatchGrid(1, 5, 5)
        mask = mask_from_cells(grid, [(0, 1, 1), (0, 1, 2)])
        outs = [expand_mask(mask, ExpandParams(3, 1), RngState(s)).bits for s in (0, 1, 2)]
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[1], outs[2])
        assert np.array_equal(outs[0], oracles.expand_bits(mask.bits, 3, 1, RngState(0)))
        # the union of 3x3 windows around the F >= 2 cells, nothing else
        assert np.array_equal(outs[0], oracles.dense_region(mask.bits, 3, 1))

    @given(
        st.integers(0, 2**31),
        st.sampled_from([1, 3, 5]),
        st.integers(0, 3),
        st.floats(0.02, 0.35),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_growth(self, seed, k, tau, fill):
        mask = random_mask(PatchGrid(2, 8, 8), fill, seed)
        out = expand_mask(mask, ExpandParams(k, tau), RngState(seed))
        assert (out.bits | mask.bits == out.bits).all()

    def test_upper_bound_on_growth(self):
        grid = PatchGrid(1, 10, 10)
        mask = random_mask(grid, 0.15, 5)
        k, tau = 3, 2
        out = expand_mask(mask, ExpandParams(k, tau), RngState(5))
        counts = oracles.density_counts(mask.bits, k)
        dense_union = oracles.dense_region(mask.bits, k, tau) & ~mask.bits
        n_sparse = int(((counts > 0) & (counts < tau)).sum())
        assert out.count() <= mask.count() + int(dense_union.sum()) + n_sparse

    def test_deterministic(self):
        mask = random_mask(PatchGrid(2, 9, 9), 0.2, 8)
        a = expand_mask(mask, ExpandParams(3, 2), RngState(123))
        b = expand_mask(mask, ExpandParams(3, 2), RngState(123))
        assert np.array_equal(a.bits, b.bits)

    def test_tau_monotone_dense_region(self):
        mask = random_mask(PatchGrid(1, 12, 12), 0.25, 9)
        regions = [oracles.dense_region(mask.bits, 3, tau) for tau in range(0, 6)]
        for lo, hi in zip(regions, regions[1:]):
            assert (hi <= lo).all()  # raising tau never enlarges the dense part

    def test_per_view_independence(self):
        grid = PatchGrid(2, 10, 10)
        mask = random_mask(grid, 0.12, 10)
        params = ExpandParams(3, 3)
        stacked = expand_mask(mask, params, RngState(77))
        single = PatchGrid(1, 10, 10)
        for v in range(2):
            alone = expand_mask(
                BinaryMask(single, mask.bits[v][None]), params, RngState(77)
            )
            assert np.array_equal(stacked.bits[v], alone.bits[0])

    def test_unsigned_numpy_knobs_match_python_ints(self):
        # numpy's -k and k * k wrap for a uint8 k, so the kernels must see a Python int
        mask = mask_from_cells(PatchGrid(1, 9, 9), [(0, 1, 1), (0, 6, 6), (0, 6, 7)])
        for k, tau in ((3, 2), (17, 1)):
            want = expand_mask(mask, ExpandParams(k, tau), RngState(5))
            got = expand_mask(mask, ExpandParams(np.uint8(k), np.uint8(tau)), RngState(5))
            assert np.array_equal(got.bits, want.bits)
            assert np.array_equal(density_map(mask, np.uint8(k)), density_map(mask, k))

    def test_sparse_flip_lands_in_window_and_matches_oracle(self):
        # lone seeds under tau=2 have F=1 in their window: sparse rule fires
        grid = PatchGrid(1, 9, 9)
        mask = mask_from_cells(grid, [(0, 1, 1), (0, 6, 6)])
        params = ExpandParams(3, 2)
        for seed in range(20):
            out = expand_mask(mask, params, RngState(seed))
            assert np.array_equal(out.bits, oracles.expand_bits(mask.bits, 3, 2, RngState(seed)))
            assert out.count() > mask.count()

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_planted_block_recall_matches_oracle(self, r):
        # 30% of a solid block as seeds; the oracle defines ground truth,
        # and recall must agree with it exactly on every trial
        grid = PatchGrid(1, 16, 16)
        params = ExpandParams(3, 1)
        recalls, oracle_recalls = [], []
        for trial in range(100):
            rng = np.random.default_rng(trial)
            top, left = rng.integers(0, 16 - r, size=2)
            block = [(0, top + i, left + j) for i in range(r) for j in range(r)]
            chosen = rng.choice(len(block), size=max(1, int(0.3 * len(block))), replace=False)
            seeds = mask_from_cells(grid, [block[c] for c in chosen])
            out = expand_mask(seeds, params, RngState(trial))
            ref = oracles.expand_bits(seeds.bits, 3, 1, RngState(trial))
            block_idx = np.ravel_multi_index(tuple(np.transpose(block)), grid.shape).tolist()
            got = set(out.token_indices().tolist())
            want = set(np.flatnonzero(ref.reshape(-1)).tolist())
            recalls.append(len(got & set(block_idx)) / len(block_idx))
            oracle_recalls.append(len(want & set(block_idx)) / len(block_idx))
        assert recalls == oracle_recalls
        assert np.mean(recalls) >= np.mean(oracle_recalls)

    @given(
        st.integers(0, 2**64 - 1),
        st.sampled_from([1, 3, 5, 7]),
        st.integers(1, 3),
        st.integers(1, 12),
        st.integers(1, 12),
        st.floats(0.0, 0.5),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sparse_flips_match_oracle(self, seed, k, views, h, w, fill, data):
        # tau >= 2 so the flip rule can fire; grids may be smaller than the window
        tau = data.draw(st.integers(2, max(2, k * k)), label="tau")
        mask = random_mask(PatchGrid(views, h, w), fill, seed % 2**32)
        out = expand_mask(mask, ExpandParams(k, tau), RngState(seed))
        assert np.array_equal(out.bits, oracles.expand_bits(mask.bits, k, tau, RngState(seed)))

    def test_rejected_first_word_falls_back_like_the_oracle(self):
        # on 3x3 with the center set, every cell is sparse at tau=2 and cell
        # (0, 0) sees 3 unset cells; its first word 2**64 - 1 fails the n = 3
        # rejection test, so the pick comes from the next word (index 1),
        # not from (2**64 - 1) % 3 = 0
        grid = PatchGrid(1, 3, 3)
        mask = mask_from_cells(grid, [(0, 1, 1)])
        rng = RngState(splitmix.seed_with_draw(0, 2**64 - 1))
        out = expand_mask(mask, ExpandParams(3, 2), rng)
        assert np.array_equal(out.bits, oracles.expand_bits(mask.bits, 3, 2, rng))
        assert out.bits.all()  # taking index 0 leaves (0, 0, 2) unset

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_sparse_scene_flips_and_matches_oracle(self, seed):
        # the benchmark's wide-sparse scene make-up: 3x24x24, four 3x3 to 5x5
        # blocks, k=5, tau=6, about 160 sparse cells per scene
        load = generate_workload(
            WorkloadSpec(grid=PatchGrid(3, 24, 24), blocks=4, block_size=(3, 5), embed_dim=128, seed=seed)
        )
        anchors = anchor_mask(load.e_lang, load.e_img, load.grid)
        out = expand_mask(anchors, ExpandParams(5, 6), RngState(seed))
        assert np.array_equal(out.bits, oracles.expand_bits(anchors.bits, 5, 6, RngState(seed)))
        assert out.count() > int(oracles.dense_region(anchors.bits, 5, 6).sum())  # a flip fired
