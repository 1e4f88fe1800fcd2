"""Unit + property tests for NaST, OpST, AKDTree: the extraction strategies.

The load-bearing invariant for every strategy: extracted sub-blocks are
disjoint and cover every occupied unit block exactly once, so scatter-back
reproduces the level bit-exactly (the lossy step is only ever the codec).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.akdtree import akdtree_extract, akdtree_plan, akdtree_restore
from repro.core.blocks import block_occupancy
from repro.core.nast import nast_extract, nast_restore
from repro.core.opst import compute_bs, opst_extract, opst_plan, opst_restore
from tests.helpers import random_mask, smooth_cube


def brute_force_cube(occ: np.ndarray, x: int, y: int, z: int) -> int:
    """Edge of the largest fully occupied cube with far corner (x, y, z)."""
    s = 0
    while (
        x - s >= 0
        and y - s >= 0
        and z - s >= 0
        and occ[x - s : x + 1, y - s : y + 1, z - s : z + 1].all()
    ):
        s += 1
    return s


def brute_force_bs(occ: np.ndarray) -> np.ndarray:
    out = np.zeros(occ.shape, dtype=np.int32)
    for x, y, z in np.ndindex(occ.shape):
        out[x, y, z] = brute_force_cube(occ, x, y, z)
    return out


def reference_opst_plan(occ: np.ndarray) -> list:
    """Alg. 1 verbatim: visit every anchor in reverse C order and read its BS
    from a brute-force recomputation on the occupancy as it is at the visit."""
    occ = np.array(occ, dtype=bool)
    cubes = []
    for flat in range(occ.size - 1, -1, -1):
        x, y, z = (int(v) for v in np.unravel_index(flat, occ.shape))
        size = brute_force_cube(occ, x, y, z)
        if size == 0:
            continue
        origin = (x - size + 1, y - size + 1, z - size + 1)
        cubes.append((origin, size))
        occ[origin[0] : x + 1, origin[1] : y + 1, origin[2] : z + 1] = False
    return cubes


def table_opst_plan(occ: np.ndarray) -> list:
    """Alg. 1 with its BS table: ``compute_bs`` once, then the whole table
    recomputed after every extraction (the unbounded form of updateBs)."""
    occ = np.array(occ, dtype=bool)
    bs = compute_bs(occ)
    cubes = []
    for flat in range(occ.size - 1, -1, -1):
        x, y, z = (int(v) for v in np.unravel_index(flat, occ.shape))
        size = int(bs[x, y, z])
        if size == 0:
            continue
        origin = (x - size + 1, y - size + 1, z - size + 1)
        cubes.append((origin, size))
        occ[origin[0] : x + 1, origin[1] : y + 1, origin[2] : z + 1] = False
        bs = compute_bs(occ)
    return cubes


def assert_matches_alg1(occ: np.ndarray) -> None:
    cubes = opst_plan(occ)
    assert cubes == reference_opst_plan(occ)
    assert cubes == table_opst_plan(occ)


def cover_from_cubes(cubes, shape):
    cover = np.zeros(shape, dtype=np.int32)
    for (ox, oy, oz), s in cubes:
        cover[ox : ox + s, oy : oy + s, oz : oz + s] += 1
    return cover


def cover_from_leaves(leaves, shape):
    cover = np.zeros(shape, dtype=np.int32)
    for (ox, oy, oz), (sx, sy, sz) in leaves:
        cover[ox : ox + sx, oy : oy + sy, oz : oz + sz] += 1
    return cover


class TestComputeBS:
    def test_matches_brute_force_random(self, rng):
        for _ in range(5):
            occ = rng.random((6, 7, 5)) < 0.6
            assert np.array_equal(compute_bs(occ), brute_force_bs(occ))

    def test_full_grid(self):
        occ = np.ones((4, 4, 4), dtype=bool)
        bs = compute_bs(occ)
        assert bs[3, 3, 3] == 4
        assert bs[0, 0, 0] == 1

    def test_empty_grid(self):
        assert compute_bs(np.zeros((3, 3, 3), dtype=bool)).sum() == 0

    def test_max_side_cap(self):
        occ = np.ones((4, 4, 4), dtype=bool)
        assert compute_bs(occ, max_side=2).max() == 2

    @pytest.mark.parametrize("cap", [0, -1, 1.5])
    def test_max_side_must_be_positive_int(self, cap):
        with pytest.raises(ValueError, match="max_side"):
            compute_bs(np.ones((3, 3, 3), dtype=bool), max_side=cap)


class TestOpSTPlanMatchesAlg1:
    """``opst_plan`` returns exactly Alg. 1's cube list, in Alg. 1's order."""

    def test_seeded_random_grids(self):
        for seed, density in enumerate(np.linspace(0.05, 0.95, 19)):
            rng = np.random.default_rng(seed)
            shape = tuple(int(v) for v in rng.integers(2, 9, size=3))
            assert_matches_alg1(rng.random(shape) < density)

    @pytest.mark.parametrize(
        "shape", [(3, 8, 5), (8, 3, 2), (1, 7, 6), (5, 1, 4), (6, 6, 1), (1, 1, 9), (1, 1, 1)]
    )
    def test_non_cubic_and_one_thick_grids(self, shape):
        rng = np.random.default_rng(sum(shape))
        for density in (0.3, 0.7, 0.95):
            assert_matches_alg1(rng.random(shape) < density)

    @pytest.mark.parametrize("shape", [(5, 5, 5), (4, 6, 3), (1, 3, 2)])
    def test_all_full_and_all_empty(self, shape):
        assert_matches_alg1(np.ones(shape, dtype=bool))
        assert opst_plan(np.zeros(shape, dtype=bool)) == []

    def test_block_structured_grid(self):
        assert_matches_alg1(random_mask((12, 12, 12), 0.6, seed=4, block=3))

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
        st.floats(0.05, 0.95),
        st.integers(0, 2**31),
    )
    def test_property_matches_reference(self, shape, density, seed):
        assert_matches_alg1(np.random.default_rng(seed).random(shape) < density)


class TestOpSTPlan:
    def test_cover_exact_on_random(self, rng):
        for density in (0.1, 0.5, 0.9):
            occ = rng.random((6, 6, 6)) < density
            cover = cover_from_cubes(opst_plan(occ), occ.shape)
            assert np.array_equal(cover > 0, occ)
            assert cover.max(initial=0) <= 1

    def test_full_grid_single_cube(self):
        occ = np.ones((4, 4, 4), dtype=bool)
        cubes = opst_plan(occ)
        assert len(cubes) == 1
        assert cubes[0] == ((0, 0, 0), 4)

    def test_empty_grid_no_cubes(self):
        assert opst_plan(np.zeros((4, 4, 4), dtype=bool)) == []

    def test_prefers_large_cubes(self):
        occ = np.zeros((6, 6, 6), dtype=bool)
        occ[:4, :4, :4] = True
        cubes = opst_plan(occ)
        sizes = sorted(s for _, s in cubes)
        assert max(sizes) == 4

    def test_non_cubic_grid(self, rng):
        occ = rng.random((3, 8, 5)) < 0.5
        cover = cover_from_cubes(opst_plan(occ), occ.shape)
        assert np.array_equal(cover > 0, occ)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.floats(0.05, 0.95), st.integers(0, 2**31))
    def test_property_exact_cover(self, side, density, seed):
        rng = np.random.default_rng(seed)
        occ = rng.random((side, side, side)) < density
        cover = cover_from_cubes(opst_plan(occ), occ.shape)
        assert np.array_equal(cover > 0, occ)
        assert cover.max(initial=0) <= 1


class TestAKDTreePlan:
    def test_cover_exact_on_random(self, rng):
        for density in (0.1, 0.5, 0.9):
            occ = rng.random((8, 8, 8)) < density
            cover = cover_from_leaves(akdtree_plan(occ), (8, 8, 8))
            assert np.array_equal(cover > 0, occ)
            assert cover.max(initial=0) <= 1

    def test_full_grid_single_leaf(self):
        occ = np.ones((8, 8, 8), dtype=bool)
        leaves = akdtree_plan(occ)
        assert leaves == [((0, 0, 0), (8, 8, 8))]

    def test_empty_grid(self):
        assert akdtree_plan(np.zeros((4, 4, 4), dtype=bool)) == []

    def test_pads_non_pow2_grids(self, rng):
        occ = rng.random((5, 6, 7)) < 0.5
        leaves = akdtree_plan(occ)
        cover = cover_from_leaves(leaves, (8, 8, 8))
        padded = np.zeros((8, 8, 8), dtype=bool)
        padded[:5, :6, :7] = occ
        assert np.array_equal(cover > 0, padded)

    def test_adaptive_beats_fixed_on_planar_mask(self):
        # A full half-space along y: adaptive splitting finds it with one
        # big leaf; fixed round-robin fragments it.
        occ = np.zeros((8, 8, 8), dtype=bool)
        occ[:, :4, :] = True
        adaptive = akdtree_plan(occ, adaptive=True)
        fixed = akdtree_plan(occ, adaptive=False)
        assert len(adaptive) <= len(fixed)
        assert max(np.prod(s) for _, s in adaptive) >= max(np.prod(s) for _, s in fixed)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 9), st.floats(0.05, 0.95), st.integers(0, 2**31), st.booleans())
    def test_property_exact_cover(self, side, density, seed, adaptive):
        rng = np.random.default_rng(seed)
        occ = rng.random((side, side, side)) < density
        leaves = akdtree_plan(occ, adaptive=adaptive)
        pow2 = 1 << (side - 1).bit_length()
        cover = cover_from_leaves(leaves, (pow2,) * 3)
        padded = np.zeros((pow2,) * 3, dtype=bool)
        padded[:side, :side, :side] = occ
        assert np.array_equal(cover > 0, padded)
        assert cover.max(initial=0) <= 1


class TestExtractRestore:
    @pytest.mark.parametrize(
        "extract,restore",
        [
            (nast_extract, nast_restore),
            (opst_extract, opst_restore),
            (akdtree_extract, akdtree_restore),
        ],
        ids=["nast", "opst", "akdtree"],
    )
    @pytest.mark.parametrize("density", [0.05, 0.4, 0.95])
    def test_masked_data_roundtrip(self, extract, restore, density, rng):
        n, block = 16, 4
        mask = random_mask((n, n, n), density, seed=int(density * 100), block=2)
        data = np.where(mask, smooth_cube(n), np.float32(0))
        ext = extract(data, mask, block)
        out = restore(ext, dtype=data.dtype)
        assert out.shape == data.shape
        assert np.array_equal(np.where(mask, out, 0), data)

    @pytest.mark.parametrize(
        "extract", [nast_extract, opst_extract, akdtree_extract],
        ids=["nast", "opst", "akdtree"],
    )
    def test_extraction_covers_occupied_cells_once(self, extract, rng):
        n, block = 12, 4
        mask = random_mask((n, n, n), 0.5, seed=3)
        data = np.where(mask, smooth_cube(n), np.float32(0))
        ext = extract(data, mask, block)
        occupied_blocks = int(block_occupancy(mask, block).sum())
        assert ext.total_cells() == occupied_blocks * block**3

    @pytest.mark.parametrize(
        "extract", [nast_extract, opst_extract, akdtree_extract],
        ids=["nast", "opst", "akdtree"],
    )
    def test_empty_level(self, extract):
        data = np.zeros((8, 8, 8), dtype=np.float32)
        mask = np.zeros((8, 8, 8), dtype=bool)
        ext = extract(data, mask, 4)
        assert ext.n_blocks() == 0

    def test_non_divisible_grid_padding(self, rng):
        n = 10  # not a multiple of block 4
        mask = random_mask((n, n, n), 0.5, seed=9)
        data = np.where(mask, smooth_cube(n), np.float32(0))
        for extract, restore in (
            (nast_extract, nast_restore),
            (opst_extract, opst_restore),
            (akdtree_extract, akdtree_restore),
        ):
            out = restore(extract(data, mask, 4), dtype=data.dtype)
            assert out.shape == (n, n, n)
            assert np.array_equal(np.where(mask, out, 0), data)

    @pytest.mark.parametrize("extract", [nast_extract, opst_extract, akdtree_extract])
    def test_shape_mismatch_rejected(self, extract):
        with pytest.raises(ValueError, match=r"shapes differ: \(4, 4, 4\) vs \(4, 4, 2\)"):
            extract(np.zeros((4, 4, 4)), np.zeros((4, 4, 2), dtype=bool), 2)

    @pytest.mark.parametrize("extract", [nast_extract, opst_extract, akdtree_extract])
    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 4, 4)])
    def test_non_3d_input_rejected(self, extract, shape):
        with pytest.raises(ValueError, match=r"must be 3-D, got shapes"):
            extract(np.zeros(shape), np.ones(shape, dtype=bool), 2)

    def test_opst_boundary_fraction_below_nast(self, rng):
        # OpST's whole point: larger blocks => fewer boundary cells.
        n = 24
        mask = random_mask((n, n, n), 0.4, seed=5, block=8)
        data = np.where(mask, smooth_cube(n), np.float32(0))
        def boundary_cells(ext):
            total = 0
            for shape, arr in ext.groups.items():
                m = arr.shape[0]
                interior = max(shape[0] - 2, 0) * max(shape[1] - 2, 0) * max(shape[2] - 2, 0)
                total += m * (np.prod(shape) - interior)
            return total
        nast_b = boundary_cells(nast_extract(data, mask, 4))
        opst_b = boundary_cells(opst_extract(data, mask, 4))
        assert opst_b <= nast_b
