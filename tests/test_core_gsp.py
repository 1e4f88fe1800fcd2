"""Unit tests for ghost-shell padding and zero filling."""

import itertools
import zlib

import numpy as np
import pytest

from repro.core.gsp import (
    BrickTable,
    brick_boxes,
    bricks_in_box,
    deserialize_brick_table,
    gsp_pad,
    serialize_brick_table,
    zero_fill,
)
from tests.helpers import random_mask, smooth_cube


#: Alg. 3's face order: (axis, sign) for x+, x-, y+, y-, z+, z-.
FACES = [(axis, sign) for axis in range(3) for sign in (+1, -1)]


def naive_gsp(data, mask, block, pad_layers=None, avg_layers=2):
    """Alg. 3 cell by cell: every empty block, every face, every slab cell.

    Returns ``(padded, pad_mask, n_padded_blocks)``.  Slab sums are plain
    sequential float64 sums, so callers feed dyadic values (exact sums in
    any order) when they compare bit for bit.
    """
    x_layers = block if pad_layers is None else min(pad_layers, block)
    y_layers = min(avg_layers, block)
    shape = tuple(-(-dim // block) * block for dim in data.shape)
    nb = tuple(dim // block for dim in shape)
    values = np.zeros(shape, dtype=data.dtype)
    valid = np.zeros(shape, dtype=bool)
    n0, n1, n2 = data.shape
    values[:n0, :n1, :n2] = np.where(mask, data, 0)
    valid[:n0, :n1, :n2] = mask

    def cells(b, axis=0, lo=0, hi=block):
        ranges = [range(b[i] * block, (b[i] + 1) * block) for i in range(3)]
        ranges[axis] = range(b[axis] * block + lo, b[axis] * block + hi)
        return itertools.product(*ranges)

    def occupied(b):
        return any(valid[c] for c in cells(b))

    accum = np.zeros(shape, dtype=np.float64)
    count = np.zeros(shape, dtype=np.int64)
    n_padded = 0
    for b in np.ndindex(nb):
        if occupied(b):
            continue
        padded_here = False
        for axis, sign in FACES:
            nbr = list(b)
            nbr[axis] += sign
            if not 0 <= nbr[axis] < nb[axis] or not occupied(nbr):
                continue
            # The neighbour's y slices facing this block.
            lo, hi = (0, y_layers) if sign > 0 else (block - y_layers, block)
            total, n = 0.0, 0
            for c in cells(nbr, axis, lo, hi):
                if valid[c]:
                    total += float(values[c])
                    n += 1
            if n == 0 or not np.isfinite(total / n):
                continue
            mean = total / n
            # This block's x slices facing the neighbour.
            lo, hi = (block - x_layers, block) if sign > 0 else (0, x_layers)
            for c in cells(b, axis, lo, hi):
                accum[c] += mean
                count[c] += 1
            padded_here = True
        n_padded += padded_here
    pad_mask = count > 0
    padded = values.copy()
    padded[pad_mask] = (accum[pad_mask] / count[pad_mask]).astype(data.dtype)
    return padded, pad_mask, n_padded


def level_with_hole(n=12, block=4, value=5.0):
    """Full grid except one empty unit block in the middle."""
    mask = np.ones((n, n, n), dtype=bool)
    mask[4:8, 4:8, 4:8] = False
    data = np.full((n, n, n), np.float32(value))
    data[~mask] = 0
    return data, mask


class TestGSP:
    def test_valid_cells_untouched(self):
        data, mask = level_with_hole()
        result = gsp_pad(data, mask, 4)
        crop = result.crop()
        assert np.array_equal(crop[mask], data[mask])

    def test_hole_filled_with_neighbour_average(self):
        data, mask = level_with_hole(value=5.0)
        result = gsp_pad(data, mask, 4)
        hole = result.crop()[4:8, 4:8, 4:8]
        # All six neighbours carry 5.0, so every pad contribution is 5.0.
        assert np.allclose(hole, 5.0)

    def test_pad_mask_marks_hole_only(self):
        data, mask = level_with_hole()
        result = gsp_pad(data, mask, 4)
        pad = result.crop(result.pad_mask)
        assert pad[4:8, 4:8, 4:8].all()
        assert not pad[mask].any()

    def test_n_padded_blocks(self):
        data, mask = level_with_hole()
        assert gsp_pad(data, mask, 4).n_padded_blocks == 1

    def test_isolated_empty_block_stays_zero(self):
        # An empty block with no non-empty neighbours must remain zero.
        n, block = 12, 4
        mask = np.zeros((n, n, n), dtype=bool)
        mask[:4, :4, :4] = True  # single occupied corner block
        data = np.where(mask, np.float32(3.0), np.float32(0))
        result = gsp_pad(data, mask, block)
        # The far corner block touches no occupied block.
        far = result.padded[8:12, 8:12, 8:12]
        assert np.all(far == 0)

    def test_face_neighbour_gets_ghost(self):
        n, block = 8, 4
        mask = np.zeros((n, n, n), dtype=bool)
        mask[:4, :4, :4] = True
        data = np.where(mask, np.float32(2.0), np.float32(0))
        result = gsp_pad(data, mask, block)
        # The x-face neighbour of the occupied block is padded with ~2.0.
        ghost = result.padded[4:8, :4, :4]
        assert np.allclose(ghost[ghost != 0], 2.0)
        assert (ghost != 0).any()

    def test_averaging_of_two_contributions(self):
        # Empty block flanked by value-2 and value-4 blocks along x.
        n, block = 12, 4
        mask = np.ones((n, n, n), dtype=bool)
        mask[4:8, :, :] = False
        data = np.zeros((n, n, n), dtype=np.float32)
        data[:4] = 2.0
        data[8:] = 4.0
        result = gsp_pad(data, mask, block, pad_layers=None, avg_layers=1)
        middle = result.padded[4:8]
        # Full-depth padding from both faces overlaps everywhere: avg = 3.
        assert np.allclose(middle, 3.0)

    def test_thin_pad_layers(self):
        data, mask = level_with_hole()
        result = gsp_pad(data, mask, 4, pad_layers=1)
        hole = result.crop()[4:8, 4:8, 4:8]
        # Only the outermost shell of the hole is padded.
        assert np.allclose(hole[0], 5.0)
        assert np.all(hole[1:3, 1:3, 1:3] == 0)

    def test_partial_blocks_use_valid_cells_only(self, rng):
        # A neighbour block that is only partially valid: the ghost value
        # must average only its valid cells.
        n, block = 8, 4
        mask = np.zeros((n, n, n), dtype=bool)
        mask[:4, :4, :4] = True
        mask[0, 0, 0] = True
        data = np.zeros((n, n, n), dtype=np.float32)
        data[mask] = 7.0
        mask_partial = mask.copy()
        mask_partial[1:4, :, :] = False  # boundary slab partially valid
        data_partial = np.where(mask_partial, data, np.float32(0))
        result = gsp_pad(data_partial, mask_partial, block)
        ghosts = result.padded[result.pad_mask]
        if ghosts.size:
            assert np.allclose(ghosts[ghosts != 0], 7.0)

    def test_rejects_bad_args(self):
        data, mask = level_with_hole()
        with pytest.raises(ValueError):
            gsp_pad(data, mask, 4, pad_layers=0)
        with pytest.raises(ValueError):
            gsp_pad(data, mask.reshape(12, 12, 12)[:, :, :6], 4)

    def test_fully_masked_level_is_noop(self):
        data = smooth_cube(8)
        mask = np.ones((8, 8, 8), dtype=bool)
        result = gsp_pad(data, mask, 4)
        assert np.array_equal(result.crop(), data)
        assert result.n_padded_blocks == 0

    def test_random_masks_never_touch_valid_cells(self, rng):
        for seed in range(3):
            mask = random_mask((16, 16, 16), 0.7, seed=seed, block=4)
            data = np.where(mask, smooth_cube(16), np.float32(0))
            result = gsp_pad(data, mask, 4)
            assert np.array_equal(result.crop()[mask], data[mask])
            # Ghost values are bounded by the data range (means of values).
            ghosts = result.padded[result.pad_mask]
            if ghosts.size:
                assert ghosts.max() <= data.max() + 1e-5
                assert ghosts.min() >= data.min() - 1e-5


class TestGSPMatchesAlg3:
    """``gsp_pad`` is bit-identical to the cell-by-cell Alg. 3 reference."""

    @staticmethod
    def level(shape, dtype, seed, block=4, nan=False):
        rng = np.random.default_rng(seed)
        # Block-granular holes plus cell-level gaps, so some neighbour slabs
        # are partially valid and some have no valid cell at all.
        mask = random_mask(shape, 0.6, seed=seed, block=block) & (rng.random(shape) < 0.85)
        # Dyadic values: every slab sum is exact, whatever the order.
        data = (rng.integers(-4096, 4096, size=shape) / 1024).astype(dtype)
        if nan:
            data[mask & (rng.random(shape) < 0.05)] = np.nan
        return np.where(mask, data, dtype(0)), mask

    @pytest.mark.parametrize("pad_layers", [None, 1, 2, 3, 4])
    @pytest.mark.parametrize("avg_layers", [1, 2, 5])
    @pytest.mark.parametrize("shape", [(12, 8, 8), (10, 9, 7)])
    def test_pad_and_avg_layers(self, shape, pad_layers, avg_layers):
        data, mask = self.level(shape, np.float32, seed=sum(shape) + avg_layers)
        self.check(data, mask, 4, pad_layers, avg_layers)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("nan", [False, True])
    @pytest.mark.parametrize("block, pad_layers", [(3, 2), (4, 3), (5, None), (2, 1)])
    def test_dtypes_nan_and_ragged_blocks(self, dtype, nan, block, pad_layers):
        data, mask = self.level((11, 7, 9), dtype, seed=block, block=block, nan=nan)
        self.check(data, mask, block, pad_layers, 2)

    @staticmethod
    def check(data, mask, block, pad_layers, avg_layers):
        result = gsp_pad(data, mask, block, pad_layers=pad_layers, avg_layers=avg_layers)
        padded, pad_mask, n_padded = naive_gsp(data, mask, block, pad_layers, avg_layers)
        assert n_padded > 0
        assert result.padded.dtype == padded.dtype
        assert result.padded.tobytes() == padded.tobytes()
        assert np.array_equal(result.pad_mask, pad_mask)
        assert result.n_padded_blocks == n_padded


class TestLevelArrayValidation:
    @pytest.mark.parametrize("fn", [gsp_pad, zero_fill])
    def test_shape_mismatch_names_both_shapes(self, fn):
        with pytest.raises(ValueError, match=r"shapes differ: \(8, 8, 8\) vs \(8, 8, 4\)"):
            fn(np.zeros((8, 8, 8)), np.ones((8, 8, 4), dtype=bool), 4)

    @pytest.mark.parametrize("fn", [gsp_pad, zero_fill])
    @pytest.mark.parametrize("shape", [(8, 8), (2, 8, 8, 8)])
    def test_non_3d_input_rejected(self, fn, shape):
        with pytest.raises(ValueError, match=r"must be 3-D, got shapes"):
            fn(np.zeros(shape), np.ones(shape, dtype=bool), 4)


class TestZeroFill:
    def test_identity_on_masked_data(self):
        data, mask = level_with_hole()
        result = zero_fill(data, mask, 4)
        assert np.array_equal(result.crop(), data)
        assert result.n_padded_blocks == 0
        assert not result.pad_mask.any()

    def test_pads_grid_to_block_multiple(self):
        mask = np.ones((5, 5, 5), dtype=bool)
        data = np.ones((5, 5, 5), dtype=np.float32)
        result = zero_fill(data, mask, 4)
        assert result.padded.shape == (8, 8, 8)
        assert result.crop().shape == (5, 5, 5)


class TestGSPCompressibility:
    def test_gsp_reduces_boundary_cliffs(self):
        # The variance of the first difference across the hole boundary
        # should drop when ghosts replace zeros.
        n, block = 16, 4
        mask = random_mask((n, n, n), 0.8, seed=2, block=4)
        base = smooth_cube(n) + np.float32(10.0)  # offset so zeros are cliffs
        data = np.where(mask, base, np.float32(0))
        zf = zero_fill(data, mask, block).padded
        gsp = gsp_pad(data, mask, block).padded
        def roughness(f):
            return sum(float(np.abs(np.diff(f, axis=a)).sum()) for a in range(3))
        assert roughness(gsp) < roughness(zf)


class TestBrickGeometry:
    """The regular brick tiling behind the GSP/ZF region index."""

    def test_boxes_tile_exactly(self):
        boxes = brick_boxes((10, 8, 4), 4)
        # 3 x 2 x 1 bricks, ragged on the first axis.
        assert len(boxes) == 6
        cover = np.zeros((10, 8, 4), dtype=np.int32)
        for box in boxes:
            cover[tuple(slice(lo, hi) for lo, hi in box)] += 1
        assert (cover == 1).all()

    def test_boxes_flat_c_order(self):
        boxes = brick_boxes((8, 8, 8), 4)
        assert boxes[0] == ((0, 4), (0, 4), (0, 4))
        assert boxes[1] == ((0, 4), (0, 4), (4, 8))  # z fastest
        assert boxes[2] == ((0, 4), (4, 8), (0, 4))

    def test_bricks_in_box_matches_geometry(self):
        shape = (12, 12, 12)
        boxes = brick_boxes(shape, 4)
        roi = ((2, 6), (0, 4), (5, 12))
        hit = set(bricks_in_box(shape, 4, roi).tolist())
        expected = {
            i for i, box in enumerate(boxes)
            if all(lo < r_hi and r_lo < hi for (lo, hi), (r_lo, r_hi) in zip(box, roi))
        }
        assert hit == expected
        assert hit  # the ROI really intersects something

    def test_bricks_in_box_empty_intersection(self):
        # A box entirely outside the grid (clipped away) hits nothing.
        assert bricks_in_box((8, 8, 8), 4, ((8, 9), (0, 8), (0, 8))).size == 0

    def test_eighth_domain_roi_touches_eighth_of_bricks(self):
        shape = (16, 16, 16)
        hit = bricks_in_box(shape, 4, ((0, 8), (0, 8), (0, 8)))
        assert hit.size == 8  # 2^3 of the 4^3 bricks

    def test_table_roundtrip(self):
        table = BrickTable(padded_shape=(20, 16, 12), orig_shape=(18, 15, 12), brick_size=8)
        back = deserialize_brick_table(serialize_brick_table(table))
        assert back == table
        assert back.grid() == (3, 2, 2)
        assert back.n_bricks() == 12
        assert back.boxes() == brick_boxes((20, 16, 12), 8)

    def test_table_rejects_corrupt_payloads(self):
        table = BrickTable(padded_shape=(8, 8, 8), orig_shape=(8, 8, 8), brick_size=4)
        payload = serialize_brick_table(table)
        with pytest.raises(ValueError, match="length"):
            deserialize_brick_table(zlib.compress(zlib.decompress(payload) + b"x"))
        with pytest.raises(ValueError, match="version"):
            deserialize_brick_table(
                zlib.compress(b"\xff\xff" + zlib.decompress(payload)[2:])
            )

    def test_rejects_bad_brick_size(self):
        with pytest.raises(ValueError, match="positive"):
            brick_boxes((8, 8, 8), 0)
        with pytest.raises(ValueError, match="positive"):
            bricks_in_box((8, 8, 8), -2, ((0, 4), (0, 4), (0, 4)))
