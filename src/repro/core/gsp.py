"""GSP — ghost-shell padding for high-density levels (paper §3.3, Alg. 3).

At ~60%+ density there is little empty space to remove, and cutting the
level apart (OpST/AKDTree) would only hurt locality.  GSP keeps the dense
grid and fixes the real problem with zero-filling: a prediction-based
compressor sees an artificial cliff at every empty/non-empty boundary,
spending many bits (and error) there.  Instead of zeros, each empty unit
block receives a *ghost shell* diffused from its non-empty face neighbours:
the padding value of a slab next to a shared face is the mean of the
neighbour's first ``avg_layers`` boundary slices, and blocks reached by
several neighbours average the contributions (Alg. 3's ``pad/2``, ``pad/3``
overlap rule, realized here by sum/count accumulation).

The fill works at block resolution.  A ghost cell's value depends only on
its block and on which face slabs cover it, and along each axis an
in-block position is in the low slab, the high slab, both (slabs thicker
than half a block overlap) or neither — at most three distinct classes
for a given slab thickness, and one for the default whole-block pad.  Sum
and count are accumulated per (block, class) in :data:`_FACES` order,
divided once, and expanded into the padded grid in a single write, so the
per-cell arithmetic (and its rounding) is that of a per-cell
accumulation at a fraction of the memory traffic.

``zero_fill`` (ZF) is kept as the reference the paper compares against in
Fig. 12.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.blocks import pad_to_blocks
from repro.utils.validation import check_level_arrays, check_positive_int

#: The six axis-aligned face directions (axis, sign).
_FACES = [(axis, sign) for axis in range(3) for sign in (+1, -1)]

#: Default edge (cells) of the independently-compressed bricks a padded
#: GSP/ZF grid is chunked into (strategy format 2).  64³ keeps per-brick SZ
#: overhead negligible on snapshot-scale levels while making an ROI read
#: proportional to the ROI, not the domain (cf. zfp's independent blocks).
DEFAULT_BRICK_SIZE = 64


@dataclass
class GSPResult:
    """Padded grid plus the bookkeeping needed to undo/inspect the padding."""

    padded: np.ndarray          # full (block-padded) grid with ghost shells
    pad_mask: np.ndarray        # True where a ghost value was written
    orig_shape: tuple[int, int, int]
    block_size: int
    n_padded_blocks: int

    def crop(self, arr: np.ndarray | None = None) -> np.ndarray:
        """Trim (an array shaped like) the padded grid to original extents."""
        target = self.padded if arr is None else arr
        ox, oy, oz = self.orig_shape
        return target[:ox, :oy, :oz]


def _face_slab_means(
    values: np.ndarray, valid: np.ndarray, block: int, avg_layers: int
) -> dict[tuple[int, int], np.ndarray]:
    """Mean of each block's boundary slab for all six faces, valid cells only.

    ``values`` is zero outside ``valid``, so a slab's sum over its valid
    cells is its plain sum.  Returns ``{(axis, sign): (nbx, nby, nbz)
    float64}``; blocks whose slab contains no valid cell get NaN (callers
    must skip them).
    """
    nb = tuple(dim // block for dim in values.shape)
    v6 = values.reshape(nb[0], block, nb[1], block, nb[2], block)
    m6 = valid.reshape(nb[0], block, nb[1], block, nb[2], block)
    out: dict[tuple[int, int], np.ndarray] = {}
    for axis, sign in _FACES:
        slab = slice(0, avg_layers) if sign < 0 else slice(block - avg_layers, block)
        index: list[slice] = [slice(None)] * 6
        index[2 * axis + 1] = slab
        # A contiguous float64 copy of the slab, summed: the reduction order
        # (and so every rounding) is fixed by this layout.
        num = v6[tuple(index)].astype(np.float64).sum(axis=(1, 3, 5))
        den = m6[tuple(index)].sum(axis=(1, 3, 5))
        with np.errstate(invalid="ignore"):
            out[(axis, sign)] = num / den
    return out


def gsp_pad(
    data: np.ndarray,
    mask: np.ndarray,
    block_size: int,
    *,
    pad_layers: int | None = None,
    avg_layers: int = 2,
) -> GSPResult:
    """Ghost-shell pad the empty unit blocks of a level.

    Parameters
    ----------
    data, mask:
        Level values (zero outside ``mask``) and validity mask.
    block_size:
        Unit block edge (Alg. 3 operates block-wise).
    pad_layers:
        Slab thickness ``x`` written into an empty block from each face;
        default fills the whole block (cells reached from several faces are
        averaged).
    avg_layers:
        Number of neighbour boundary slices ``y`` averaged into the pad
        value.
    """
    block_size = check_positive_int(block_size, name="block_size")
    avg_layers = check_positive_int(avg_layers, name="avg_layers")
    data, mask = check_level_arrays(data, mask)
    avg_layers = min(avg_layers, block_size)
    x_layers = block_size if pad_layers is None else min(int(pad_layers), block_size)
    if x_layers <= 0:
        raise ValueError("pad_layers must be positive")

    values = pad_to_blocks(np.where(mask, data, data.dtype.type(0)), block_size)
    valid = pad_to_blocks(mask.astype(bool, copy=False), block_size)
    nb = tuple(dim // block_size for dim in values.shape)
    blocked = (nb[0], block_size, nb[1], block_size, nb[2], block_size)
    occ = valid.reshape(blocked).any(axis=(1, 3, 5))
    slab_means = _face_slab_means(values, valid, block_size, avg_layers)

    # In-block position classes along any axis: bit 1 = inside the low slab
    # (padded from the -1 face), bit 2 = inside the high slab (+1 face).
    pos = np.arange(block_size)
    codes = (pos < x_layers) + 2 * (pos >= block_size - x_layers)
    classes, cell_class = np.unique(codes, return_inverse=True)
    k = classes.size
    total = np.zeros((*nb, k, k, k), dtype=np.float64)
    count = np.zeros((*nb, k, k, k), dtype=np.int32)
    for axis, sign in _FACES:
        # Empty blocks whose (axis, sign) neighbour is non-empty and has a
        # finite facing slab mean receive that mean on their facing slab.
        src: list[slice] = [slice(None)] * 3
        dst: list[slice] = [slice(None)] * 3
        if sign > 0:
            dst[axis] = slice(0, nb[axis] - 1)
            src[axis] = slice(1, nb[axis])
        else:
            dst[axis] = slice(1, nb[axis])
            src[axis] = slice(0, nb[axis] - 1)
        ghost = np.zeros(nb, dtype=np.float64)
        ghost[tuple(dst)] = slab_means[(axis, -sign)][tuple(src)]
        active = np.zeros(nb, dtype=bool)
        active[tuple(dst)] = occ[tuple(src)]
        active &= ~occ & np.isfinite(ghost)
        if not active.any():
            continue
        covered = [1, 1, 1]
        covered[axis] = k
        in_slab = (classes & (2 if sign > 0 else 1) != 0).reshape(covered)
        hit = active[..., None, None, None] & in_slab
        # Adding 0.0 where the face does not reach leaves a sum unchanged
        # (sums start at +0.0 and never become -0.0), so every cell's sum is
        # its contributions added in _FACES order.
        total += np.where(hit, ghost[..., None, None, None], 0.0)
        count += hit

    pad_blocks = count > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        fill = (total / count).astype(values.dtype)
    pad_mask = _expand_classes(pad_blocks, cell_class)
    np.copyto(values, _expand_classes(fill, cell_class), where=pad_mask)
    return GSPResult(
        padded=values,
        pad_mask=pad_mask,
        orig_shape=data.shape,
        block_size=block_size,
        n_padded_blocks=int(pad_blocks.any(axis=(3, 4, 5)).sum()),
    )


def _expand_classes(per_class: np.ndarray, cell_class: np.ndarray) -> np.ndarray:
    """Expand a ``(nbx, nby, nbz, k, k, k)`` per-(block, class) array to cells.

    ``cell_class[p]`` is the class of in-block position ``p`` along any
    axis; the result is the padded cell grid.
    """
    nbx, nby, nbz = per_class.shape[:3]
    block = cell_class.size
    cells = per_class.transpose(0, 3, 1, 4, 2, 5)
    for axis in (1, 3, 5):
        cells = np.take(cells, cell_class, axis=axis)
    return cells.reshape(nbx * block, nby * block, nbz * block)


def zero_fill(data: np.ndarray, mask: np.ndarray, block_size: int) -> GSPResult:
    """ZF reference: keep the dense grid, leave empty regions at zero."""
    block_size = check_positive_int(block_size, name="block_size")
    data, mask = check_level_arrays(data, mask)
    values = pad_to_blocks(np.where(mask, data, data.dtype.type(0)), block_size)
    return GSPResult(
        padded=values,
        pad_mask=np.zeros_like(values, dtype=bool),
        orig_shape=data.shape,
        block_size=block_size,
        n_padded_blocks=0,
    )


# ----------------------------------------------------------------------
# brick chunking (strategy format 2): the GSP/ZF region index
# ----------------------------------------------------------------------
#
# A padded GSP/ZF grid compressed as one SZ stream forces every ROI read
# to decode the whole level.  Chunking the grid into independently
# compressed bricks — one container part and one decode unit per brick —
# makes the decoded byte count proportional to the brick-aligned ROI
# volume.  The brick grid is regular (C-order flat indexing, ragged final
# brick per axis), so the "region index" is pure arithmetic; the small
# serialized :class:`BrickTable` travels in the blob as its own part so
# the layout is self-describing and inspectable without the level meta.

_BRICK_TABLE = struct.Struct("<H3I3II")
_BRICK_TABLE_VERSION = 1


@dataclass(frozen=True)
class BrickTable:
    """Geometry of a brick-chunked padded grid (regular tiling).

    ``padded_shape`` is the block-padded grid the bricks tile;
    ``orig_shape`` the level extents the decoder crops back to;
    ``brick_size`` the brick edge (final brick per axis may be ragged).
    """

    padded_shape: tuple[int, int, int]
    orig_shape: tuple[int, int, int]
    brick_size: int

    def grid(self) -> tuple[int, int, int]:
        """Bricks per axis."""
        return tuple(-(-dim // self.brick_size) for dim in self.padded_shape)

    def n_bricks(self) -> int:
        gx, gy, gz = self.grid()
        return gx * gy * gz

    def boxes(self) -> list[tuple[tuple[int, int], ...]]:
        """Half-open padded-grid box of every brick, flat C order."""
        return brick_boxes(self.padded_shape, self.brick_size)

    def bricks_in_box(self, box) -> np.ndarray:
        """Flat indices of the bricks intersecting a half-open box."""
        return bricks_in_box(self.padded_shape, self.brick_size, box)


def brick_boxes(
    padded_shape: tuple[int, int, int], brick_size: int
) -> list[tuple[tuple[int, int], ...]]:
    """Half-open boxes of a regular brick tiling, flat C order."""
    brick_size = check_positive_int(brick_size, name="brick_size")
    spans = [
        [(lo, min(lo + brick_size, dim)) for lo in range(0, dim, brick_size)]
        for dim in padded_shape
    ]
    return [(sx, sy, sz) for sx in spans[0] for sy in spans[1] for sz in spans[2]]


def bricks_in_box(
    padded_shape: tuple[int, int, int],
    brick_size: int,
    box: tuple[tuple[int, int], ...],
) -> np.ndarray:
    """Flat C-order indices of the bricks a half-open box intersects.

    The brick grid is regular, so this is arithmetic on the box bounds —
    no table walk, no payload access: the per-axis brick index range is
    ``[lo // brick, ceil(hi / brick))`` clipped to the grid.
    """
    brick_size = check_positive_int(brick_size, name="brick_size")
    grid = tuple(-(-dim // brick_size) for dim in padded_shape)
    ranges = []
    for (lo, hi), n in zip(box, grid):
        i0 = max(int(lo) // brick_size, 0)
        i1 = min(-(-int(hi) // brick_size), n)
        if i1 <= i0:
            return np.zeros(0, dtype=np.int64)
        ranges.append(np.arange(i0, i1, dtype=np.int64))
    ix, iy, iz = np.meshgrid(*ranges, indexing="ij")
    return ((ix * grid[1] + iy) * grid[2] + iz).ravel()


def serialize_brick_table(table: BrickTable) -> bytes:
    """Pack a brick table into the blob's ``L<idx>/bricks`` part."""
    raw = _BRICK_TABLE.pack(
        _BRICK_TABLE_VERSION,
        *table.padded_shape,
        *table.orig_shape,
        table.brick_size,
    )
    return zlib.compress(raw, 1)


def deserialize_brick_table(payload: bytes) -> BrickTable:
    """Invert :func:`serialize_brick_table`."""
    raw = zlib.decompress(payload)
    if len(raw) != _BRICK_TABLE.size:
        raise ValueError("brick table record has the wrong length")
    version, px, py, pz, ox, oy, oz, brick_size = _BRICK_TABLE.unpack(raw)
    if version != _BRICK_TABLE_VERSION:
        raise ValueError(f"unsupported brick table version {version}")
    return BrickTable(
        padded_shape=(px, py, pz),
        orig_shape=(ox, oy, oz),
        brick_size=int(brick_size),
    )
