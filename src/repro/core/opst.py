"""OpST — optimized sparse-tensor pre-process (paper §3.1, Alg. 1, Fig. 6).

NaST's weakness is boundary fraction: tiny unit blocks give the predictor
little context.  OpST instead extracts *maximal cubes* of occupied unit
blocks, so most extracted cells sit deep inside large sub-blocks:

1. A dynamic program computes ``BS[x,y,z]`` — the edge length (in unit
   blocks) of the largest fully-occupied cube whose far corner is block
   ``(x,y,z)`` (3D generalization of the classic maximal-square DP; the
   7-neighbour ``min`` recurrence of Alg. 1 line 6).
2. Scanning anchors in reverse lexicographic order (bottom-right-rear to
   top-left-front), any anchor with ``BS >= 1`` surrenders its cube: the
   cube is extracted, its blocks become empty, and ``BS`` is *partially*
   recomputed — only anchors within ``maxSide`` of the extraction can have
   changed (Alg. 1 line 17's bounded update).
3. Extracted cubes are grouped by edge length into 4D arrays (same-size
   sub-blocks merged "into the same array for easy compression").

Implementation: :func:`opst_plan` answers step 2 with a *visit-time
query* instead of maintaining the table.  Occupancy only ever shrinks, so
after Alg. 1's bounded updates an anchor's ``BS`` is exactly the
maximal-cube size a fresh query on the *current* occupancy returns (the
update window covers every anchor whose cube could overlap an
extraction; anchors outside it see unchanged occupancy).  The plan
therefore walks the initially occupied anchors in the same reverse C
order and, at each anchor still occupied, grows ``s`` while the ``s³``
cube ending there is fully occupied — the same cubes, in the same order,
without the DP table or its windowed recomputes.  :func:`compute_bs`
keeps the whole-grid DP as the public Alg. 1 reference.

The paper's cost model for the bounded updates is O(N²·d): the update
window grows with ``maxSide`` and hence with density, which is the
OpST-vs-density growth Fig. 13 reports and the reason AKDTree takes over
at medium densities.  The visit-time query pays only for the cubes it
extracts, so this implementation no longer shows that growth; the
density thresholds stay at the paper's values regardless.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import (
    BlockExtraction,
    block_occupancy,
    box_count,
    gather_blocks,
    integral_image,
    pad_to_blocks,
)
from repro.utils.validation import check_level_arrays, check_positive_int


def compute_bs(occ: np.ndarray, max_side: int | None = None) -> np.ndarray:
    """Maximal-cube DP table over an occupancy grid.

    ``BS[x,y,z]`` is the largest ``s`` such that the ``s³`` cube of blocks
    with far corner ``(x,y,z)`` is fully occupied (0 where ``occ`` is
    False).  Equivalent to Alg. 1's min-recurrence; computed by incremental
    erosion with integral-image box counts so each candidate edge length is
    one whole-array comparison.  ``max_side`` (a positive integer) caps the
    cube edge.
    """
    if max_side is not None:
        max_side = check_positive_int(max_side, name="max_side")
    occ = np.asarray(occ, dtype=bool)
    bs = occ.astype(np.int32)
    if not occ.any():
        return bs
    table = integral_image(occ)
    nb = occ.shape
    cap = min(nb) if max_side is None else min(max_side, min(nb))
    for s in range(2, cap + 1):
        # Anchors with room for an s-cube: index >= s-1 along each axis.
        xs = np.arange(s - 1, nb[0])
        ys = np.arange(s - 1, nb[1])
        zs = np.arange(s - 1, nb[2])
        if xs.size == 0 or ys.size == 0 or zs.size == 0:
            break
        x1 = xs[:, None, None] + 1
        y1 = ys[None, :, None] + 1
        z1 = zs[None, None, :] + 1
        counts = box_count(table, (x1 - s, y1 - s, z1 - s), (x1, y1, z1))
        full = counts == s**3
        if not full.any():
            break
        view = bs[s - 1 :, s - 1 :, s - 1 :]
        view[full] = s
    return bs


def opst_plan(occ: np.ndarray) -> list[tuple[tuple[int, int, int], int]]:
    """Run Alg. 1 on an occupancy grid; return ``(origin_block, size)`` cubes.

    Origins are in unit-block coordinates; sizes are cube edge lengths in
    unit blocks.  The returned cubes are disjoint and cover every occupied
    block exactly once.
    """
    occ = np.array(occ, dtype=bool)  # private, C-contiguous: cleared below
    occ_flat = occ.reshape(-1)
    _, ny, nz = occ.shape
    cubes: list[tuple[tuple[int, int, int], int]] = []
    # Reverse scan order (Alg. 1 line 11, bottom-right-rear first); an
    # anchor emptied by an earlier extraction has BS = 0 and is skipped.
    for flat in np.flatnonzero(occ_flat)[::-1].tolist():
        if not occ_flat[flat]:
            continue
        x, rem = divmod(flat, ny * nz)
        y, z = divmod(rem, nz)
        size = 1
        while (
            min(x, y, z) >= size
            and occ[x - size : x + 1, y - size : y + 1, z - size : z + 1].all()
        ):
            size += 1
        origin = (x - size + 1, y - size + 1, z - size + 1)
        cubes.append((origin, size))
        occ[origin[0] : x + 1, origin[1] : y + 1, origin[2] : z + 1] = False
    return cubes


def opst_extract(data: np.ndarray, mask: np.ndarray, block_size: int) -> BlockExtraction:
    """Full OpST pre-process: plan maximal cubes and gather them by size."""
    block_size = check_positive_int(block_size, name="block_size")
    data, mask = check_level_arrays(data, mask)
    padded = pad_to_blocks(data, block_size)
    occ = block_occupancy(mask, block_size)
    extraction = BlockExtraction(
        padded_shape=padded.shape, orig_shape=data.shape, block_size=block_size
    )
    cubes = opst_plan(occ)
    if not cubes:
        return extraction
    by_size: dict[int, list[tuple[int, int, int]]] = {}
    for origin, size in cubes:
        by_size.setdefault(size, []).append(origin)
    for size, origins_blocks in sorted(by_size.items()):
        edge = size * block_size
        shape = (edge, edge, edge)
        origins = (np.asarray(origins_blocks, dtype=np.int64) * block_size).astype(np.int32)
        extraction.groups[shape] = gather_blocks(padded, origins, shape)
        extraction.coords[shape] = origins
        extraction.perms[shape] = np.zeros(origins.shape[0], dtype=np.uint8)
    return extraction


def opst_restore(extraction: BlockExtraction, dtype=None) -> np.ndarray:
    """Scatter the extracted cubes back to the original level extents."""
    return extraction.crop(extraction.reassemble(dtype=dtype))
