"""NaST — the naive sparse-tensor pre-process (paper §3.1, Fig. 5).

Partition the level into unit blocks, drop the empty ones, and stack every
surviving block into a single 4D array for the compressor.  Simple and
effective at removing empty space, but the small block size leaves a large
fraction of the data on block boundaries where a prediction-based
compressor has little context — the motivation for OpST.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import (
    BlockExtraction,
    block_occupancy,
    gather_blocks,
    pad_to_blocks,
)
from repro.utils.validation import check_level_arrays, check_positive_int


def nast_extract(data: np.ndarray, mask: np.ndarray, block_size: int) -> BlockExtraction:
    """Remove empty unit blocks; stack the rest into one 4D group.

    Parameters
    ----------
    data:
        Level values (3D), zero outside ``mask``.
    mask:
        Validity mask of the level.
    block_size:
        Unit block edge length in cells.
    """
    block_size = check_positive_int(block_size, name="block_size")
    data, mask = check_level_arrays(data, mask)
    padded = pad_to_blocks(data, block_size)
    occ = block_occupancy(mask, block_size)
    extraction = BlockExtraction(
        padded_shape=padded.shape, orig_shape=data.shape, block_size=block_size
    )
    origins_blocks = np.argwhere(occ)
    if origins_blocks.size == 0:
        return extraction
    origins = (origins_blocks * block_size).astype(np.int32)
    shape = (block_size, block_size, block_size)
    extraction.groups[shape] = gather_blocks(padded, origins, shape)
    extraction.coords[shape] = origins
    extraction.perms[shape] = np.zeros(origins.shape[0], dtype=np.uint8)
    return extraction


def nast_restore(extraction: BlockExtraction, dtype=None) -> np.ndarray:
    """Scatter the stacked unit blocks back to the original level extents."""
    return extraction.crop(extraction.reassemble(dtype=dtype))
