"""Correctness gates.  Each takes an output and its reference and says
whether the op that produced it counts as failed; none runs inside a
timed region."""

from __future__ import annotations

import numpy as np


def bound_limit(original: np.ndarray, stored_dtype, eb_abs: float) -> float:
    """The codec's documented guarantee, ``max(eb, ulp/2)`` in the storage
    dtype, with a relative allowance for the float64 bound arithmetic."""
    if original.size == 0:
        return eb_abs
    peak = np.asarray(np.max(np.abs(original)), dtype=stored_dtype)
    return eb_abs * (1.0 + 1e-4) + 0.5 * float(np.spacing(peak)) + 1e-12


def within_bound(original: np.ndarray, decoded: np.ndarray, eb_abs: float) -> bool:
    """Whether every stored value was reconstructed within ``eb_abs``."""
    if original.shape != decoded.shape:
        return False
    if original.size == 0:
        return True
    err = float(np.max(np.abs(original.astype(np.float64) - decoded.astype(np.float64))))
    return err <= bound_limit(original, decoded.dtype, eb_abs)


def levels_within_bound(original_levels, decoded_levels, eb_abs: float) -> bool:
    """``within_bound`` over the stored (masked) cells of every level."""
    original_levels = list(original_levels)
    decoded_levels = list(decoded_levels)
    if len(original_levels) != len(decoded_levels):
        return False
    for want, got in zip(original_levels, decoded_levels):
        if not np.array_equal(want.mask, got.mask):
            return False
        if not within_bound(want.data[want.mask], got.data[want.mask], eb_abs):
            return False
    return True


def identical(data: np.ndarray, reference: np.ndarray) -> bool:
    """Bit-identity: same dtype, same shape, same bytes."""
    return (
        data.dtype == reference.dtype
        and data.shape == reference.shape
        and data.tobytes() == reference.tobytes()
    )


def psnr_db(value_range: float, sq_error_sum: float, n: int) -> float:
    """PSNR over ``n`` values whose squared errors sum to ``sq_error_sum``."""
    if n == 0 or sq_error_sum == 0.0:
        return float("inf")
    return 20.0 * np.log10(value_range) - 10.0 * np.log10(sq_error_sum / n)


def sq_error(original: np.ndarray, decoded: np.ndarray) -> float:
    diff = original.astype(np.float64) - decoded.astype(np.float64)
    return float(np.dot(diff.ravel(), diff.ravel()))
