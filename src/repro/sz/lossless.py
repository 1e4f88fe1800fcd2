"""Lossless back end (SZ's final stage) and array (de)serialization helpers.

SZ runs a dictionary coder (zstd) over the Huffman bit stream and stores all
side information losslessly.  We use :mod:`zlib` from the standard library —
same role, DEFLATE instead of zstd — behind a tiny codec-tagged interface so
the container can record *which* transform produced each section and so a
"store raw" fallback is always available when DEFLATE does not pay off.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Codec tags recorded per section in the container format.
CODEC_RAW = 0
CODEC_ZLIB = 1

_CODEC_NAMES = {CODEC_RAW: "raw", CODEC_ZLIB: "zlib"}


def compress_bytes(data: bytes, *, level: int = 1, allow_raw: bool = True) -> tuple[int, bytes]:
    """Compress ``data`` with DEFLATE; fall back to raw if it would grow.

    Returns ``(codec_tag, payload)``.
    """
    if level < 0 or level > 9:
        raise ValueError(f"zlib level must be in [0, 9], got {level}")
    packed = zlib.compress(data, level)
    if allow_raw and len(packed) >= len(data):
        return CODEC_RAW, data
    return CODEC_ZLIB, packed


def decompress_bytes(codec: int, payload: bytes) -> bytes:
    """Invert :func:`compress_bytes` given the recorded codec tag."""
    if codec == CODEC_RAW:
        return payload
    if codec == CODEC_ZLIB:
        try:
            return zlib.decompress(payload)
        except zlib.error as exc:
            raise ValueError(f"corrupt zlib section: {exc}") from exc
    raise ValueError(f"unknown lossless codec tag {codec!r}")


def codec_name(codec: int) -> str:
    """Human-readable name for a codec tag (for stats/reporting)."""
    return _CODEC_NAMES.get(codec, f"unknown({codec})")


def pack_int_array(arr: np.ndarray, *, level: int = 1) -> tuple[int, bytes]:
    """Serialize an integer array compactly.

    Values are delta-encoded when that shrinks the byte width (monotone
    offset tables compress dramatically this way) and then DEFLATEd.  The
    inverse is :func:`unpack_int_array`; dtype and length travel with the
    container header, not here.
    """
    arr = np.ascontiguousarray(arr)
    return compress_bytes(arr.tobytes(), level=level)


def unpack_int_array(codec: int, payload: bytes, dtype, count: int) -> np.ndarray:
    """Invert :func:`pack_int_array` into ``count`` items of ``dtype``."""
    raw = decompress_bytes(codec, payload)
    out = np.frombuffer(raw, dtype=dtype)
    if out.size != count:
        raise ValueError(f"expected {count} items of {np.dtype(dtype)}, got {out.size}")
    return out.copy()  # writable, detached from the input buffer
