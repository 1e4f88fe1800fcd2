"""Vectorized variable-length bit packing and peeking.

The Huffman stage needs to (a) concatenate millions of variable-length
codewords into a byte buffer and (b) read back fixed-width *peeks* at
arbitrary bit offsets during table-driven decoding.  Both are implemented
with whole-array NumPy operations — no per-symbol Python loop — following
the vectorization idioms of the HPC guides:

* **pack**: work on 64-bit words, O(symbols) rather than O(bits).  Each
  codeword is keyed on the word holding its last bit and left-shifted so
  that bit lands at its place in the word; the codes of one word never
  overlap, so one ``np.bitwise_or.reduceat`` builds every word.  A code
  that straddles into a word from the previous one contributes its high
  bits there with one more shift (at most one code per word boundary).
  The words are written big-endian.
* **peek**: gather four consecutive bytes at ``offset // 8``, combine into a
  big-endian ``uint32`` and shift/mask to expose ``width`` bits.

Bit order is MSB-first within each byte (network order), so a peek of the
first codeword's bits is simply the top bits of the buffer.
"""

from __future__ import annotations

import numpy as np

#: Safety padding (bytes) appended to buffers so a 4-byte gather at the last
#: bit offset never reads out of bounds.
_PEEK_PAD = 4

#: Longest codeword :func:`pack_codes` accepts.  The word pack itself needs
#: codes shorter than 64 bits: then a code spans at most two words, every
#: word holds the end of some code, and no shift reaches the word width.
#: 57 is the tighter classic bit-writer bound (a writer that flushes whole
#: bytes holds at most 7 pending bits, and 57 + 7 = 64 fits one register),
#: kept so the accepted range never changes; it far exceeds any
#: length-limited Huffman code built here (the decoder peeks at most 24).
MAX_CODE_BITS = 57


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Concatenate MSB-aligned codewords into a packed byte string.

    Parameters
    ----------
    codes:
        ``uint32``/``uint64`` array; the lowest ``lengths[i]`` bits of
        ``codes[i]`` form the codeword (most significant code bit first).
    lengths:
        Per-codeword bit lengths (``> 0`` for every emitted symbol).

    Returns
    -------
    (buffer, total_bits):
        ``buffer`` is the packed stream plus :data:`_PEEK_PAD` zero bytes of
        slack; ``total_bits`` is the exact number of payload bits.
    """
    codes = np.array(codes, dtype=np.uint64)  # a copy: packing works in place
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have identical shapes")
    if codes.size == 0:
        return b"\x00" * _PEEK_PAD, 0
    codes = codes.ravel()
    lengths = lengths.ravel()
    if lengths.min() <= 0:
        raise ValueError("all codeword lengths must be positive")
    max_len = int(lengths.max())
    if max_len > MAX_CODE_BITS:
        raise ValueError(
            f"codeword length {max_len} exceeds supported maximum {MAX_CODE_BITS}"
        )
    # Only the low ``lengths[i]`` bits are the codeword; bits above them
    # would land on the neighbouring codes.
    codes &= (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)
    ends = np.cumsum(lengths)
    total_bits = int(ends[-1])
    return pack_words(codes, ends), total_bits


def pack_words(codes: np.ndarray, ends: np.ndarray) -> bytes:
    """The word pack behind :func:`pack_codes`, on prepared arrays.

    ``codes`` is a ``uint64`` array of codewords that fit their lengths and
    ``ends`` the ``int64`` running sum of those lengths (bit position just
    past each code), with every length in ``1..MAX_CODE_BITS``.  Both
    arrays are consumed: they are overwritten in place, so the caller
    passes freshly built ones and keeps no use for them.  Returns the
    packed stream plus :data:`_PEEK_PAD` zero bytes.
    """
    total_bits = int(ends[-1])
    n_words = (total_bits + 63) >> 6
    # Codes are shorter than 64 bits, so the gap between two consecutive
    # code ends is too and every word holds the last bit of at least one
    # code: ``first[k]`` — the first code ending in word ``k`` — is
    # defined for every word, and ``reduceat`` over it yields each word.
    first = np.searchsorted(ends, np.arange(n_words, dtype=np.int64) << 6, side="right")
    # The first code of word k started at or before the word's first bit;
    # its ``tail`` low bits (at most its length) are in word k and any bits
    # above them close word k - 1.  A code that starts on the boundary has
    # nothing above its tail, so the shift below yields 0 for it.
    straddle = codes[first[1:]]
    tail = ends[first[1:]]
    tail -= np.arange(1, n_words, dtype=np.int64) << 6
    straddle >>= tail.view(np.uint64)
    # In place, so the pack allocates nothing per symbol: the shift that
    # puts each code's last bit at ``end - 1`` within its word is
    # ``(-end) & 63`` (bits past 64 fall off the left).
    np.negative(ends, out=ends)
    ends &= 63
    codes <<= ends.view(np.uint64)
    # One spare zero word: the payload's last byte is followed by at least
    # _PEEK_PAD zero bytes inside the array.
    words = np.zeros(n_words + 1, dtype=np.uint64)
    np.bitwise_or.reduceat(codes, first, out=words[:n_words])
    words[: n_words - 1] |= straddle
    n_bytes = (total_bits + 7) >> 3
    return words.astype(">u8", copy=False).view(np.uint8)[: n_bytes + _PEEK_PAD].tobytes()


def as_peekable(buffer: bytes | np.ndarray) -> np.ndarray:
    """Return a ``uint8`` copy of ``buffer`` with the 4-byte gather guard.

    Padding is appended unconditionally: :func:`peek_bits` gathers four
    consecutive bytes at any in-range offset, so the final payload byte
    always needs :data:`_PEEK_PAD` bytes of slack after it.
    """
    if isinstance(buffer, (bytes, bytearray)):
        arr = np.frombuffer(buffer, dtype=np.uint8)
    else:
        arr = np.asarray(buffer, dtype=np.uint8)
    return np.concatenate([arr, np.zeros(_PEEK_PAD, dtype=np.uint8)])


#: Above this payload size (bytes) :func:`window_words` is skipped and the
#: decoder falls back to per-round 4-byte gathers — the window array costs
#: 4 bytes per payload byte, which is fine for group-stream-sized payloads
#: but not for multi-hundred-MB monolithic streams.
WINDOW_WORDS_LIMIT = 256 * 1024 * 1024


def window_words(buf: np.ndarray) -> np.ndarray:
    """Big-endian ``uint32`` read of ``buf`` at *every* byte offset.

    ``window_words(buf)[i]`` equals the 32-bit big-endian word starting at
    byte ``i``, so a fixed-width peek at bit offset ``p`` collapses to one
    gather: ``(words[p >> 3] << (p & 7)) >> (32 - width)``.  Built once per
    decode, this replaces the four per-round byte gathers of
    :func:`peek_bits` with a single one.

    ``buf`` must carry the :data:`_PEEK_PAD` slack (see :func:`as_peekable`).
    """
    words = buf[: buf.size - 3].astype(np.uint32)
    words <<= np.uint32(8)
    words |= buf[1 : buf.size - 2]
    words <<= np.uint32(8)
    words |= buf[2 : buf.size - 1]
    words <<= np.uint32(8)
    words |= buf[3:]
    return words


def peek_bits(buf: np.ndarray, bit_offsets: np.ndarray, width: int) -> np.ndarray:
    """Vectorized fixed-width peek at arbitrary bit offsets.

    Parameters
    ----------
    buf:
        Padded ``uint8`` buffer from :func:`as_peekable` (or
        :func:`pack_codes`, which pads its output).
    bit_offsets:
        ``int64`` array of bit positions (MSB-first order).
    width:
        Number of bits to expose, ``1 <= width <= 24``.  24 keeps every peek
        within one aligned 4-byte gather regardless of the offset's
        intra-byte phase (24 + 7 <= 32).

    Returns
    -------
    ``uint32`` array of the peeked values; offsets past the end of the
    buffer read the zero padding (callers bound decoding by symbol count,
    not by buffer exhaustion).
    """
    if not 1 <= width <= 24:
        raise ValueError(f"peek width must be in [1, 24], got {width}")
    offsets = np.asarray(bit_offsets, dtype=np.int64)
    word = gather_words(buf, offsets >> 3)
    phase = (offsets & 7).astype(np.uint32)
    shifted = word >> (np.uint32(32 - width) - phase)
    return shifted & np.uint32((1 << width) - 1)


def gather_words(buf: np.ndarray, byte_idx: np.ndarray) -> np.ndarray:
    """Big-endian ``uint32`` words at ``byte_idx`` via four byte gathers.

    The window-free equivalent of ``window_words(buf)[byte_idx]``.  Indices
    are clamped into ``[0, buf.size - 4]`` so (invalid) offsets past the
    payload read padding instead of raising ``IndexError``.
    """
    byte_idx = np.clip(byte_idx, 0, buf.size - _PEEK_PAD)
    word = buf[byte_idx].astype(np.uint32)
    for k in range(1, 4):
        word <<= np.uint32(8)
        word |= buf[byte_idx + k]
    return word


def unpack_to_bits(buffer: bytes, total_bits: int) -> np.ndarray:
    """Expand a packed buffer back to a ``uint8`` 0/1 array (testing aid)."""
    arr = np.frombuffer(buffer, dtype=np.uint8)
    bits = np.unpackbits(arr)
    return bits[:total_bits]
