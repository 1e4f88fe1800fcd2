"""Canonical length-limited Huffman coding with vectorized block decode.

SZ's third stage is "a customized Huffman coding" over the quantization
codes.  This module reproduces it with two HPC-minded twists that make a
pure-NumPy implementation fast:

1. **Length-limited canonical codes.**  Code lengths are capped at
   ``max_len`` (default 16) so decoding can use a single dense
   ``2**max_len``-entry lookup table instead of walking a tree bit by bit.
   Overlong Huffman depths (very skewed histograms) are repaired with a
   Kraft-sum fix-up, the same strategy zlib uses.

2. **Lockstep block decoding.**  Variable-length decoding is sequential by
   nature; we break the sequential chain by recording the *bit offset of
   every block* of ``block_size`` symbols at encode time.  Decoding then
   advances all blocks in lockstep — each round performs one table lookup
   per block as a whole-array gather — turning an O(n) Python loop into
   O(block_size) rounds of vectorized work over ``n/block_size`` lanes.
   With ``block_size ~ sqrt(n)`` both factors stay small.

3. **Multi-stream lanes.**  The round count, not the lane count, is what
   a small stream pays for, so :func:`decode_streams` decodes many
   streams in one pass: their payloads are concatenated, every block of
   every stream is a lane with its own start, round count (the ragged
   last block has fewer) and base offset into the concatenated
   ``table_sym``/``table_len`` of the distinct codecs.  Lanes are sorted
   by round count, so the active set is a prefix that shrinks at known
   rounds.  :meth:`HuffmanCodec.decode` is the one-stream call.

4. **Checks after the pass, not per round.**  Unassigned code space has
   the sentinel length :data:`_UNASSIGNED_LEN` in the decode table, so a
   lane that hits it ends far past any payload; and every lane must end
   exactly at the next block's offset (the last at ``total_bits``).
   Both are one comparison over the lane ends after the pass, and either
   failure raises ``ValueError("corrupt Huffman stream ...")`` — a
   shifted block offset cannot decode silently wrong.

The offsets cost 8 bytes per block (< 0.5% overhead for the default block
size) and are accounted for in the compressed size.

Encoding is O(symbols) word work: one prefix sum of the code lengths gives
both the block offsets and the bit positions that
:func:`repro.sz.bitstream.pack_words` packs 64 bits at a time, and code
lengths come from a linear two-queue Huffman construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.sz import bitstream
from repro.sz.bitstream import MAX_CODE_BITS, _PEEK_PAD, gather_words, pack_words, window_words

#: Default cap on codeword length; the decode table is ``2**DEFAULT_MAX_LEN``
#: entries (65536 at 16 → ~768 KB of int32/int64 tables).
DEFAULT_MAX_LEN = 16

#: Bound on the decoder-codec LRU cache (:meth:`HuffmanCodec.cached`).  At
#: the default ``max_len=16`` each cached codec holds ~768 KB of decode
#: tables, so the cache tops out around 24 MB.
DECODE_CACHE_SIZE = 32

#: Widest code the decoder peeks: a 32-bit window word holds a code of up
#: to 24 bits at any of the 8 bit phases.
MAX_DECODE_LEN = 24

#: Decode-table length of unassigned code space.  A lane that peeks into
#: it jumps this far past any payload (2**40 bits is 128 GiB), so one check
#: after the lockstep pass replaces a per-round one; int64 positions hold
#: a hit in every round of any lane shorter than 2**23 rounds.
_UNASSIGNED_LEN = 1 << 40

#: Bounds on the adaptive decode block size.
_MIN_BLOCK = 64
_MAX_BLOCK = 8192

#: Minimum lanes per chunk for the chunked-window decode of over-limit
#: payloads.  Chunking a stream into k contiguous lane spans multiplies the
#: lockstep round count by k; below this many lanes per round the fixed
#: per-round cost dominates and the whole-stream 4-gather peek is faster.
_MIN_CHUNK_LANES = 512


def default_block_size(n_symbols: int) -> int:
    """Balanced block size: rounds ~ lanes ~ sqrt(n), clamped to sane bounds."""
    if n_symbols <= 0:
        return _MIN_BLOCK
    return int(np.clip(int(np.sqrt(n_symbols)), _MIN_BLOCK, _MAX_BLOCK))


def huffman_code_lengths(counts: np.ndarray, max_len: int = DEFAULT_MAX_LEN) -> np.ndarray:
    """Compute length-limited Huffman code lengths from symbol counts.

    Parameters
    ----------
    counts:
        Non-negative integer frequencies per alphabet symbol.  Symbols with
        zero count receive length 0 (no code).
    max_len:
        Maximum codeword length; must satisfy ``2**max_len >= #present``.

    Returns
    -------
    ``uint8`` array of code lengths (0 for absent symbols) satisfying the
    Kraft inequality ``sum(2**-len) <= 1``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError("counts must be one-dimensional")
    if counts.size and counts.min() < 0:
        raise ValueError("symbol counts must be non-negative")
    present = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.uint8)
    n_present = present.size
    if n_present == 0:
        return lengths
    if n_present == 1:
        lengths[present[0]] = 1
        return lengths
    if n_present > (1 << max_len):
        raise ValueError(
            f"alphabet of {n_present} present symbols cannot fit in "
            f"max_len={max_len} bits"
        )

    # Two-queue Huffman (linear after the sort): leaves sorted by count —
    # stably, so equal counts keep symbol order — and internal nodes, which
    # are created in nondecreasing weight order.  Each merge takes the two
    # lightest heads, the leaf on equal weights: exactly the order of a
    # heap keyed on (count, leaves before internals, creation order), so
    # the lengths match the classic heap construction.  Nodes are numbered
    # leaves first, then internals in creation order, so every parent
    # outranks its children and one reverse pass over the parent pointers
    # reads the depths.
    order = np.argsort(counts[present], kind="stable")
    weight = counts[present][order].tolist() + [0] * (n_present - 1)
    parent = [0] * (2 * n_present - 1)
    leaf, inner = 0, n_present
    for node in range(n_present, 2 * n_present - 1):
        for _ in range(2):
            if leaf < n_present and (inner == node or weight[leaf] <= weight[inner]):
                child, leaf = leaf, leaf + 1
            else:
                child, inner = inner, inner + 1
            weight[node] += weight[child]
            parent[child] = node
    depth = [0] * (2 * n_present - 1)
    for node in range(2 * n_present - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1

    raw = np.empty(n_present, dtype=np.int64)
    raw[order] = depth[:n_present]
    raw = _limit_lengths(raw, max_len)
    lengths[present] = raw.astype(np.uint8)
    return lengths


def _limit_lengths(raw: np.ndarray, max_len: int) -> np.ndarray:
    """Clamp code lengths to ``max_len`` and repair the Kraft sum.

    Clamping overlong codes can push the Kraft sum above 1 (an over-full,
    undecodable tree).  We restore validity by repeatedly lengthening the
    deepest still-extendable code, which removes code space in the smallest
    possible increments; the result is always decodable, at a negligible
    compression cost only for pathologically skewed histograms.
    """
    lengths = np.minimum(raw, max_len)
    scale = 1 << max_len
    kraft = int(np.sum(scale >> lengths.astype(np.int64)))
    while kraft > scale:
        extendable = np.flatnonzero(lengths < max_len)
        if extendable.size == 0:  # pragma: no cover - guarded by caller
            raise ValueError("cannot satisfy Kraft inequality within max_len")
        deepest = extendable[np.argmax(lengths[extendable])]
        kraft -= scale >> int(lengths[deepest] + 1)
        lengths[deepest] += 1
    return lengths


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codewords for the given code lengths.

    Canonical order: shorter codes first, ties broken by symbol index.  The
    return value is a ``uint32`` array aligned with ``lengths``; entries for
    absent symbols (length 0) are 0 and must not be emitted.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint32)
    present = np.flatnonzero(lengths)
    if present.size == 0:
        return codes
    order = present[np.lexsort((present, lengths[present]))]
    sorted_lens = lengths[order]
    max_len = int(sorted_lens[-1])
    hist = np.bincount(sorted_lens, minlength=max_len + 1)
    # First canonical code per length via the standard recurrence
    # ``first[L] = (first[L-1] + hist[L-1]) << 1`` — O(max_len), not O(n).
    first = np.zeros(max_len + 1, dtype=np.int64)
    code = 0
    for length in range(1, max_len + 1):
        code = (code + int(hist[length - 1])) << 1
        first[length] = code
    # Within a length group codes are consecutive; the rank of each symbol
    # inside its group is its sorted position minus the group's start.
    group_start = np.concatenate(([0], np.cumsum(hist)))[sorted_lens]
    codes[order] = (first[sorted_lens] + np.arange(order.size) - group_start).astype(
        np.uint32
    )
    return codes


@dataclass(frozen=True)
class HuffmanEncoded:
    """A Huffman-encoded symbol stream plus the metadata to decode it."""

    payload: bytes
    total_bits: int
    block_offsets: np.ndarray  # int64 bit offset of each block's first code
    n_symbols: int
    block_size: int

    def metadata_bytes(self) -> int:
        """Bytes of side information (block offsets) before serialization."""
        return self.block_offsets.size * 8


class HuffmanCodec:
    """Encoder/decoder for a fixed canonical code.

    Build either from explicit ``code_lengths`` (decoder side — lengths are
    the only table information that needs to travel in the stream) or from
    symbol counts via :meth:`from_counts` (encoder side).
    """

    def __init__(self, code_lengths: np.ndarray, *, max_len: int | None = None):
        self.lengths = np.asarray(code_lengths, dtype=np.uint8)
        if self.lengths.ndim != 1:
            raise ValueError("code_lengths must be one-dimensional")
        present = np.flatnonzero(self.lengths)
        self.max_len = int(max_len if max_len is not None else (self.lengths.max() if present.size else 1))
        if present.size and int(self.lengths[present].max()) > self.max_len:
            raise ValueError("code length exceeds declared max_len")
        kraft = float(np.sum(np.ldexp(1.0, -self.lengths[present].astype(np.int64)))) if present.size else 0.0
        if kraft > 1.0 + 1e-12:
            raise ValueError(f"code lengths violate the Kraft inequality (sum={kraft})")
        # uint64, the word type the encoder packs, so the per-symbol gather
        # in :meth:`encode` is the only copy of the codes.
        self.codes = canonical_codes(self.lengths).astype(np.uint64)
        self._table_sym: np.ndarray | None = None
        self._table_len: np.ndarray | None = None

    # -- construction --------------------------------------------------
    @classmethod
    def from_counts(cls, counts: np.ndarray, max_len: int = DEFAULT_MAX_LEN) -> "HuffmanCodec":
        """Build an optimal (length-limited) code for the given histogram."""
        return cls(huffman_code_lengths(counts, max_len=max_len), max_len=max_len)

    @classmethod
    def from_symbols(cls, symbols: np.ndarray, alphabet_size: int, max_len: int = DEFAULT_MAX_LEN) -> "HuffmanCodec":
        """Histogram ``symbols`` over ``alphabet_size`` and build the code."""
        counts = np.bincount(np.asarray(symbols, dtype=np.int64), minlength=alphabet_size)
        return cls.from_counts(counts, max_len=max_len)

    @classmethod
    def cached(cls, code_lengths: np.ndarray, max_len: int) -> "HuffmanCodec":
        """A shared decoder codec with its decode table already built.

        One TAC blob holds hundreds of small per-group SZ streams, and many
        of them (near-constant residual blocks especially) carry identical
        code-length tables — rebuilding the dense ``2**max_len``-entry
        decode table for each is pure waste.  Codecs returned here are
        memoized in a bounded LRU (:data:`DECODE_CACHE_SIZE` entries) keyed
        on the raw length bytes; treat them as immutable.  Inspect with
        :func:`decode_table_cache_info`.
        """
        key = np.ascontiguousarray(code_lengths, dtype=np.uint8).tobytes()
        return _cached_decoder(key, int(max_len))

    # -- stats ----------------------------------------------------------
    def expected_bits(self, counts: np.ndarray) -> int:
        """Exact payload bit count for encoding the histogram ``counts``."""
        counts = np.asarray(counts, dtype=np.int64)
        return int(np.sum(counts * self.lengths[: counts.size].astype(np.int64)))

    # -- encode ----------------------------------------------------------
    def encode(self, symbols: np.ndarray, block_size: int | None = None) -> HuffmanEncoded:
        """Encode ``symbols`` (ints in ``[0, alphabet)``) into a bit stream."""
        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        n = symbols.size
        if n and (symbols.min() < 0 or symbols.max() >= self.lengths.size):
            raise ValueError("symbol out of alphabet range")
        block = default_block_size(n) if block_size is None else int(block_size)
        if block <= 0:
            raise ValueError(f"block_size must be positive, got {block_size!r}")
        if n == 0:
            return HuffmanEncoded(b"", 0, np.zeros(0, dtype=np.int64), 0, block)
        # One prefix sum per stream: it gives the block offsets (block j
        # starts where symbol j*block - 1 ends) and drives the word pack,
        # which then consumes it and the freshly gathered codes in place.
        # Gathering from an int64 copy of the small length table lets the
        # cumsum run in place, without a widening pass over the stream.
        ends = self.lengths.astype(np.int64)[symbols]
        if ends.min() == 0:
            raise ValueError("attempted to encode a symbol with no codeword")
        if self.max_len > MAX_CODE_BITS and int(ends.max()) > MAX_CODE_BITS:
            raise ValueError(
                f"codeword length {int(ends.max())} exceeds supported maximum {MAX_CODE_BITS}"
            )
        np.cumsum(ends, out=ends)
        total_bits = int(ends[-1])
        block_offsets = np.concatenate(([0], ends[block - 1 : n - 1 : block]))
        payload = pack_words(self.codes[symbols], ends)
        return HuffmanEncoded(payload, total_bits, block_offsets, n, block)

    # -- decode ----------------------------------------------------------
    def _build_table(self) -> None:
        """Materialize the dense ``2**max_len`` peek → (symbol, len) table.

        Canonical codes occupy a single contiguous run of code space
        starting at 0 (each code's ``[lo, hi)`` table interval abuts the
        previous one), so the whole table is two ``np.repeat`` fills — no
        per-symbol Python loop.  Any unassigned slack past the Kraft sum
        gets the sentinel length :data:`_UNASSIGNED_LEN`.
        """
        if not 1 <= self.max_len <= MAX_DECODE_LEN:
            raise ValueError(
                f"max_len={self.max_len} is outside the decoder's peek width "
                f"of 1..{MAX_DECODE_LEN} bits"
            )
        size = 1 << self.max_len
        table_sym = np.zeros(size, dtype=np.int32)
        # int64 lengths so ``positions += lens`` in decode needs no cast.
        table_len = np.full(size, _UNASSIGNED_LEN, dtype=np.int64)
        present = np.flatnonzero(self.lengths)
        if present.size:
            plens = self.lengths[present].astype(np.int64)
            order = np.lexsort((present, plens))
            syms = present[order]
            lens_sorted = plens[order]
            spans = np.int64(1) << (self.max_len - lens_sorted)
            used = int(spans.sum())
            table_sym[:used] = np.repeat(syms.astype(np.int32), spans)
            table_len[:used] = np.repeat(lens_sorted, spans)
        # ``_table_sym`` marks the table built (decode tests it), so it is
        # published last: a concurrent decode never sees half a table.
        self._table_len = table_len
        self._table_sym = table_sym

    def decode(self, encoded: HuffmanEncoded) -> np.ndarray:
        """Decode a stream produced by :meth:`encode` back to symbols."""
        return decode_streams([(self, encoded)])[0]


def check_stream(n_symbols: int, block_size: int, total_bits: int, payload_bytes: int) -> None:
    """Reject stream geometry no encoder writes, before anything is sized by it.

    Every symbol costs at least one bit and the bits live in the payload,
    so ``n_symbols <= total_bits <= 8 * payload_bytes`` bounds the output
    allocation by the bytes actually present.
    """
    if block_size <= 0:
        raise ValueError(f"corrupt Huffman stream: block_size={block_size} must be positive")
    if not 0 <= n_symbols <= total_bits <= 8 * payload_bytes:
        raise ValueError(
            f"corrupt Huffman stream: need n_symbols <= total_bits <= 8*payload bytes, "
            f"got {n_symbols} symbols, {total_bits} bits, {payload_bytes} bytes"
        )


def decode_streams(
    streams: Sequence[tuple[HuffmanCodec, HuffmanEncoded]],
) -> list[np.ndarray]:
    """Decode ``(codec, encoded)`` pairs in one lockstep pass.

    Bit-identical to ``[codec.decode(enc) for codec, enc in streams]``:
    every block of every stream becomes a lane over one concatenated
    payload, so the pass runs ``max(block_size)`` rounds instead of the
    sum.  Raises ``ValueError`` if any stream is corrupt; which one is not
    reported (decode singly to pin it).
    """
    results = [np.zeros(0, dtype=np.int32) for _ in streams]
    live = []
    for idx, (codec, enc) in enumerate(streams):
        n, block = enc.n_symbols, enc.block_size
        check_stream(n, block, enc.total_bits, len(enc.payload))
        if n == 0:
            continue
        offsets = np.asarray(enc.block_offsets, dtype=np.int64)
        if offsets.size != -(-n // block):
            raise ValueError("block offset table does not match symbol count")
        if offsets[0] < 0 or offsets[-1] > enc.total_bits or np.any(offsets[1:] < offsets[:-1]):
            raise ValueError(
                "corrupt Huffman stream (block offsets out of order or past the payload)"
            )
        if codec._table_sym is None:
            codec._build_table()
        live.append((idx, codec, enc, offsets))
    if not live:
        return results

    # Lane arrays in stream order.  Streams sit back to back in one padded
    # buffer, so lane starts and expected ends are globally monotone.
    tables: dict[int, int] = {}
    n_table = 0
    buf = np.zeros(sum(len(enc.payload) + _PEEK_PAD for _i, _c, enc, _o in live), np.uint8)
    starts, ends, rounds, table_base, widths, spans = [], [], [], [], [], []
    byte_base = n_lanes = 0
    for idx, codec, enc, offsets in live:
        buf[byte_base : byte_base + len(enc.payload)] = np.frombuffer(enc.payload, np.uint8)
        bit_base = byte_base << 3
        starts.append(offsets + bit_base)
        ends.append(np.append(offsets[1:], enc.total_bits) + bit_base)
        lane_rounds = np.full(offsets.size, enc.block_size, dtype=np.int64)
        lane_rounds[-1] = enc.n_symbols - enc.block_size * (offsets.size - 1)
        rounds.append(lane_rounds)
        if id(codec) not in tables:
            tables[id(codec)] = n_table
            n_table += codec._table_sym.size
        table_base.append(np.full(offsets.size, tables[id(codec)], dtype=np.uint32))
        widths.append(np.full(offsets.size, 32 - codec.max_len, dtype=np.uint32))
        results[idx] = np.empty(enc.n_symbols, dtype=np.int32)
        spans.append((idx, enc.block_size, n_lanes, n_lanes + offsets.size))
        n_lanes += offsets.size
        byte_base += len(enc.payload) + _PEEK_PAD
    starts, ends, rounds = (np.concatenate(a) for a in (starts, ends, rounds))
    codecs = list({id(c): c for _i, c, _e, _o in live}.values())
    if len(codecs) == 1:
        table_sym, table_len = codecs[0]._table_sym, codecs[0]._table_len
        base = None
    else:
        table_sym = np.concatenate([c._table_sym for c in codecs])
        table_len = np.concatenate([c._table_len for c in codecs])
        base = np.concatenate(table_base)
    down = np.concatenate(widths)
    if np.all(down == down[0]):
        down = down[0]

    for lo, hi, words, rebase in _lane_passes(buf, starts, ends):
        order = np.argsort(-rounds[lo:hi], kind="stable")
        positions = starts[lo:hi][order] - (rebase << 3)
        lane_rounds = rounds[lo:hi][order]
        out = np.empty((int(lane_rounds[0]), hi - lo), dtype=np.int32)
        _lockstep(
            buf,
            words,
            positions,
            lane_rounds,
            out,
            table_sym,
            table_len,
            down if np.isscalar(down) else down[lo:hi][order],
            None if base is None else base[lo:hi][order],
        )
        if positions.max() >= _UNASSIGNED_LEN:
            raise ValueError("corrupt Huffman stream (unassigned code space)")
        if not np.array_equal(positions, ends[lo:hi][order] - (rebase << 3)):
            raise ValueError(
                "corrupt Huffman stream (a block does not end at the next block offset)"
            )
        # Stitch rounds back into block-major stream order.  The stable
        # sort keeps each stream's equal-round full blocks adjacent, so
        # they are one column range; a ragged last block is one column.
        column = np.empty(hi - lo, dtype=np.int64)
        column[order] = np.arange(hi - lo)
        for idx, block, first, last in spans:
            a, b = max(lo, first), min(hi, last)
            if a >= b:
                continue
            res = results[idx]
            n_blocks = last - first
            n_full = res.size // block
            full = min(b, first + n_full) - a
            if full > 0:
                c0 = column[a - lo]
                j0 = (a - first) * block
                columns = out[:block, c0 : c0 + full]
                res[j0 : j0 + full * block].reshape(full, block)[...] = columns.T
            if b == last and n_full < n_blocks:
                res[n_full * block :] = out[: res.size - n_full * block, column[b - 1 - lo]]
    return results


def _lane_passes(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Yield ``(lo, hi, words, rebase)`` lane ranges with their peek source.

    Small buffers get one pass over a whole-buffer window.  Buffers over
    :data:`~repro.sz.bitstream.WINDOW_WORDS_LIMIT` are split into
    contiguous lane chunks, each windowed over just its byte span
    (positions rebased by ``rebase`` bytes), so window memory stays
    bounded while every round is one gather.  A lone lane whose span
    exceeds the limit, or too few lanes per chunk to amortize the extra
    rounds, fall back to 4-byte gathers (``words is None``).
    """
    limit = bitstream.WINDOW_WORDS_LIMIT
    n_lanes = starts.size
    if buf.size <= limit:
        yield 0, n_lanes, window_words(buf), 0
        return
    if n_lanes // -(-buf.size // max(limit, 1)) < _MIN_CHUNK_LANES:
        yield 0, n_lanes, None, 0
        return
    lo = 0
    while lo < n_lanes:
        lo_byte = int(starts[lo]) >> 3
        # Largest hi with the span's window (end byte + 4-byte gather
        # slack, rebased to lo_byte) within the limit.
        hi = int(np.searchsorted(ends, (lo_byte + limit - 4) * 8, side="right"))
        hi = min(max(hi, lo + 1), n_lanes)
        hi_byte = (int(ends[hi - 1]) + 7) >> 3
        if hi == lo + 1 and hi_byte + 4 - lo_byte > limit:
            yield lo, hi, None, 0
        else:
            yield lo, hi, window_words(buf[lo_byte : hi_byte + 4]), lo_byte
        lo = hi


def _lockstep(
    buf: np.ndarray,
    words: np.ndarray | None,
    positions: np.ndarray,
    rounds: np.ndarray,
    out: np.ndarray,
    table_sym: np.ndarray,
    table_len: np.ndarray,
    down,
    base: np.ndarray | None,
) -> None:
    """The lockstep rounds: every active lane decodes one symbol per round.

    Lanes arrive sorted by round count (descending), so the active set is
    a prefix that shrinks at precomputed rounds — no per-round scan.  Each
    round is whole-array work: peek ``words[pos >> 3] << (pos & 7) >>
    down`` (``down = 32 - width``, per lane when widths differ), add the
    lane's ``base`` into the concatenated tables (``None``: one table),
    look up symbol and length, advance.  Unassigned code space has length
    :data:`_UNASSIGNED_LEN`, so a lane that hits it ends far past any
    payload and the caller's one check after the pass finds it.
    ``positions`` is updated in place to each lane's end; ``words=None``
    peeks with 4-byte gathers from ``buf`` instead.
    """
    m = positions.size
    # Per-lane arrays (scalar ``down`` / ``base=None`` pass through the
    # prefix slicing untouched).
    lane_arrays = [
        positions,
        np.empty(m, dtype=np.int64),  # byte index
        np.empty(m, dtype=np.uint32),  # bit phase
        np.empty(m, dtype=np.uint32),  # peek
        np.empty(m, dtype=np.int64),  # code length
        down,
        base,
    ]

    def prefix(k: int) -> list:
        return [a[:k] if isinstance(a, np.ndarray) else a for a in lane_arrays]

    # Round at which the active prefix shrinks → its new length.
    cuts = np.flatnonzero(rounds[1:] != rounds[:-1]) + 1
    shrink = {int(rounds[c]): int(c) for c in cuts}
    pos_v, bidx_v, ph_v, peek_v, lens_v, down_v, base_v = prefix(m)
    for r in range(int(rounds[0])):
        if r in shrink:
            m = shrink[r]
            pos_v, bidx_v, ph_v, peek_v, lens_v, down_v, base_v = prefix(m)
        np.right_shift(pos_v, 3, out=bidx_v)
        np.bitwise_and(pos_v, 7, out=ph_v, casting="unsafe")
        if words is not None:
            # mode="clip" clamps like gather_words: corrupt offsets read
            # the window's final words instead of raising IndexError.
            words.take(bidx_v, out=peek_v, mode="clip")
        else:
            peek_v[...] = gather_words(buf, bidx_v)
        np.left_shift(peek_v, ph_v, out=peek_v)
        np.right_shift(peek_v, down_v, out=peek_v)
        if base_v is not None:
            np.add(peek_v, base_v, out=peek_v)
        table_len.take(peek_v, out=lens_v)
        table_sym.take(peek_v, out=out[r, :m])
        pos_v += lens_v


class SharedHuffmanTable:
    """One canonical code shared by every stream of a TAC level.

    Built from the *summed* symbol histogram of all the level's streams, so
    each stream encodes under a code whose support covers its symbols by
    construction.  Carries the content id (:func:`repro.sz.stream.shared_table_id`)
    that streams embed in their ``SEC_TABLE_REF`` so decode can verify it is
    resolving against the table the stream was written with.
    """

    def __init__(self, codec: HuffmanCodec):
        self.codec = codec
        self.lengths_bytes = np.ascontiguousarray(codec.lengths, dtype=np.uint8).tobytes()
        # Local import: stream.py has no back-edge into huffman.py.
        from repro.sz import stream as _stream

        self.table_id = _stream.shared_table_id(self.lengths_bytes)

    @classmethod
    def from_counts(cls, counts: np.ndarray, max_len: int = DEFAULT_MAX_LEN) -> "SharedHuffmanTable":
        """Build the shared code from a level-wide symbol histogram."""
        return cls(HuffmanCodec.from_counts(counts, max_len=max_len))

    @property
    def alphabet(self) -> int:
        return int(self.codec.lengths.size)

    def serialize(self, *, zlib_level: int = 1) -> bytes:
        """The standalone container part holding this table's code lengths."""
        from repro.sz import stream as _stream

        return _stream.pack_shared_table(
            self.codec.lengths, self.codec.max_len, zlib_level=zlib_level
        )


@lru_cache(maxsize=DECODE_CACHE_SIZE)
def _cached_decoder(lengths_bytes: bytes, max_len: int) -> HuffmanCodec:
    codec = HuffmanCodec(np.frombuffer(lengths_bytes, dtype=np.uint8), max_len=max_len)
    codec._build_table()
    return codec


def decode_table_cache_info():
    """``functools`` cache statistics for :meth:`HuffmanCodec.cached`."""
    return _cached_decoder.cache_info()


def decode_table_cache_clear() -> None:
    """Drop all memoized decoder codecs (testing / memory-pressure hook)."""
    _cached_decoder.cache_clear()
