"""Unit tests for the vectorized bit packing/peeking layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz.bitstream import as_peekable, pack_codes, peek_bits, unpack_to_bits
from tests.helpers import naive_pack


class TestPackCodes:
    def test_single_byte_code(self):
        buf, total = pack_codes(np.array([0b101], dtype=np.uint64), np.array([3]))
        assert total == 3
        assert unpack_to_bits(buf, 3).tolist() == [1, 0, 1]

    def test_two_codes_concatenate(self):
        codes = np.array([0b11, 0b0001], dtype=np.uint64)
        lengths = np.array([2, 4])
        buf, total = pack_codes(codes, lengths)
        assert total == 6
        assert unpack_to_bits(buf, 6).tolist() == [1, 1, 0, 0, 0, 1]

    def test_empty_input(self):
        buf, total = pack_codes(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        assert total == 0
        assert len(buf) >= 4  # safety padding retained

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError, match="positive"):
            pack_codes(np.array([1], dtype=np.uint64), np.array([0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="identical shapes"):
            pack_codes(np.array([1, 2], dtype=np.uint64), np.array([1]))

    def test_rejects_overlong_codes(self):
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            pack_codes(np.array([1], dtype=np.uint64), np.array([60]))

    def test_total_bits_matches_lengths(self, rng):
        lengths = rng.integers(1, 17, size=1000)
        codes = np.array(
            [rng.integers(0, 1 << int(l)) for l in lengths], dtype=np.uint64
        )
        _, total = pack_codes(codes, lengths)
        assert total == int(lengths.sum())

    def test_payload_is_padded_for_peeks(self):
        buf, total = pack_codes(np.array([1], dtype=np.uint64), np.array([1]))
        # 1 bit of payload needs 1 byte + 4 bytes padding.
        assert len(buf) == 5


class TestPeekBits:
    def test_peek_first_bits(self):
        buf, _ = pack_codes(np.array([0b10110011], dtype=np.uint64), np.array([8]))
        arr = as_peekable(buf)
        got = peek_bits(arr, np.array([0]), 8)
        assert got[0] == 0b10110011

    def test_peek_with_phase_offsets(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0], dtype=np.uint8)
        packed = np.packbits(bits)
        arr = as_peekable(packed.tobytes())
        for offset in range(9):
            got = int(peek_bits(arr, np.array([offset]), 4)[0])
            want = int("".join(str(b) for b in bits[offset : offset + 4]).ljust(4, "0"), 2)
            assert got == want, f"offset {offset}"

    def test_peek_vectorized_matches_scalar(self, rng):
        payload = rng.integers(0, 256, size=64, dtype=np.uint8)
        arr = as_peekable(payload.tobytes())
        offsets = rng.integers(0, 64 * 8 - 16, size=100)
        batch = peek_bits(arr, offsets, 13)
        singles = np.array([int(peek_bits(arr, np.array([o]), 13)[0]) for o in offsets])
        assert np.array_equal(batch, singles)

    def test_width_bounds(self):
        arr = as_peekable(b"\x00" * 8)
        with pytest.raises(ValueError):
            peek_bits(arr, np.array([0]), 0)
        with pytest.raises(ValueError):
            peek_bits(arr, np.array([0]), 25)

    def test_peek_past_end_reads_padding(self):
        arr = as_peekable(b"\xff")
        got = peek_bits(arr, np.array([100]), 8)
        assert got[0] == 0  # zero padding, no crash


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=200), st.integers(0, 2**31))
    def test_pack_then_peek_recovers_codes(self, lengths, seed):
        rng = np.random.default_rng(seed)
        lengths = np.array(lengths, dtype=np.int64)
        codes = np.array(
            [rng.integers(0, 1 << int(l)) for l in lengths], dtype=np.uint64
        )
        buf, total = pack_codes(codes, lengths)
        arr = as_peekable(buf)
        offsets = np.cumsum(lengths) - lengths
        for i, (code, length) in enumerate(zip(codes, lengths)):
            width = min(int(length), 20)
            peeked = int(peek_bits(arr, offsets[i : i + 1], width)[0])
            want = int(code) >> (int(length) - width)
            assert peeked == want


def _fill_to(lengths: list[int], multiple: int) -> list[int]:
    """``lengths`` plus codes of at most 57 bits that make the total a
    multiple of ``multiple`` (so the last code ends on that boundary)."""
    rem = -sum(lengths) % multiple
    while rem:
        step = min(rem, 57)
        lengths = lengths + [step]
        rem -= step
    return lengths


@st.composite
def _code_streams(draw):
    lengths = draw(st.lists(st.integers(1, 57), min_size=1, max_size=120))
    align = draw(st.sampled_from([1, 8, 64]))
    lengths = _fill_to(lengths, align)
    # Full 64-bit values: the bits above each length must be ignored.
    codes = draw(
        st.lists(st.integers(0, 2**64 - 1), min_size=len(lengths), max_size=len(lengths))
    )
    return np.array(codes, dtype=np.uint64), np.array(lengths, dtype=np.int64)


class TestPackCodesMatchesNaive:
    @settings(max_examples=200, deadline=None)
    @given(_code_streams())
    def test_random_streams(self, stream):
        codes, lengths = stream
        assert pack_codes(codes, lengths) == naive_pack(codes, lengths)

    @pytest.mark.parametrize(
        "lengths",
        [
            [1],  # a single one-bit symbol
            [57],  # a single longest symbol
            [57, 7],  # ends exactly on the first word boundary
            [32, 32, 7, 57],  # codes end on the first and second word boundaries
            [57, 57, 57],  # every code after the first straddles a word
            [8, 57, 3],  # the 57-bit code reaches 1 bit into the second word
            [3, 5],  # total_bits ≡ 0 (mod 8), not (mod 64)
            [57, 7, 57, 7],  # total_bits ≡ 0 (mod 64)
            [1] * 64 + [2] * 32,  # many codes per word
        ],
    )
    def test_word_boundaries(self, lengths):
        rng = np.random.default_rng(len(lengths))
        lengths = np.array(lengths, dtype=np.int64)
        codes = rng.integers(0, 2**64 - 1, size=lengths.size, dtype=np.uint64, endpoint=True)
        assert pack_codes(codes, lengths) == naive_pack(codes, lengths)
        # All-ones codes catch a bit ORed into the wrong word.
        ones = (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)
        assert pack_codes(ones, lengths) == naive_pack(ones, lengths)

    def test_does_not_modify_inputs(self):
        codes = np.array([5, 2**40 + 3, 1], dtype=np.uint64)
        lengths = np.array([3, 45, 57], dtype=np.int64)
        before = codes.copy(), lengths.copy()
        pack_codes(codes, lengths)
        assert np.array_equal(codes, before[0]) and np.array_equal(lengths, before[1])
