"""Batched multi-stream decode: one lockstep Huffman pass for many streams.

Pins the contract of :func:`repro.sz.huffman.decode_streams`,
:meth:`SZCompressor.decompress_many`, the plan's batch seam, and the
ROI-sized brick assembly: every batched path is bit-identical to
decoding stream by stream, corrupt input fails with a typed
``ValueError`` before anything is sized by it, and a batch that fails
pins the failure to exactly one unit.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import DecodeUnit, DecompressionPlan, batch_units, execute_plan
from repro.core.tac import TACCompressor
from repro.engine.archive import BatchArchive
from repro.serve import ArchiveReader
from repro.sz import SZCompressor, bitstream, lossless, stream
from repro.sz.huffman import HuffmanCodec, HuffmanEncoded, decode_streams
from tests.helpers import smooth_cube, two_level_dataset

# ---------------------------------------------------------------------------
# decode_streams
# ---------------------------------------------------------------------------


def _stream_case(seed: int, n: int, block: int | None, max_len: int, codec=None):
    """One (codec, encoded, symbols) case: geometric symbols over a random
    alphabet, so code lengths vary and the table has unassigned space.
    With ``codec`` the symbols are drawn from its code instead."""
    rng = np.random.default_rng(seed)
    if codec is not None:
        symbols = rng.choice(np.flatnonzero(codec.lengths), size=n)
        return codec, codec.encode(symbols, block_size=block), symbols
    alphabet = int(rng.integers(1, 400))
    symbols = np.minimum(rng.geometric(0.25, size=n) - 1, alphabet - 1)
    counts = np.bincount(symbols, minlength=alphabet)
    counts[alphabet - 1] += 1  # never an empty histogram
    codec = HuffmanCodec.from_counts(counts, max_len=min(max_len, 24))
    if max_len > 24:
        # An encoder may declare any width; the decoder peeks at most 24.
        codec = HuffmanCodec(codec.lengths, max_len=max_len)
    return codec, codec.encode(symbols, block_size=block), symbols


def _reference(pairs):
    """Per-stream decode outcome: the symbols, or the exception type."""
    out = []
    for codec, enc in pairs:
        try:
            out.append(codec.decode(enc))
        except ValueError as exc:
            out.append(type(exc))
    return out


stream_cases = st.lists(
    st.tuples(
        st.integers(0, 2**31),
        st.sampled_from([0, 1, 2, 63, 64, 65, 700, 3000]),
        st.sampled_from([None, 1, 7, 64, 100, 4096]),
        st.sampled_from([8, 12, 16, 24, 26]),
    ),
    min_size=1,
    max_size=6,
)


class TestDecodeStreams:
    @settings(max_examples=60, deadline=None)
    @given(
        cases=stream_cases,
        share=st.booleans(),
        limit=st.sampled_from([None, 16, 64, 300]),
    )
    def test_batched_matches_per_stream(self, cases, share, limit):
        pairs = [_stream_case(*case)[:2] for case in cases]
        if share:
            # Every stream under the first codec: one table, no base
            # offsets — the shape of a shared-table TAC level.
            pairs = [_stream_case(*case, codec=pairs[0][0])[:2] for case in cases]
        window = bitstream.WINDOW_WORDS_LIMIT if limit is None else limit
        with mock.patch.object(bitstream, "WINDOW_WORDS_LIMIT", window):
            want = _reference(pairs)
            if any(isinstance(w, type) for w in want):
                with pytest.raises(ValueError):
                    decode_streams(pairs)
                return
            got = decode_streams(pairs)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.int32
            np.testing.assert_array_equal(g, w)

    def test_mixed_tables_widths_and_tails(self):
        pairs, symbols = [], []
        for seed, (n, block, max_len) in enumerate(
            [(3000, 64, 16), (1, None, 8), (0, 64, 12), (777, 100, 12), (65, 64, 24)]
        ):
            codec, enc, sym = _stream_case(seed, n, block, max_len)
            pairs.append((codec, enc))
            symbols.append(sym)
        for got, want in zip(decode_streams(pairs), symbols):
            np.testing.assert_array_equal(got, want)

    def test_chunked_windows_span_stream_boundaries(self):
        cases = [_stream_case(seed, 20_000, 16, 16) for seed in range(3)]
        pairs = [(codec, enc) for codec, enc, _sym in cases]
        with mock.patch.object(bitstream, "WINDOW_WORDS_LIMIT", 1000):
            got = decode_streams(pairs)
        for g, (_c, _e, sym) in zip(got, cases):
            np.testing.assert_array_equal(g, sym)

    def test_wide_codes_rejected_before_table_allocation(self):
        codec = HuffmanCodec(np.array([1, 1], dtype=np.uint8), max_len=40)
        enc = codec.encode(np.array([0, 1, 1, 0]))
        with pytest.raises(ValueError, match="max_len=40"):
            decode_streams([(codec, enc)])  # a 2**40-entry table otherwise
        with pytest.raises(ValueError, match="max_len=40"):
            HuffmanCodec.cached(codec.lengths, 40)
        assert codec._table_sym is None

    def test_sentinel_marks_unassigned_code_space(self):
        codec = HuffmanCodec(np.array([3, 3, 3, 3, 3], dtype=np.uint8))
        codec._build_table()
        from repro.sz.huffman import _UNASSIGNED_LEN

        # Five 3-bit codes own 5 of the 8 table slots; the rest is
        # unassigned and carries the sentinel.
        assert codec._table_len.tolist() == [3] * 5 + [_UNASSIGNED_LEN] * 3


class TestLaneEndCheck:
    """A lane must end exactly at the next block's offset."""

    @pytest.mark.parametrize("shift", [-5, -3, -1, 1, 2, 5])
    def test_shifted_block_offset_raises(self, shift):
        rng = np.random.default_rng(100 + shift)
        symbols = rng.geometric(0.3, size=20_000) - 1
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=int(symbols.max()) + 1)
        enc = codec.encode(symbols)
        for trial in range(20):
            offsets = enc.block_offsets.copy()
            victim = int(rng.integers(1, offsets.size))
            offsets[victim] += shift
            bad = HuffmanEncoded(
                enc.payload, enc.total_bits, offsets, enc.n_symbols, enc.block_size
            )
            with pytest.raises(ValueError, match="corrupt Huffman stream"):
                codec.decode(bad)

    def test_wrong_total_bits_raises(self):
        symbols = np.arange(300) % 7
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=7)
        enc = codec.encode(symbols, block_size=64)
        bad = HuffmanEncoded(enc.payload, enc.total_bits + 1, enc.block_offsets, 300, 64)
        with pytest.raises(ValueError, match="does not end at the next block offset"):
            codec.decode(bad)

    def test_out_of_order_offsets_raise(self):
        symbols = np.arange(300) % 7
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=7)
        enc = codec.encode(symbols, block_size=64)
        offsets = enc.block_offsets[[0, 2, 1, 3, 4]]
        bad = HuffmanEncoded(enc.payload, enc.total_bits, offsets, 300, 64)
        with pytest.raises(ValueError, match="out of order"):
            codec.decode(bad)


# ---------------------------------------------------------------------------
# SZCompressor: decompress_many and typed errors for corrupt meta
# ---------------------------------------------------------------------------


def _with_meta(blob: bytes, **changes) -> bytes:
    """``blob`` with its SEC_META re-serialized under ``changes``."""
    parsed = stream.parse(blob)
    meta = stream.unpack_meta(parsed.section(stream.SEC_META)[1])
    meta.update(changes)
    sections = [
        (tag, codec, stream.pack_meta(**meta) if tag == stream.SEC_META else payload)
        for tag, (codec, payload) in parsed.sections.items()
    ]
    return stream.serialize(parsed.header, sections)


@pytest.fixture(scope="module")
def sz_blob():
    return SZCompressor().compress(smooth_cube(16, seed=2), 1e-3, mode="abs")


class TestCorruptMeta:
    def test_zero_block_size(self, sz_blob):
        with pytest.raises(ValueError, match="block_size=0"):
            SZCompressor().decompress(_with_meta(sz_blob, block_size=0))

    def test_code_width_past_the_decoder(self, sz_blob):
        with pytest.raises(ValueError, match="max_len=40"):
            SZCompressor().decompress(_with_meta(sz_blob, max_len=40))

    def test_more_symbols_than_bits(self, sz_blob):
        meta = stream.unpack_meta(stream.parse(sz_blob).section(stream.SEC_META)[1])
        bad = _with_meta(sz_blob, total_bits=meta["n_symbols"] - 1)
        with pytest.raises(ValueError, match="total_bits"):
            SZCompressor().decompress(bad)

    def test_more_bits_than_payload(self, sz_blob):
        with pytest.raises(ValueError, match="total_bits"):
            SZCompressor().decompress(_with_meta(sz_blob, total_bits=1 << 40))

    def test_symbol_count_must_match_shape(self, sz_blob):
        with pytest.raises(ValueError, match="symbols for"):
            SZCompressor().decompress(_with_meta(sz_blob, n_symbols=1 << 40))


class TestDecompressMany:
    def test_matches_decompress_across_kinds(self):
        rng = np.random.default_rng(0)
        interp, lorenzo = SZCompressor(), SZCompressor(predictor="lorenzo")
        blobs = [
            interp.compress(smooth_cube(12, seed=1), 1e-3, mode="abs"),
            interp.compress(np.zeros((0, 4, 4), np.float32), 1e-3),
            interp.compress(rng.random((5, 6, 7)), 0.0),  # lossless fallback
            interp.compress(rng.random((9, 9, 9)) + 0.5, 1e-2, mode="pw_rel"),
            lorenzo.compress(smooth_cube(10, seed=4, dtype=np.float64), 1e-4, mode="rel"),
            interp.compress(smooth_cube(20, seed=5), 1e-2, mode="rel"),
        ]
        got = interp.decompress_many(blobs)
        for blob, out in zip(blobs, got):
            want = interp.decompress(blob)
            assert out.dtype == want.dtype and out.shape == want.shape
            np.testing.assert_array_equal(out, want)

    def test_more_blobs_than_one_pass(self):
        from repro.sz.compressor import STREAMS_PER_PASS

        codec = SZCompressor()
        blobs = [
            codec.compress(smooth_cube(8, seed=s), 1e-3, mode="abs")
            for s in range(2 * STREAMS_PER_PASS + 1)
        ]
        with mock.patch("repro.sz.compressor.decode_streams", wraps=decode_streams) as spy:
            got = codec.decompress_many(blobs)
        per_pass = [len(call.args[0]) for call in spy.call_args_list]
        assert per_pass == [STREAMS_PER_PASS, STREAMS_PER_PASS, 1]
        for blob, out in zip(blobs, got):
            np.testing.assert_array_equal(out, codec.decompress(blob))


# ---------------------------------------------------------------------------
# the plan's batch seam
# ---------------------------------------------------------------------------


def _decode_all(loaded):
    return [f"decoded:{item}" for item in loaded]


def _unit(key, batch=None, many=_decode_all):
    return DecodeUnit(
        key=key,
        level=0,
        part_names=(key,),
        decode=lambda: many([key])[0],
        batch_key=batch,
        load=lambda: key,
        decode_many=many,
    )


class TestBatchSeam:
    def test_units_group_by_batch_key(self):
        units = [_unit("a", 1), _unit("x"), _unit("b", 1), _unit("c", 2), _unit("d", 1)]
        tasks = [[u.key for u in task] for task in batch_units(units)]
        assert tasks == [["a", "b", "d"], ["x"], ["c"]]

    def test_failed_batch_is_pinned_to_one_unit(self):
        # The batch decoder raises; the per-unit retry pins it on "bad"
        # only (its one-element decode_many call still raises).
        def many(loaded):
            if "bad" in loaded:
                raise ValueError("bad stream")
            return _decode_all(loaded)

        plan = DecompressionPlan([_unit(k, 1, many) for k in ("a", "b", "bad", "c")])
        errors: dict = {}
        results = execute_plan(plan, errors=errors)
        assert results == {k: f"decoded:{k}" for k in ("a", "b", "c")}
        assert list(errors) == ["bad"]
        with pytest.raises(ValueError, match="bad stream"):
            execute_plan(plan)

    def test_load_failure_stays_the_units_own(self):
        def boom():
            raise OSError("fetch failed")

        units = [_unit("a", 1), _unit("b", 1)]
        units[1] = dataclasses.replace(units[1], load=boom)
        errors: dict = {}
        assert execute_plan(DecompressionPlan(units), errors=errors) == {"a": "decoded:a"}
        assert isinstance(errors["b"], OSError)

    def test_tac_level_decodes_in_one_batch(self):
        tac = TACCompressor(brick_size=4)
        comp = tac.compress(two_level_dataset(n=16, seed=5), 1e-3, mode="abs")
        patch = mock.patch.object(
            SZCompressor,
            "decompress_many",
            autospec=True,
            side_effect=SZCompressor.decompress_many,
        )
        with patch as spy:
            plan = tac.build_decode_plan(comp, levels=[1])
            assert len(batch_units(plan.units)) == 1
            results = execute_plan(plan)
        assert [len(call.args[1]) for call in spy.call_args_list] == [len(plan.units)]
        for unit in plan.units:
            np.testing.assert_array_equal(
                results[unit.key], tac.codec.decompress(comp.parts[unit.key])
            )


# ---------------------------------------------------------------------------
# ROI-sized assembly and degraded batches through the reader
# ---------------------------------------------------------------------------

KEY = "toy/tac"
BRICK_LEVEL = 1
#: Level 1 of two_level_dataset(n=20) is 10³ cells in a 12³ padded grid
#: of 4³ bricks: the last brick on every axis is clipped to 2 cells.
ROIS = {
    1: [((1, 3), (1, 3), (1, 3)), ((8, 10), (8, 10), (8, 10))],
    2: [((2, 6), (1, 3), (1, 3)), ((9, 10), (0, 4), (6, 10))],
    4: [((2, 6), (2, 6), (1, 3)), ((4, 10), (4, 8), (6, 10))],
    8: [((2, 6), (2, 6), (2, 6)), ((6, 10), (6, 10), (6, 10))],
}


def _toy(shared_tables: bool):
    tac = TACCompressor(brick_size=4, shared_tables=shared_tables)
    return tac, tac.compress(two_level_dataset(n=20, seed=5), 1e-3, mode="abs")


def _save(tmp_path, comp):
    archive = BatchArchive()
    archive.add(KEY, comp)
    head = tmp_path / "arch.rpbt"
    archive.save_sharded(head, shard_size=4096)
    return head


class TestReadRegionAssembly:
    @pytest.mark.parametrize("shared_tables", [False, True])
    def test_read_region_matches_decompress_region(self, tmp_path, shared_tables):
        tac, comp = _toy(shared_tables)
        plan = tac.build_decode_plan(comp, levels=[BRICK_LEVEL])
        assert any(
            hi - lo < 4 for unit in plan.units for lo, hi in unit.box
        ), "no edge-clipped brick in the fixture"
        full = tac.decompress(comp).levels[BRICK_LEVEL].data
        with ArchiveReader(_save(tmp_path, comp), cache_bytes=0) as reader:
            for n_bricks, rois in ROIS.items():
                for roi in rois:
                    assert len(plan.for_region(roi).units) == n_bricks, roi
                    data, _stats = reader.read_region(KEY, BRICK_LEVEL, roi)
                    want = tac.decompress_region(comp, BRICK_LEVEL, roi)
                    assert data.dtype == want.dtype and data.shape == want.shape
                    np.testing.assert_array_equal(data, want)
                    np.testing.assert_array_equal(
                        data, full[tuple(slice(lo, hi) for lo, hi in roi)]
                    )


def _bump_total_bits(blob: bytes) -> bytes:
    meta = stream.unpack_meta(stream.parse(blob).section(stream.SEC_META)[1])
    return _with_meta(blob, total_bits=meta["total_bits"] + 1)


def _garble_payload(blob: bytes) -> bytes:
    parsed = stream.parse(blob)
    garbled = {stream.SEC_PAYLOAD: (lossless.CODEC_ZLIB, b"\x00" * 10)}
    sections = [(tag, *garbled.get(tag, part)) for tag, part in parsed.sections.items()]
    return stream.serialize(parsed.header, sections)


class TestDegradedBatch:
    # A corrupt zlib payload raises ValueError like any corrupt stream,
    # and degraded reads classify both as "io".
    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (_bump_total_bits, "corrupt Huffman stream"),
            (_garble_payload, "corrupt zlib section"),
        ],
        ids=["total_bits", "zlib_payload"],
    )
    def test_undecodable_brick_fills_exactly_its_box(self, tmp_path, corrupt, error):
        tac, comp = _toy(shared_tables=True)
        roi = ROIS[8][0]
        clean = tac.decompress_region(comp, BRICK_LEVEL, roi)
        victim = "L1/b13"  # the centre brick, cells [4, 8) on every axis
        # The part's CRC is computed over these bytes at save time, so the
        # fetch verifies; only the decode can find the damage.
        comp.parts[victim] = corrupt(comp.parts[victim])
        head = _save(tmp_path, comp)
        with ArchiveReader(head, cache_bytes=0, fill_value=-7.0) as reader:
            with pytest.raises(ValueError, match=error):
                reader.read_region(KEY, BRICK_LEVEL, roi)
            data, stats = reader.read_region(KEY, BRICK_LEVEL, roi, degraded=True)
        assert [row["unit"] for row in stats.errors] == [victim]
        assert stats.errors[0]["box"] == [[4, 6], [4, 6], [4, 6]]
        assert stats.errors[0]["kind"] == "io"
        box = (slice(2, 4),) * 3  # the victim's cells, relative to the ROI
        assert np.all(data[box] == -7.0)
        outside = np.ones(data.shape, dtype=bool)
        outside[box] = False
        np.testing.assert_array_equal(data[outside], clean[outside])
