"""Unit tests for the container stream format and the lossless back end."""

import numpy as np
import pytest

from repro.sz import lossless, stream


class TestLossless:
    def test_zlib_roundtrip(self):
        data = b"abc" * 1000
        codec, payload = lossless.compress_bytes(data, level=1)
        assert codec == lossless.CODEC_ZLIB
        assert lossless.decompress_bytes(codec, payload) == data

    def test_raw_fallback_for_incompressible(self, rng):
        data = rng.integers(0, 256, size=256, dtype=np.uint8).tobytes()
        codec, payload = lossless.compress_bytes(data, level=1)
        if codec == lossless.CODEC_RAW:
            assert payload == data
        assert lossless.decompress_bytes(codec, payload) == data

    def test_raw_disallowed(self, rng):
        data = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
        codec, payload = lossless.compress_bytes(data, level=1, allow_raw=False)
        assert codec == lossless.CODEC_ZLIB
        assert lossless.decompress_bytes(codec, payload) == data

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            lossless.decompress_bytes(99, b"")

    def test_corrupt_zlib_section_raises_value_error(self):
        with pytest.raises(ValueError, match="corrupt zlib section"):
            lossless.decompress_bytes(lossless.CODEC_ZLIB, b"\x00" * 10)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            lossless.compress_bytes(b"x", level=11)

    def test_int_array_roundtrip(self, rng):
        arr = rng.integers(-(2**40), 2**40, size=500).astype(np.int64)
        codec, payload = lossless.pack_int_array(arr)
        out = lossless.unpack_int_array(codec, payload, np.int64, arr.size)
        assert np.array_equal(out, arr)
        assert out.flags.writeable

    def test_int_array_count_mismatch(self):
        codec, payload = lossless.pack_int_array(np.arange(10, dtype=np.int64))
        with pytest.raises(ValueError, match="expected"):
            lossless.unpack_int_array(codec, payload, np.int64, 11)

    def test_codec_names(self):
        assert lossless.codec_name(lossless.CODEC_RAW) == "raw"
        assert lossless.codec_name(lossless.CODEC_ZLIB) == "zlib"
        assert "unknown" in lossless.codec_name(42)


class TestStreamFormat:
    def make_header(self, **overrides):
        defaults = dict(
            mode="abs",
            dtype=np.dtype(np.float32),
            shape=(4, 5, 6),
            eb_user=1e-3,
            eb_abs=1e-3,
            flags=0,
        )
        defaults.update(overrides)
        return stream.StreamHeader(**defaults)

    def test_header_roundtrip(self):
        header = self.make_header()
        blob = stream.serialize(header, [(stream.SEC_RAW, lossless.CODEC_RAW, b"abc")])
        parsed = stream.parse(blob)
        assert parsed.header.mode == "abs"
        assert parsed.header.dtype == np.float32
        assert parsed.header.shape == (4, 5, 6)
        assert parsed.header.eb_abs == 1e-3
        assert parsed.section(stream.SEC_RAW) == (lossless.CODEC_RAW, b"abc")

    def test_multiple_sections_preserved(self):
        header = self.make_header()
        sections = [
            (stream.SEC_PAYLOAD, 0, b"payload"),
            (stream.SEC_OUTLIERS, 1, b"outliers"),
            (stream.SEC_META, 0, b"meta"),
        ]
        parsed = stream.parse(stream.serialize(header, sections))
        assert parsed.section_sizes() == {
            stream.SEC_PAYLOAD: 7,
            stream.SEC_OUTLIERS: 8,
            stream.SEC_META: 4,
        }

    def test_missing_section_raises(self):
        parsed = stream.parse(stream.serialize(self.make_header(), []))
        with pytest.raises(ValueError, match="missing"):
            parsed.section(stream.SEC_PAYLOAD)

    def test_bad_magic_rejected(self):
        blob = stream.serialize(self.make_header(), [])
        with pytest.raises(ValueError, match="magic"):
            stream.parse(b"XXXX" + blob[4:])

    def test_truncation_rejected(self):
        blob = stream.serialize(
            self.make_header(), [(stream.SEC_PAYLOAD, 0, b"0123456789")]
        )
        with pytest.raises(ValueError):
            stream.parse(blob[:-3])

    def test_trailing_bytes_rejected(self):
        blob = stream.serialize(self.make_header(), [])
        with pytest.raises(ValueError, match="trailing"):
            stream.parse(blob + b"\x00")

    def test_header_size_property(self):
        header = self.make_header(shape=(3, 4))
        assert header.size == 12

    def test_unsupported_dtype_rejected(self):
        header = self.make_header(dtype=np.dtype(np.int32))
        with pytest.raises(TypeError, match="unsupported dtype"):
            stream.serialize(header, [])

    def test_unknown_mode_rejected(self):
        header = self.make_header(mode="bogus")
        with pytest.raises(ValueError, match="unknown error mode"):
            stream.serialize(header, [])

    def test_meta_roundtrip(self):
        raw = stream.pack_meta(
            radius=4096,
            max_len=16,
            block_size=1024,
            total_bits=123456,
            n_symbols=999,
            n_outliers=7,
            predictor="interp",
        )
        meta = stream.unpack_meta(raw)
        assert meta == {
            "radius": 4096,
            "max_len": 16,
            "predictor": "interp",
            "block_size": 1024,
            "total_bits": 123456,
            "n_symbols": 999,
            "n_outliers": 7,
        }

    def test_meta_predictor_codes(self):
        raw = stream.pack_meta(
            radius=1, max_len=2, block_size=3, total_bits=4, n_symbols=5,
            n_outliers=6, predictor="lorenzo",
        )
        assert stream.unpack_meta(raw)["predictor"] == "lorenzo"
        with pytest.raises(ValueError, match="unknown predictor"):
            stream.pack_meta(
                radius=1, max_len=2, block_size=3, total_bits=4, n_symbols=5,
                n_outliers=6, predictor="nope",
            )
