"""LZF codec: format behaviour, round trips, property-based fuzzing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import CodecError, LzfCodec, lzf_compress, lzf_decompress


class TestRoundTrip:
    def test_empty(self):
        assert lzf_compress(b"") == b""
        assert lzf_decompress(b"") == b""

    @pytest.mark.parametrize(
        "data",
        [
            b"a",
            b"ab",
            b"abc",
            b"abcd",
            b"hello world",
            b"aaaa",
            b"\x00" * 7,
        ],
    )
    def test_short_inputs(self, data):
        assert lzf_decompress(lzf_compress(data), len(data)) == data

    def test_highly_repetitive(self):
        data = b"x" * 100_000
        comp = lzf_compress(data)
        assert len(comp) < len(data) // 20, "RLE-like input must collapse"
        assert lzf_decompress(comp, len(data)) == data

    def test_repeating_pattern(self):
        data = b"abcdefgh" * 10_000
        comp = lzf_compress(data)
        assert len(comp) < len(data) // 10
        assert lzf_decompress(comp, len(data)) == data

    def test_random_bytes_do_not_crash(self):
        import random

        rng = random.Random(42)
        data = bytes(rng.randrange(256) for _ in range(50_000))
        comp = lzf_compress(data)
        # Literal-run encoding costs at most 1 byte per 32.
        assert len(comp) <= len(data) + len(data) // 32 + 2
        assert lzf_decompress(comp, len(data)) == data

    def test_all_byte_values(self):
        data = bytes(range(256)) * 64
        assert lzf_decompress(lzf_compress(data), len(data)) == data

    def test_long_match_beyond_max_ref(self):
        # Matches longer than 264 must be split into several references.
        data = b"Q" * 5000 + b"tail"
        assert lzf_decompress(lzf_compress(data), len(data)) == data

    def test_match_at_max_offset(self):
        # A repetition exactly 8 KiB apart is the furthest reachable.
        block = bytes(range(200))
        data = block + b"\xff" * (8192 - len(block)) + block
        assert lzf_decompress(lzf_compress(data), len(data)) == data

    def test_match_beyond_max_offset_still_roundtrips(self):
        block = bytes(range(200))
        data = block + b"\xff" * 9000 + block
        assert lzf_decompress(lzf_compress(data), len(data)) == data


class TestFormat:
    def test_literal_run_encoding(self):
        # 3 incompressible bytes: control byte (len-1) + literals.
        out = lzf_compress(b"xyz")
        assert out[0] == 2
        assert out[1:] == b"xyz"

    def test_decoder_rejects_truncated_literal_run(self):
        with pytest.raises(CodecError):
            lzf_decompress(bytes([10]) + b"ab")  # run of 11, only 2 present

    def test_decoder_rejects_bad_back_reference(self):
        # ctrl >= 32 encodes a reference; offset points before output start.
        with pytest.raises(CodecError):
            lzf_decompress(bytes([0b001_00000, 0xFF]))

    def test_decoder_rejects_truncated_stream(self):
        # Truncation either breaks a token (decode error) or silently
        # drops a whole trailing token — the expected-size check must
        # catch whichever happens.
        data = b"hello world, hello world, hello world"
        comp = lzf_compress(data)
        with pytest.raises(CodecError):
            lzf_decompress(comp[:-3], len(data))

    def test_expected_size_mismatch_raises(self):
        comp = lzf_compress(b"some data here")
        with pytest.raises(CodecError):
            lzf_decompress(comp, 99)

    def test_overlapping_copy_rle(self):
        # "aaaa..." encodes as a literal 'a' + self-overlapping reference;
        # the decoder must copy byte-at-a-time.
        data = b"a" * 300
        comp = lzf_compress(data)
        assert lzf_decompress(comp, len(data)) == data


class TestCodecInterface:
    def test_codec_roundtrip_and_name(self):
        codec = LzfCodec()
        assert codec.name == "lzf"
        data = b"The quick brown fox. " * 100
        assert codec.decompress(codec.compress(data), len(data)) == data

    def test_ratio_helper(self):
        codec = LzfCodec()
        assert codec.ratio(b"") == 1.0
        assert codec.ratio(b"z" * 10_000) > 10


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096))
def test_roundtrip_property(data):
    assert lzf_decompress(lzf_compress(data), len(data)) == data


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=500))
def test_roundtrip_repeated_blocks(block, reps):
    data = block * reps
    assert lzf_decompress(lzf_compress(data), len(data)) == data


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=2048))
def test_compress_never_inflates_much(data):
    comp = lzf_compress(data)
    # Worst case: pure literals, 1 control byte per 32 payload bytes
    # (plus one for a trailing partial run).
    assert len(comp) <= len(data) + len(data) // 32 + 2


class TestVectorizedEncoderIdentity:
    """The numpy fast path must be *bit-identical* to the reference
    encoder — same hash table, same overwrite-on-store collisions, same
    greedy matches — so golden wire fixtures cannot tell them apart."""

    def _corpora(self):
        from repro.data import (
            ascii_data,
            binary_data,
            incompressible_data,
            synthetic_hb_bytes,
        )

        yield "text", ascii_data(64 * 1024, seed=3)
        yield "binary", binary_data(64 * 1024, seed=4)
        yield "random", incompressible_data(64 * 1024, seed=5)
        yield "hb", synthetic_hb_bytes(n=9000, seed=6)
        yield "rle", b"ab" * (32 * 1024)
        yield "allbytes", bytes(range(256)) * 200

    def test_bit_identical_to_reference_on_corpora(self):
        from repro.compress.lzf import _compress_ref

        for name, data in self._corpora():
            d = bytes(data)
            assert lzf_compress(d) == _compress_ref(d, len(d)), name

    @settings(max_examples=150, deadline=None)
    @given(st.binary(min_size=0, max_size=3000))
    def test_bit_identical_to_reference_property(self, data):
        from repro.compress.lzf import _compress_ref

        assert lzf_compress(data) == _compress_ref(data, len(data))

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 511, 512, 513, 8192])
    def test_threshold_boundaries(self, n):
        from repro.compress.lzf import _compress_ref

        from repro.data import ascii_data

        data = ascii_data(n, seed=n or 1)
        comp = lzf_compress(data)
        assert comp == _compress_ref(data, len(data))
        assert lzf_decompress(comp, len(data)) == data


class TestSliceApi:
    """``lzf_compress_slices``: the streaming form the packetizer uses."""

    @pytest.mark.parametrize("slice_size", [2048, 8192])
    def test_slices_cover_input_and_match_whole_buffer_compression(
        self, slice_size
    ):
        from repro.compress.lzf import lzf_compress_slices

        from repro.data import ascii_data

        data = ascii_data(50_000, seed=8)
        pos = 0
        for start, end, comp in lzf_compress_slices(data, slice_size):
            assert start == pos
            assert end - start <= slice_size
            # Identical to compressing the slice standalone: the hash
            # chains must not leak across slice boundaries.
            assert comp == lzf_compress(data[start:end])
            assert lzf_decompress(comp, end - start) == data[start:end]
            pos = end
        assert pos == len(data)

    @pytest.mark.parametrize(
        "name, n, digest",
        [
            ("ascii", 200 * 1024, "94e89749b17f3b96"),
            ("ascii", 50_001, "f2a7670be8e9319d"),
            ("ascii", 9000, "fbbc17adfb2b5183"),
            ("ascii", 600, "3b9de52b294c7709"),
            ("binary", 200 * 1024, "b13e0fd1c91034a7"),
            ("binary", 50_001, "c97b518a29226a40"),
            ("binary", 9000, "96ab91c02bd434f8"),
            ("binary", 600, "6f99f2e47b635f18"),
            ("incompressible", 200 * 1024, "f0457b4a6f0f6794"),
            ("incompressible", 50_001, "9749daa6b1835ceb"),
            ("incompressible", 9000, "c51ce93ca6f96ab2"),
            ("incompressible", 600, "7eb231ce6eae764e"),
        ],
    )
    def test_slices_are_pinned(self, name, n, digest):
        # Slice bounds and bytes, pinned from the encoder that ran match
        # discovery once over the whole buffer: compressing the first
        # slice on its own must not move a byte.
        import hashlib

        from repro.compress.lzf import lzf_compress_slices
        from repro.data import data_by_name

        h = hashlib.sha256()
        for start, end, comp in lzf_compress_slices(data_by_name(name, n, seed=3), 8192):
            h.update(b"%d:%d:" % (start, end) + comp)
        assert h.hexdigest()[:16] == digest

    @pytest.mark.parametrize("n", [8192, 8195, 8192 + 511, 8192 + 512, 16384, 16387])
    def test_slices_around_the_first_boundary(self, n):
        from repro.compress.lzf import lzf_compress_slices
        from repro.data import ascii_data

        data = ascii_data(n, seed=4)
        out = list(lzf_compress_slices(data, 8192))
        bounds = [(s, min(s + 8192, n)) for s in range(0, n, 8192)]
        assert [(s, e) for s, e, _ in out] == bounds
        assert [c for _, _, c in out] == [lzf_compress(data[s:e]) for s, e in bounds]

    def test_short_input_single_slice(self):
        from repro.compress.lzf import lzf_compress_slices

        data = b"tiny"
        out = list(lzf_compress_slices(data, 8192))
        assert len(out) == 1
        start, end, comp = out[0]
        assert (start, end) == (0, 4)
        assert lzf_decompress(comp, 4) == data

    def test_empty_input_yields_nothing(self):
        from repro.compress.lzf import lzf_compress_slices

        assert list(lzf_compress_slices(b"", 8192)) == []

    @settings(max_examples=60, deadline=None)
    @given(
        st.binary(min_size=1, max_size=40_000),
        st.sampled_from([1024, 4096, 8192]),
    )
    def test_slice_roundtrip_property(self, data, slice_size):
        from repro.compress.lzf import lzf_compress_slices

        out = bytearray()
        for start, end, comp in lzf_compress_slices(data, slice_size):
            out += lzf_decompress(comp, end - start)
        assert bytes(out) == data
