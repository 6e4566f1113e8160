"""zlib codec wrapper: levels, errors, Table-1 monotonicity."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import CodecError, ZlibCodec
from repro.data import ascii_data


def test_levels_validated():
    with pytest.raises(ValueError):
        ZlibCodec(0)
    with pytest.raises(ValueError):
        ZlibCodec(10)


def test_name_contains_level():
    assert ZlibCodec(5).name == "zlib-5"


def test_roundtrip_all_levels():
    data = ascii_data(100_000, seed=7)
    for lvl in range(1, 10):
        codec = ZlibCodec(lvl)
        assert codec.decompress(codec.compress(data), len(data)) == data


def test_ratio_monotone_in_level():
    """Table 1: the compression ratio never decreases with the level."""
    data = ascii_data(400_000, seed=3)
    sizes = [len(ZlibCodec(lvl).compress(data)) for lvl in range(1, 10)]
    for lo, hi in zip(sizes, sizes[1:]):
        assert hi <= lo * 1.001  # allow sub-0.1% noise


def test_corrupt_input_raises_codec_error():
    with pytest.raises(CodecError):
        ZlibCodec(6).decompress(b"this is not a zlib stream")


def test_truncated_input_raises_codec_error():
    comp = ZlibCodec(6).compress(b"payload " * 1000)
    with pytest.raises(CodecError):
        ZlibCodec(6).decompress(comp[: len(comp) // 2])


def test_size_mismatch_raises():
    codec = ZlibCodec(1)
    comp = codec.compress(b"12345")
    with pytest.raises(CodecError):
        codec.decompress(comp, expected_size=4)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=4096), st.integers(min_value=1, max_value=9))
def test_roundtrip_property(data, level):
    codec = ZlibCodec(level)
    assert codec.decompress(codec.compress(data), len(data)) == data


def test_truncated_stream_with_expected_size_rejected():
    # Only the adler32 trailer is missing: the inflated prefix already
    # has the expected length, the stream has not ended.
    data = b"payload " * 1000
    comp = ZlibCodec(6).compress(data)
    with pytest.raises(CodecError):
        ZlibCodec(6).decompress(comp[:-2], expected_size=len(data))


def test_trailing_bytes_after_stream_end_accepted():
    data = b"payload " * 1000
    comp = ZlibCodec(6).compress(data) + b"junk"
    assert ZlibCodec(6).decompress(comp, expected_size=len(data)) == data
    assert ZlibCodec(6).decompress(comp) == data


def test_inflate_bounded_by_expected_size():
    """A small record claiming a small size never inflates in full."""
    bomb = ZlibCodec(9).compress(bytes(16 * 1024 * 1024))
    claimed = 200 * 1024
    tracemalloc.start()
    try:
        with pytest.raises(CodecError):
            ZlibCodec(9).decompress(bomb, expected_size=claimed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * claimed, peak
