"""Buffer compression: record structure, guard aborts, never-inflate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import codec_for_level
from repro.core import AdocConfig, IncompressibleGuard
from repro.core.compressor import compress_buffer
from repro.data import ascii_data, incompressible_data


def decode_records(records) -> bytes:
    out = bytearray()
    for rec in records:
        codec = codec_for_level(rec.level)
        out += codec.decompress(rec.payload, rec.original_size)
    return bytes(out)


def test_empty_buffer_yields_no_records():
    records, tripped, _ = compress_buffer(b"", 5)
    assert records == [] and not tripped


def test_level_zero_single_raw_record():
    data = b"x" * 1000
    records, tripped, _ = compress_buffer(data, 0)
    assert len(records) == 1
    assert records[0].level == 0
    assert records[0].payload == data
    assert not tripped


@pytest.mark.parametrize("level", [1, 2, 5, 10])
def test_roundtrip_compressible(level):
    data = ascii_data(200 * 1024, seed=1)
    records, tripped, _ = compress_buffer(data, level)
    assert decode_records(records) == data
    assert not tripped
    assert sum(r.original_size for r in records) == len(data)
    # Compressible data must actually shrink.
    assert sum(len(r.payload) for r in records) < len(data)


@pytest.mark.parametrize("level", [1, 2, 6])
def test_incompressible_trips_guard_and_goes_raw(level):
    data = incompressible_data(200 * 1024, seed=2)
    guard = IncompressibleGuard(0.95, 10)
    records, tripped, _ = compress_buffer(data, level, guard)
    assert tripped
    assert guard.active
    assert decode_records(records) == data
    # The tail after the trip must be a raw record.
    assert records[-1].level == 0


def test_never_inflates_beyond_framing():
    data = incompressible_data(200 * 1024, seed=3)
    for level in (1, 2, 6, 10):
        records, _, _ = compress_buffer(data, level, IncompressibleGuard())
        wire = sum(len(r.payload) for r in records)
        # Payload on the wire never exceeds the original: poor packets
        # are shipped raw.
        assert wire <= len(data)


def test_zlib_without_guard_compresses_whole_buffer():
    data = ascii_data(200 * 1024, seed=4)
    records, _, _ = compress_buffer(data, 6, guard=None)
    assert len(records) == 1
    assert records[0].level == 6
    assert records[0].original_size == len(data)


def test_lzf_slice_records():
    cfg = AdocConfig()
    data = ascii_data(64 * 1024, seed=5)
    records, _, _ = compress_buffer(data, 1, None, cfg)
    # One record per slice.
    assert len(records) == 64 * 1024 // cfg.slice_size
    assert all(r.level in (0, 1) for r in records)
    assert decode_records(records) == data


@settings(max_examples=50, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=30_000),
    level=st.integers(min_value=0, max_value=10),
)
def test_roundtrip_property(data, level):
    guard = IncompressibleGuard()
    records, _, _ = compress_buffer(data, level, guard)
    assert decode_records(records) == data
    assert sum(r.original_size for r in records) == len(data)
