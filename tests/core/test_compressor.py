"""Buffer compression: record structure, guard aborts, never-inflate."""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import codec_for_level
from repro.compress import lzf as lzf_mod
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


def shapes(records) -> list[tuple[int, int, bytes]]:
    return [(r.level, r.original_size, bytes(r.payload)) for r in records]


def test_zlib_side_sample_sends_a_tripped_message_raw_at_once():
    # Deflate holds its output back, so the stream's own check trips
    # only after most of a random buffer is consumed.  Once the message
    # has tripped, the first slice's side sample trips the next job
    # before the stream starts, and the whole buffer goes raw.
    data = incompressible_data(200 * 1024, seed=6)
    guard = IncompressibleGuard()
    records, tripped, _ = compress_buffer(data, 2, guard)
    assert tripped and records[0].original_size > 100 * 1024
    records, tripped, _ = compress_buffer(data, 2, guard)
    assert tripped and guard.trips == 2
    assert shapes(records) == [(0, len(data), data)]


def test_zlib_side_sample_keeps_compressible_records_identical():
    data = ascii_data(200 * 1024, seed=7)
    tripped_before = IncompressibleGuard()
    assert tripped_before.check_packet(1, 1)
    for level in (2, 6, 10):
        sampled, tripped, _ = compress_buffer(data, level, tripped_before)
        assert not tripped
        assert shapes(sampled) == shapes(compress_buffer(data, level, IncompressibleGuard())[0])
    assert tripped_before.trips == 1


def test_no_side_sample_before_the_message_trips(monkeypatch):
    calls = []
    real = zlib.compress
    monkeypatch.setattr(zlib, "compress", lambda *a: calls.append(a) or real(*a))
    guard = IncompressibleGuard()
    compress_buffer(ascii_data(200 * 1024, seed=7), 6, guard)
    assert calls == []
    compress_buffer(incompressible_data(200 * 1024, seed=7), 6, guard)
    assert calls == [] and guard.trips == 1  # the trip came from the stream
    compress_buffer(incompressible_data(200 * 1024, seed=8), 6, guard)
    assert len(calls) == 1 and guard.trips == 2


def test_lzf_trips_on_the_first_slice_before_match_discovery(monkeypatch):
    # Match discovery for the rest of the buffer (``_prepare`` keyed by
    # slice) never runs when the first slice trips the guard.
    keyed = []
    real = lzf_mod._prepare
    monkeypatch.setattr(
        lzf_mod, "_prepare",
        lambda data, n, slice_size=None: keyed.append(slice_size) or real(data, n, slice_size),
    )
    data = incompressible_data(200 * 1024, seed=9)
    records, tripped, _ = compress_buffer(data, 1, IncompressibleGuard())
    assert tripped
    assert [(r.level, r.original_size) for r in records] == [(0, 8192), (0, len(data) - 8192)]
    assert keyed == [None]  # the first slice's own, whole-input pass
    compress_buffer(ascii_data(200 * 1024, seed=9), 1, IncompressibleGuard())
    assert keyed == [None, None, 8192]


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
