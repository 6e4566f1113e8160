"""Wire protocol framing: message and record headers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packets import (
    END_LEVEL,
    MESSAGE_HEADER_SIZE,
    RECORD_HEADER_SIZE,
    MessageHeader,
    ProtocolError,
    Record,
    RecordHeader,
    end_record_bytes,
    pack_message_header,
    pack_record_header,
    unpack_message_header,
    unpack_record_header,
)


class TestMessageHeader:
    def test_roundtrip_known_length(self):
        raw = pack_message_header(123456789, length_known=True)
        assert len(raw) == MESSAGE_HEADER_SIZE
        h = unpack_message_header(raw)
        assert h.total_length == 123456789
        assert h.length_known

    def test_roundtrip_unknown_length(self):
        h = unpack_message_header(pack_message_header(0, length_known=False))
        assert not h.length_known
        assert h.total_length == 0

    def test_zero_length_message(self):
        h = unpack_message_header(pack_message_header(0))
        assert h.total_length == 0 and h.length_known

    def test_bad_magic_rejected(self):
        raw = bytearray(pack_message_header(10))
        raw[0] = ord("X")
        with pytest.raises(ProtocolError):
            unpack_message_header(bytes(raw))

    def test_bad_version_rejected(self):
        raw = bytearray(pack_message_header(10))
        raw[2] = 99
        with pytest.raises(ProtocolError):
            unpack_message_header(bytes(raw))

    def test_wrong_size_rejected(self):
        with pytest.raises(ProtocolError):
            unpack_message_header(b"Ad")


class TestRecordHeader:
    def test_roundtrip(self):
        raw = pack_record_header(7, 200_000, 43_210)
        assert len(raw) == RECORD_HEADER_SIZE
        h = unpack_record_header(raw)
        assert (h.level, h.original_size, h.wire_size) == (7, 200_000, 43_210)
        assert not h.is_end

    def test_end_record(self):
        h = unpack_record_header(end_record_bytes())
        assert h.is_end
        assert h.level == END_LEVEL

    def test_nonempty_end_rejected(self):
        with pytest.raises(ProtocolError):
            unpack_record_header(pack_record_header(END_LEVEL, 1, 0))

    def test_invalid_level_rejected(self):
        with pytest.raises(ProtocolError):
            unpack_record_header(pack_record_header(42, 10, 10))

    def test_record_serialize_layout(self):
        rec = Record(3, 100, b"payload")
        wire = rec.serialize()
        hdr = unpack_record_header(wire[:RECORD_HEADER_SIZE])
        assert hdr.level == 3
        assert hdr.original_size == 100
        assert hdr.wire_size == 7
        assert wire[RECORD_HEADER_SIZE:] == b"payload"


@settings(max_examples=200, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=2**63 - 1),
    known=st.booleans(),
)
def test_message_header_roundtrip_property(total, known):
    h = unpack_message_header(pack_message_header(total, known))
    assert h.length_known == known
    if known:
        assert h.total_length == total


@settings(max_examples=200, deadline=None)
@given(
    level=st.integers(min_value=0, max_value=10),
    orig=st.integers(min_value=0, max_value=2**32 - 1),
    wire=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_record_header_roundtrip_property(level, orig, wire):
    if level == 0:
        # A raw record carries its original bytes verbatim.
        with pytest.raises(ProtocolError):
            unpack_record_header(pack_record_header(0, orig, orig ^ 1))
        wire = orig
    h = unpack_record_header(pack_record_header(level, orig, wire))
    assert (h.level, h.original_size, h.wire_size) == (level, orig, wire)
