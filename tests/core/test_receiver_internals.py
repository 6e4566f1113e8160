"""Receiver internals: protocol validation, close semantics, joins."""

from __future__ import annotations

import io

import pytest

from repro.core import AdocConfig, ReceiverPipeline
from repro.core.packets import (
    ProtocolError,
    Record,
    end_record_bytes,
    pack_message_header,
    pack_record_header,
)
from repro.transport import TransportClosed, pipe_pair
from repro.transport.base import sendall

CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
)


def feed(wire: bytes):
    a, b = pipe_pair()
    rx = ReceiverPipeline(b, CFG)
    sendall(a, wire)
    a.close()
    return rx


def read_all(rx, cap=1 << 20) -> bytes:
    out = bytearray()
    while True:
        chunk = rx.read(cap)
        if not chunk:
            return bytes(out)
        out += chunk


class TestProtocolValidation:
    def test_records_overflowing_length_rejected(self):
        wire = pack_message_header(5) + Record(0, 10, b"0123456789").serialize()
        rx = feed(wire)
        with pytest.raises((ProtocolError, TransportClosed)):
            if read_all(rx) is not None:
                raise TransportClosed("should have errored")
        rx.close()

    def test_unexpected_end_in_known_length_rejected(self):
        wire = pack_message_header(10) + end_record_bytes()
        rx = feed(wire)
        with pytest.raises((ProtocolError, TransportClosed)):
            read_all(rx)
            raise TransportClosed("should have errored")
        rx.close()

    def test_unknown_length_needs_end_record(self):
        # Stream closes before the END record: truncated message.  The
        # error may surface on the first or a later read depending on
        # thread interleaving; either way it must surface.
        wire = pack_message_header(0, length_known=False) + Record(
            0, 3, b"abc"
        ).serialize()
        rx = feed(wire)
        with pytest.raises((ProtocolError, TransportClosed)):
            out = bytearray()
            while True:
                chunk = rx.read(64)
                if not chunk:
                    raise TransportClosed("eof mid-message")
                out += chunk
        rx.close()

    def test_unknown_length_with_end_record_ok(self):
        wire = (
            pack_message_header(0, length_known=False)
            + Record(0, 3, b"abc").serialize()
            + end_record_bytes()
        )
        rx = feed(wire)
        assert read_all(rx) == b"abc"
        rx.close()

    def test_raw_record_sizes_must_agree(self):
        # Accounting subtracts 100 original bytes while 10 are delivered:
        # accepted, this would "complete" the message 90 bytes short.
        wire = pack_message_header(100) + pack_record_header(0, 100, 10) + b"x" * 10
        rx = feed(wire)
        with pytest.raises(ProtocolError):
            read_all(rx)
        rx.close()

    def test_bad_record_level_rejected(self):
        wire = pack_message_header(4) + pack_record_header(42, 4, 4) + b"xxxx"
        rx = feed(wire)
        with pytest.raises((ProtocolError, TransportClosed)):
            read_all(rx)
            raise TransportClosed("should have errored")
        rx.close()


class TestLifecycle:
    def test_close_frees_pending_data(self):
        wire = pack_message_header(6) + Record(0, 6, b"unread").serialize()
        rx = feed(wire)
        # Never read; close must not hang and must release buffers.
        rx.close()
        rx.join(timeout=5)

    def test_join_after_eof(self):
        wire = pack_message_header(2) + Record(0, 2, b"ok").serialize()
        rx = feed(wire)
        assert read_all(rx) == b"ok"
        rx.join(timeout=5)
        rx.close()

    def test_read_after_close_eofs(self):
        a, b = pipe_pair()
        rx = ReceiverPipeline(b, CFG)
        rx.close()
        assert rx.read(10) == b""
        a.close()

    def test_receive_into_clean_idle_eof(self):
        a, b = pipe_pair()
        rx = ReceiverPipeline(b, CFG)
        a.close()
        assert rx.receive_into(io.BytesIO()) == 0
        rx.close()
