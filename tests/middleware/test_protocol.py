"""RPC message framing over communicators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.middleware import (
    MsgType,
    PlainCommunicator,
    RpcError,
    RpcMessage,
    read_message,
    write_message,
)
from repro.middleware.protocol import MessageAssembler, iter_message_segments
from repro.transport import pipe_pair


def capture(msg: RpcMessage) -> bytes:
    """The bytes ``write_message`` writes for ``msg``."""
    wire = bytearray()

    class Sink:
        def write(self, data):
            wire.extend(data)

    write_message(Sink(), msg)
    return bytes(wire)


def read_wire(wire: bytes) -> RpcMessage | None:
    """``read_message`` over a plain pipe carrying ``wire``, then EOF."""
    a, b = pipe_pair()
    a.send(wire)
    a.close()
    return read_message(PlainCommunicator(b))


def roundtrip(msg: RpcMessage) -> RpcMessage:
    a, b = pipe_pair(capacity=1 << 24)
    tx, rx = PlainCommunicator(a), PlainCommunicator(b)
    write_message(tx, msg)
    got = read_message(rx)
    tx.close()
    rx.close()
    assert got is not None
    return got


class TestStreamedArgs:
    def test_file_argument_streams(self):
        import io

        payload = bytes(range(256)) * 2000  # 512 000 bytes
        msg = RpcMessage(
            MsgType.REQUEST, "ibp.store", [b"cap", io.BytesIO(payload)]
        )
        got = roundtrip(msg)
        assert got.args == [b"cap", payload]  # receiver always sees bytes

    def test_unseekable_argument_rejected(self):
        import io

        class Pipe(io.RawIOBase):
            def readable(self):
                return True

            def read(self, n=-1):
                return b""

            def seekable(self):
                return False

            def tell(self):
                raise OSError("not seekable")

        a, b = pipe_pair(capacity=1 << 20)
        tx = PlainCommunicator(a)
        with pytest.raises(RpcError, match="seekable"):
            write_message(tx, RpcMessage(MsgType.REQUEST, "svc", [Pipe()]))
        tx.close()


class TestRoundTrip:
    def test_request(self):
        got = roundtrip(RpcMessage(MsgType.REQUEST, "dgemm", [b"arg1", b"arg2"]))
        assert got.type == MsgType.REQUEST
        assert got.name == "dgemm"
        assert got.args == [b"arg1", b"arg2"]
        assert got.status == 0

    def test_response_with_status(self):
        got = roundtrip(RpcMessage(MsgType.RESPONSE, "dgemm", [b"result"], status=0))
        assert got.type == MsgType.RESPONSE

    def test_error_message(self):
        got = roundtrip(RpcMessage(MsgType.ERROR, "dgemm", [b"boom"], status=1))
        assert got.type == MsgType.ERROR
        assert got.status == 1

    def test_empty_args(self):
        assert roundtrip(RpcMessage(MsgType.REQUEST, "norm", [])).args == []

    def test_empty_arg_payload(self):
        assert roundtrip(RpcMessage(MsgType.REQUEST, "x", [b""])).args == [b""]

    def test_unicode_service_name(self):
        assert roundtrip(RpcMessage(MsgType.REQUEST, "dgémm-π", [])).name == "dgémm-π"

    def test_bytes_written_accounting(self):
        a, b = pipe_pair(capacity=1 << 20)
        tx = PlainCommunicator(a)
        n = write_message(tx, RpcMessage(MsgType.REQUEST, "svc", [b"xy"]))
        assert tx.bytes_written == n
        a.close()
        b.close()


class TestErrors:
    def test_clean_eof_returns_none(self):
        a, b = pipe_pair()
        a.close()
        assert read_message(PlainCommunicator(b)) is None

    def test_bad_magic_raises(self):
        with pytest.raises(RpcError):
            read_wire(b"XX\x01\x00")

    def test_truncated_header_raises(self):
        with pytest.raises(RpcError):
            read_wire(b"NS")  # half a header

    def test_oversized_length_prefix_raises_before_reading(self):
        # One argument claiming a terabyte: refused at the prefix, not
        # buffered until the peer hangs up.
        header = capture(RpcMessage(MsgType.REQUEST, "svc", []))[:-2]
        with pytest.raises(RpcError, match="exceeds"):
            read_wire(header + b"\x00\x01" + (1 << 40).to_bytes(8, "big"))

    def test_next_message_stays_unread(self):
        first = RpcMessage(MsgType.REQUEST, "one", [b"1"])
        second = RpcMessage(MsgType.REQUEST, "two", [])
        a, b = pipe_pair()
        a.send(capture(first) + capture(second))
        a.close()
        rx = PlainCommunicator(b)
        assert [read_message(rx).name, read_message(rx).name] == ["one", "two"]
        assert read_message(rx) is None


@settings(max_examples=50, deadline=None)
@given(
    name=st.text(min_size=1, max_size=30),
    args=st.lists(st.binary(max_size=2000), max_size=5),
)
def test_roundtrip_property(name, args):
    got = roundtrip(RpcMessage(MsgType.REQUEST, name, args))
    assert got.name == name
    assert got.args == args


TRACE = "0123456789abcdef" * 2  # 32 hex chars / 16 bytes
SPAN = "fedcba9876543210"      # 16 hex chars / 8 bytes


class TestTracedHeader:
    def test_traced_roundtrip(self):
        got = roundtrip(
            RpcMessage(
                MsgType.REQUEST, "dgemm", [b"a", b"b"],
                trace_id=TRACE, span_id=SPAN,
            )
        )
        assert got.trace_id == TRACE
        assert got.span_id == SPAN
        assert got.name == "dgemm" and got.args == [b"a", b"b"]

    def test_trace_without_span_roundtrips_as_none(self):
        got = roundtrip(
            RpcMessage(MsgType.RESPONSE, "x", [], trace_id=TRACE)
        )
        assert got.trace_id == TRACE
        assert got.span_id is None

    def test_legacy_messages_carry_no_trace(self):
        got = roundtrip(RpcMessage(MsgType.REQUEST, "x", [b"y"]))
        assert got.trace_id is None and got.span_id is None

    def test_invalid_trace_hex_raises(self):
        a, _b = pipe_pair()
        tx = PlainCommunicator(a)
        with pytest.raises(RpcError, match="hex"):
            write_message(
                tx, RpcMessage(MsgType.REQUEST, "x", [], trace_id="zz" * 16)
            )
        with pytest.raises(RpcError, match="32 hex"):
            write_message(
                tx, RpcMessage(MsgType.REQUEST, "x", [], trace_id="abcd")
            )
        tx.close()

    def test_unsupported_traced_version_raises(self):
        wire = bytearray(capture(RpcMessage(MsgType.REQUEST, "x", [], trace_id=TRACE)))
        wire[2] = 99  # the version byte after b"NT"
        with pytest.raises(RpcError, match="version"):
            read_wire(bytes(wire))


class TestGoldenHeaderBytes:
    """The two header forms are frozen byte layouts (wire compatibility)."""

    def test_legacy_message_bytes_are_pinned(self):
        wire = capture(RpcMessage(MsgType.REQUEST, "svc", [b"hi"]))
        assert wire == (
            b"NS"            # magic
            b"\x01"          # type = REQUEST
            b"\x00"          # status
            b"\x00\x03svc"   # name
            b"\x00\x01"      # nargs
            b"\x00\x00\x00\x00\x00\x00\x00\x02hi"  # arg: u64 length + bytes
        )

    def test_absent_trace_is_byte_identical_to_legacy(self):
        plain = capture(RpcMessage(MsgType.REQUEST, "svc", [b"hi"]))
        defaulted = capture(
            RpcMessage(
                MsgType.REQUEST, "svc", [b"hi"], trace_id=None, span_id=None
            )
        )
        assert plain == defaulted

    def test_traced_message_bytes_are_pinned(self):
        wire = capture(
            RpcMessage(
                MsgType.REQUEST, "svc", [b"hi"], trace_id=TRACE, span_id=SPAN
            )
        )
        assert wire == (
            b"NT"            # traced magic
            b"\x01"          # TRACE_WIRE_VERSION
            b"\x01"          # type = REQUEST
            b"\x00"          # status
            + bytes.fromhex(TRACE)
            + bytes.fromhex(SPAN)
            + b"\x00\x03svc"
            + b"\x00\x01"
            + b"\x00\x00\x00\x00\x00\x00\x00\x02hi"
        )

    def test_traced_without_span_pins_zero_span(self):
        wire = capture(
            RpcMessage(MsgType.REQUEST, "s", [], trace_id=TRACE)
        )
        assert bytes.fromhex(TRACE) in wire
        assert b"\x00" * 8 + b"\x00\x01s" in wire  # zero span, then name


class TestAssemblerTraced:
    def test_mixed_legacy_and_traced_stream(self):
        msgs = [
            RpcMessage(MsgType.REQUEST, "plain", [b"x"]),
            RpcMessage(
                MsgType.REQUEST, "traced", [b"y"], trace_id=TRACE, span_id=SPAN
            ),
            RpcMessage(MsgType.ERROR, "plain2", [b"z"], status=1),
        ]
        stream = b"".join(
            b"".join(iter_message_segments(m)) for m in msgs
        )
        got: list[RpcMessage] = []
        asm = MessageAssembler(got.append)
        for i in range(len(stream)):  # worst case: one byte at a time
            asm.feed(stream[i : i + 1])
        assert [m.name for m in got] == ["plain", "traced", "plain2"]
        assert [m.trace_id for m in got] == [None, TRACE, None]
        assert got[1].span_id == SPAN
        assert not asm.mid_message

    def test_assembler_rejects_bad_traced_version(self):
        wire = bytearray(
            b"".join(
                iter_message_segments(
                    RpcMessage(MsgType.REQUEST, "x", [], trace_id=TRACE)
                )
            )
        )
        wire[2] = 7
        asm = MessageAssembler(lambda m: None)
        with pytest.raises(RpcError, match="version"):
            asm.feed(bytes(wire))


@settings(max_examples=25, deadline=None)
@given(
    name=st.text(min_size=1, max_size=20),
    args=st.lists(st.binary(max_size=500), max_size=3),
    trace=st.binary(min_size=16, max_size=16),
    span=st.one_of(st.none(), st.binary(min_size=8, max_size=8)),
)
def test_traced_roundtrip_property(name, args, trace, span):
    span_hex = span.hex() if span is not None else None
    got = roundtrip(
        RpcMessage(
            MsgType.REQUEST, name, args,
            trace_id=trace.hex(), span_id=span_hex,
        )
    )
    assert got.trace_id == trace.hex()
    # All-zero span bytes mean "no span" on the wire.
    expected_span = None if span == b"\x00" * 8 else span_hex
    assert got.span_id == expected_span
    assert got.args == args
