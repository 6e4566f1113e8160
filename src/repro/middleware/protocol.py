"""GridRPC wire protocol for the mini-NetSolve middleware.

NetSolve (Casanova & Dongarra, 1996) is a GridRPC system: clients ask an
agent for a server, then run a remote procedure call against it.  The
paper integrates AdOC by editing exactly one file — ``communicator.c``
— replacing ``read``/``write`` with ``adoc_read``/``adoc_write``.  To
reproduce that story, all marshalling here is written against the same
two-operation surface (:class:`repro.middleware.communicator.Communicator`),
so swapping plain I/O for AdOC is a one-line choice.

Message layout (big-endian)::

    magic   2   b"NS"
    type    1   REQUEST / RESPONSE / ERROR
    status  1   0 = OK (meaningful for responses)
    name    2+n service name length + UTF-8 bytes
    nargs   2   number of payload arguments
    per argument:
      length 8
      bytes

A message carrying trace context (``RpcMessage.trace_id`` set) uses the
*traced* header instead — magic ``b"NT"``, then a wire version byte,
then the usual type/status, then 16 trace-id + 8 span-id bytes — and
continues identically from the name field.  Messages without trace
context stay byte-identical to the legacy layout (golden-tested), so a
traced client interoperates with any peer on a message-by-message
basis and tracing costs nothing when disabled.

Each argument is written with its own ``write`` call, which is what
lets AdOC compress large matrix payloads independently while tiny
headers take the small-message fast path — the same traffic pattern the
modified NetSolve produces.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import BinaryIO

from ..core.sources import stream_size

__all__ = [
    "MsgType",
    "RpcMessage",
    "write_message",
    "read_message",
    "iter_message_segments",
    "MessageAssembler",
    "RpcError",
    "ConnectionLost",
    "TRACE_WIRE_VERSION",
]

_MAGIC = b"NS"
#: magic, type, status, name length.
_HDR = struct.Struct(">2sBBH")
_U16 = struct.Struct(">H")
_U64 = struct.Struct(">Q")

#: Traced-header wire version; bumped if the trace field layout changes.
TRACE_WIRE_VERSION = 1

_TMAGIC = b"NT"
#: magic, version, type, status, 16-byte trace id, 8-byte span id,
#: name length.
_THDR = struct.Struct(">2sBBB16s8sH")

#: All-zero span id on the wire means "no span" (trace id only).
_NO_SPAN = b"\x00" * 8


class MsgType:
    REQUEST = 1
    RESPONSE = 2
    ERROR = 3


class RpcError(Exception):
    """Remote error or malformed RPC traffic."""


class ConnectionLost(RpcError):
    """The connection died mid-RPC — retryable with a fresh connection.

    Distinct from a remote *refusal* (plain :exc:`RpcError`, not
    retryable: the same request would fail the same way) so the client's
    :class:`~repro.core.deadlines.RetryPolicy` loop can tell the two
    apart by type.
    """


@dataclass
class RpcMessage:
    """One request or response travelling over a communicator.

    An argument may be a *seekable file object* instead of bytes: it is
    marshalled by streaming (``comm.write_stream``), so a large payload
    never has to be resident on the sending side.  The wire layout is
    identical — length prefix, then the bytes — and the receiving side
    always sees ``bytes``.
    """

    type: int
    name: str
    args: list[bytes | BinaryIO] = field(default_factory=list)
    status: int = 0
    #: Optional trace context (lowercase hex: 32 chars / 16 chars).
    #: ``None`` keeps the legacy header — byte-identical wire.
    trace_id: str | None = None
    span_id: str | None = None


def arg_length(arg: bytes | BinaryIO) -> int:
    """Payload length of one argument (bytes-like or seekable file)."""
    if hasattr(arg, "read"):
        size = stream_size(arg)  # type: ignore[arg-type]
        if size is None:
            raise RpcError(
                "streamed RPC arguments must be seekable (the wire format "
                "is length-prefixed)"
            )
        return size
    return len(arg)  # type: ignore[arg-type]


def _trace_bytes(value: str | None, size: int, what: str) -> bytes:
    if value is None:
        return b"\x00" * size
    try:
        raw = bytes.fromhex(value)
    except ValueError:
        raise RpcError(f"{what} must be hex, got {value!r}")
    if len(raw) != size:
        raise RpcError(
            f"{what} must be {size * 2} hex chars, got {len(value)}"
        )
    return raw


def _pack_header(msg: RpcMessage) -> bytes:
    """The fixed header + name + nargs prefix (legacy or traced form)."""
    name_b = msg.name.encode("utf-8")
    tail = name_b + _U16.pack(len(msg.args))
    if msg.trace_id is None:
        return _HDR.pack(_MAGIC, msg.type, msg.status, len(name_b)) + tail
    return (
        _THDR.pack(
            _TMAGIC,
            TRACE_WIRE_VERSION,
            msg.type,
            msg.status,
            _trace_bytes(msg.trace_id, 16, "trace_id"),
            _trace_bytes(msg.span_id, 8, "span_id"),
            len(name_b),
        )
        + tail
    )


def write_message(comm, msg: RpcMessage) -> int:
    """Marshal ``msg`` through ``comm``; returns payload bytes written.

    The header and each argument go through separate ``write`` calls
    (see module docstring); file-object arguments are streamed.
    """
    header = _pack_header(msg)
    comm.write(header)
    total = len(header)
    for arg in msg.args:
        alen = arg_length(arg)
        comm.write(_U64.pack(alen))
        if hasattr(arg, "read"):
            written = comm.write_stream(arg)
            if written != alen:
                raise RpcError(
                    f"streamed argument changed size: declared {alen}, "
                    f"read {written}"
                )
        elif alen:
            comm.write(arg)
        total += 8 + alen
    return total


def iter_message_segments(msg: RpcMessage):
    """Yield the exact per-``write`` byte segments of ``msg``.

    The reactor-mode servers frame each yielded segment as its own
    channel message, which reproduces :func:`write_message`'s traffic
    shape byte for byte: one write for the header, then per argument one
    write for the u64 length and one for the payload — the segmentation
    that lets AdOC compress large arguments independently while headers
    ride the small-message fast path.  Only ``bytes`` arguments are
    supported (the readiness-driven path has no blocking stream to pull
    a file through; marshal files via the blocking engine).
    """
    yield _pack_header(msg)
    for arg in msg.args:
        if hasattr(arg, "read"):
            raise RpcError(
                "file-object arguments are not supported on the "
                "reactor path; pass bytes"
            )
        yield _U64.pack(len(arg))
        if len(arg):
            yield arg


# MessageAssembler fields, in wire order.  The first field is sized to
# the legacy header, which no message is shorter than; a traced header
# then needs ``_TRACED_REST`` more bytes.
_F_HEADER = 0
_F_TRACED = 1
_F_NAME = 2
_F_NARGS = 3
_F_ARGLEN = 4
_F_ARG = 5

_TRACED_REST = _THDR.size - _HDR.size


class MessageAssembler:
    """Incremental push-mode parser for the NS wire format — the only one.

    Callers push whatever bytes arrived and the assembler invokes
    ``on_message(msg)`` for every complete :class:`RpcMessage` — zero,
    one, or several per ``feed``.  The reactor server pushes socket
    reads; :func:`read_message` pulls exactly :attr:`need` bytes at a
    time through a blocking communicator, so it never reads past the
    message it returns.  The format is self-delimiting, so AdOC message
    boundaries (one blocking ``write`` = one AdOC message) need no
    special handling.

    ``max_arg_bytes`` bounds a single argument so a malformed or
    hostile length prefix cannot make the reader buffer unbounded
    memory.
    """

    def __init__(self, on_message, max_arg_bytes: int = 1 << 31) -> None:
        self.on_message = on_message
        self.max_arg_bytes = max_arg_bytes
        self._partial = bytearray()
        self._field = _F_HEADER
        self._size = _HDR.size
        self._head = b""
        self._type = 0
        self._status = 0
        self._trace_id: str | None = None
        self._span_id: str | None = None
        self._name = ""
        self._nargs = 0
        self._args: list[bytes] = []
        self.messages = 0

    @property
    def need(self) -> int:
        """Bytes the current field still needs (always at least one)."""
        return self._size - len(self._partial)

    @property
    def mid_message(self) -> bool:
        """Bytes of an unfinished message are outstanding."""
        return self._field != _F_HEADER or bool(self._partial)

    def feed(self, data: bytes) -> None:
        """Consume a chunk, firing ``on_message`` per completed message."""
        if not self._partial and len(data) == self._size:
            # Exactly the current field (read_message's case): take the
            # caller's bytes as they are, no staging copy.
            self._complete(bytes(data))
            return
        view = memoryview(data)
        pos, end = 0, len(view)
        while pos < end:
            partial = self._partial
            take = self._size - len(partial)
            if partial or end - pos < take:
                partial += view[pos : pos + take]
                pos += take
                if len(partial) < self._size:
                    return
                raw = bytes(partial)
                partial.clear()
            else:
                raw = bytes(view[pos : pos + take])
                pos += take
            self._complete(raw)

    def _complete(self, raw: bytes) -> None:
        """Consume one whole field, then any zero-length ones after it."""
        self._advance(raw)
        while self._size == 0:
            self._advance(b"")

    def _expect(self, field: int, size: int) -> None:
        self._field = field
        self._size = size

    def _advance(self, raw: bytes) -> None:
        field = self._field
        if field == _F_HEADER:
            magic = raw[:2]
            if magic == _MAGIC:
                _, self._type, self._status, name_len = _HDR.unpack(raw)
                self._trace_id = None
                self._span_id = None
                self._expect(_F_NAME, name_len)
            elif magic == _TMAGIC:
                # The two header forms interleave freely on one connection.
                self._head = raw
                self._expect(_F_TRACED, _TRACED_REST)
            else:
                raise RpcError(f"bad RPC magic {magic!r}")
        elif field == _F_TRACED:
            _, version, self._type, self._status, trace_raw, span_raw, name_len = (
                _THDR.unpack(self._head + raw)
            )
            if version != TRACE_WIRE_VERSION:
                raise RpcError(f"unsupported traced-header version {version}")
            self._trace_id = trace_raw.hex()
            self._span_id = None if span_raw == _NO_SPAN else span_raw.hex()
            self._expect(_F_NAME, name_len)
        elif field == _F_NAME:
            try:
                self._name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise RpcError("service name is not UTF-8") from None
            self._expect(_F_NARGS, _U16.size)
        elif field == _F_NARGS:
            (self._nargs,) = _U16.unpack(raw)
            self._args = []
            if self._nargs:
                self._expect(_F_ARGLEN, _U64.size)
            else:
                self._emit()
        elif field == _F_ARGLEN:
            (arg_len,) = _U64.unpack(raw)
            if arg_len > self.max_arg_bytes:
                raise RpcError(
                    f"argument of {arg_len} bytes exceeds the "
                    f"{self.max_arg_bytes}-byte bound"
                )
            self._expect(_F_ARG, arg_len)
        else:  # _F_ARG
            self._args.append(raw)
            if len(self._args) == self._nargs:
                self._emit()
            else:
                self._expect(_F_ARGLEN, _U64.size)

    def _emit(self) -> None:
        msg = RpcMessage(
            self._type,
            self._name,
            self._args,
            self._status,
            trace_id=self._trace_id,
            span_id=self._span_id,
        )
        self.messages += 1
        self._args = []
        self._expect(_F_HEADER, _HDR.size)
        self.on_message(msg)


def read_message(comm) -> RpcMessage | None:
    """Read one message; ``None`` on clean EOF before a header.

    Drives a :class:`MessageAssembler`, reading exactly the bytes its
    current field still needs, so the next message stays unread.  EOF
    *inside* a message raises :exc:`ConnectionLost` — the peer hung up
    mid-RPC.  A length prefix above the assembler's bound raises
    :exc:`RpcError` before any of the argument is read.
    """
    got: list[RpcMessage] = []
    assembler = MessageAssembler(got.append)
    while not got:
        n = assembler.need
        raw = comm.read_exact(n)
        if len(raw) < n:
            if not raw and not assembler.mid_message:
                return None
            raise ConnectionLost("connection lost mid-message")
        assembler.feed(raw)
    return got[0]
