"""AdOC wire protocol: message and record framing.

The C library speaks a private framing protocol over the socket; the
paper does not spell out the byte layout, only its obligations, which
this format meets:

* the receiver must know, per chunk of wire bytes, at which level they
  were compressed and how large the original data was (to decompress
  and to account);
* raw (level-0) data — small messages, the 256 KB probe, the fast
  network bypass, guard fallbacks — must travel with negligible
  overhead;
* message boundaries must be recoverable (``adoc_receive_file`` stores
  exactly one sent file) while ``adoc_read`` remains a byte stream
  spanning messages (partial reads, paper section 4.1).

Layout (all integers big-endian, no alignment):

``MessageHeader`` (12 bytes)::

    magic   2  b"Ad"
    version 1  protocol version (1)
    flags   1  bit0 = total length known
    total   8  total original payload length (when known, else 0)

followed by a sequence of records::

    level   1  compression level of the payload (0..10), 0xFF = END
    orig    4  original (uncompressed) size of this record
    wire    4  payload size on the wire
    payload wire bytes

Records keep coming until their ``orig`` sizes sum to ``total``, or —
for unknown-length messages — until an END record (level 0xFF,
orig = wire = 0) arrives.  A raw (level 0) record has orig = wire.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = [
    "ProtocolError",
    "MessageHeader",
    "RecordHeader",
    "Record",
    "END_LEVEL",
    "MESSAGE_HEADER_SIZE",
    "RECORD_HEADER_SIZE",
    "pack_message_header",
    "unpack_message_header",
    "pack_record_header",
    "unpack_record_header",
    "end_record_bytes",
]

MAGIC = b"Ad"
VERSION = 1
FLAG_LENGTH_KNOWN = 0x01
END_LEVEL = 0xFF

_MSG = struct.Struct(">2sBBQ")
_REC = struct.Struct(">BII")

MESSAGE_HEADER_SIZE = _MSG.size  # 12
RECORD_HEADER_SIZE = _REC.size   # 9


class ProtocolError(Exception):
    """Malformed or inconsistent AdOC wire data."""


@dataclass(frozen=True)
class MessageHeader:
    """Start-of-message framing."""

    total_length: int
    length_known: bool = True

    def pack(self) -> bytes:
        flags = FLAG_LENGTH_KNOWN if self.length_known else 0
        total = self.total_length if self.length_known else 0
        return _MSG.pack(MAGIC, VERSION, flags, total)


@dataclass(frozen=True)
class RecordHeader:
    """Per-record framing (precedes the payload bytes)."""

    level: int
    original_size: int
    wire_size: int

    @property
    def is_end(self) -> bool:
        return self.level == END_LEVEL

    def pack(self) -> bytes:
        return _REC.pack(self.level, self.original_size, self.wire_size)


@dataclass(frozen=True)
class Record:
    """A complete record: header fields plus wire payload.

    ``payload`` may be a ``memoryview`` over caller-owned memory: the
    send engine keeps payloads as views end to end and only ever
    materialises the 9-byte header (:meth:`header_bytes`).  The view's
    base object must stay alive and unchanged until the record has been
    emitted — which the engine guarantees, since views hold a reference
    to their base.
    """

    level: int
    original_size: int
    payload: bytes | memoryview

    def header_bytes(self) -> bytes:
        """The 9-byte record header framing :attr:`payload`."""
        return RecordHeader(self.level, self.original_size, len(self.payload)).pack()

    def serialize_into(self, out: bytearray) -> None:
        """Append header + payload to ``out`` without intermediates."""
        out += self.header_bytes()
        out += self.payload

    def serialize(self) -> bytes:
        """Header + payload as one new buffer.

        Compatibility/diagnostic form — the hot path sends
        :meth:`header_bytes` and :attr:`payload` as separate vectors
        instead of paying this copy.
        """
        buf = bytearray()
        self.serialize_into(buf)
        return bytes(buf)  # adoclint: disable=ADOC108 -- compat/diagnostic serializer; the engine sends header_bytes() + payload as separate vectors instead


def pack_message_header(total_length: int, length_known: bool = True) -> bytes:
    return MessageHeader(total_length, length_known).pack()


def unpack_message_header(data: bytes) -> MessageHeader:
    if len(data) != MESSAGE_HEADER_SIZE:
        raise ProtocolError(
            f"message header needs {MESSAGE_HEADER_SIZE} bytes, got {len(data)}"
        )
    magic, version, flags, total = _MSG.unpack(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    known = bool(flags & FLAG_LENGTH_KNOWN)
    return MessageHeader(total if known else 0, known)


def pack_record_header(level: int, original_size: int, wire_size: int) -> bytes:
    return RecordHeader(level, original_size, wire_size).pack()


def unpack_record_header(data: bytes) -> RecordHeader:
    if len(data) != RECORD_HEADER_SIZE:
        raise ProtocolError(
            f"record header needs {RECORD_HEADER_SIZE} bytes, got {len(data)}"
        )
    level, orig, wire = _REC.unpack(data)
    if level != END_LEVEL and level > 10:
        raise ProtocolError(f"invalid compression level {level}")
    if level == END_LEVEL and (orig or wire):
        raise ProtocolError("END record must be empty")
    if level == 0 and orig != wire:
        raise ProtocolError(f"raw record claims {orig} bytes but carries {wire}")
    return RecordHeader(level, orig, wire)


def end_record_bytes() -> bytes:
    """The END record terminating an unknown-length message."""
    return pack_record_header(END_LEVEL, 0, 0)
