"""The AdOC public API: the paper's seven functions, plus helpers.

Paper section 4.1 defines the C API; this module reproduces it with the
same names and semantics, adapted to Python calling conventions (out
parameters become return values):

=====================================  =======================================
C signature                            Python equivalent
=====================================  =======================================
``adoc_write(d, buf, n, *slen)``       ``adoc_write(d, buf) -> (n, slen)``
``adoc_write_levels(..., min, max)``   ``adoc_write_levels(d, buf, min, max)``
``adoc_read(d, buf, n)``               ``adoc_read(d, n) -> bytes``
``adoc_send_file(d, pf, *slen)``       ``adoc_send_file(d, f) -> (size, slen)``
``adoc_send_file_levels(...)``         ``adoc_send_file_levels(d, f, min, max)``
``adoc_receive_file(d, pf)``           ``adoc_receive_file(d, f) -> size``
``adoc_close(d)``                      ``adoc_close(d)``
=====================================  =======================================

Descriptors are integers handed out by :func:`adoc_attach`, which
accepts anything speaking :class:`repro.transport.Endpoint` (loopback
sockets, in-memory pipes, shaped links) or a raw ``socket.socket``.

Semantics guaranteed (paper sections 4.1-4.2):

* **read/write semantics** — reads may be partial and recombine the
  byte stream arbitrarily across writes; internal buffers hold data
  received but not yet read and are freed by ``adoc_close``;
* **thread safety** — the descriptor table is lock-protected and each
  connection serialises concurrent writers; different threads may use
  different descriptors fully concurrently;
* forcing / disabling compression via the ``*_levels`` variants:
  ``max == ADOC_MIN_LEVEL`` disables, ``min == ADOC_MIN_LEVEL + 1``
  (or higher) forces.
"""

from __future__ import annotations

import socket as _socket
from typing import BinaryIO

from ..analysis.lockgraph import make_lock
from ..compress.registry import ADOC_MAX_LEVEL, ADOC_MIN_LEVEL
from ..transport.base import Endpoint
from ..transport.socket_transport import SocketEndpoint
from .config import AdocConfig, DEFAULT_CONFIG
from .receiver import ReceiverPipeline
from .sender import MessageSender, SendResult

__all__ = [
    "adoc_attach",
    "adoc_detach",
    "adoc_write",
    "adoc_write_levels",
    "adoc_read",
    "adoc_send_file",
    "adoc_send_file_levels",
    "adoc_receive_file",
    "adoc_close",
    "AdocSocket",
    "ADOC_MIN_LEVEL",
    "ADOC_MAX_LEVEL",
]


class _Connection:
    """Per-descriptor state: endpoint, sender, lazy receiver."""

    def __init__(self, endpoint: Endpoint, config: AdocConfig) -> None:
        self.endpoint = endpoint
        self.config = config
        self.sender = MessageSender(endpoint, config)
        self._receiver: ReceiverPipeline | None = None
        self.write_lock = make_lock("_Connection.write_lock")
        self._recv_lock = make_lock("_Connection.recv_lock")

    @property
    def receiver(self) -> ReceiverPipeline:
        # Started on first read: a pure sender never pays for the
        # reception threads.  The receiver shares the sender's stats so
        # the descriptor has one full-duplex accounting view.
        with self._recv_lock:
            if self._receiver is None:
                self._receiver = ReceiverPipeline(
                    self.endpoint, self.config, stats=self.sender.stats
                )
            return self._receiver

    def close(self) -> None:
        with self._recv_lock:
            receiver = self._receiver
        if receiver is not None:
            receiver.close()
        self.endpoint.close()
        if receiver is not None:
            # Closing the endpoint unblocks a reception thread parked in
            # recv(); a bounded join guarantees teardown terminates even
            # if a thread is wedged, instead of leaking it silently.
            receiver.join(self.config.join_timeout_s)


# The descriptor table.  A static, lock-protected map — the C library
# similarly keeps one locked static for partial-read buffers (paper
# section 4.2).
_table: dict[int, _Connection] = {}
_table_lock = make_lock("api.table_lock")
_next_fd = 1000


def adoc_attach(
    endpoint: Endpoint | _socket.socket, config: AdocConfig = DEFAULT_CONFIG
) -> int:
    """Register an endpoint (or raw socket) and return its descriptor."""
    global _next_fd
    if isinstance(endpoint, _socket.socket):
        endpoint = SocketEndpoint(endpoint)
    conn = _Connection(endpoint, config)
    with _table_lock:
        fd = _next_fd
        _next_fd += 1
        _table[fd] = conn
    return fd


def adoc_detach(d: int) -> Endpoint:
    """Unregister a descriptor *without* closing the endpoint."""
    with _table_lock:
        conn = _table.pop(d, None)
    if conn is None:
        raise ValueError(f"unknown AdOC descriptor {d}")
    return conn.endpoint


def _lookup(d: int) -> _Connection:
    with _table_lock:
        conn = _table.get(d)
    if conn is None:
        raise ValueError(f"unknown AdOC descriptor {d}")
    return conn


def adoc_write(d: int, buf: bytes | bytearray | memoryview) -> tuple[int, int]:  # adoclint: disable=ADOC111 -- bounded by cfg.io_timeout_s inside MessageSender._send_source; the conn.sender attribute chain is beyond static resolution (docs/ANALYSIS.md)
    """Send ``buf``; returns ``(nbytes, slen)``.

    ``nbytes`` is ``len(buf)`` (the C function's success return) and
    ``slen`` the bytes actually sent on the wire — compression makes
    ``slen <= nbytes`` plus a bounded framing overhead.
    """
    conn = _lookup(d)
    with conn.write_lock:
        result = conn.sender.send(buf)  # adoclint: disable=ADOC110 -- the write lock exists to serialise whole-message sends; holding it across the send is the contract
    return result.payload_bytes, result.wire_bytes


def adoc_write_levels(  # adoclint: disable=ADOC111 -- bounded by cfg.io_timeout_s inside MessageSender._send_source; the conn.sender attribute chain is beyond static resolution (docs/ANALYSIS.md)
    d: int,
    buf: bytes | bytearray | memoryview,
    min_level: int,
    max_level: int,
) -> tuple[int, int]:
    """``adoc_write`` with compression bounded to ``[min, max]``.

    ``max_level == ADOC_MIN_LEVEL`` disables compression entirely;
    ``min_level >= ADOC_MIN_LEVEL + 1`` forces the full pipeline even
    for small messages.
    """
    conn = _lookup(d)
    cfg = conn.config.with_levels(min_level, max_level)
    with conn.write_lock:
        result = conn.sender.send(buf, cfg)  # adoclint: disable=ADOC110 -- write lock serialises whole-message sends by design (see adoc_write)
    return result.payload_bytes, result.wire_bytes


def adoc_read(d: int, nbytes: int) -> bytes:
    """Read up to ``nbytes`` decompressed bytes; ``b""`` at EOF."""
    conn = _lookup(d)
    return conn.receiver.read(nbytes)


def adoc_send_file(d: int, f: BinaryIO) -> tuple[int, int]:
    """Send the file ``f``; returns ``(file_size, slen)``.

    The compression ratio achieved is ``file_size / slen`` (paper
    section 4.1).  Not intended to compete with ``sendfile(2)`` — this
    is a user-level copy, as in the original library.
    """
    conn = _lookup(d)
    with conn.write_lock:
        result = conn.sender.send_stream(f)  # adoclint: disable=ADOC110 -- the write lock exists to serialise whole-message sends; holding it across the send is the contract
    return result.payload_bytes, result.wire_bytes


def adoc_send_file_levels(
    d: int, f: BinaryIO, min_level: int, max_level: int
) -> tuple[int, int]:
    """``adoc_send_file`` with compression bounded to ``[min, max]``."""
    conn = _lookup(d)
    cfg = conn.config.with_levels(min_level, max_level)
    with conn.write_lock:
        result = conn.sender.send_stream(f, cfg)  # adoclint: disable=ADOC110 -- the write lock exists to serialise whole-message sends; holding it across the send is the contract
    return result.payload_bytes, result.wire_bytes


def adoc_receive_file(d: int, f: BinaryIO) -> int:
    """Receive one sent file into ``f``; returns the stored byte count."""
    conn = _lookup(d)
    return conn.receiver.receive_into(f)


def adoc_close(d: int) -> int:
    """Close the descriptor and free AdOC's internal buffers.

    Required after partial reads: temporary buffers holding received
    but unread data are released here (paper section 4.1).  Returns 0
    on success, mirroring ``close(2)``.
    """
    with _table_lock:
        conn = _table.pop(d, None)
    if conn is None:
        raise ValueError(f"unknown AdOC descriptor {d}")
    conn.close()
    return 0


class AdocSocket:
    """Idiomatic object wrapper over the descriptor API.

    ``AdocSocket(endpoint)`` owns its descriptor; methods mirror the
    seven functions.  Usable as a context manager.
    """

    def __init__(
        self, endpoint: Endpoint | _socket.socket, config: AdocConfig = DEFAULT_CONFIG
    ) -> None:
        self.fd = adoc_attach(endpoint, config)

    def write(self, buf: bytes | bytearray | memoryview) -> tuple[int, int]:  # adoclint: disable=ADOC111 -- delegates to adoc_write, bounded by cfg.io_timeout_s in MessageSender (docs/ANALYSIS.md)
        return adoc_write(self.fd, buf)

    def write_levels(  # adoclint: disable=ADOC111 -- delegates to adoc_write_levels, bounded by cfg.io_timeout_s in MessageSender (docs/ANALYSIS.md)
        self, buf: bytes | bytearray | memoryview, min_level: int, max_level: int
    ) -> tuple[int, int]:
        return adoc_write_levels(self.fd, buf, min_level, max_level)

    def read(self, nbytes: int) -> bytes:
        return adoc_read(self.fd, nbytes)

    def read_exact(self, nbytes: int) -> bytes:
        """Convenience: loop ``read`` until ``nbytes`` or EOF."""
        parts: list[bytes] = []
        got = 0
        while got < nbytes:
            chunk = self.read(nbytes - got)
            if not chunk:
                break
            parts.append(chunk)
            got += len(chunk)
        return b"".join(parts)  # adoclint: disable=ADOC108 -- the API returns bytes the caller asked for; the copy is the deliverable, not overhead

    def send_file(self, f: BinaryIO) -> tuple[int, int]:
        return adoc_send_file(self.fd, f)

    def send_file_levels(
        self, f: BinaryIO, min_level: int, max_level: int
    ) -> tuple[int, int]:
        return adoc_send_file_levels(self.fd, f, min_level, max_level)

    def receive_file(self, f: BinaryIO) -> int:
        return adoc_receive_file(self.fd, f)

    @property
    def stats(self):
        """Full-duplex :class:`~repro.core.stats.ConnectionStats`
        (the receiver shares the sender's accumulator)."""
        return _lookup(self.fd).sender.stats

    def close(self) -> int:
        return adoc_close(self.fd)

    def __enter__(self) -> "AdocSocket":
        return self

    def __exit__(self, *exc: object) -> None:
        try:
            self.close()
        except ValueError:
            pass  # already closed
