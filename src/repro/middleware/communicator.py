"""The communicator: the one seam where AdOC plugs into the middleware.

The paper's NetSolve integration changed ``communicator.c`` only —
every ``read`` became ``adoc_read``, every ``write`` became
``adoc_write`` (section 6.2).  This module is that file's equivalent:

* :class:`PlainCommunicator` — POSIX-style blocking read/write straight
  on the endpoint (the unmodified NetSolve);
* :class:`AdocCommunicator` — the same surface over the AdOC library
  (the AdOC-enabled NetSolve).

Everything above (protocol marshalling, agent, client) is identical
for both; construct a :class:`repro.middleware.client.Client` with one
or the other.

The server makes the same choice on its side of the wire: it runs on
the reactor, so it has no blocking communicator, and picks its framing
by ``mode`` (``"plain"`` or ``"adoc"``) instead.  :func:`reactor_channel`
maps that mode to the matching non-blocking channel — so "plain vs
AdOC" stays a one-line decision on both sides, and this module stays
the one file that makes it.
"""

from __future__ import annotations

import abc
from typing import BinaryIO

from ..core.api import AdocSocket
from ..core.config import AdocConfig, DEFAULT_CONFIG
from ..transport.base import Endpoint, sendall

__all__ = [
    "Communicator",
    "PlainCommunicator",
    "AdocCommunicator",
    "reactor_channel",
]

#: Chunk size for the default file-streaming path: large enough to
#: amortise per-call overhead, small enough to keep memory bounded.
_STREAM_CHUNK = 256 * 1024


class Communicator(abc.ABC):
    """Blocking byte I/O surface the RPC layer marshals through."""

    @abc.abstractmethod
    def write(self, data: bytes) -> None:
        """Write all of ``data``."""

    @abc.abstractmethod
    def read(self, n: int) -> bytes:
        """Read up to ``n`` bytes; ``b""`` at EOF."""

    def read_exact(self, n: int) -> bytes:
        """Read exactly ``n`` bytes, or fewer only at EOF."""
        parts: list[bytes] = []
        got = 0
        while got < n:
            chunk = self.read(n - got)
            if not chunk:
                break
            parts.append(chunk)
            got += len(chunk)
        return b"".join(parts)

    def write_stream(self, f: BinaryIO) -> int:
        """Write a file object's remaining bytes; returns payload count.

        Peak memory is O(chunk), never O(file).  The default loops
        bounded reads through :meth:`write`; implementations with a
        native streaming path override it.
        """
        total = 0
        while True:
            chunk = f.read(_STREAM_CHUNK)
            if not chunk:
                break
            self.write(chunk)
            total += len(chunk)
        return total

    @abc.abstractmethod
    def close(self) -> None:
        """Release the underlying endpoint."""

    #: Wire bytes written so far (for the experiment reports).
    bytes_written: int = 0


class PlainCommunicator(Communicator):
    """Unmodified NetSolve: plain read/write on the socket."""

    def __init__(self, endpoint: Endpoint) -> None:
        self.endpoint = endpoint
        self.bytes_written = 0

    def write(self, data: bytes) -> None:
        sendall(self.endpoint, data)
        self.bytes_written += len(data)

    def read(self, n: int) -> bytes:  # adoclint: disable=ADOC111 -- the plain baseline mirrors raw socket semantics; the bound is the endpoint's settimeout, owned by the caller
        return self.endpoint.recv(n)

    def close(self) -> None:
        self.endpoint.close()


class AdocCommunicator(Communicator):
    """AdOC-enabled NetSolve: read/write replaced by adoc_read/adoc_write."""

    def __init__(self, endpoint: Endpoint, config: AdocConfig = DEFAULT_CONFIG) -> None:
        self.socket = AdocSocket(endpoint, config)
        self.bytes_written = 0

    def write(self, data: bytes) -> None:  # adoclint: disable=ADOC111 -- delegates to AdocSocket.write, bounded by cfg.io_timeout_s in MessageSender (docs/ANALYSIS.md)
        _, wire = self.socket.write(data)
        self.bytes_written += wire

    def write_stream(self, f: BinaryIO) -> int:
        # One AdOC message for the whole file: the sender streams it in
        # buffer_size chunks (known-length for seekable files,
        # END-terminated for pipes), and adoc_read spans message
        # boundaries so readers see the same byte stream either way.
        size, wire = self.socket.send_file(f)
        self.bytes_written += wire
        return size

    def read(self, n: int) -> bytes:
        return self.socket.read(n)

    def close(self) -> None:
        try:
            self.socket.close()
        except ValueError:
            pass  # descriptor already closed


def reactor_channel(
    mode: str,
    reactor,
    endpoint,
    pool,
    config: AdocConfig = DEFAULT_CONFIG,
    telemetry=None,
):
    """Build the server-side channel for ``mode`` (``"plain"``/``"adoc"``).

    The reactor-side twin of picking :class:`PlainCommunicator` or
    :class:`AdocCommunicator`: the two channel kinds speak exactly the
    bytes those communicators do.
    """
    from ..serve.channel import AdocChannel, PlainChannel

    if mode == "adoc":
        return AdocChannel(reactor, endpoint, pool, config, telemetry)
    if mode == "plain":
        return PlainChannel(reactor, endpoint, config, telemetry)
    raise ValueError(f"mode must be 'plain' or 'adoc', not {mode!r}")
