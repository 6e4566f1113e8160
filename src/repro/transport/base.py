"""Endpoint interface for the network substrate.

AdOC sits on top of anything that behaves like a connected stream
socket.  :class:`Endpoint` captures exactly the operations the library
needs — the blocking byte-stream semantics of ``read(2)``/``write(2)``
on a connected TCP socket:

* ``send`` may accept fewer bytes than offered (short write) and blocks
  when the peer's receive window is full (backpressure);
* ``recv`` blocks until at least one byte is available, returns at most
  ``n`` bytes, and returns ``b""`` once the peer has closed its sending
  side and all buffered data has been drained (EOF).

Three implementations exist: real loopback TCP sockets
(:mod:`repro.transport.socket_transport`), in-memory pipes
(:mod:`repro.transport.pipes`), and shaped wrappers that emulate the
paper's networks (:mod:`repro.transport.shaping`).
"""

from __future__ import annotations

import abc
import time
from typing import Callable, Sequence

__all__ = [
    "Endpoint",
    "TransportClosed",
    "TransportTimeout",
    "sendall",
    "sendall_vectors",
    "recv_exact",
]

#: Portable bound on buffers per scatter-gather call (POSIX guarantees
#: ``IOV_MAX`` >= 16; every mainstream kernel allows 1024).
IOV_MAX = 1024


class TransportClosed(Exception):
    """Raised when writing to an endpoint whose peer or self is closed."""


class TransportTimeout(Exception):
    """A blocking transport operation exceeded its bounded wait.

    The transport analogue of ``socket.timeout``: the stream is still
    intact — nothing was lost or closed — the operation simply did not
    complete in time.  The core pipeline maps this into
    :exc:`repro.core.deadlines.DeadlineExceeded` (a structured
    ``TransferError``) at its boundary; the two types exist so the
    transport layer stays importable without the core package.
    """


class Endpoint(abc.ABC):
    """One end of a reliable, ordered, duplex byte stream."""

    @abc.abstractmethod
    def send(self, data: bytes | bytearray | memoryview) -> int:
        """Queue up to ``len(data)`` bytes; return how many were taken.

        Blocks while the transmit path is full.  Raises
        :class:`TransportClosed` if the stream can no longer carry data.
        """

    def send_vectors(self, buffers: Sequence[bytes | bytearray | memoryview]) -> int:
        """Scatter-gather send: queue bytes from ``buffers`` in order.

        Returns how many bytes were taken in total — possibly short,
        stopping anywhere (even mid-buffer), like ``writev(2)``.  The
        default walks the buffers through :meth:`send`; transports with
        a real vectored syscall override it so a batch of framed
        packets costs one syscall instead of one per packet.
        """
        total = 0
        for buf in buffers:
            if not len(buf):
                continue
            sent = self.send(buf)
            total += sent
            if sent < len(buf):
                break
        return total

    @abc.abstractmethod
    def recv(self, n: int) -> bytes:
        """Receive up to ``n`` bytes; ``b""`` signals EOF.

        Blocks until data is available or EOF is reached.  ``n`` must be
        positive.
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Close both directions.  Idempotent."""

    def shutdown_write(self) -> None:
        """Half-close: signal EOF to the peer, keep receiving.

        Endpoints that cannot half-close may fall back to ``close``.
        """
        self.close()

    # -- bounded waits --------------------------------------------------

    #: Per-operation timeout in seconds; ``None`` = block forever (the
    #: historical behaviour, still the default).
    _io_timeout: float | None = None

    def settimeout(self, timeout: float | None) -> None:
        """Bound every subsequent blocking ``send``/``recv``.

        A ``send`` or ``recv`` that cannot make progress within
        ``timeout`` seconds raises :exc:`TransportTimeout`.  Mirrors
        ``socket.settimeout``: the value applies per operation, not to
        the connection's lifetime.  Wrapper endpoints delegate to the
        endpoint they wrap.
        """
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive or None")
        self._io_timeout = timeout

    def gettimeout(self) -> float | None:
        return self._io_timeout


class _DeadlineScope:
    """Drives an endpoint's per-op timeout from an absolute deadline.

    ``tick()`` is called before each blocking operation: it raises
    :exc:`TransportTimeout` once the deadline has passed and otherwise
    narrows the endpoint timeout to the remaining budget, so the sum of
    the operations — not just each one — is bounded.  Endpoints without
    timeout support (duck-typed test doubles) degrade to best-effort
    between-operation checks.  Used as a context manager so the
    endpoint's original timeout is always restored.
    """

    def __init__(self, ep: Endpoint, deadline: float | None, what: str) -> None:
        self._ep = ep
        self._deadline = deadline
        self._what = what
        self._supported = hasattr(ep, "settimeout")
        self._old: float | None = None

    def __enter__(self) -> "_DeadlineScope":
        if self._deadline is not None and self._supported:
            self._old = self._ep.gettimeout()
        return self

    def tick(self) -> None:
        if self._deadline is None:
            return
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise TransportTimeout(f"{self._what} deadline exceeded")
        if self._supported:
            self._ep.settimeout(remaining)

    def __exit__(self, *exc: object) -> None:
        if self._deadline is not None and self._supported:
            try:
                self._ep.settimeout(self._old)
            except ValueError:  # pragma: no cover - defensive
                pass


def sendall(
    ep: Endpoint,
    data: bytes | bytearray | memoryview,
    deadline: float | None = None,
) -> None:
    """Send every byte of ``data``, looping over short writes.

    ``deadline`` is an optional absolute ``time.monotonic`` instant
    bounding the *whole* call: on expiry :exc:`TransportTimeout` is
    raised, no matter how many short writes succeeded before it.
    """
    view = memoryview(data)
    with _DeadlineScope(ep, deadline, "sendall") as scope:
        while view:
            scope.tick()
            sent = ep.send(view)
            view = view[sent:]


def sendall_vectors(
    ep: Endpoint,
    buffers: Sequence[bytes | bytearray | memoryview],
    progress: Callable[[], None] | None = None,
) -> int:
    """Send every byte of every buffer, looping over short writes.

    The vectored analogue of :func:`sendall`: empty buffers are
    skipped, short writes resume mid-buffer, and oversized batches are
    fed to the endpoint :data:`IOV_MAX` buffers at a time.  Returns the
    total byte count sent.  ``progress`` is called after every
    endpoint call that sent bytes.

    Duck-typed endpoints that only implement ``send`` (test doubles,
    older integrations) are handled by falling back to per-buffer
    :func:`sendall`.
    """
    if not hasattr(ep, "send_vectors"):
        total = 0
        for buf in buffers:
            if len(buf):
                sendall(ep, buf)
                total += len(buf)
                if progress is not None:
                    progress()
        return total
    views = [memoryview(b) for b in buffers if len(b)]
    total = 0
    i = 0
    while i < len(views):
        sent = ep.send_vectors(views[i : i + IOV_MAX])
        total += sent
        if sent and progress is not None:
            progress()
        while i < len(views) and sent >= len(views[i]):
            sent -= len(views[i])
            i += 1
        if sent and i < len(views):
            views[i] = views[i][sent:]
    return total


def recv_exact(ep: Endpoint, n: int, deadline: float | None = None) -> bytes:
    """Receive exactly ``n`` bytes or raise on premature EOF.

    Used by framing layers whose headers have a known size; a stream
    that ends mid-record is a protocol error, not a normal EOF.
    ``deadline`` (absolute ``time.monotonic``) bounds the whole call,
    raising :exc:`TransportTimeout` on expiry even if some bytes had
    already arrived.
    """
    if n == 0:
        return b""
    parts: list[bytes] = []
    got = 0
    with _DeadlineScope(ep, deadline, "recv_exact") as scope:
        while got < n:
            scope.tick()
            chunk = ep.recv(n - got)
            if not chunk:
                raise TransportClosed(
                    f"stream ended after {got} of {n} expected bytes"
                )
            parts.append(chunk)
            got += len(chunk)
    return b"".join(parts)
