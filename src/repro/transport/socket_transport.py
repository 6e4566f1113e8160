"""Real-socket endpoints (loopback TCP and ``socketpair``).

The paper's experiments run AdOC over BSD sockets; this module provides
the same substrate for integration tests and examples.  AdOC itself only
sees the :class:`~repro.transport.base.Endpoint` interface, so the
library code is identical over real sockets, in-memory pipes, and shaped
links.

:func:`splice` goes the other way: it puts an in-memory or shaped link
behind a real socket, so a selector-driven server can host it.
"""

from __future__ import annotations

import socket
import threading

from .base import Endpoint, TransportClosed, TransportTimeout, sendall

__all__ = ["SocketEndpoint", "socketpair_endpoints", "splice", "tcp_pair"]

#: Bytes a splice pump moves per ``recv``.
_SPLICE_CHUNK = 64 * 1024

#: How long the outbound pump waits for its inbound twin once it has
#: closed the link under it (a close wakes a blocked pump at once).
_SPLICE_JOIN_TIMEOUT_S = 5.0


class SocketEndpoint(Endpoint):
    """Endpoint wrapper around a connected ``socket.socket``."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._closed = False

    @property
    def socket(self) -> socket.socket:
        """The underlying socket (for tuning, e.g. ``TCP_NODELAY``)."""
        return self._sock

    def settimeout(self, timeout: float | None) -> None:
        """Map the endpoint timeout onto ``socket.settimeout``."""
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive or None")
        self._io_timeout = timeout
        try:
            self._sock.settimeout(timeout)
        except OSError:
            pass  # closed socket: the next send/recv reports it

    def setblocking(self, flag: bool) -> None:
        """Switch the socket to non-blocking mode (reactor use).

        In non-blocking mode ``send``/``recv`` re-raise
        ``BlockingIOError`` unchanged instead of mapping it to a
        transport error — would-block is a readiness signal for the
        reactor, not a failure.
        """
        try:
            self._sock.setblocking(flag)
        except OSError:
            pass  # closed socket: the next send/recv reports it

    def fileno(self) -> int:
        """The socket's fd, for ``selectors`` registration."""
        return self._sock.fileno()

    def send(self, data: bytes | bytearray | memoryview) -> int:
        try:
            return self._sock.send(data)
        except TimeoutError as exc:
            raise TransportTimeout(str(exc) or "send timed out") from exc
        except BlockingIOError:
            raise  # non-blocking would-block: the reactor's signal
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise TransportClosed(str(exc)) from exc

    def send_vectors(self, buffers) -> int:
        """Scatter-gather via ``sendmsg(2)``: one syscall per batch."""
        try:
            return self._sock.sendmsg(buffers)
        except TimeoutError as exc:
            raise TransportTimeout(str(exc) or "sendmsg timed out") from exc
        except BlockingIOError:
            raise  # non-blocking would-block: the reactor's signal
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise TransportClosed(str(exc)) from exc

    def recv(self, n: int) -> bytes:
        try:
            return self._sock.recv(n)
        except TimeoutError as exc:
            raise TransportTimeout(str(exc) or "recv timed out") from exc
        except BlockingIOError:
            raise  # non-blocking would-block: the reactor's signal
        except ConnectionResetError:
            return b""
        except OSError as exc:
            if self._closed:
                return b""
            raise TransportClosed(str(exc)) from exc

    def shutdown_write(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def close(self) -> None:
        self._closed = True
        # close() alone does not wake a thread blocked in recv() on this
        # socket; a shutdown does (it sees EOF and exits).
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, or the peer already hung up
        try:
            self._sock.close()
        except OSError:
            pass


def socketpair_endpoints() -> tuple[SocketEndpoint, SocketEndpoint]:
    """A connected AF_UNIX socket pair wrapped as endpoints."""
    a, b = socket.socketpair()
    return SocketEndpoint(a), SocketEndpoint(b)


def splice(
    endpoint: Endpoint, name: str = "splice"
) -> tuple[SocketEndpoint, list[threading.Thread]]:
    """Bridge ``endpoint`` onto a ``socketpair``.

    Returns the pair's selectable end and two running, named pump
    threads (one per direction) for the caller to reap.  EOF from
    ``endpoint`` reaches the selectable end as a half-close; once the
    selectable end closes (or ``endpoint`` stops taking bytes) the
    outbound pump closes ``endpoint``, which ends the inbound pump, and
    joins it.  Closing ``endpoint`` from outside ends both pumps too.

    The pair's buffers are set to the kernel minimum, so the wrapped
    link's own buffer stays the backpressure a sender on the selectable
    end feels (AdOC's write backlog reads that signal).
    """
    near, far = socket.socketpair()
    for sock in (near, far):
        # The kernel clamps both up to its minimum.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)
    pump_end = SocketEndpoint(far)

    def inbound() -> None:
        try:
            while data := endpoint.recv(_SPLICE_CHUNK):
                sendall(pump_end, data)
        except (TransportClosed, TransportTimeout):
            pass
        finally:
            pump_end.shutdown_write()

    def outbound() -> None:
        try:
            while data := pump_end.recv(_SPLICE_CHUNK):
                sendall(endpoint, data)
        except (TransportClosed, TransportTimeout):
            pass
        finally:
            endpoint.close()
            pump_end.close()
            pumps[0].join(_SPLICE_JOIN_TIMEOUT_S)

    pumps = [
        threading.Thread(target=inbound, name=f"{name}-in", daemon=True),
        threading.Thread(target=outbound, name=f"{name}-out", daemon=True),
    ]
    for pump in pumps:
        pump.start()
    return SocketEndpoint(near), pumps


def tcp_pair(nodelay: bool = True) -> tuple[SocketEndpoint, SocketEndpoint]:
    """A connected loopback TCP pair (client end, server end).

    ``TCP_NODELAY`` is set by default: AdOC does its own batching into
    8 KB packets, and Nagle's algorithm would distort the small-message
    latency measurements of Table 2.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        # Loopback connect/accept is near-instant when healthy; a bound
        # here turns a misconfigured host into a crisp error instead of
        # a silent hang.
        listener.settimeout(10.0)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        client.settimeout(10.0)
        client.connect(listener.getsockname())
        server, _ = listener.accept()
        client.settimeout(None)
        server.settimeout(None)
    finally:
        listener.close()
    if nodelay:
        client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        server.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return SocketEndpoint(client), SocketEndpoint(server)
