"""Accept machinery: one listener fd, one reactor, many channels.

:class:`Listener` is the one accept implementation every service
shares — non-blocking, reactor-registered, uniform socket options — and
:class:`ReactorServer` is the bundle a service builds on: a reactor
running on its own named thread, a bounded codec pool, any number of
listeners, :meth:`ReactorServer.adopt` for connections made elsewhere
(in-memory and shaped links included), and a close path that tears all
of it down through :func:`~repro.core.deadlines.reap_threads`.  It also
keeps what its AdOC channels learn about each peer host, so a client's
next connection starts from the last one's evidence.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from functools import partial
from typing import Callable

from ..core.config import AdocConfig, DEFAULT_CONFIG
from ..core.deadlines import TransferError, reap_threads
from ..core.divergence import ConnectionRecords
from ..obs.telemetry import Telemetry, resolve_telemetry
from ..transport.base import Endpoint
from ..transport.socket_transport import SocketEndpoint, splice
from .channel import AdocChannel
from .pool import WorkerPool
from .reactor import EVENT_READ, Reactor

__all__ = ["Listener", "ReactorServer", "DEFAULT_BACKLOG"]

_log = logging.getLogger("repro.serve.server")

#: Uniform listen() backlog across every service.  The historical
#: accept loops used the platform default (often 5 under old kernels'
#: SOMAXCONN clamp) which drops SYNs under a connection storm; 512 is
#: safely above any burst the chaos suite throws and still clamped by
#: the kernel's somaxconn.
DEFAULT_BACKLOG = 512

#: accept() calls per readiness callback before yielding to other fds —
#: a connection storm must not starve established channels.
_ACCEPTS_PER_CALLBACK = 64

#: How long :meth:`ReactorServer.adopt` waits for the loop to take a
#: connection.
_ADOPT_TIMEOUT_S = 10.0

#: Peer hosts whose records a server keeps; the least recently
#: connected is dropped first.
MAX_PEERS = 256


def _peer_host(endpoint: Endpoint, addr: tuple) -> str | None:
    """The peer's host for an internet-socket connection, else ``None``."""
    sock = getattr(endpoint, "socket", None)
    if not addr or sock is None or sock.family not in (socket.AF_INET, socket.AF_INET6):
        return None
    return addr[0]


def _selectable(endpoint: Endpoint) -> bool:
    """Can a selector watch ``endpoint`` directly?"""
    try:
        endpoint.fileno()  # type: ignore[attr-defined]
    except (AttributeError, OSError):
        return False  # e.g. a fault wrapper around an in-memory pipe
    return callable(getattr(endpoint, "setblocking", None))


class Listener:
    """A non-blocking listening socket registered with a reactor.

    ``on_accept(endpoint, addr)`` runs on the loop thread for every
    accepted connection, with the endpoint already non-blocking.
    Uniform across services: ``SO_REUSEADDR`` always set, backlog
    configurable (:data:`DEFAULT_BACKLOG` by default).
    """

    def __init__(
        self,
        reactor: Reactor,
        host: str,
        port: int,
        on_accept: Callable[[SocketEndpoint, tuple], None],
        backlog: int = DEFAULT_BACKLOG,
    ) -> None:
        self.reactor = reactor
        self.on_accept = on_accept
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
            sock.listen(backlog)
        except OSError:
            sock.close()
            raise
        sock.setblocking(False)
        self._sock = sock
        self.address: tuple[str, int] = sock.getsockname()
        self.accepted = 0
        self._closed = False
        # Selector registration must happen on the loop thread once the
        # loop is running; from elsewhere it hops through the wakeup
        # pipe so a parked select() notices the new fd.
        if reactor.in_loop_thread:
            reactor.register(sock, EVENT_READ, self._on_readable)
        else:
            reactor.call_soon_threadsafe(
                partial(reactor.register, sock, EVENT_READ, self._on_readable)
            )

    def _on_readable(self, mask: int) -> None:
        for _ in range(_ACCEPTS_PER_CALLBACK):
            try:
                conn, addr = self._sock.accept()  # adoclint: disable=ADOC115 -- listening socket is O_NONBLOCK (set in __init__): accept returns EAGAIN immediately, never blocks
            except BlockingIOError:
                return
            except OSError:
                return  # listener closed under us
            self.accepted += 1
            conn.setblocking(False)
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # non-TCP family: nothing to disable
            try:
                self.on_accept(SocketEndpoint(conn), addr)
            except Exception:  # noqa: BLE001 - one bad accept must not stop the rest
                _log.exception("accept handler failed for %s", addr)
                conn.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.reactor.in_loop_thread:
            self.reactor.unregister(self._sock)
        else:
            self.reactor.call_soon_threadsafe(
                partial(self.reactor.unregister, self._sock)
            )
        self._sock.close()


class ReactorServer:
    """A reactor thread + codec pool + listeners, torn down as one unit.

    Services (middleware RPC, gridftp, depot) compose this rather than
    owning threads: ``listen()`` binds a port and ``adopt()`` takes an
    already-connected endpoint, and both hand the endpoint to a channel
    factory on the loop thread; ``close()`` walks the whole structure
    down — listeners first (no new connections), then tracked channels,
    then splice pumps, the loop thread and the pool's workers, each join
    bounded through :func:`~repro.core.deadlines.reap_threads` so a
    wedged thread surfaces as a structured teardown error.

    Per peer host (accepted AF_INET/AF_INET6 connections only; adopted
    endpoints never share) the server keeps the
    :class:`~repro.core.divergence.ConnectionRecords` of the last
    :class:`~repro.serve.channel.AdocChannel`, at most :data:`MAX_PEERS`
    of them.  A new channel from that host adopts them while they are
    worth adopting (an emission window closed within the forbid window
    and the last message did not end raw), and its first message can
    start warm.  The table is loop-thread-confined and dropped by
    :meth:`close`.
    """

    def __init__(
        self,
        name: str = "server",
        config: AdocConfig = DEFAULT_CONFIG,
        telemetry: Telemetry | None = None,
        reactor: Reactor | None = None,
        pool: WorkerPool | None = None,
        workers: int | None = None,
        max_pending: int = 256,
    ) -> None:
        self.name = name
        self.config = config
        self.telemetry = telemetry if telemetry is not None else resolve_telemetry(config)
        self._own_reactor = reactor is None
        self.reactor = reactor if reactor is not None else Reactor(
            self.telemetry, name=name
        )
        self._own_pool = pool is None
        self.pool = pool if pool is not None else WorkerPool(
            workers=workers,
            max_pending=max_pending,
            telemetry=self.telemetry,
            name=f"{name}-codec",
        )
        self._listeners: list[Listener] = []
        self._channels: set = set()
        #: (pump threads, wrapped endpoint, its socket end) per splice.
        self._spliced: list[tuple[list[threading.Thread], Endpoint, Endpoint]] = []
        self._lock = threading.Lock()
        self._closed = False
        #: Peer host -> records, least recently connected first.
        self.peers: dict[str, ConnectionRecords] = {}
        if self._own_reactor:
            self.reactor.run_in_thread()

    # -- wiring ------------------------------------------------------------

    def listen(
        self,
        host: str,
        port: int,
        channel_factory: Callable[[SocketEndpoint, tuple], object],
        backlog: int = DEFAULT_BACKLOG,
    ) -> tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``.

        ``channel_factory(endpoint, addr)`` runs on the loop thread and
        returns an object with ``open()`` and ``close()`` (typically a
        :class:`~repro.serve.channel.PlainChannel` or ``AdocChannel``
        with its callbacks wired); the server tracks it for teardown and
        opens it.
        """

        def on_accept(endpoint: SocketEndpoint, addr: tuple) -> None:
            channel = channel_factory(endpoint, addr)
            if channel is None or not self.track(channel):
                endpoint.close()
                return
            host = _peer_host(endpoint, addr)
            if host is not None and isinstance(channel, AdocChannel):
                channel.adopt_records(self._peer_records(host, channel.records))
            channel.open()

        listener = Listener(self.reactor, host, port, on_accept, backlog)
        self._listeners.append(listener)
        return listener.address

    def adopt(
        self,
        endpoint: Endpoint,
        channel_factory: Callable[[Endpoint, tuple], object],
    ) -> None:
        """Serve one already-connected endpoint, exactly as ``listen()``
        serves an accepted one (``addr`` is ``()``).

        A socket-backed endpoint goes straight to the loop.  Any other
        (in-memory pipe, shaped link, a fault wrapper around either) is
        first bridged onto a socketpair by
        :func:`~repro.transport.socket_transport.splice`; its pump
        threads are reaped by ``close()``.  Returns once the loop has
        opened the channel; a factory failure is re-raised here.
        """
        wrapped, pumps = endpoint, []
        if not _selectable(endpoint):
            endpoint, pumps = splice(wrapped, name=f"{self.name}-splice")
        with self._lock:
            # Checked with the append, so a later close() reaps these pumps.
            closed = self._closed
            if pumps and not closed:
                alive = [e for e in self._spliced if any(t.is_alive() for t in e[0])]
                self._spliced = alive + [(pumps, wrapped, endpoint)]
        if closed:
            endpoint.close()
            reap_threads(pumps, [TransferError("server is closed")], wrapped.close)
            raise TransferError("server is closed", stage="accept")
        ready = threading.Event()
        failures: list[BaseException] = []

        def setup() -> None:
            try:
                channel = channel_factory(endpoint, ())
                if not self.track(channel):
                    raise TransferError("server is closed", stage="accept")
                channel.open()
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                failures.append(exc)
                endpoint.close()
            finally:
                ready.set()

        self.reactor.call_soon_threadsafe(setup)
        if not ready.wait(_ADOPT_TIMEOUT_S):
            endpoint.close()
            raise TransferError("reactor loop did not take the connection", stage="accept")
        if failures:
            raise failures[0]

    def _peer_records(self, host: str, own: ConnectionRecords) -> ConnectionRecords:
        """``host``'s records while worth adopting, else ``own``, which
        become its records."""
        known = self.peers.pop(host, None)
        adopt = known is not None and known.worth_adopting(time.monotonic())
        records = known if adopt else own
        self.peers[host] = records
        while len(self.peers) > MAX_PEERS:
            del self.peers[next(iter(self.peers))]
        return records

    def track(self, channel) -> bool:
        """Register a channel for teardown and the connections gauge;
        ``False`` (nothing registered) once the server is closed."""
        with self._lock:
            if self._closed:
                return False
            self._channels.add(channel)
        inner_close = channel.on_close

        def on_close(error: BaseException | None) -> None:
            with self._lock:
                self._channels.discard(channel)
            self._note_connections()
            inner_close(error)

        channel.on_close = on_close
        self._note_connections()
        return True

    def _note_connections(self) -> None:
        if self.telemetry.enabled:
            with self._lock:
                count = len(self._channels)
            self.telemetry.metrics.gauge(
                "adoc_server_connections",
                "channels currently tracked by a reactor server",
                ("server",),
            ).set(count, server=self.name)

    @property
    def connection_count(self) -> int:
        with self._lock:
            return len(self._channels)

    @property
    def addresses(self) -> list[tuple[str, int]]:
        return [lst.address for lst in self._listeners]

    # -- teardown ----------------------------------------------------------

    def close(self, join_timeout: float = 10.0) -> None:
        """Stop accepting, close channels, reap every thread (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for listener in self._listeners:
            listener.close()
        with self._lock:
            channels = list(self._channels)

        if channels:
            done = threading.Event()

            def close_all() -> None:
                for ch in channels:
                    try:
                        ch.close()
                    except Exception:  # noqa: BLE001 - keep closing the rest
                        _log.exception("channel close failed during teardown")
                done.set()

            self.reactor.call_soon_threadsafe(close_all)
            if not done.wait(join_timeout):
                raise TransferError(
                    f"reactor loop failed to close {len(channels)} channels "
                    f"within {join_timeout}s",
                    stage="teardown",
                )

        with self._lock:
            spliced, self._spliced = self._spliced, []
        if spliced:
            # Closing both ends frees a pump blocked on a peer that
            # stopped reading, or on a socket no channel took over.
            def close_links() -> None:
                for _, *ends in spliced:
                    for end in ends:
                        end.close()

            reap_threads(
                [t for pumps, *_ in spliced for t in pumps],
                [TransferError("server closing", stage="teardown")],
                cancel=close_links,
                join_timeout=join_timeout,
            )

        if self._own_reactor:
            self.reactor.stop()
            thread = self.reactor._thread
            if thread is not None:
                # Seeded error list = straight to the bounded join: a
                # loop wedged inside a callback surfaces as a teardown
                # error instead of hanging close() forever.
                reap_threads(
                    [thread],
                    [TransferError("server closing", stage="teardown")],
                    cancel=self.reactor.stop,
                    join_timeout=join_timeout,
                )
            self.reactor.close(join_timeout)
        if self._own_pool:
            # reap_threads coverage of the pool workers lives inside
            # WorkerPool.close.
            self.pool.close(join_timeout)
        self.peers.clear()