"""The computational server: hosts services, answers GridRPC requests.

:class:`ReactorRpcServer` owns a service registry and serves any number
of connections, each a channel on one shared
:class:`~repro.serve.Reactor` rather than a thread (NetSolve forks per
request).  Request payloads are decoded/encoded on the shared codec
pool, and service execution itself is dispatched to the pool (keyed per
connection, so replies stay in request order).  Connections arrive
either from a TCP listener (:meth:`ReactorRpcServer.listen`) or from
the agent (:meth:`ReactorRpcServer.serve`), which may hand over an
in-memory or shaped link.

The server's ``mode`` is where "NetSolve" differs from "NetSolve +
AdOC" and nowhere else: ``"plain"`` speaks the raw protocol bytes,
``"adoc"`` the AdOC stream the clients'
:class:`~repro.middleware.communicator.AdocCommunicator` speaks.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from functools import partial

from ..analysis.lockgraph import make_lock
from ..core.config import AdocConfig, DEFAULT_CONFIG
from ..obs.telemetry import LATENCY_BUCKETS, Telemetry
from ..serve import PoolClosed, Reactor, ReactorServer, WorkerPool
from ..serve.server import DEFAULT_BACKLOG
from ..transport.base import Endpoint
from .communicator import reactor_channel
from .protocol import (
    MessageAssembler,
    MsgType,
    RpcError,
    RpcMessage,
    iter_message_segments,
)
from .services import ServiceRegistry, default_registry

__all__ = ["ReactorRpcServer", "ServerStats"]

#: Seconds between retries when the codec pool is saturated and a
#: connection has requests parked waiting for a slot.
_POOL_RETRY_S = 0.01


def _error_reply(
    name: str,
    detail: str,
    trace_id: str | None = None,
    span_id: str | None = None,
) -> RpcMessage:
    return RpcMessage(
        MsgType.ERROR,
        name,
        [detail.encode("utf-8")],
        status=1,
        trace_id=trace_id,
        span_id=span_id,
    )


@dataclass
class ServerStats:
    """Served-request accounting (read by the agent's load balancing)."""

    requests: int = 0
    errors: int = 0
    busy: int = 0
    lock: threading.Lock = field(
        default_factory=lambda: make_lock("ServerStats.lock"), repr=False
    )

    def begin(self) -> None:
        with self.lock:
            self.requests += 1
            self.busy += 1

    def end(self, failed: bool = False) -> None:
        with self.lock:
            self.busy -= 1
            if failed:
                self.errors += 1


class _RpcConnection:
    """One client on a :class:`ReactorRpcServer`: assembler + dispatch.

    Every method except :meth:`_job_done` runs on the loop thread.
    Requests parked while the codec pool is saturated stay in FIFO
    order (``_pending`` drains front-first and stops at the first
    refusal), so saturation delays replies but never reorders them.
    """

    def __init__(self, server: "ReactorRpcServer", channel) -> None:
        self.server = server
        self.channel = channel
        self.assembler = MessageAssembler(self._on_message)
        self._pending: deque[RpcMessage] = deque()
        self._retry_armed = False

    # -- inbound -----------------------------------------------------------

    def feed(self, data: bytes) -> None:
        try:
            self.assembler.feed(data)
        except RpcError as exc:
            # Malformed traffic: drop the connection without a reply,
            # since framing is no longer trustworthy.
            self.channel.close(exc)

    def _on_message(self, msg: RpcMessage) -> None:
        if msg.type != MsgType.REQUEST:
            self._send(_error_reply(msg.name, "expected a REQUEST"))
            return
        if self.server.dispatch == "inline":
            self._send(self.server._execute(msg))
            return
        self._pending.append(msg)
        self._pump()

    def _pump(self) -> None:
        pool = self.server.pool
        while self._pending:
            msg = self._pending[0]
            try:
                submitted = pool.try_submit(
                    self.server._execute,
                    msg,
                    key=(id(self.channel), "rpc"),
                    on_done=self._job_done,
                )
            except PoolClosed:
                self._pending.clear()
                return
            if not submitted:
                self._arm_retry()
                return
            self._pending.popleft()

    def _arm_retry(self) -> None:
        if self._retry_armed or self.channel.closed:
            return
        self._retry_armed = True
        self.channel.reactor.call_later(_POOL_RETRY_S, self._retry_fire)

    def _retry_fire(self) -> None:
        self._retry_armed = False
        if not self.channel.closed:
            self._pump()

    # -- outbound ----------------------------------------------------------

    def _job_done(self, reply: RpcMessage, error: BaseException | None) -> None:
        # Worker thread.  _execute never raises, but the pool may
        # deliver PoolClosed for jobs caught by a non-drain close.
        if error is not None:
            return
        self.channel.reactor.call_soon_threadsafe(partial(self._send, reply))

    def _send(self, msg: RpcMessage) -> None:
        if self.channel.closed:
            return
        try:
            if self.channel.mode == "plain":
                # Raw byte stream: segment boundaries don't exist on the
                # wire, so one coalesced send replaces three syscalls.
                self.channel.send_message(b"".join(iter_message_segments(msg)))
            else:
                # AdOC framing: each segment is its own message, so
                # large arguments compress independently while headers
                # ride the small-message fast path (see
                # iter_message_segments).
                for segment in iter_message_segments(msg):
                    self.channel.send_message(segment)
        except Exception as exc:  # noqa: BLE001 - connection is unusable
            self.channel.close(exc)


class ReactorRpcServer:
    """One computational host: one reactor, N clients.

    Connections are channels on a shared :class:`~repro.serve.Reactor`,
    and service execution runs on the shared
    :class:`~repro.serve.WorkerPool` (``dispatch="pool"``, keyed per
    connection so replies keep request order).  ``dispatch="inline"``
    runs services directly on the loop thread — only for sub-millisecond
    handlers like ``echo``, where a pool hop would dominate the cost.

    ``mode`` picks the framing: ``"plain"`` speaks raw NS bytes,
    ``"adoc"`` wraps them in AdOC compression exactly as
    :class:`~repro.middleware.communicator.AdocCommunicator` does.
    """

    def __init__(
        self,
        name: str,
        registry: ServiceRegistry | None = None,
        config: AdocConfig = DEFAULT_CONFIG,
        mode: str = "plain",
        dispatch: str = "pool",
        telemetry: Telemetry | None = None,
        reactor: Reactor | None = None,
        pool: WorkerPool | None = None,
        workers: int | None = None,
        max_pending: int = 256,
    ) -> None:
        if mode not in ("plain", "adoc"):
            raise ValueError(f"mode must be 'plain' or 'adoc', not {mode!r}")
        if dispatch not in ("pool", "inline"):
            raise ValueError(
                f"dispatch must be 'pool' or 'inline', not {dispatch!r}"
            )
        self.name = name
        self.registry = registry or default_registry()
        self.config = config
        self.mode = mode
        self.dispatch = dispatch
        self.stats = ServerStats()
        self._server = ReactorServer(
            name=name,
            config=config,
            telemetry=telemetry,
            reactor=reactor,
            pool=pool,
            workers=workers,
            max_pending=max_pending,
        )

    @property
    def reactor(self) -> Reactor:
        return self._server.reactor

    @property
    def pool(self) -> WorkerPool:
        return self._server.pool

    @property
    def connection_count(self) -> int:
        return self._server.connection_count

    def services(self) -> list[str]:
        return self.registry.names()

    def listen(
        self, host: str = "127.0.0.1", port: int = 0, backlog: int = DEFAULT_BACKLOG
    ) -> tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``."""
        return self._server.listen(host, port, self._make_channel, backlog)

    def serve(self, endpoint: Endpoint) -> None:
        """Serve one connected endpoint (what :class:`~repro.middleware.Agent`
        calls); any endpoint works, see
        :meth:`~repro.serve.ReactorServer.adopt`."""
        self._server.adopt(endpoint, self._make_channel)

    def _make_channel(self, endpoint, addr):
        channel = reactor_channel(
            self.mode,
            self._server.reactor,
            endpoint,
            self._server.pool,
            self.config,
            self._server.telemetry,
        )
        conn = _RpcConnection(self, channel)
        channel.on_data = conn.feed
        return channel

    def _execute(self, msg: RpcMessage) -> RpcMessage:
        """Run one request; always returns the reply (never raises).

        Runs on a pool worker under ``dispatch="pool"``, on the loop
        thread under ``dispatch="inline"``.  The caller writes the
        reply, so the recorded latency and outcome cover the service
        call only.
        """
        tele = self._server.telemetry
        self.stats.begin()
        failed = False
        t0 = time.monotonic()
        adopted = tele.enabled and msg.trace_id is not None
        if adopted:
            # Adopt the caller's trace for the duration of the request:
            # every event this thread records joins the caller's
            # timeline in `adoc trace merge`.
            prev_trace = tele.tracer.set_trace(msg.trace_id)
            tele.event("rpc", msg.name, side="server", span=msg.span_id)
        try:
            results = self.registry.lookup(msg.name)(msg.args)
            reply = RpcMessage(
                MsgType.RESPONSE,
                msg.name,
                results,
                status=0,
                trace_id=msg.trace_id,
                span_id=msg.span_id,
            )
        except Exception as exc:  # noqa: BLE001 - converted to RPC error
            failed = True
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            reply = _error_reply(msg.name, detail, msg.trace_id, msg.span_id)
        finally:
            if adopted:
                tele.tracer.set_trace(prev_trace)
            self.stats.end(failed)
            if tele.enabled:
                tele.metrics.histogram(
                    "adoc_rpc_latency_seconds",
                    "RPC handling / round-trip latency",
                    ("side", "service"),
                    buckets=LATENCY_BUCKETS,
                ).observe(time.monotonic() - t0, side="server", service=msg.name)
                tele.metrics.counter(
                    "adoc_rpc_requests_total",
                    "RPCs served, by outcome",
                    ("service", "status"),
                ).inc(service=msg.name, status="error" if failed else "ok")
        return reply

    def close(self, join_timeout: float = 10.0) -> None:
        """Tear down listeners, channels, loop thread, pool workers."""
        self._server.close(join_timeout)
