"""The GridRPC client.

``Client.call("dgemm", A, B)`` asks the agent for a server, opens the
data connection, marshals the request through the configured
communicator, and blocks for the result — a normal RPC, as the paper
describes.  Matrices are accepted/returned as numpy arrays; raw-bytes
calls are available via :meth:`Client.call_raw` for non-matrix services.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import Future
from dataclasses import dataclass
from threading import Thread

import numpy as np

from ..core.deadlines import Deadline, DeadlineExceeded, RetryPolicy
from ..data.matrices import decode_matrix_ascii, encode_matrix_ascii
from ..obs.telemetry import LATENCY_BUCKETS, active_telemetry
from ..obs.tracer import new_span_id, new_trace_id
from ..transport.base import TransportClosed, TransportTimeout
from .agent import Agent
from .communicator import Communicator, PlainCommunicator
from .protocol import (
    ConnectionLost,
    MsgType,
    RpcError,
    RpcMessage,
    arg_length,
    read_message,
    write_message,
)

#: Failures a fresh connection can plausibly fix.  A plain
#: :exc:`RpcError` (remote refusal, malformed traffic) is *not* here:
#: replaying the same request would fail the same way.
RETRYABLE_RPC_ERRORS = (
    ConnectionLost,
    TransportClosed,
    TransportTimeout,
    DeadlineExceeded,
    ConnectionError,
)

__all__ = ["Client", "CallResult"]

_log = logging.getLogger("repro.middleware.client")


@dataclass
class CallResult:
    """A completed RPC with its transfer accounting."""

    results: list[bytes]
    elapsed_s: float
    request_wire_bytes: int
    request_payload_bytes: int

    @property
    def compression_ratio(self) -> float:
        """Achieved request-path ratio (1.0 for the plain communicator)."""
        if self.request_wire_bytes == 0:
            return 1.0
        return self.request_payload_bytes / self.request_wire_bytes


class Client:
    """A NetSolve-style client bound to one agent.

    ``communicator_factory`` mirrors the server-side choice: pass
    :class:`~repro.middleware.communicator.AdocCommunicator` for the
    AdOC-enabled middleware.  Both sides must agree (the wire format
    differs), exactly as the paper rebuilt client and server together.
    """

    def __init__(
        self,
        agent: Agent,
        communicator_factory=PlainCommunicator,
        clock=time.monotonic,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.agent = agent
        self.communicator_factory = communicator_factory
        self.clock = clock
        self.retry = retry
        self._async_threads: list[Thread] = []

    def call_raw(
        self,
        service: str,
        args: list,
        deadline: Deadline | None = None,
    ) -> CallResult:
        """One RPC with pre-marshalled argument payloads.

        Arguments are bytes-like, or seekable file objects to stream a
        large payload without holding it in memory.

        With a :class:`~repro.core.deadlines.RetryPolicy` configured,
        connection-level failures (:data:`RETRYABLE_RPC_ERRORS`) are
        retried with exponential backoff over a *fresh* connection from
        the agent; seekable file arguments are rewound to their starting
        position before each attempt so a partially-streamed request is
        replayed from scratch.  Remote refusals are never retried.
        """
        # Capture starting offsets once: a failed attempt leaves file
        # cursors wherever the stream broke.
        rewinds = [
            (a, a.tell()) for a in args if hasattr(a, "seek") and hasattr(a, "tell")
        ]

        def attempt() -> CallResult:
            for f, pos in rewinds:
                f.seek(pos)
            return self._call_once(service, args)

        if self.retry is None:
            return attempt()

        def note_reconnect(attempt_no: int, exc: BaseException) -> None:
            # Each retry opens a fresh connection from the agent.
            _log.warning(
                "RPC %r attempt %d lost its connection (%s); reconnecting",
                service, attempt_no, type(exc).__name__,
            )
            tele = active_telemetry()
            if tele.enabled:
                tele.event(
                    "reconnect", "rpc_reconnect",
                    service=service, attempt=attempt_no,
                    error=type(exc).__name__,
                )
                tele.metrics.counter(
                    "adoc_reconnects_total",
                    "fresh connections opened after a failure",
                    ("component",),
                ).inc(component="rpc_client")

        return self.retry.run(
            attempt,
            retry_on=RETRYABLE_RPC_ERRORS,
            deadline=deadline,
            on_retry=note_reconnect,
        )

    def _call_once(self, service: str, args: list) -> CallResult:
        start = self.clock()
        tele = active_telemetry()
        trace_id: str | None = None
        span_id: str | None = None
        prev_trace: str | None = None
        if tele.enabled:
            # Propagate the thread's current trace (or start one) so the
            # server's events join this call in `adoc trace merge`.
            trace_id = tele.tracer.current_trace() or new_trace_id()
            span_id = new_span_id()
            prev_trace = tele.tracer.set_trace(trace_id)
            tele.event("rpc", service, side="client", span=span_id)
        endpoint = self.agent.connect(service)
        comm: Communicator = self.communicator_factory(endpoint)
        try:
            payload = sum(arg_length(a) for a in args)
            write_message(
                comm,
                RpcMessage(
                    MsgType.REQUEST,
                    service,
                    args,
                    trace_id=trace_id,
                    span_id=span_id,
                ),
            )
            wire = comm.bytes_written
            reply = read_message(comm)
            if reply is None:
                raise ConnectionLost("connection closed before a response arrived")
            if reply.type == MsgType.ERROR or reply.status != 0:
                detail = reply.args[0].decode("utf-8") if reply.args else "unknown"
                raise RpcError(f"remote {service!r} failed: {detail}")
            result = CallResult(reply.args, self.clock() - start, wire, payload)
            if tele.enabled:
                tele.metrics.histogram(
                    "adoc_rpc_latency_seconds",
                    "RPC handling / round-trip latency",
                    ("side", "service"),
                    buckets=LATENCY_BUCKETS,
                ).observe(result.elapsed_s, side="client", service=service)
            return result
        finally:
            if tele.enabled:
                tele.tracer.set_trace(prev_trace)
            comm.close()

    def call(self, service: str, *matrices: np.ndarray) -> np.ndarray:
        """One RPC over numpy matrices; returns the (single) result."""
        return self.call_timed(service, *matrices)[0]

    def call_timed(self, service: str, *matrices: np.ndarray) -> tuple[np.ndarray, CallResult]:
        """Like :meth:`call` but also returns the timing/accounting."""
        args = [encode_matrix_ascii(m) for m in matrices]
        result = self.call_raw(service, args)
        if len(result.results) != 1:
            raise RpcError(
                f"{service!r} returned {len(result.results)} payloads, expected 1"
            )
        return decode_matrix_ascii(result.results[0]), result

    def call_async(self, service: str, *matrices: np.ndarray) -> "Future[np.ndarray]":
        """Non-blocking request (NetSolve's ``netsolve_nb``).

        Returns a future resolving to the result matrix; several
        outstanding requests fan out across the agent's servers (each
        call opens its own data connection, so they genuinely overlap).
        """
        future: Future[np.ndarray] = Future()

        def run() -> None:
            try:
                future.set_result(self.call(service, *matrices))
            except BaseException as exc:  # noqa: BLE001 - delivered via future
                future.set_exception(exc)

        thread = Thread(target=run, name="netsolve-async", daemon=True)
        self._async_threads.append(thread)
        thread.start()
        return future

    def drain_async(self, timeout: float | None = 10.0) -> None:
        """Wait for every outstanding :meth:`call_async` worker.

        The futures deliver results; this reaps the threads behind
        them, so a client can be torn down without leaking workers.
        Threads still running after ``timeout`` are kept for the next
        drain rather than abandoned silently.
        """
        threads, self._async_threads = self._async_threads, []
        for thread in threads:
            thread.join(timeout)
            if thread.is_alive():
                self._async_threads.append(thread)
