"""Readiness-driven AdOC channels: the engine's non-blocking mode.

The blocking engine (:mod:`repro.core.sender` / ``receiver``) spends
threads to wait; a channel spends none.  It registers one non-blocking
socket with a :class:`~repro.serve.reactor.Reactor` and moves bytes
only when the kernel says it can.  Both directions drive the planners
the blocking engine drives: reads go through the same
:class:`~repro.core.receiver.StreamingParser` and
:class:`~repro.core.receiver.ReceivePlanner`, writes drain framing built
by :func:`~repro.core.sender.raw_message_vectors` and the
:class:`~repro.core.planner.SendPlanner`.  So the two modes are
byte-compatible on the wire by construction, and account alike.

CPU-heavy codec work never runs on the loop thread: compression and
decompression are submitted to a :class:`~repro.serve.pool.WorkerPool`
keyed per channel direction, whose in-order FIFO reinsertion hands
completions back in submission order no matter which worker finishes
first.  Small messages skip the pool: they are framed raw inline.

What carries over from the blocking engine, per the mode matrix in
``docs/CONCURRENCY.md``: zero-copy emission, ``io_timeout_s`` deadlines
(a stall timer fails the channel when a frame or a write backlog stops
making progress), level adaptation with its guards, and telemetry on
both directions.  What does not: the 256 KB bandwidth probe (it needs
timed blocking sends; level selection reads the write backlog instead).

Thread model: every public method is **loop-thread-only** — callers on
other threads go through
:meth:`~repro.serve.reactor.Reactor.call_soon_threadsafe`.  All channel
state is loop-confined; the worker pool hands completions back via the
same door.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from functools import partial
from typing import Callable

from ..core.compressor import compress_buffer
from ..core.config import AdocConfig, DEFAULT_CONFIG
from ..core.deadlines import DeadlineExceeded, TransferError
from ..core.divergence import CodecRates, ConnectionRecords, DivergenceGuard
from ..core.fifo import QueuedPacket
from ..core.packets import ProtocolError, pack_message_header
from ..core.planner import BYPASS, EmissionWindows, SendPlanner, message_route
from ..core.receiver import ReceivePlanner, StreamingParser, decode_record
from ..core.sender import raw_message_vectors
from ..core.sources import BytesSource
from ..core.stats import ConnectionStats
from ..obs.telemetry import Telemetry, resolve_telemetry
from ..transport.base import Endpoint, TransportClosed
from .pool import PoolClosed, WorkerPool
from .reactor import EVENT_READ, EVENT_WRITE, Reactor

__all__ = ["NonBlockingEndpoint", "PlainChannel", "AdocChannel"]

_log = logging.getLogger("repro.serve.channel")

#: Read size per ``recv`` — same rationale as the blocking receiver.
_CHUNK = 64 * 1024
#: recv() calls per readiness callback before yielding to other fds.
_READS_PER_CALLBACK = 4
#: Buffers coalesced into one vectored send while draining.
_MAX_VECTORS = 64
#: Write backlog (bytes) above which the channel stops reading.
_TX_HIGH_WATER = 4 * 1024 * 1024
#: Unreleased inbound records above which the channel stops reading.
_RX_HIGH_WATER = 1024
#: Retry interval while the worker pool is refusing submissions.
_POOL_RETRY_S = 0.01


class NonBlockingEndpoint:
    """An :class:`~repro.transport.base.Endpoint` in non-blocking mode.

    Translates would-block into values a callback can act on —
    ``try_recv`` returns ``None``, the send surface returns ``0`` —
    instead of an exception or a parked thread.  The wrapped endpoint
    must expose ``fileno()`` and ``setblocking()``
    (:class:`~repro.transport.socket_transport.SocketEndpoint` and
    :class:`~repro.transport.faults.FaultyEndpoint` both do).
    """

    def __init__(self, endpoint: Endpoint) -> None:
        setblocking = getattr(endpoint, "setblocking", None)
        if setblocking is None or not hasattr(endpoint, "fileno"):
            raise TypeError(
                f"{type(endpoint).__name__} cannot go non-blocking "
                "(needs setblocking() and fileno())"
            )
        setblocking(False)
        self.endpoint = endpoint
        self._vectored = hasattr(endpoint, "send_vectors")

    def fileno(self) -> int:
        return self.endpoint.fileno()  # type: ignore[attr-defined]

    def try_recv(self, n: int) -> bytes | None:
        """Up to ``n`` bytes; ``None`` on would-block, ``b""`` at EOF."""
        try:
            return self.endpoint.recv(n)  # adoclint: disable=ADOC111,ADOC115 -- endpoint is O_NONBLOCK (set in __init__): recv returns EAGAIN immediately, never blocks
        except BlockingIOError:
            return None

    def try_send(self, data) -> int:
        """Bytes accepted; ``0`` on would-block."""
        try:
            return self.endpoint.send(data)  # adoclint: disable=ADOC111,ADOC115 -- endpoint is O_NONBLOCK (set in __init__): send returns EAGAIN immediately, never blocks
        except BlockingIOError:
            return 0

    def try_send_vectors(self, buffers: list) -> int:
        """Bytes accepted from a scatter list; ``0`` on would-block."""
        if not self._vectored:
            return self.try_send(buffers[0])
        try:
            return self.endpoint.send_vectors(buffers)  # type: ignore[attr-defined]  # adoclint: disable=ADOC111,ADOC115 -- endpoint is O_NONBLOCK (set in __init__): sendmsg returns EAGAIN immediately, never blocks
        except BlockingIOError:
            return 0

    def close(self) -> None:
        self.endpoint.close()


class _ChannelBase:
    """Interest management, write backlog, stall timer — mode-agnostic.

    Subclasses implement ``_feed(data)`` (bytes arrived) and
    ``_on_eof()`` (peer shut its write side).
    """

    mode = "plain"

    def __init__(
        self,
        reactor: Reactor,
        endpoint: Endpoint | NonBlockingEndpoint,
        config: AdocConfig = DEFAULT_CONFIG,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.reactor = reactor
        self.config = config
        self._tele = telemetry if telemetry is not None else resolve_telemetry(config)
        if not isinstance(endpoint, NonBlockingEndpoint):
            endpoint = NonBlockingEndpoint(endpoint)
        self._nb = endpoint
        #: Bytes arriving from the wire, decoded: ``on_data(bytes)``.
        self.on_data: Callable[[bytes], None] = lambda data: None
        #: Channel finished: ``on_close(error_or_None)``, exactly once.
        self.on_close: Callable[[BaseException | None], None] = lambda exc: None
        self._wq: deque[bytes | memoryview] = deque()
        self._woff = 0  # bytes of _wq[0] already sent
        self._pending_tx = 0  # bytes in _wq not yet accepted by the kernel
        self._rx_paused = False
        self._events = 0
        self._closed = False
        self._open = False
        self._last_progress = time.monotonic()
        self._stall_timer = None
        self.bytes_in = 0
        self.bytes_out = 0

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        """Register with the reactor and start the stall timer."""
        if self._open or self._closed:
            return
        self._open = True
        self._update_interest()
        if self.config.io_timeout_s is not None:
            self._arm_stall_timer()

    def close(self, error: BaseException | None = None) -> None:
        """Tear the channel down (idempotent); fires ``on_close`` once."""
        if self._closed:
            return
        self._closed = True
        if self._stall_timer is not None:
            self._stall_timer.cancel()
            self._stall_timer = None
        if self._events:
            self.reactor.unregister(self._nb)
            self._events = 0
        self._nb.close()
        self._wq.clear()
        self._pending_tx = 0
        try:
            self.on_close(error)
        except Exception:  # noqa: BLE001 - a close hook must not cascade
            _log.exception("channel on_close hook failed")

    def _fail(self, error: BaseException) -> None:
        _log.warning("channel failed: %s", error)
        self.close(error)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- interest ----------------------------------------------------------

    def _update_interest(self) -> None:
        if self._closed or not self._open:
            return
        events = 0
        if not self._rx_paused:
            events |= EVENT_READ
        if self._wq:
            events |= EVENT_WRITE
        if events == self._events:
            return
        if self._events == 0:
            self.reactor.register(self._nb, events, self._on_ready)
        elif events == 0:
            self.reactor.unregister(self._nb)
        else:
            self.reactor.modify(self._nb, events, self._on_ready)
        self._events = events

    def _pause_reading(self) -> None:
        if not self._rx_paused:
            self._rx_paused = True
            self._update_interest()

    def _resume_reading(self) -> None:
        if self._rx_paused:
            self._rx_paused = False
            self._update_interest()

    # -- readiness ---------------------------------------------------------

    def _on_ready(self, mask: int) -> None:
        if self._closed:
            return
        if mask & EVENT_WRITE:
            self._drain()
        if self._closed or not mask & EVENT_READ:
            return
        for _ in range(_READS_PER_CALLBACK):
            try:
                data = self._nb.try_recv(_CHUNK)
            except TransportClosed:
                data = b""
            if data is None:
                break
            if not data:
                self._on_eof()
                return
            self.bytes_in += len(data)
            self._last_progress = time.monotonic()
            try:
                self._feed(data)
            except (ProtocolError, TransportClosed, TransferError) as exc:
                self._fail(exc)
                return
            if self._closed or self._rx_paused:
                break

    def _feed(self, data: bytes) -> None:
        raise NotImplementedError

    def _on_eof(self) -> None:
        raise NotImplementedError

    # -- the write backlog -------------------------------------------------

    def _enqueue(self, vectors: list) -> None:
        """Append wire buffers and push them as far as the kernel allows."""
        self._append(vectors)
        self._flush()

    def _append(self, vectors: list) -> None:
        """Add wire buffers to the write backlog without sending any."""
        if self._closed:
            return
        for v in vectors:
            if len(v):
                self._wq.append(v)
                self._pending_tx += len(v)

    def _flush(self) -> None:
        """Push the backlog as far as the kernel allows."""
        if self._closed:
            return
        self._drain()
        self._update_interest()
        if self._pending_tx > _TX_HIGH_WATER:
            self._pause_reading()

    def _drain(self) -> None:
        nb = self._nb
        while self._wq:
            vectors: list = []
            woff = self._woff
            for buf in self._wq:
                view = memoryview(buf)[woff:] if woff else buf
                woff = 0
                if len(view):
                    vectors.append(view)
                    if len(vectors) >= _MAX_VECTORS:
                        break
            try:
                sent = nb.try_send_vectors(vectors)
            except TransportClosed as exc:
                self._fail(exc)
                return
            if sent == 0:
                break  # kernel buffer full: wait for EVENT_WRITE
            self._account_tx(sent)
            while self._wq and sent >= 0:
                head_left = len(self._wq[0]) - self._woff
                if sent >= head_left:
                    sent -= head_left
                    self._wq.popleft()
                    self._woff = 0
                    if not self._wq:
                        break
                else:
                    self._woff += sent
                    break
        if not self._wq and self._rx_paused and self._may_resume():
            self._resume_reading()
        self._update_interest()

    def _account_tx(self, sent: int) -> None:
        self.bytes_out += sent
        self._pending_tx -= sent
        self._last_progress = time.monotonic()

    def _may_resume(self) -> bool:
        """Subclass hook: is it safe to read again after backpressure?"""
        return self._pending_tx <= _TX_HIGH_WATER

    # -- stall detection ---------------------------------------------------

    def _arm_stall_timer(self) -> None:
        interval = max(self.config.io_timeout_s / 2.0, 0.01)
        self._stall_timer = self.reactor.call_later(interval, self._check_stall)

    def _check_stall(self) -> None:
        if self._closed:
            return
        timeout = self.config.io_timeout_s
        stalled = time.monotonic() - self._last_progress
        if stalled > timeout and self._mid_transfer():
            self._fail(
                DeadlineExceeded(
                    f"channel stalled mid-transfer past {timeout}s",
                    stage="channel",
                )
            )
            return
        self._arm_stall_timer()

    def _mid_transfer(self) -> bool:
        """Idle is legal; a stall only counts with work outstanding."""
        return bool(self._wq)


class PlainChannel(_ChannelBase):
    """Raw bytes, no framing: the reactor analog of PlainCommunicator."""

    mode = "plain"

    def send_message(self, data: bytes | bytearray | memoryview) -> None:
        """Queue ``data`` verbatim (loop thread only)."""
        self._enqueue([data])

    def _feed(self, data: bytes) -> None:
        self.on_data(data)

    def _on_eof(self) -> None:
        self.close()


class AdocChannel(_ChannelBase):
    """AdOC framing over a non-blocking socket, codec work pooled.

    One ``send_message`` call is one message on the wire, exactly as one
    ``adoc_write`` is in the blocking engine.  Messages the shared
    ladder (:func:`~repro.core.planner.message_route`) bypasses are
    framed raw inline; the channel has no probe, so every other message
    is cut into ``buffer_size`` buffers and driven through a
    :class:`~repro.core.planner.SendPlanner` — the same
    Figure-2 decisions, slow-start window and codec-failure rule as the
    blocking dispatcher — with the codec jobs on the worker pool and
    their packets enqueued in buffer order (the pool's per-key FIFO
    reinsertion plus the reactor's ordered cross-thread queue make that
    order-safe even with every worker busy).  The planner's queue
    reading is the write backlog in packets.  Inbound records go through
    a :class:`~repro.core.receiver.ReceivePlanner` the same way.

    The channel's :class:`~repro.core.divergence.ConnectionRecords` are
    its own unless :meth:`adopt_records` hands it a peer's before the
    first message (a :class:`~repro.serve.server.ReactorServer` does, per
    peer host).
    """

    mode = "adoc"

    def __init__(
        self,
        reactor: Reactor,
        endpoint: Endpoint | NonBlockingEndpoint,
        pool: WorkerPool,
        config: AdocConfig = DEFAULT_CONFIG,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(reactor, endpoint, config, telemetry)
        self.pool = pool
        self._parser = StreamingParser()
        #: Called at each inbound message boundary.
        self.on_message_end: Callable[[], None] | None = None
        #: Receive accounting, folded in by the receive planner.
        self.stats = ConnectionStats(self._tele)
        self._rx = ReceivePlanner(self.stats, self._tele)
        # Decode jobs not yet on the pool (it refused one), in order.
        self._rx_parked: deque[tuple[int, bytes, int]] = deque()
        self._retry_timer = None
        # Send side: one message at a time through the planner; later
        # messages park until its packets are all enqueued.
        self._tx_msgq: deque[bytes | bytearray | memoryview] = deque()
        self._plan: SendPlanner | None = None
        self._tx_source: BytesSource | None = None  # None once read out
        self._tx_next: tuple[memoryview, int] | None = None  # pool refused
        # Records persisting across messages; the divergence records are
        # fed as packets reach the kernel: (wire offset, packet) marks.
        self.adopt_records(ConnectionRecords(config.divergence_forbid_s))
        self._marks: deque[tuple[int, QueuedPacket]] = deque()
        self.messages_in = 0
        self.messages_out = 0

    # -- send --------------------------------------------------------------

    def adopt_records(self, records: ConnectionRecords) -> None:
        """Learn and decide from ``records`` (before the first message)."""
        self.records = records
        self._windows = EmissionWindows(records.divergence)

    @property
    def divergence(self) -> DivergenceGuard:
        return self.records.divergence

    @property
    def codec_rates(self) -> CodecRates:
        return self.records.codec_rates

    def send_message(self, data: bytes | bytearray | memoryview) -> None:
        """Queue one AdOC message (loop thread only)."""
        if self._closed:
            return
        self._tx_msgq.append(data)
        self._next_message()

    def _next_message(self) -> None:
        cfg = self.config
        while self._plan is None and self._tx_msgq:
            data = self._tx_msgq.popleft()
            total = len(data)
            self.messages_out += 1
            if message_route(total, cfg) == BYPASS:
                self._enqueue(raw_message_vectors(data))
                continue
            self._enqueue([pack_message_header(total, length_known=True)])
            self._plan = SendPlanner(
                cfg, self.divergence, self._tele, self.pool.workers,
                records=self.records,
            )
            self._tx_source = BytesSource(data)
            self._windows.open(time.monotonic())
            self._pump_tx()

    def _queued_packets(self) -> int:
        """The Figure-2 queue reading: the write backlog in packets."""
        return -(-self._pending_tx // self.config.packet_size)

    def _pump_tx(self) -> None:
        """Decide and submit buffers while the planner's window has room."""
        plan = self._plan
        if plan is None or self._closed:
            return
        while self._tx_source is not None and plan.can_submit():
            if self._tx_next is None:
                # Decide, then read: the paper's loop shape.
                level = plan.decide(self._queued_packets(), time.monotonic())
                buf = self._tx_source.read(self.config.buffer_size)
                if not len(buf):
                    self._tx_source = None
                    break
                self._tx_next = (buf, level)
            buf, level = self._tx_next
            try:
                accepted = self.pool.try_submit(
                    compress_buffer, buf, level, plan.guard, self.config,
                    key=(id(self), "tx"),
                    on_done=self._tx_job_done,
                )
            except PoolClosed as exc:
                self._fail(exc)
                return
            if not accepted:
                self._arm_retry()
                return
            plan.submit(buf, level)
            self._tx_next = None
        if self._tx_source is None and not plan.inflight:
            self._plan = None
            if not self._pending_tx:
                self._windows.close(time.monotonic())
            self._next_message()

    def _tx_job_done(self, outcome, error) -> None:
        # Worker thread: hop to the loop.  The pool delivers per-key
        # completions in submission order and call_soon_threadsafe is
        # FIFO, so buffer order survives the round trip.
        self.reactor.call_soon_threadsafe(partial(self._tx_enqueue_packets, outcome, error))

    def _tx_enqueue_packets(self, outcome, error) -> None:
        if self._closed or self._plan is None:
            return
        offset = self.bytes_out + self._pending_tx
        vectors: list[bytes | memoryview] = []
        for pkt in self._plan.complete(outcome, error):
            self._marks.append((offset, pkt))
            offset += pkt.wire_length
            vectors += (pkt.prefix, pkt.payload)
        # Put, decide, then drain — the blocking dispatcher's order: the
        # next decisions must see these packets in the backlog, not an
        # empty one the kernel has just swallowed.
        self._append(vectors)
        self._pump_tx()
        self._flush()

    def _account_tx(self, sent: int) -> None:
        super()._account_tx(sent)
        # A packet leaves once the kernel took its first byte; windows
        # close as in the blocking emission loop.
        now = time.monotonic()
        while self._marks and self._marks[0][0] < self.bytes_out:
            self._windows.leaving(self._marks.popleft()[1], now)
        if not self._pending_tx and self._plan is None:
            self._windows.close(now)

    # -- receive -----------------------------------------------------------

    def _feed(self, data: bytes) -> None:
        jobs = map(self._rx.accept, self._parser.feed(data))
        self._rx_parked.extend(job for job in jobs if job is not None)
        self.messages_in = self._parser.messages
        self._submit_parked()
        self._deliver()  # raw records go out inline when nothing is pending
        if self._rx.pending > _RX_HIGH_WATER:
            self._pause_reading()

    def _submit_parked(self) -> None:
        """Hand decode jobs to the pool in order until it refuses one."""
        while self._rx_parked:
            try:
                accepted = self.pool.try_submit(
                    decode_record, *self._rx_parked[0],
                    key=(id(self), "rx"),
                    on_done=self._rx_job_done,
                )
            except PoolClosed as exc:
                self._fail(exc)
                return
            if not accepted:
                self._pause_reading()
                self._arm_retry()
                return
            self._rx_parked.popleft()

    def _rx_job_done(self, outcome, error) -> None:
        # Worker thread: hop to the loop, in record order as on send.
        self.reactor.call_soon_threadsafe(partial(self._rx_complete, outcome, error))

    def _rx_complete(self, outcome, error) -> None:
        if self._closed:
            return
        try:
            self._rx.complete(outcome, error)
        except TransferError as exc:
            self._fail(exc)
            return
        self._deliver()
        if self._rx_paused and self._may_resume():
            self._resume_reading()

    def _deliver(self) -> None:
        for chunk in self._rx.release():
            if chunk is not None:
                self.on_data(chunk)
            elif self.on_message_end is not None:
                self.on_message_end()

    def _arm_retry(self) -> None:
        if self._retry_timer is None and not self._closed:
            self._retry_timer = self.reactor.call_later(_POOL_RETRY_S, self._retry_pool)

    def _retry_pool(self) -> None:
        self._retry_timer = None
        if self._closed:
            return
        self._submit_parked()
        self._pump_tx()
        if self._rx_parked or self._tx_next is not None:
            self._arm_retry()
        elif self._rx_paused and self._may_resume():
            self._resume_reading()

    def _may_resume(self) -> bool:
        rx_drained = not self._rx_parked and self._rx.pending <= _RX_HIGH_WATER
        return rx_drained and super()._may_resume()

    def _on_eof(self) -> None:
        if self._rx.pending or self._plan is not None or self._wq:
            # Let in-flight decodes/writes finish before reporting EOF
            # (or a truncated frame), as the blocking receiver does; the
            # socket stays readable at EOF, so stop polling it meanwhile.
            self._pause_reading()
            self.reactor.call_later(_POOL_RETRY_S, self._on_eof)
            return
        try:
            self._parser.feed_eof()
        except TransportClosed as exc:
            self._fail(exc)
            return
        self.close()

    def _mid_transfer(self) -> bool:
        return bool(self._wq) or self._parser.mid_message