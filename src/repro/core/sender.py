"""The AdOC emission pipeline: compression thread + emission thread.

This is the sending half of Figure 1 of the paper.  One ``adoc_write``
(or ``adoc_send_file``) call maps to one *message* on the wire.  Its
section-5 ladder, framing and ledger are one
:class:`~repro.core.planner.MessageSend`, shared by every send driver;
this module is its blocking I/O:

1. **Small messages** (< 512 KB, compression not forced) are written
   raw, inline, without starting any thread — latency equals plain
   write.  So is everything when compression is disabled.
2. **Bandwidth probe**: the first 256 KB of a large message is sent raw
   while being timed; if the link reads faster than 500 Mbit/s the rest
   is sent raw too.  A connection probes once per forbid window.  The
   compression thread starts before a probe goes out and waits at a
   :class:`_ProbeGate`: once the probe has been on the wire longer than
   a very fast link would take (``probe_size * 8 / fast_network_bps``,
   about 4 ms) the route cannot be the fast path, so it decides buffer
   0 with the probe read as the queue and compresses it while the
   probe drains.
3. **Adaptive pipeline**: the compression thread is a dispatcher over
   the message's :class:`~repro.core.planner.SendPlanner`, which decides
   each 200 KB buffer's level (Figure 2 + divergence guard +
   incompressible guard) and keeps a window of buffers in flight.  By
   default the codec jobs run on the process-wide shared codec pool
   (``AdocConfig.compress_workers``), their completions drained in
   submission order into the FIFO queue of framed 8 KB packets;
   ``compress_workers=0``, short messages and a pool closed mid-message
   run a window of one synchronously, the paper's original compression
   thread.  The emission loop (in the calling thread) drains the queue
   into the socket and feeds per-level visible bandwidth back to the
   divergence guard.

Forcing compression (``min_level > 0``) skips steps 1 and 2 — that is
what the paper's Table 2 "AdOC with forced compression" column
measures: the full thread/queue/mutex start-up cost on a tiny message.

Every entry point feeds one streaming engine (:meth:`_send_source`)
through a :class:`~repro.core.sources.ChunkSource`: in-memory payloads
become zero-copy ``memoryview`` slices, seekable files stream in
``buffer_size`` chunks under a known-length header, and pipes stream as
END-terminated unknown-length messages.  Peak resident payload is
O(buffer_size) regardless of message size, and the hot path never
copies payload bytes: record headers ride as packet *prefixes* and the
emission loop coalesces queued packets into vectored sends
(:func:`~repro.transport.base.sendall_vectors`).

A queued packet is ``prefix + payload``: up to ``packet_size`` payload
bytes, plus the 9-byte record header as the prefix of a record's first
packet.  The header never displaces payload, so the queue length that
Figure 2 reads counts a record's packets by its payload alone.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Callable, Iterable

from ..analysis.lockgraph import make_condition, make_lock
from ..obs.telemetry import Telemetry, resolve_telemetry
from ..transport.base import Endpoint, TransportTimeout, sendall, sendall_vectors
from .compressor import compress_buffer
from .config import AdocConfig, DEFAULT_CONFIG
from .deadlines import DeadlineExceeded, TransferError
from .divergence import CodecRates, ConnectionRecords, DivergenceGuard
from .fifo import PacketQueue, QueueClosed, QueuedPacket
from .packets import Record
from .planner import BYPASS, FAST_PATH, PIPELINE, PROBE, EmissionWindows, MessageSend
from .planner import SendResult
from .sources import BytesSource, ChunkSource, source_for_stream
from .stats import ConnectionStats

__all__ = [
    "SendResult",
    "MessageSender",
]

#: Upper bound on packets coalesced into one vectored send.  Each
#: packet contributes at most two vectors (prefix + payload), so a
#: batch stays well under the transport's IOV_MAX while still amortising
#: the per-send cost across a full queue burst.
_MAX_BATCH = 64

#: A known-length message shorter than this many buffers compresses
#: with a window of one even when pooling is enabled: with fewer
#: buffers than a worker window there is nothing to overlap, and the
#: pool's hand-off latency would only distort the adaptation signal.
_MIN_POOLED_BUFFERS = 4


class _CompletionFIFO:
    """Hand-off of in-order codec completions to the dispatcher thread.

    Pushers are pool workers — or the dispatcher itself, running a job
    synchronously — and must never block (a slow connection must not
    stall the shared pool), so the queue is unbounded: its depth is
    implicitly capped by the planner's in-flight window.
    The popping dispatcher bounds its wait with ``timeout``; the lock is
    a leaf (no other lock is ever acquired while it is held).
    """

    def __init__(self) -> None:
        self._lock = make_lock("sender.completions.lock")
        self._ready = make_condition(self._lock, "sender.completions.ready")
        self._items: deque[tuple] = deque()

    def push(self, item: tuple) -> None:
        with self._lock:
            self._items.append(item)
            self._ready.notify()

    def pop(self, timeout: float | None) -> tuple:
        give_up = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not self._items:
                if give_up is None:
                    self._ready.wait()
                else:
                    remaining = give_up - time.monotonic()
                    if remaining <= 0:
                        raise DeadlineExceeded(
                            "pooled compression result overdue",
                            stage="compress",
                        )
                    self._ready.wait(remaining)
            return self._items.popleft()

    def drain(self, count: int, timeout: float) -> None:
        """Discard up to ``count`` completions, bounded by ``timeout``.

        Failure-path helper: waits for in-flight jobs so the borrowed
        buffers their closures hold are released before the send call
        unwinds.  Gives up quietly at the deadline — the jobs run on
        daemon threads and the process is tearing the message down
        anyway.
        """
        give_up = time.monotonic() + timeout
        for _ in range(count):
            remaining = give_up - time.monotonic()
            if remaining <= 0:
                return
            try:
                self.pop(remaining)
            except DeadlineExceeded:
                return


class _ProbeGate:
    """Hand-off that lets a message compress while its probe is on the wire.

    The caller arms the gate as the probe goes out, reports each send
    call that moved probe bytes (:meth:`moved`) and settles the gate
    with the probe's route (:data:`FAST_PATH` or :data:`PIPELINE`;
    ``None`` when the probe's send failed), on every exit from the probe.
    The dispatcher waits for whichever comes first, the route or
    ``hold_s`` of probe on the wire — longer than a very fast link takes
    for it, so the route can no longer be the fast path — and only in
    the second case claims the gate (:meth:`claim`) and starts a codec
    job.  A probe settled within ``hold_s`` starts none.  The
    dispatcher's waits on the probe end when ``timeout`` passes with no
    probe bytes moved, as each blocking send of the probe is bounded by
    it; the caller's wait for the claimed decision is bounded by
    ``timeout``.  The lock is a leaf (no other lock is ever acquired
    while it is held).
    """

    def __init__(self, hold_s: float) -> None:
        self._hold_s = hold_s
        self._lock = make_lock("sender.gate.lock")
        self._changed = make_condition(self._lock, "sender.gate.changed")
        self._opens_at: float | None = None
        self._sends = 0
        self._settled = False
        self._route: str | None = None
        self._claimed = False
        self._decided = False
        self._level: int | None = None

    def arm(self) -> None:
        """Caller: the probe is going out now."""
        with self._lock:
            self._opens_at = time.monotonic() + self._hold_s
            self._changed.notify_all()

    def moved(self) -> None:
        """Caller: one send call of the probe moved bytes."""
        with self._lock:
            self._sends += 1

    def settle(self, route: str | None) -> None:
        """Caller: the probe is timed (or failed, ``route=None``)."""
        with self._lock:
            self._settled = True
            self._route = route
            self._changed.notify_all()

    def overlap_level(self, timeout: float | None) -> int | None:
        """Caller: the level the dispatcher chose during the probe, if it did."""
        with self._lock:
            self._wait(lambda: not self._claimed or self._decided, timeout, False)
            return self._level

    def claim(self, timeout: float | None) -> bool:
        """Dispatcher: whether the probe outlasted the hold unsettled."""
        with self._lock:
            self._wait(lambda: self._settled or self._opens_at is not None, timeout, True)
            while not self._settled:
                remaining = self._opens_at - time.monotonic()
                if remaining <= 0:
                    self._claimed = True
                    return True
                self._changed.wait(remaining)
            return False

    def decided(self, level: int | None) -> None:
        """Dispatcher: the claimed decision (``None``: it raised)."""
        with self._lock:
            self._level = level
            self._decided = True
            self._changed.notify_all()

    def route(self, timeout: float | None) -> str | None:
        """Dispatcher: wait for the caller's :meth:`settle`."""
        with self._lock:
            self._wait(lambda: self._settled, timeout, True)
            return self._route

    def _wait(self, ready: Callable[[], bool], timeout: float | None, on_probe: bool) -> None:
        """Wait for ``ready``; with ``on_probe``, ``timeout`` restarts while the probe moves."""
        give_up = None if timeout is None else time.monotonic() + timeout
        sends = self._sends
        while not ready():
            if give_up is None:
                self._changed.wait()
                continue
            now = time.monotonic()
            if now >= give_up:
                if not on_probe or self._sends == sends:
                    raise DeadlineExceeded("probe hand-off overdue", stage="send")
                sends = self._sends
                give_up = now + timeout
            self._changed.wait(give_up - now)


@dataclass
class _Pipeline:
    """One message's compression thread and the queue it fills."""

    queue: PacketQueue
    gate: _ProbeGate | None
    thread: threading.Thread | None = None
    error: list[BaseException] = field(default_factory=list)


class MessageSender:
    """Sends messages over one endpoint with AdOC semantics.

    One instance per connection: its
    :class:`~repro.core.divergence.ConnectionRecords` — the divergence
    guard's per-level bandwidth records, the codec's per-level encode
    rates, the last level and the last probe — persist across messages,
    as the C library's per-descriptor state does.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        config: AdocConfig = DEFAULT_CONFIG,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.endpoint = endpoint
        self.config = config
        self.clock = clock
        self.records = ConnectionRecords(config.divergence_forbid_s)
        self.telemetry: Telemetry = resolve_telemetry(config)
        self.stats = ConnectionStats(self.telemetry)
        if self.telemetry.enabled:
            self.telemetry.register_connection("send", self)

    @property
    def divergence(self) -> DivergenceGuard:
        return self.records.divergence

    @property
    def codec_rates(self) -> CodecRates:
        return self.records.codec_rates

    # -- public entry points -------------------------------------------------

    def send(self, data: bytes | bytearray | memoryview, config: AdocConfig | None = None) -> SendResult:
        """Send one in-memory message; blocks until fully emitted.

        The buffer is *borrowed*, never copied: it must stay unchanged
        until the call returns (the same contract as ``writev``).
        """
        return self._send_source(BytesSource(data), config or self.config)

    def send_stream(self, stream: BinaryIO, config: AdocConfig | None = None) -> SendResult:
        """Send a file object, streaming it in ``buffer_size`` chunks.

        Seekable streams get a known-length message (and the small/probe
        fast paths); pipes fall back to an END-terminated message
        through the adaptive pipeline.  Either way only one chunk of the
        stream is resident at a time.
        """
        return self._send_source(source_for_stream(stream), config or self.config)

    # -- the streaming engine ------------------------------------------------

    def _send_source(self, source: ChunkSource, cfg: AdocConfig) -> SendResult:
        """One message from any source, folded into :attr:`stats`.

        When ``cfg.io_timeout_s`` is set, every blocking step — raw
        sends, the probe, queue hand-offs, the emission loop — is
        bounded, and a stalled transport surfaces as
        :exc:`~repro.core.deadlines.DeadlineExceeded` (a structured
        ``TransferError``) instead of a thread parked forever.
        """
        if cfg.io_timeout_s is not None and hasattr(self.endpoint, "settimeout"):
            self.endpoint.settimeout(cfg.io_timeout_s)
        try:
            result = self._send_source_impl(source, cfg)
        except TransportTimeout as exc:
            raise DeadlineExceeded(
                f"send stalled past {cfg.io_timeout_s}s: {exc}", stage="send"
            ) from exc
        self.stats.record_send(result)
        return result

    def _send_source_impl(self, source: ChunkSource, cfg: AdocConfig) -> SendResult:
        """The unified decision ladder, one :class:`MessageSend` per message."""
        start = self.clock()
        msg = MessageSend(source, cfg, resolve_telemetry(cfg), self.records)
        if msg.route == BYPASS:
            # Inline, without starting any thread.
            for vectors in msg.bypass():
                sendall_vectors(self.endpoint, vectors)
            return msg.result(self.clock() - start)

        sendall(self.endpoint, msg.header())
        pipe: _Pipeline | None = None
        if msg.route == PROBE:
            probe = msg.probe(self.clock())
            if probe is not None:
                pipe = self._probe(msg, probe, cfg)
        if msg.route == FAST_PATH:
            # Very fast network: ship the rest raw, starting with a
            # buffer the dispatcher read in a race at the gate.
            if pipe is not None:
                self._join_pipeline(pipe, cfg)
            self._send_records(msg.raw_records())
            return msg.result(self.clock() - start)

        self._finish_pipeline(pipe or self._start_pipeline(msg, cfg), cfg)
        sendall_vectors(self.endpoint, msg.end())
        return msg.result(self.clock() - start)

    # -- the probe -----------------------------------------------------------

    def _probe(
        self, msg: MessageSend, probe: list[Record], cfg: AdocConfig
    ) -> _Pipeline | None:
        """Send the probe's records raw, timing them; trace the probe.

        The message's pipeline starts first, its dispatcher behind a
        :class:`_ProbeGate` that opens once the probe has been on the
        wire longer than ``fast_network_bps`` would take; it is returned
        with the gate settled.  With ``fast_network_bps <= 0`` every
        probe is very fast and none starts.
        """
        pipe = progress = None
        if cfg.fast_network_bps > 0:
            gate = _ProbeGate(msg.probe_bytes * 8 / cfg.fast_network_bps)
            pipe = self._start_pipeline(msg, cfg, gate)
            progress = gate.moved
            gate.arm()
        before = self._link_reading()
        t0 = self.clock()
        route = overlap_level = None
        try:
            self._send_records(probe, progress)
            route = msg.probe_timed(t0, self.clock(), before, self._link_reading())
            if pipe is not None:
                pipe.gate.settle(route)
                overlap_level = pipe.gate.overlap_level(cfg.io_timeout_s)
        except BaseException:
            if pipe is not None:
                pipe.gate.settle(route)  # None if the probe's send failed
                self._abandon_pipeline(pipe, cfg)
            raise
        msg.trace_probe(overlap_level)
        return pipe

    def _link_reading(self) -> float | None:
        """When the bytes handed to the endpoint so far leave its link.

        On this sender's clock; ``None`` when the endpoint has no link
        clock (``link_departure``, see ``repro.transport.base``).
        """
        link = getattr(self.endpoint, "link_departure", None)
        return None if link is None else self.clock() + link()

    def _send_records(
        self, records: Iterable[Record], progress: Callable[[], None] | None = None
    ) -> None:
        """Send raw records, one vectored send each; ``progress`` is told
        of every send call that moved bytes."""
        for rec in records:
            sendall_vectors(self.endpoint, [rec.header_bytes(), rec.payload], progress)

    # -- the adaptive pipeline -----------------------------------------------

    def _start_pipeline(
        self, msg: MessageSend, cfg: AdocConfig, gate: _ProbeGate | None = None
    ) -> _Pipeline:
        """Start the compression thread over the rest of the message.

        ``gate`` holds the dispatcher back while the message's probe is
        on the wire.
        """
        tele = resolve_telemetry(cfg)
        pool = self._resolve_pool(cfg, msg.total)
        msg.pipeline(pool.workers if pool is not None else 0)
        pipe = _Pipeline(PacketQueue(cfg.queue_capacity, tele, "send"), gate)
        pipe.thread = threading.Thread(
            target=self._dispatch,
            args=(msg, cfg, pipe, pool, tele),
            name="adoc-compress",
            daemon=True,
        )
        pipe.thread.start()
        return pipe

    def _finish_pipeline(self, pipe: _Pipeline, cfg: AdocConfig) -> None:
        """Run the emission loop until the compression thread is done."""
        try:
            with resolve_telemetry(cfg).span("emit"):
                self._emission_loop(pipe.queue, cfg)
        except BaseException as exc:
            # The emission loop already closed the queue; the worker
            # unblocks on QueueClosed.  Bound the join so the failure
            # path can never hang on a wedged worker.
            pipe.thread.join(cfg.join_timeout_s)
            if isinstance(exc, TransportTimeout):
                raise DeadlineExceeded(
                    f"emission stalled past {cfg.io_timeout_s}s: {exc}",
                    stage="send",
                ) from exc
            raise
        self._join_pipeline(pipe, cfg)

    def _abandon_pipeline(self, pipe: _Pipeline, cfg: AdocConfig) -> None:
        """Stop a message's compression thread after a failure, bounded.

        The dispatcher drains a job in flight before it exits: its
        buffer is borrowed from the caller.
        """
        pipe.queue.close()
        pipe.thread.join(cfg.join_timeout_s)

    def _join_pipeline(self, pipe: _Pipeline, cfg: AdocConfig) -> None:
        """Join the compression thread, bounded; raise what it raised."""
        worker = pipe.thread
        worker.join(cfg.join_timeout_s)
        if worker.is_alive():
            pipe.queue.close()
            worker.join(cfg.join_timeout_s)
            if worker.is_alive():
                raise TransferError(
                    "compression thread failed to stop after the message "
                    "was emitted",
                    stage="teardown",
                )
        if pipe.error:
            exc = pipe.error[0]
            if isinstance(exc, TransportTimeout):
                raise DeadlineExceeded(
                    f"compression side stalled: {exc}", stage="send"
                ) from exc
            raise exc

    def _resolve_pool(self, cfg: AdocConfig, remaining: int | None):
        """The shared codec pool to compress on, or ``None`` for a window of one.

        ``remaining`` is the message's length (``None`` = unknown).

        ``compress_workers=0`` opts out (the paper's original two-thread
        pipeline); a compression-disabled stream is all raw records.
        Short pipelines stay serial too: pooling pays per-buffer
        hand-off latency to buy overlap, and the hand-off gaps would let
        the emission side drain the queue between buffers, distorting
        the Figure-2 signal for messages too short to reach steady
        state.  Unknown-length sources (pipes) are open-ended, so they
        pool.  The import is lazy: :mod:`repro.serve` sits above this
        module in the package graph.
        """
        if cfg.compress_workers == 0 or cfg.compression_disabled:
            return None
        if remaining is not None and remaining < _MIN_POOLED_BUFFERS * cfg.buffer_size:
            return None
        from ..serve.pool import shared_pool

        return shared_pool(cfg.compress_workers)

    def _queued_packets(self, queue: PacketQueue) -> int:
        """The Figure-2 queue reading: packets waiting in the emission FIFO."""
        return queue.size()

    def _dispatch(
        self,
        msg: MessageSend,
        cfg: AdocConfig,
        pipe: _Pipeline,
        pool: Any,
        tele: Telemetry,
    ) -> None:
        """The compression thread: the message's buffers through its planner.

        Outcomes go to the queue in submission order, which is closed on
        exit; an error is left in ``pipe.error`` for the caller.  Codec
        jobs run on ``pool`` — completions arrive strictly in
        submission order through the pool's per-key FIFO reinsertion —
        or, without a pool, synchronously on this thread.  Queue
        backpressure blocks *this* thread (when it enqueues completed
        packets), never a pool worker: a slow connection cannot stall
        other connections' codec work.  If the shared pool is closed
        mid-message (process shutdown racing a transfer), the in-flight
        window is drained and the message finishes with a window of one.

        With a probe gate, buffer 0 is decided and submitted while the
        probe is on the wire if the gate opens; the loop goes on once the
        probe is timed.  A fast-path route ends the dispatcher there; a
        buffer already read goes back to the message, to be sent raw,
        once its job is done.  The ``compress`` span starts when the gate
        opens or the probe routes the message to the pipeline, whichever
        is first.
        """
        from ..serve.pool import PoolClosed

        queue, plan, gate = pipe.queue, msg.plan, pipe.gate
        completions = _CompletionFIFO()
        stream_key = object()  # per-message identity for in-order delivery
        timeout = cfg.io_timeout_s

        def submit(job: tuple | None) -> None:
            """Start the codec job of ``(buf, level)``; ``None``: read out."""
            nonlocal pool
            if job is None:
                return
            buf, level = job
            if pool is not None:
                try:
                    pool.submit(
                        compress_buffer, buf, level, plan.guard, cfg,
                        key=stream_key,
                        on_done=lambda *outcome: completions.push(outcome),
                        timeout=timeout,
                    )
                    plan.submit(buf, level)
                    return
                except PoolClosed:
                    # Drain the window (its completions still arrive in
                    # order), then go on serially.
                    pool = None
                    plan.serialize()
                    while plan.inflight:
                        for pkt in plan.complete(*completions.pop(timeout)):
                            queue.put(pkt, timeout)
            plan.submit(buf, level)
            try:
                outcome = compress_buffer(buf, level, plan.guard, cfg)
                completions.push((outcome, None))
            except Exception as exc:
                completions.push((None, exc))

        def queued() -> int:
            return self._queued_packets(queue)

        try:
            claimed = gate is not None and gate.claim(timeout)
            if gate is not None and not claimed and gate.route(timeout) != PIPELINE:
                return  # the fast path, or a failed probe: nothing started
            with tele.span("compress"):
                if claimed:
                    job = None
                    try:
                        job = msg.next_job(None, self.clock)
                    finally:
                        gate.decided(None if job is None else job[1])
                    submit(job)
                    route = gate.route(timeout)
                    if route is None:
                        raise QueueClosed("the probe failed")  # the caller raises
                    outcome = completions.pop(timeout) if plan.inflight else None
                    if route == FAST_PATH:
                        if outcome is not None:
                            msg.withdraw()
                        return
                    if outcome is not None:
                        # Buffer 0's outcome (its codec rate, a guard trip)
                        # is the next decision's evidence, and its packets
                        # queue after that decision.
                        first = plan.complete(*outcome)
                        job = msg.next_job(queued, self.clock)
                        for pkt in first:
                            queue.put(pkt, timeout)
                        submit(job)
                while True:
                    while not msg.read_out and plan.can_submit():
                        submit(msg.next_job(queued, self.clock))
                    if not plan.inflight:
                        return
                    # The planner drops the buffer from its window *before*
                    # the puts: if one raises (QueueClosed when the emission
                    # loop died), the drain below must wait only for the
                    # completions still genuinely outstanding.
                    for pkt in plan.complete(*completions.pop(timeout)):
                        queue.put(pkt, timeout)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            # The message is dead (emission failed, deadline, …).  The
            # borrowed input buffers captured by in-flight jobs must not
            # outlive the send call (the caller may reuse them the
            # moment it returns), so wait — bounded — for the stragglers.
            completions.drain(plan.inflight, cfg.join_timeout_s)
            if not isinstance(exc, QueueClosed):  # else emission failed first
                pipe.error.append(exc)
        finally:
            queue.close()

    def _emission_loop(self, queue: PacketQueue, cfg: AdocConfig) -> None:
        """Drain the queue into the socket, observing per-buffer rates.

        Visible bandwidth goes to the divergence guard through
        :class:`~repro.core.planner.EmissionWindows` (one window per
        buffer and level), timed on the endpoint's link clock when it
        has one: read after every send, never waited for.  Packets
        already queued under the same window are coalesced into one
        vectored send (up to :data:`_MAX_BATCH` packets), so a burst of
        framed packets costs one syscall instead of one per packet.
        """
        windows = EmissionWindows(self.divergence, resolve_telemetry(cfg))
        self._feed_link(windows)
        windows.open(self.clock())
        pending: QueuedPacket | None = None
        try:
            while True:
                pkt = pending if pending is not None else queue.get(cfg.io_timeout_s)
                pending = None
                if pkt is None:
                    break
                key = (pkt.buffer_id, pkt.level)
                now = self.clock()
                vectors: list[bytes | memoryview] = []
                count = 0
                while True:
                    windows.leaving(pkt, now)
                    if pkt.prefix:
                        vectors.append(pkt.prefix)
                    if len(pkt.payload):
                        vectors.append(pkt.payload)
                    count += 1
                    if count >= _MAX_BATCH:
                        break
                    nxt = queue.poll()
                    if nxt is None:
                        break
                    if (nxt.buffer_id, nxt.level) != key:
                        pending = nxt
                        break
                    pkt = nxt
                sendall_vectors(self.endpoint, vectors)
                self._feed_link(windows)
            windows.close(self.clock())
        except BaseException:
            queue.close()  # unblock the compression thread
            raise

    def _feed_link(self, windows: EmissionWindows) -> None:
        left = self._link_reading()
        if left is not None:
            windows.departed(left)
