"""The AdOC emission pipeline: compression thread + emission thread.

This is the sending half of Figure 1 of the paper.  One ``adoc_write``
(or ``adoc_send_file``) call maps to one *message* on the wire and runs
the following decision ladder (sections 3 and 5), which
:func:`~repro.core.planner.message_route` decides for every send driver:

1. **Small messages** (< 512 KB, compression not forced): written raw,
   inline, without starting any thread — latency equals plain write.
2. **Bandwidth probe**: the first 256 KB of a large message is sent raw
   while being timed; if the apparent link speed exceeds 500 Mbit/s the
   network is "very fast" and the rest is sent raw too.  A connection
   probes once per forbid window (``divergence_forbid_s``): a message
   within it reuses the last probe's rate and sends no probe.  The
   compression thread starts before a probe goes out and waits at a
   gate: once the probe has been on the wire longer than a very fast
   link would take (``probe_size * 8 / fast_network_bps``, about 4 ms)
   the route cannot be the fast path, so it decides buffer 0 with the
   probe read as the queue and compresses it while the probe drains;
   the decision after the probe is then the planner's warm one.  A
   probe that finishes first leaves the thread idle: the fast path, or
   the pipeline from a cold start.
3. **Adaptive pipeline**: a compression thread splits the remaining
   input into 200 KB buffers, re-evaluating the compression level
   before each one (Figure 2 + divergence guard + incompressible
   guard), and pushes framed 8 KB packets into the FIFO queue; the
   emission loop (running in the calling thread) drains the queue into
   the socket and feeds per-level visible-bandwidth observations back
   to the divergence guard.

The compression thread is a dispatcher over one
:class:`~repro.core.planner.SendPlanner` per message, which decides each
buffer's level and keeps a window of buffers in flight.  By default the
codec jobs run on the process-wide shared codec pool
(``AdocConfig.compress_workers``) and their completions are drained —
in submission order, whichever worker finishes first — into the FIFO,
so N buffers compress concurrently while the wire stays byte-identical.
``compress_workers=0``, short messages and a pool closed mid-message run
the same loop with a window of one, executed synchronously: the paper's
original one-buffer-at-a-time compression thread.

Forcing compression (``min_level > 0``) skips steps 1 and 2 — that is
what the paper's Table 2 "AdOC with forced compression" column
measures: the full thread/queue/mutex start-up cost on a tiny message.
Disabling compression (``max_level == 0``) short-circuits to raw.

Every entry point feeds one streaming engine (:meth:`_send_source`)
through a :class:`~repro.core.sources.ChunkSource`: in-memory payloads
become zero-copy ``memoryview`` slices, seekable files stream in
``buffer_size`` chunks under a known-length header, and pipes stream as
END-terminated unknown-length messages.  Peak resident payload is
O(buffer_size) regardless of message size, and the hot path never
copies payload bytes: record headers ride as packet *prefixes* and the
emission loop coalesces queued packets into vectored sends
(:func:`~repro.transport.base.sendall_vectors`).

The wire format is unchanged — a packet is ``prefix + payload`` and the
receiver sees the same byte stream the pre-streaming sender produced
(pinned by the golden fixtures in ``tests/golden``).  The only visible
shift is internal accounting: packets now hold ``packet_size`` payload
bytes plus the 9-byte header prefix (the header no longer displaces
payload from the first packet), so queue lengths — a heuristic signal
to the adapter — can differ by one packet per record from the old
serialization.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Callable

from ..analysis.lockgraph import make_condition, make_lock
from ..obs.telemetry import Telemetry, resolve_telemetry
from ..transport.base import Endpoint, TransportTimeout, sendall, sendall_vectors
from .compressor import compress_buffer
from .config import AdocConfig, DEFAULT_CONFIG
from .deadlines import DeadlineExceeded, TransferError
from .divergence import CodecRates, ConnectionRecords, DivergenceGuard
from .fifo import PacketQueue, QueueClosed, QueuedPacket
from .packets import Record, end_record_bytes, pack_message_header
from .planner import BYPASS, FAST_PATH, PIPELINE, PROBE, EmissionWindows, SendPlanner
from .planner import SendResult, message_route, observe_probe
from .sources import BytesSource, ChunkSource, source_for_stream
from .stats import ConnectionStats

__all__ = [
    "SendResult",
    "MessageSender",
    "raw_message_vectors",
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


def raw_message_vectors(
    data: bytes | bytearray | memoryview,
) -> list[bytes | memoryview]:
    """Frame one in-memory payload as a raw (level-0) message.

    Returns the wire as vectors — message header, record header,
    payload view — without copying the payload: the same bytes the
    blocking engine's small-message bypass emits.  Used by the
    readiness-driven engine, where small messages are framed inline on
    the loop thread and only large ones visit the compression pool.
    """
    total = len(data)
    header = pack_message_header(total, length_known=True)
    if total == 0:
        return [header]
    view = data if isinstance(data, memoryview) else memoryview(data)
    return [header, Record(0, total, view).header_bytes(), view]


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

    def __init__(self, probe_bytes: int, hold_s: float) -> None:
        self.probe_bytes = probe_bytes
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
    """One message's compression thread, its planner and the queue it fills."""

    queue: PacketQueue
    plan: SendPlanner
    gate: _ProbeGate | None
    thread: threading.Thread | None = None
    error: list[BaseException] = field(default_factory=list)
    #: Buffer 0 handed back unsent: the probe overruled its decision.
    raw_first: bytes | memoryview | None = None


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
        """The unified decision ladder."""
        start = self.clock()
        total = source.length

        if total is None:
            # Unknown length: no bypass, no probe (there is nothing to
            # slice a probe from without buffering), END-terminated.
            header = pack_message_header(0, length_known=False)
            sendall(self.endpoint, header)
            result = self._finish_pipeline(self._start_pipeline(source, cfg, None), cfg)
            end = end_record_bytes()
            sendall(self.endpoint, end)
            result.wire_bytes += len(header) + len(end)
            result.elapsed_s = self.clock() - start
            return result

        header = pack_message_header(total, length_known=True)
        route = message_route(total, cfg)
        if route == BYPASS:
            wire = self._send_raw(header, source, total, cfg)
            return SendResult(total, wire, self.clock() - start)

        wire_bytes = len(header)
        sendall(self.endpoint, header)
        probe_bps: float | None = None
        reused = False
        pipe: _Pipeline | None = None
        if route == PROBE:
            probe_bps = self.records.recent_probe(self.clock())
            reused = probe_bps is not None
            overlap_level = None
            if not reused:
                probe_bps, probe_wire, pipe = self._probe(source, total, cfg)
                wire_bytes += probe_wire
                if pipe is not None:
                    try:
                        overlap_level = pipe.gate.overlap_level(cfg.io_timeout_s)
                    except BaseException:
                        self._abandon_pipeline(pipe, cfg)
                        raise
            resolve_telemetry(cfg).event(
                "probe", "reused" if reused else "sent", bps=probe_bps,
                overlap_level=overlap_level,
            )
            if message_route(total, cfg, probe_bps) == FAST_PATH:
                # Very fast network: ship the rest raw, starting with a
                # buffer the dispatcher read in a race at the gate.
                first = None
                if pipe is not None:
                    self._join_pipeline(pipe, cfg)
                    first = pipe.raw_first
                wire_bytes += self._send_raw_records(source, cfg, first)
                return SendResult(
                    total,
                    wire_bytes,
                    self.clock() - start,
                    probe_bps=probe_bps,
                    probe_reused=reused,
                    fast_path=True,
                )

        if pipe is None:
            pipe = self._start_pipeline(source, cfg, total)
        result = self._finish_pipeline(pipe, cfg)
        result.payload_bytes = total
        result.wire_bytes += wire_bytes
        result.elapsed_s = self.clock() - start
        result.probe_bps = probe_bps
        result.probe_reused = reused
        return result

    # -- fast paths ----------------------------------------------------------

    def _send_raw(self, header: bytes, source: ChunkSource, total: int, cfg: AdocConfig) -> int:
        """Inline raw send of a whole message (no threads).

        Zero-copy sources cover the message with a single record, the
        header and payload going out as one vectored send.  Chunked
        sources (files) are streamed as ``buffer_size`` records so peak
        memory stays bounded — protocol-equivalent, since records simply
        sum to ``total``.
        """
        if source.zero_copy:
            return sendall_vectors(self.endpoint, raw_message_vectors(source.read(total)))
        sendall(self.endpoint, header)
        return len(header) + self._send_raw_records(source, cfg)

    def _probe(
        self, source: ChunkSource, total: int, cfg: AdocConfig
    ) -> tuple[float, int, _Pipeline | None]:
        """Send the first ``probe_size`` bytes raw, timing them.

        The sender has no feedback channel, so the estimate is
        write-side only: how fast the link accepts bytes.  For that to
        reflect the line rate the probe must exceed the send-buffer
        capacity, which 256 KB does on the kernels the paper targets.

        The message's pipeline starts first, its dispatcher behind a
        :class:`_ProbeGate` that opens once the probe has been on the
        wire longer than ``fast_network_bps`` would take; it is returned
        with the gate settled.  With ``fast_network_bps <= 0`` every
        probe is very fast and none starts.
        """
        probe = source.read_exact(min(cfg.probe_size, total))
        pipe = progress = None
        if cfg.fast_network_bps > 0:
            gate = _ProbeGate(len(probe), len(probe) * 8 / cfg.fast_network_bps)
            pipe = self._start_pipeline(source, cfg, total, gate)
            progress = gate.moved
            gate.arm()
        before = self._link_reading()
        t0 = self.clock()
        try:
            wire = self._send_raw_records(BytesSource(probe), cfg, progress=progress)
            now = self.clock()
            after = self._link_reading()
            # On a link clock the probe runs from when the bytes ahead of
            # it left (not before t0) to when its own last byte leaves.
            seconds = now - t0 if after is None else after - max(t0, before)
            bps = observe_probe(self.divergence, len(probe), seconds)
            self.records.probe = (bps, now)
            route = message_route(total, cfg, bps)
        except BaseException:
            if pipe is not None:
                pipe.gate.settle(None)
                self._abandon_pipeline(pipe, cfg)
            raise
        if pipe is not None:
            pipe.gate.settle(route)
        return bps, wire, pipe

    def _link_reading(self) -> float | None:
        """When the bytes handed to the endpoint so far leave its link.

        On this sender's clock; ``None`` when the endpoint has no link
        clock (``link_departure``, see ``repro.transport.base``).
        """
        link = getattr(self.endpoint, "link_departure", None)
        return None if link is None else self.clock() + link()

    def _send_raw_records(
        self, source: ChunkSource, cfg: AdocConfig,
        chunk: bytes | memoryview | None = None,
        progress: Callable[[], None] | None = None,
    ) -> int:
        """Stream the rest of the source as raw ``buffer_size`` records.

        The probe, the fast path and chunked bypasses all emit raw this
        way.  Record boundaries continue sequentially from the source
        cursor (the probe offset), exactly as the resident-buffer sender
        chunked ``data[offset:]`` — intentionally not re-aligned to a
        global buffer grid.  ``chunk`` is a first record already read
        from the source; ``progress`` is told of every send call that
        moved bytes.
        """
        wire = 0
        while True:
            if chunk is None:
                chunk = source.read(cfg.buffer_size)
            if not len(chunk):
                break
            rec = Record(0, len(chunk), chunk)
            wire += sendall_vectors(self.endpoint, [rec.header_bytes(), chunk], progress)
            chunk = None
        return wire

    # -- the adaptive pipeline -----------------------------------------------

    def _start_pipeline(
        self,
        source: ChunkSource,
        cfg: AdocConfig,
        remaining: int | None,
        gate: _ProbeGate | None = None,
    ) -> _Pipeline:
        """Start the compression thread over the source's remainder.

        ``remaining`` is a size hint (``None`` = unknown) used to decide
        whether pooled compression is worth engaging; ``gate`` holds the
        dispatcher back while the message's probe is on the wire.
        """
        tele = resolve_telemetry(cfg)
        pool = self._resolve_pool(cfg, remaining)
        plan = SendPlanner(
            cfg, self.divergence, tele, pool.workers if pool is not None else 0,
            records=self.records,
        )
        pipe = _Pipeline(PacketQueue(cfg.queue_capacity, tele, "send"), plan, gate)
        pipe.thread = threading.Thread(
            target=self._compression_thread,
            args=(source, cfg, pipe, pool, tele),
            name="adoc-compress",
            daemon=True,
        )
        pipe.thread.start()
        return pipe

    def _finish_pipeline(self, pipe: _Pipeline, cfg: AdocConfig) -> SendResult:
        """Run the emission loop until the compression thread is done.

        Returns the planner's part of the message's result (for a
        known length, the payload after the probe).
        """
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
        return pipe.plan.result()

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

    def _compression_thread(
        self,
        source: ChunkSource,
        cfg: AdocConfig,
        pipe: _Pipeline,
        pool: Any,
        tele: Telemetry,
    ) -> None:
        try:
            self._dispatch(source, cfg, pipe, pool, tele)
        except QueueClosed:
            pass  # emission side failed; it carries the real error
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            pipe.error.append(exc)
        finally:
            pipe.queue.close()

    def _resolve_pool(self, cfg: AdocConfig, remaining: int | None):
        """The shared codec pool to compress on, or ``None`` for a window of one.

        ``compress_workers=0`` opts out (the paper's original two-thread
        pipeline); a compression-disabled stream is all raw records, so
        pooling would be pure overhead.  Short pipelines stay serial
        too: pooling pays per-buffer hand-off latency to buy overlap,
        which only exists when there are several buffers to overlap —
        and the hand-off gaps would let the emission side drain the
        queue between buffers, distorting the Figure-2 signal for
        messages too short to ever reach steady state.  Unknown-length
        sources (pipes) take the pooled path: they are open-ended
        streams.  The import is lazy because :mod:`repro.serve` sits
        above this module in the package graph (its channels import the
        sender's framing helpers).
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
        source: ChunkSource,
        cfg: AdocConfig,
        pipe: _Pipeline,
        pool: Any,
        tele: Telemetry,
    ) -> None:
        """Feed the source through the planner, emitting outcomes in order.

        Codec jobs run on ``pool`` — completions arrive strictly in
        submission order through the pool's per-key FIFO reinsertion —
        or, without a pool, synchronously on this thread.  Queue
        backpressure blocks *this* thread (when it enqueues completed
        packets), never a pool worker: a slow connection cannot stall
        other connections' codec work.  If the shared pool is closed
        mid-message (process shutdown racing a transfer), the in-flight
        window is drained and the message finishes with a window of one.

        With a probe gate, buffer 0 is decided and submitted while the
        probe is on the wire if the gate opens; the loop goes on once the
        probe is timed.  A fast-path route ends the dispatcher there, a
        buffer already read handed back raw once its job is done.  The
        ``compress`` span starts when the gate opens or the probe routes
        the message to the pipeline, whichever is first.
        """
        from ..serve.pool import PoolClosed

        queue, plan, gate = pipe.queue, pipe.plan, pipe.gate
        completions = _CompletionFIFO()
        stream_key = object()  # per-message identity for in-order delivery
        timeout = cfg.io_timeout_s

        def submit(job: tuple | None) -> bool:
            """Start the codec job of ``(buf, level)``; False for ``None`` (read out)."""
            nonlocal pool
            if job is None:
                return False
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
                    return True
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
            return True

        def decide() -> int:
            return plan.decide(self._queued_packets(queue), self.clock())

        def read_decide(choose: Callable[[], int]) -> tuple | None:
            """Read the next buffer, then choose its level: ``(buf, level)``, or ``None``."""
            buf = source.read(cfg.buffer_size)
            return (buf, choose()) if len(buf) else None

        exhausted = False
        try:
            claimed = gate is not None and gate.claim(timeout)
            if gate is not None and not claimed and gate.route(timeout) != PIPELINE:
                return  # the fast path, or a failed probe: nothing started
            with tele.span("compress"):
                if claimed:
                    job = None
                    try:
                        job = read_decide(
                            lambda: plan.decide_during_probe(gate.probe_bytes, self.clock())
                        )
                    finally:
                        gate.decided(None if job is None else job[1])
                    submit(job)
                    route = gate.route(timeout)
                    if route is None:
                        raise QueueClosed("the probe failed")  # the caller raises
                    outcome = completions.pop(timeout) if plan.inflight else None
                    if route == FAST_PATH:
                        if outcome is not None:
                            pipe.raw_first = plan.withdraw()
                        return
                    if outcome is not None:
                        # Buffer 0's outcome (its codec rate, a guard trip)
                        # is the next decision's evidence, and its packets
                        # queue after that decision.
                        first = plan.complete(*outcome)
                        job = read_decide(decide)
                        for pkt in first:
                            queue.put(pkt, timeout)
                        exhausted = not submit(job)
                while True:
                    # Read, then decide: one decision per buffer.
                    while not exhausted and plan.can_submit():
                        exhausted = not submit(read_decide(decide))
                    if not plan.inflight:
                        return
                    # The planner drops the buffer from its window *before*
                    # the puts: if one raises (QueueClosed when the emission
                    # loop died), the drain below must wait only for the
                    # completions still genuinely outstanding.
                    for pkt in plan.complete(*completions.pop(timeout)):
                        queue.put(pkt, timeout)
        except BaseException:
            # The message is dead (emission failed, deadline, …).  The
            # borrowed input buffers captured by in-flight jobs must not
            # outlive the send call (the caller may reuse them the
            # moment it returns), so wait — bounded — for the stragglers
            # before unwinding.
            completions.drain(plan.inflight, cfg.join_timeout_s)
            raise

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
