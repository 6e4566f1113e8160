"""The send core: one message's section-5 ladder and Figure-2 adaptation.

Paper section 3.3: before compressing each 200 KB buffer the sender
reads the emission FIFO length ``n`` and its change ``delta`` and moves
the compression level (Figure 2).  This module is that step and the
section-5 ladder around it, written once for all three send drivers —
the blocking dispatcher in :mod:`repro.core.sender`, the reactor's
:class:`~repro.serve.channel.AdocChannel` and the virtual-clock
simulator in :mod:`repro.simulator.pipeline`.  It owns no thread, socket
or pool and never reads a clock: drivers pass the queued-packet reading
and ``now`` in, run (or model) the codec, hand the outcomes back in
submission order and move the bytes and packets they get out.  One
:class:`MessageSend` per message frames it, routes it
(:func:`message_route`), times its probe and keeps its ledger; only the
probe's I/O is the driver's.  Down the pipeline it drives a
:class:`SendPlanner`::

    while buffers remain or plan.inflight:
        while buffers remain and plan.can_submit():
            buf, level = msg.next_job(queued, clock)   # read, then decide
            plan.submit(buf, level)                    # codec job starts
        for pkt in plan.complete(outcome, error):      # oldest job done
            put pkt on the wire queue
    msg.result(elapsed)                                # the message's ledger

The outcome is :func:`~repro.core.compressor.compress_buffer`'s
``(records, tripped, seconds)``; the simulator's modelled codec, which
runs without rate records, leaves the seconds off.
:meth:`SendPlanner.complete` counts what it hands out and
:meth:`SendPlanner.result` adds that to the message's
:class:`SendResult` (the paper's ``*slen``).  Three properties the
paper's adaptation depends on hold on every driver, and two more on the
live ones:

* **The signal counts in-flight work.**  The paper's queue length
  counts everything committed to the wire that the network has not yet
  drained; with buffers still on a codec worker the bare queue
  under-reads by a window's worth of output, successive decisions read
  ``delta == 0`` and Figure 2's ``n < 10`` rule halves the level to 0
  for good.  So ``n`` is the queued packets plus the in-flight buffers'
  packet count at raw packetization (their compressed size is not known
  yet, so this is an upper bound).
* **The window slow-starts.**  One buffer in flight at first, +1 per
  completion up to ``max(2, 2 * workers)``, so cold-start decisions are
  never a full window ahead of the evidence.  ``workers=0`` is a window
  of one: the paper's one-buffer-at-a-time compression thread.
* **Codec failures degrade, never kill.**  A buffer whose codec job
  raised ships raw and every later *submission* is pinned to level 0
  (buffers already in flight at a higher level compressed fine and
  still emit compressed); raw records are always legal to the receiver.
* **Evidence before commitment.**  The divergence guard judges a level
  only once its emission windows close, after the window has committed
  several buffers to it.  So the live drivers hand the planner a
  connection's :class:`~repro.core.divergence.CodecRates`, fed with each
  job's codec seconds and wire bytes, and two rules follow Figure 2 and
  the guards.  The **fence** predicts each recorded level's pipeline
  rate ``T(l) = min(E(l) × max(1, workers), B × r(l))`` from its encode
  rate ``E``, its ratio ``r`` (1 without a ratio record) and the
  connection's trusted level-0 record ``B`` (the probe's two windows).
  A level passes when ``E × max(1, workers) ≥ B`` and no lower passing
  level's ``T`` beats its own by more than the divergence guard's
  ``MARGIN``; a recorded level that does not pass is replaced with the
  highest level below it that is unrecorded or passes.  Without ratio
  records every passing level predicts ``B`` and only the level-0 test
  fences.  **Probation** lets a level with no rate record have one
  buffer in flight — later decisions take the highest recorded passing
  level below it until that outcome lands (with none, the level
  stands).  Neither goes below ``min_level``; level 0 needs no codec
  evidence.  Without a level-0 record (forced compression sends no
  probe) or without rates (the simulator's modelled codec) both rules
  are inert: the paper's fence-less behaviour.
* **A connection starts warm.**  Figure 2 sends a message's first
  buffer (``n = 0``) at ``minLevel``, i.e. raw.  Given the connection's
  :class:`~repro.core.divergence.ConnectionRecords`, a first decision
  with ``n = 0`` instead starts at the highest level with a codec-rate
  record that passes the fence (within ``MARGIN`` of the best predicted
  pipeline rate), capped by the level of the previous
  message's last buffer; the divergence veto still applies and
  Figure 2 goes on from there.  Without a trusted level-0 record, a
  passing rate or a previous message (a fresh connection, the
  simulator) the paper's cold start stands.  A blocking driver that
  compresses buffer 0 during its probe (:meth:`SendPlanner.decide_during_probe`)
  reads the probe as the queue, ``n = δ = ⌈probe/packet_size⌉``, and
  takes the next decision warm whatever ``n`` then reads: the probe's
  level-0 record, buffer 0's codec rate and level are the evidence.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..obs.telemetry import Telemetry
from .adaptation import ControlLaw, LevelAdapter
from .config import AdocConfig
from .divergence import CodecRates, ConnectionRecords, DivergenceGuard
from .fifo import QueuedPacket
from .guards import IncompressibleGuard
from .packets import RECORD_HEADER_SIZE, Record, end_record_bytes, pack_message_header
from .sources import BytesSource, ChunkSource

__all__ = [
    "BYPASS", "PROBE", "FAST_PATH", "PIPELINE", "message_route",
    "observe_probe", "SendResult", "MessageSend", "SendPlanner",
    "EmissionWindows", "record_packets", "raw_message_vectors",
]

_log = logging.getLogger("repro.core.planner")

#: :func:`message_route` verdicts, in ladder order.
BYPASS, PROBE, FAST_PATH, PIPELINE = "bypass", "probe", "fast_path", "pipeline"


@dataclass
class SendResult:
    """What one message send did, on any send driver.

    ``wire_bytes`` is the paper's ``*slen`` out-parameter: bytes that
    actually crossed the wire (headers included), so the achieved
    compression ratio is ``payload_bytes / wire_bytes``.
    """

    payload_bytes: int
    wire_bytes: int
    elapsed_s: float
    pipeline_used: bool = False
    probe_bps: float | None = None
    #: True when ``probe_bps`` is the connection's recent probe, reused
    #: instead of sending one.
    probe_reused: bool = False
    fast_path: bool = False
    #: Packets per compression level.
    levels_used: dict[int, int] = field(default_factory=dict)
    guard_trips: int = 0
    #: True when a codec failure forced the stream down to raw
    #: (level 0) mid-message — the payload still arrived intact.
    degraded: bool = False

    @property
    def compression_ratio(self) -> float:
        if self.wire_bytes == 0:
            return 1.0
        return self.payload_bytes / self.wire_bytes


def message_route(
    total: int | None, config: AdocConfig, probe_bps: float | None = None
) -> str:
    """The section-5 decision ladder for one message of ``total`` bytes.

    :data:`BYPASS`: compression disabled, or a small message with
    compression not forced — ship it raw inline.  :data:`PROBE`: time
    the first ``probe_size`` bytes raw, then ask again with
    ``probe_bps``, which yields :data:`FAST_PATH` (a link faster than
    ``fast_network_bps``: the rest goes raw) or :data:`PIPELINE`.
    Unknown-length streams (``total=None``) have nothing to slice a
    probe from and always take the pipeline; a driver without a probe
    takes :data:`PROBE` as :data:`PIPELINE`.
    """
    if total is None:
        return PIPELINE
    if config.compression_disabled:
        return BYPASS
    if config.compression_forced:
        return PIPELINE
    if total < config.small_message_threshold:
        return BYPASS
    if probe_bps is None:
        return PROBE
    return FAST_PATH if probe_bps > config.fast_network_bps else PIPELINE


def observe_probe(
    divergence: DivergenceGuard | None, nbytes: int, elapsed: float
) -> float:
    """Feed a raw probe to the divergence guard; return its bit rate.

    The probe is a measured level-0 transfer, recorded as two windows
    so raw throughput has a trusted record (``MIN_SAMPLES``) even when
    the queue never empties — a slow receiver keeps it full, and without
    level-0 evidence the guard could never fall back to raw.
    """
    elapsed = max(elapsed, 1e-9)
    if divergence is not None:
        divergence.observe(0, nbytes // 2, elapsed / 2)
        divergence.observe(0, nbytes - nbytes // 2, elapsed / 2)
    return nbytes * 8.0 / elapsed


def record_packets(
    rec: Record, packet_size: int, buffer_id: int = 0
) -> Iterator[QueuedPacket]:
    """Split one record into packet-size slices, header as first prefix.

    The 9-byte record header rides on the first packet's ``prefix``
    instead of being copied into a serialized buffer; payload slices
    stay views of the record's payload.  Original bytes are attributed
    to slices pro rata, remainder to the last slice, so per-level
    bandwidth accounting sums exactly.
    """
    payload = rec.payload
    n = len(payload)
    prefix = rec.header_bytes()
    if n == 0:
        yield QueuedPacket(b"", rec.level, 0, buffer_id, prefix)
        return
    assigned = 0
    for off in range(0, n, packet_size):
        chunk = payload[off : off + packet_size]
        if off + len(chunk) >= n:
            orig = rec.original_size - assigned
        else:
            orig = rec.original_size * len(chunk) // n
        assigned += orig
        yield QueuedPacket(chunk, rec.level, orig, buffer_id, prefix)
        prefix = b""


def raw_message_vectors(data: bytes | bytearray | memoryview) -> list[bytes | memoryview]:
    """Frame an in-memory payload as one raw (level-0) message, uncopied.

    The vectors — message header, record header, payload view — are
    the one send of a bypassed zero-copy message (:meth:`MessageSend.bypass`).
    """
    view = memoryview(data)
    header = pack_message_header(len(view))
    return [header, Record(0, len(view), view).header_bytes(), view] if len(view) else [header]


def _mb_s(rate: float | None) -> float | None:
    return None if rate is None else round(rate / 1e6, 2)


class SendPlanner:
    """Level decisions, in-flight window and codec outcomes of one message.

    ``guard`` is the message's incompressible guard: drivers pass it to
    :func:`~repro.core.compressor.compress_buffer` so codec jobs can trip
    it, and each decision its holdoff pins uses up a buffer's raw
    packets (:meth:`~repro.core.guards.IncompressibleGuard.hold`), so
    the holdoff counts from the next decision on every driver.
    ``adapter.history`` is the message's Figure-2 trace.

    ``codec_rates`` is the connection's encode-rate and ratio records;
    with them the fence and probation apply (the module docstring's
    fourth property).  ``records`` is the connection's
    :class:`~repro.core.divergence.ConnectionRecords`: it supplies the
    codec rates when ``codec_rates`` is not given, enables the warm
    first decision (the fifth property), and gets each submitted
    buffer's level as its ``last_level``.  ``divergence=None`` runs
    without the divergence guard, and ``policy`` replaces Figure 2 with
    another control law (:mod:`repro.core.policies`), which goes through
    the same guards, codec rules and codec-failure pin; both are
    ablation hooks of the simulator.
    """

    def __init__(
        self,
        config: AdocConfig,
        divergence: DivergenceGuard | None,
        telemetry: Telemetry,
        workers: int = 0,
        policy: ControlLaw | None = None,
        codec_rates: CodecRates | None = None,
        records: ConnectionRecords | None = None,
    ) -> None:
        self.config = config
        self.guard = IncompressibleGuard(
            config.incompressible_ratio, config.incompressible_holdoff
        )
        self.adapter = LevelAdapter(
            config, divergence, self.guard, telemetry, self._codec_rules, policy
        )
        if codec_rates is None and records is not None:
            codec_rates = records.codec_rates
        self.codec_rates = codec_rates
        self._records = records
        self._divergence = divergence
        self._workers = max(1, workers)
        self.window_cap = max(2, 2 * workers) if workers else 1
        self.window = 1
        #: True once a codec failure pinned the message to level 0.
        self.degraded = False
        self._tele = telemetry
        self._mode = "pooled" if workers else "inline"
        self._inflight: deque[tuple[bytes | memoryview, int, int]] = deque()
        self._next_id = 0
        self._pending_packets = 0
        self._payload = self._wire = 0  # the ledger of completed buffers
        self._levels: dict[int, int] = {}
        #: Set by :meth:`decide_during_probe`: the next decision is warm.
        self._after_probe = False
        self._last_before_probe: int | None = None

    @property
    def inflight(self) -> int:
        """Buffers submitted whose outcome has not been completed yet."""
        return len(self._inflight)

    def can_submit(self) -> bool:
        return len(self._inflight) < self.window

    def decide(self, queued: int, now: float) -> int:
        """Figure-2 level for the next buffer, given the queued packets."""
        n = queued + self._pending_packets
        after_probe, self._after_probe = self._after_probe, False
        if self._records is not None and (
            after_probe or (n == 0 and not self.adapter.history)
        ):
            start = self._warm_start()
            if start is not None:
                return self.adapter.next_level(n, now, start)
        return self.adapter.next_level(n, now)

    def decide_during_probe(self, probe_bytes: int, now: float) -> int:
        """The first decision, taken while the probe is still on the wire.

        The probe is the queue: ``n = δ`` is its packet count, as if it
        had just filled an empty FIFO (Figure 2's ``n ≥ 30, δ > 0`` row
        for the default sizes).  The driver takes the next decision once
        the probe is timed; that one is the warm decision whatever ``n``
        reads, since the emitter may already have drained this buffer.
        """
        n = self._raw_packets(probe_bytes)
        if self._records is not None:
            self._last_before_probe = self._records.last_level
        self._after_probe = True
        return self.adapter.next_level(n, now, during_probe=True)

    def withdraw(self) -> bytes | memoryview:
        """Take the buffer of :meth:`decide_during_probe` back unsent.

        For a probe that turned out fast after all: the buffer ships raw
        and the connection's ``last_level`` is what it was before.
        """
        buf, _, _ = self._inflight.popleft()
        self._pending_packets -= self._raw_packets(len(buf))
        if self._records is not None:
            self._records.last_level = self._last_before_probe
        return buf

    def _warm_start(self) -> int | None:
        """The warm first decision's level, or ``None`` for a cold start."""
        last = self._records.last_level
        if last is None or self.degraded:
            return None
        cfg = self.config
        levels = range(max(1, cfg.min_level), min(last, cfg.max_level) + 1)
        return max(self._passing(levels), default=None)

    def _link(self) -> float | None:
        """The trusted level-0 record the codec rules weigh levels against.

        ``None`` without rates or without a trusted level-0 record: the
        rules are then inert.
        """
        if self.codec_rates is None or self._divergence is None:
            return None
        return self._divergence.trusted_bandwidth(0)

    def _pipeline_rate(self, level: int, link: float) -> float | None:
        """``T(l) = min(E(l) × workers, B × r(l))`` in input bytes/s.

        ``E`` is the level's encode rate, ``B`` the level-0 record and
        ``r`` the level's compression ratio, 1 without a ratio record;
        ``None`` without a rate record.  Level 0 moves at ``B``.
        """
        if level == 0:
            return link
        rates = self.codec_rates
        rate = rates.rate(level)
        if rate is None:
            return None
        return min(rate * self._workers, link * (rates.ratio(level) or 1.0))

    def _passing(self, levels) -> set[int]:
        """The recorded ``levels`` worth their codec time on this link.

        A level passes when its encode rate × workers keeps up with the
        level-0 record and no lower passing level's predicted pipeline
        rate beats its own by more than ``DivergenceGuard.MARGIN``.
        Empty without rates or without a trusted level-0 record.
        """
        link = self._link()
        if link is None:
            return set()
        passing: set[int] = set()
        best = 0.0
        for lvl in sorted(levels):
            rate = self.codec_rates.rate(lvl)
            if rate is None or rate * self._workers < link:
                continue
            predicted = self._pipeline_rate(lvl, link)
            if best <= predicted * DivergenceGuard.MARGIN:
                passing.add(lvl)
            best = max(best, predicted)
        return passing

    def _codec_rules(self, level: int) -> tuple[int, bool, dict]:
        """The codec-failure pin, then the rate fence and probation.

        With telemetry on, a fenced decision's trace args carry the
        predicted pipeline rates of the proposed level and of the level
        used, in MB/s (``None`` for a level without a rate record).
        """
        if self.degraded:
            return 0, False, {}
        link = self._link()
        if link is None:
            return level, False, {}
        floor = self.config.min_level
        rate = {lvl: self.codec_rates.rate(lvl) for lvl in range(floor, level + 1)}
        passing = self._passing(rate)
        used = level
        while used > floor and rate[used] is not None and used not in passing:
            used -= 1
        if used > 0 and rate[used] is None and any(
            lvl == used for _, _, lvl in self._inflight
        ):
            used = max((lvl for lvl in passing if lvl < used), default=used)
        if used == level or not self._tele.enabled:
            return used, used != level, {}
        proposed, kept = (_mb_s(self._pipeline_rate(lvl, link)) for lvl in (level, used))
        return used, True, {"proposed_mb_s": proposed, "used_mb_s": kept}

    def submit(self, buf: bytes | memoryview, level: int) -> None:
        """Count ``buf`` in flight: its codec job has been started."""
        if self._records is not None:
            self._records.last_level = level
        self._inflight.append((buf, self._next_id, level))
        self._next_id += 1
        self._pending_packets += self._raw_packets(len(buf))

    def serialize(self) -> None:
        """Fall back to a window of one, run synchronously by the driver."""
        self.window = self.window_cap = 1
        self._mode = "inline"

    def complete(
        self,
        outcome: tuple | None,
        error: BaseException | None,
    ) -> Iterator[QueuedPacket]:
        """Take the oldest in-flight buffer's codec outcome.

        Accounting happens now: the ledger counts the buffer's payload,
        wire bytes and packets per level, and the job's codec seconds
        and wire bytes feed the level's encode rate and ratio (a job the
        incompressible guard cut short is not that level's evidence);
        the returned iterator yields the buffer's packets in wire order.
        """
        buf, buffer_id, level = self._inflight.popleft()
        self._pending_packets -= self._raw_packets(len(buf))
        if self.window < self.window_cap:
            self.window += 1
        tele = self._tele
        failed = error is not None or outcome is None
        if failed:
            self.degraded = True
            if self._records is not None:
                self._records.last_level = 0  # the message ends raw
            records = [Record(0, len(buf), buf)]
            _log.warning(
                "codec failed at level %d on buffer %d; degrading stream "
                "to raw",
                level, buffer_id,
            )
            tele.event(
                "degraded", "codec_failure", buffer_id=buffer_id, level=level
            )
        else:
            records = outcome[0]
        wire = 0
        for rec in records:
            wire += RECORD_HEADER_SIZE + len(rec.payload)
            # As record_packets cuts it: an empty payload is one packet.
            packets = max(1, self._raw_packets(len(rec.payload)))
            self._levels[rec.level] = self._levels.get(rec.level, 0) + packets
        self._payload += len(buf)
        self._wire += wire
        rates = self.codec_rates
        if rates is not None and level > 0 and not failed and not outcome[1]:
            rates.observe(level, len(buf), outcome[2], wire)
        if tele.enabled:
            tele.tracer.record(
                "buffer", "buffer_compressed",
                buffer_id=buffer_id,
                level=level,
                in_bytes=len(buf),
                out_bytes=sum(len(r.payload) for r in records),
                tripped=outcome is not None and outcome[1],
            )
            metrics = tele.metrics
            metrics.counter(
                "adoc_compress_buffers_total",
                "buffers through the send compression stage",
                ("mode",),
            ).inc(mode=self._mode)
            metrics.counter(
                "adoc_compress_bytes_total",
                "payload bytes through the send compression stage",
                ("mode",),
            ).inc(len(buf), mode=self._mode)
            if error is not None:
                metrics.counter(
                    "adoc_compress_degraded_total",
                    "buffers shipped raw after a codec failure",
                    ("mode",),
                ).inc(mode=self._mode)
        size = self.config.packet_size
        return (pkt for rec in records for pkt in record_packets(rec, size, buffer_id))

    def result(self, into: SendResult | None = None) -> SendResult:
        """``into`` (what the driver sent itself) plus the completed buffers'
        payload and wire bytes, with their packets per level, guard trips
        and codec-failure flag."""
        into = into or SendResult(0, 0, 0.0)
        into.payload_bytes += self._payload
        into.wire_bytes += self._wire
        into.pipeline_used = True
        into.levels_used = dict(self._levels)
        into.guard_trips = self.guard.trips
        into.degraded = self.degraded
        return into

    def _raw_packets(self, nbytes: int) -> int:
        return -(-nbytes // self.config.packet_size)


class MessageSend:
    """One message's section-5 ladder, framing and ledger, for any driver.

    It reads the message's source and hands the driver what to send;
    the driver says when the probe left.  :attr:`route` is asked again
    once a probe is timed or reused.  The probe is kept in ``records``,
    the connection's :class:`~repro.core.divergence.ConnectionRecords`;
    without them ``divergence`` takes its level-0 windows.  Only
    :meth:`pipeline` builds a planner, so a bypass costs no guard or
    adapter.  All it hands out is counted in :meth:`result`.
    """

    def __init__(
        self,
        source: ChunkSource,
        config: AdocConfig,
        telemetry: Telemetry,
        records: ConnectionRecords | None = None,
        divergence: DivergenceGuard | None = None,
    ) -> None:
        self.source = source
        self.config = config
        self.total = source.length
        self.route = message_route(self.total, config)
        self.plan: SendPlanner | None = None
        self.probe_bps: float | None = None
        self.probe_reused = False
        self.probe_bytes = 0
        #: True once :meth:`next_job` found the source read out.
        self.read_out = False
        self._tele = telemetry
        self._records = records
        self._divergence = divergence if records is None else records.divergence
        self._payload = self._wire = 0  # sent outside the planner
        self._first: bytes | memoryview | None = None  # see withdraw()

    def _framed(self, frame: bytes) -> bytes:
        self._wire += len(frame)
        return frame

    def header(self) -> bytes:
        """The message header: the known length, or END-terminated."""
        return self._framed(pack_message_header(self.total or 0, self.total is not None))

    def end(self) -> list[bytes]:
        """The END record of an unknown-length message, as send vectors."""
        return [] if self.total is not None else [self._framed(end_record_bytes())]

    def bypass(self) -> Iterator[list[bytes | memoryview]]:
        """A bypassed message's whole wire, one vectored send per item.

        A zero-copy source is one send (:func:`raw_message_vectors`); a
        file streams raw records after the header, so memory stays
        bounded.
        """
        if not self.source.zero_copy:
            yield [self.header()]
            yield from ([rec.header_bytes(), rec.payload] for rec in self.raw_records())
            return
        vectors = raw_message_vectors(self.source.read(self.total))
        self._payload += self.total
        self._wire += sum(map(len, vectors))
        yield vectors

    def raw_records(self, source: ChunkSource | None = None) -> Iterator[Record]:
        """``source`` (by default the rest of the message) as raw records.

        ``buffer_size`` records from the source cursor (the probe
        offset), led by the buffer :meth:`withdraw` took back, if any.
        """
        chunk = None
        if source is None:
            source, chunk, self._first = self.source, self._first, None
        while True:
            if chunk is None:
                chunk = source.read(self.config.buffer_size)
            if not len(chunk):
                return
            self._payload += len(chunk)
            self._wire += RECORD_HEADER_SIZE + len(chunk)
            yield Record(0, len(chunk), chunk)
            chunk = None

    def probe(self, now: float) -> list[Record] | None:
        """The probe's raw records, read before any codec job reads on.

        ``None`` when the connection's probe from within the forbid
        window stands in: the route is asked again with its rate.
        """
        bps = None if self._records is None else self._records.recent_probe(now)
        if bps is None:
            probe = self.source.read_exact(min(self.config.probe_size, self.total))
            self.probe_bytes = len(probe)
            return list(self.raw_records(BytesSource(probe)))
        self.probe_bps, self.probe_reused = bps, True
        self.route = message_route(self.total, self.config, bps)
        self.trace_probe(None)
        return None

    def probe_timed(
        self, t0: float, now: float, before: float | None = None, after: float | None = None
    ) -> str:
        """The probe was sent from ``t0`` to ``now``: observe it, route again.

        On the send clock that is how fast the link accepts bytes.  With
        link readings (when the bytes handed over ``before`` and
        ``after`` the probe leave the link) it runs from the departure
        of the bytes ahead of it, not before ``t0``, to its own.
        """
        seconds = now - t0 if after is None else after - max(t0, before)
        self.probe_bps = observe_probe(self._divergence, self.probe_bytes, seconds)
        if self._records is not None:
            self._records.probe = (self.probe_bps, now)
        self.route = message_route(self.total, self.config, self.probe_bps)
        return self.route

    def trace_probe(self, overlap_level: int | None) -> None:
        """The ``probe`` event, with the level decided while it was sent."""
        self._tele.event(
            "probe", "reused" if self.probe_reused else "sent",
            bps=self.probe_bps, overlap_level=overlap_level,
        )

    def pipeline(self, workers: int = 0, policy: ControlLaw | None = None) -> SendPlanner:
        """Build the message's planner; ``workers`` is the codec pool's size."""
        self.plan = SendPlanner(
            self.config, self._divergence, self._tele, workers, policy,
            records=self._records,
        )
        return self.plan

    def next_job(
        self, queued: Callable[[], int] | None, clock: Callable[[], float]
    ) -> tuple[bytes | memoryview, int] | None:
        """Read the next buffer, then decide its level: ``(buf, level)``.

        ``None`` once the source is read out, so no decision follows the
        last buffer.  ``queued`` reads the driver's queue; ``None``: the
        probe, still on the wire, is the queue.
        """
        buf = self.source.read(self.config.buffer_size)
        if not len(buf):
            self.read_out = True
            return None
        if queued is None:
            return buf, self.plan.decide_during_probe(self.probe_bytes, clock())
        return buf, self.plan.decide(queued(), clock())

    def withdraw(self) -> None:
        """The probe was fast: the buffer decided during it goes out raw."""
        self._first = self.plan.withdraw()

    def result(self, elapsed: float, into: SendResult | None = None) -> SendResult:
        """Everything sent, the planner's ledger too off the fast path."""
        into = SendResult(0, 0, 0.0) if into is None else into
        into.payload_bytes += self._payload
        into.wire_bytes += self._wire
        into.elapsed_s = elapsed
        into.probe_bps, into.probe_reused = self.probe_bps, self.probe_reused
        into.fast_path = self.route == FAST_PATH
        if self.plan is not None and not into.fast_path:
            self.plan.result(into)
        return into


class EmissionWindows:
    """Visible-bandwidth windows fed back to the divergence guard.

    A window is a run of packets from one (buffer, level).  Per-packet
    send gaps are dominated by buffer absorption and would record
    absurd rates for whichever level runs while the buffer has room
    (poisoning the guard); a buffer-sized window measures the sustained
    pipeline rate at that level.

    On the **send clock** (the drivers' ``now``) a window opens when the
    previous one closes (or at :meth:`open`) and closes when the next
    window's first packet leaves, or at :meth:`close`.  That times the
    hand-off to the transport, which ends as soon as a conduit or a
    kernel buffer has room.

    A driver whose endpoint has a **link clock** (``link_departure``,
    see ``repro.transport.base``) passes :meth:`departed` readings after
    each send.  From the first reading on, a window runs from the
    departure of the previous window's last byte to the departure of
    its own, and a sequence's first window starts no earlier than its
    :meth:`open`.  Link idle time spent waiting for a late buffer is
    thus charged to that buffer's level.

    Each window is one ``window_closed`` trace event (level, original
    bytes, seconds and the ``clock`` that timed it).
    """

    def __init__(
        self, divergence: DivergenceGuard | None, telemetry: Telemetry | None = None
    ) -> None:
        self._divergence = divergence
        self._tele = telemetry
        self._key: tuple[int, int] | None = None
        self._orig = 0
        self._start: float | None = None
        self._left: float | None = None  # last link reading

    def open(self, now: float) -> None:
        """Start timing, unless a window is already running."""
        if self._start is None:
            self._start = now if self._left is None else max(now, self._left)

    def leaving(self, pkt: QueuedPacket, now: float) -> None:
        """``pkt`` is being handed to the transport at ``now``."""
        key = (pkt.buffer_id, pkt.level)
        if key != self._key:
            if self._key is not None:
                self._start = self._end(now)
            self._key = key
        self._orig += pkt.original_bytes

    def departed(self, at: float) -> None:
        """A link reading: every byte handed over so far leaves by ``at``."""
        self._left = at

    def close(self, now: float) -> None:
        """Observe the running window; the next :meth:`open` starts anew."""
        if self._key is not None:
            self._end(now)
        self._key = None
        self._start = None

    def _end(self, now: float) -> float:
        """Observe the running window; return when the next one starts."""
        end, clock = (now, "send") if self._left is None else (self._left, "link")
        orig, self._orig = self._orig, 0
        if orig > 0:
            seconds = end - self._start
            if self._divergence is not None:
                self._divergence.observe(self._key[1], orig, seconds)
                self._divergence.observed_at = end
            tele = self._tele
            if tele is not None and tele.enabled:
                tele.tracer.record(
                    "window", "window_closed", level=self._key[1],
                    orig_bytes=orig, seconds=seconds, clock=clock,
                )
        return end
