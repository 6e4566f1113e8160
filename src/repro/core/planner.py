"""The send planner: one message's section-5 ladder and Figure-2 adaptation.

Paper section 3.3: before compressing each 200 KB buffer the sender
reads the emission FIFO length ``n`` and its change ``delta`` and moves
the compression level (Figure 2).  This module is that step, written
once for all three send drivers — the blocking dispatcher in
:mod:`repro.core.sender`, the reactor's
:class:`~repro.serve.channel.AdocChannel` and the virtual-clock
simulator in :mod:`repro.simulator.pipeline`.  It owns no thread, socket
or pool and never reads a clock: drivers pass the queued-packet reading
and ``now`` in, run (or model) the codec, hand the outcomes back in
submission order and move the packets they get out.  Per message,
:func:`message_route` picks the section-5 path (only the probe's timing
is the driver's), then::

    while buffers remain or plan.inflight:
        while buffers remain and plan.can_submit():
            level = plan.decide(queued_packets, now)  # then read the buffer
            plan.submit(buf, level)                    # codec job starts
        for pkt in plan.complete(outcome, error):      # oldest job done
            put pkt on the wire queue

Three properties the paper's adaptation depends on hold on every driver:

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
"""

from __future__ import annotations

import logging
from collections import deque
from typing import Callable, Iterator

from ..obs.telemetry import Telemetry
from .adaptation import LevelAdapter
from .config import AdocConfig
from .divergence import DivergenceGuard
from .fifo import QueuedPacket
from .guards import IncompressibleGuard
from .packets import Record

__all__ = [
    "BYPASS", "PROBE", "FAST_PATH", "PIPELINE", "message_route",
    "observe_probe", "SendPlanner", "EmissionWindows", "record_packets",
]

_log = logging.getLogger("repro.core.planner")

#: :func:`message_route` verdicts, in ladder order.
BYPASS, PROBE, FAST_PATH, PIPELINE = "bypass", "probe", "fast_path", "pipeline"


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


class SendPlanner:
    """Level decisions, in-flight window and codec outcomes of one message.

    ``guard`` is the message's incompressible guard: drivers pass it to
    :func:`~repro.core.compressor.compress_buffer` so codec jobs can trip
    it, and the planner counts the holdoff down per emitted packet.
    ``adapter.history`` is the message's Figure-2 trace.

    ``divergence=None`` runs without the divergence guard, and
    ``adapter_factory(config, divergence, guard)`` substitutes another
    level controller (:mod:`repro.core.policies`); both are ablation
    hooks the simulator exposes.
    """

    def __init__(
        self,
        config: AdocConfig,
        divergence: DivergenceGuard | None,
        telemetry: Telemetry,
        workers: int = 0,
        adapter_factory: Callable[..., LevelAdapter] | None = None,
    ) -> None:
        self.config = config
        self.guard = IncompressibleGuard(
            config.incompressible_ratio, config.incompressible_holdoff
        )
        if adapter_factory is None:
            self.adapter = LevelAdapter(config, divergence, self.guard, telemetry)
        else:
            self.adapter = adapter_factory(config, divergence, self.guard)
        self.window_cap = max(2, 2 * workers) if workers else 1
        self.window = 1
        #: True once a codec failure pinned the message to level 0.
        self.degraded = False
        self._tele = telemetry
        self._mode = "pooled" if workers else "inline"
        self._inflight: deque[tuple[bytes | memoryview, int, int]] = deque()
        self._next_id = 0
        self._pending_packets = 0

    @property
    def inflight(self) -> int:
        """Buffers submitted whose outcome has not been completed yet."""
        return len(self._inflight)

    def can_submit(self) -> bool:
        return len(self._inflight) < self.window

    def decide(self, queued: int, now: float) -> int:
        """Figure-2 level for the next buffer, given the queued packets."""
        level = self.adapter.next_level(queued + self._pending_packets, now)
        if self.config.compression_disabled or self.degraded:
            return 0
        return level

    def submit(self, buf: bytes | memoryview, level: int) -> None:
        """Count ``buf`` in flight: its codec job has been started."""
        self._inflight.append((buf, self._next_id, level))
        self._next_id += 1
        self._pending_packets += self._raw_packets(buf)

    def serialize(self) -> None:
        """Fall back to a window of one, run synchronously by the driver."""
        self.window = self.window_cap = 1
        self._mode = "inline"

    def complete(
        self,
        outcome: tuple[list[Record], bool] | None,
        error: BaseException | None,
    ) -> Iterator[QueuedPacket]:
        """Take the oldest in-flight buffer's codec outcome.

        Accounting happens now; the returned iterator yields the
        buffer's packets in wire order and counts each against the
        incompressible holdoff once the driver has taken it.
        """
        buf, buffer_id, level = self._inflight.popleft()
        self._pending_packets -= self._raw_packets(buf)
        if self.window < self.window_cap:
            self.window += 1
        tele = self._tele
        if error is not None or outcome is None:
            self.degraded = True
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
        if tele.enabled:
            tele.tracer.record(
                "buffer", "buffer_compressed",
                buffer_id=buffer_id,
                level=level,
                in_bytes=len(buf),
                out_bytes=sum(len(r.payload) for r in records),
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
        return self._packets(records, buffer_id)

    def _packets(
        self, records: list[Record], buffer_id: int
    ) -> Iterator[QueuedPacket]:
        for rec in records:
            for pkt in record_packets(rec, self.config.packet_size, buffer_id):
                yield pkt
                self.guard.note_packet_emitted()

    def _raw_packets(self, buf: bytes | memoryview) -> int:
        return -(-len(buf) // self.config.packet_size)


class EmissionWindows:
    """Visible-bandwidth windows fed back to the divergence guard.

    A window is a run of packets from one (buffer, level).  It opens
    when the previous one closes (or at :meth:`open`) and closes when
    the next window's first packet leaves, or at :meth:`close`.
    Per-packet send gaps are dominated by socket-buffer absorption and
    would record absurd rates for whichever level runs while the buffer
    has room (poisoning the guard); a buffer-sized window measures the
    sustained pipeline rate at that level.
    """

    def __init__(self, divergence: DivergenceGuard | None) -> None:
        self._divergence = divergence
        self._key: tuple[int, int] | None = None
        self._orig = 0
        self._start: float | None = None

    def open(self, now: float) -> None:
        """Start timing, unless a window is already running."""
        if self._start is None:
            self._start = now

    def leaving(self, pkt: QueuedPacket, now: float) -> None:
        """``pkt`` is being handed to the transport at ``now``."""
        key = (pkt.buffer_id, pkt.level)
        if key != self._key:
            if self._key is not None:
                self._observe(now)
                self._start = now
            self._key = key
        self._orig += pkt.original_bytes

    def close(self, now: float) -> None:
        """Observe the running window; the next :meth:`open` starts anew."""
        if self._key is not None:
            self._observe(now)
        self._key = None
        self._start = None

    def _observe(self, now: float) -> None:
        if self._orig > 0 and self._divergence is not None:
            self._divergence.observe(self._key[1], self._orig, now - self._start)
        self._orig = 0
