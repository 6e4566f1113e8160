"""Per-connection statistics: observability for the live library.

The C library exposes its effect only through the ``*slen`` out
parameters; a library meant for adoption needs a richer view.  Each
connection aggregates, across all its messages, **both directions**:

* send side: payload and wire byte totals (→ overall achieved ratio),
  how many messages took each path (small / fast-network / pipeline),
  a compression-level histogram in packets, guard activity, degrades;
* receive side (symmetric accounting): messages, wire/payload bytes,
  and how many packets took the raw vs the decompress path.

The send counters are folded once per message by both live send
drivers (the blocking :class:`~repro.core.sender.MessageSender` and the
reactor's :class:`~repro.serve.channel.AdocChannel`, from the planner's
ledger), the receive counters by both receive drivers as messages
arrive; all are thread-safe to read at any time.  When the connection
carries a :class:`~repro.obs.Telemetry` handle, every fold
is mirrored into its metrics registry (the ``adoc_*`` families in
``docs/OBSERVABILITY.md``), so ``adoc stats`` exposes the same numbers
in Prometheus text format.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..analysis.lockgraph import make_lock
from ..obs.telemetry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .planner import SendResult

__all__ = ["ConnectionStats"]


@dataclass
class _Snapshot:
    """Immutable copy of the counters (what ``snapshot()`` returns)."""

    messages: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    small_path: int = 0
    fast_path: int = 0
    pipeline_path: int = 0
    guard_trips: int = 0
    degraded: int = 0
    levels_used: dict[int, int] = field(default_factory=dict)
    # Receive side (symmetric accounting).
    recv_messages: int = 0
    recv_wire_bytes: int = 0
    recv_payload_bytes: int = 0
    recv_raw_packets: int = 0
    recv_decompressed_packets: int = 0

    @property
    def compression_ratio(self) -> float:
        return self.payload_bytes / self.wire_bytes if self.wire_bytes else 1.0

    @property
    def recv_compression_ratio(self) -> float:
        if not self.recv_wire_bytes:
            return 1.0
        return self.recv_payload_bytes / self.recv_wire_bytes

    @property
    def mean_level(self) -> float:
        total = sum(self.levels_used.values())
        if total == 0:
            return 0.0
        return sum(k * v for k, v in self.levels_used.items()) / total


class ConnectionStats:
    """Thread-safe accumulator of per-connection accounting."""

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self._lock = make_lock("ConnectionStats.lock")
        self._data = _Snapshot()
        self._tele = telemetry if telemetry is not None else NULL_TELEMETRY

    # -- send side -----------------------------------------------------------

    def record_send(self, result: "SendResult") -> None:
        """Fold one :class:`~repro.core.planner.SendResult` in."""
        if result.pipeline_used:
            path = "pipeline"
        elif result.fast_path:
            path = "fast"
        else:
            path = "small"
        with self._lock:
            d = self._data
            d.messages += 1
            d.payload_bytes += result.payload_bytes
            d.wire_bytes += result.wire_bytes
            d.guard_trips += result.guard_trips
            if result.degraded:
                d.degraded += 1
            setattr(d, f"{path}_path", getattr(d, f"{path}_path") + 1)
            for level, count in result.levels_used.items():
                d.levels_used[level] = d.levels_used.get(level, 0) + count
        tele = self._tele
        if tele.enabled:
            m = tele.metrics
            m.counter(
                "adoc_messages_total", "messages sent, by decision-ladder path",
                ("direction", "path"),
            ).inc(direction="send", path=path)
            m.counter(
                "adoc_payload_bytes_total", "application payload bytes",
                ("direction",),
            ).inc(result.payload_bytes, direction="send")
            m.counter(
                "adoc_wire_bytes_total", "bytes that crossed the wire",
                ("direction",),
            ).inc(result.wire_bytes, direction="send")
            if result.guard_trips:
                m.counter(
                    "adoc_guard_trips_total", "adaptation guard activations",
                    ("guard",),
                ).inc(result.guard_trips, guard="incompressible")
            if result.degraded:
                m.counter(
                    "adoc_degraded_streams_total",
                    "messages pinned to raw after a codec failure",
                ).inc()
            packets = m.counter(
                "adoc_packets_total", "packets queued, by compression level",
                ("direction", "level"),
            )
            for level, count in result.levels_used.items():
                packets.inc(count, direction="send", level=str(level))

    # -- receive side (symmetric accounting) ---------------------------------

    def record_recv_message(self, wire_bytes: int) -> None:
        """One complete message parsed off the wire (headers included)."""
        with self._lock:
            self._data.recv_messages += 1
            self._data.recv_wire_bytes += wire_bytes
        tele = self._tele
        if tele.enabled:
            tele.metrics.counter(
                "adoc_messages_total", "messages sent, by decision-ladder path",
                ("direction", "path"),
            ).inc(direction="recv", path="pipeline")
            tele.metrics.counter(
                "adoc_wire_bytes_total", "bytes that crossed the wire",
                ("direction",),
            ).inc(wire_bytes, direction="recv")

    def record_recv_packets(
        self, raw: int, decompressed: int, payload_bytes: int
    ) -> None:
        """Fold a batch of decompressed packets (flushed per message)."""
        if not raw and not decompressed and not payload_bytes:
            return
        with self._lock:
            d = self._data
            d.recv_raw_packets += raw
            d.recv_decompressed_packets += decompressed
            d.recv_payload_bytes += payload_bytes
        tele = self._tele
        if tele.enabled:
            m = tele.metrics
            packets = m.counter(
                "adoc_recv_packets_total", "received packets, by decode path",
                ("path",),
            )
            if raw:
                packets.inc(raw, path="raw")
            if decompressed:
                packets.inc(decompressed, path="decompress")
            m.counter(
                "adoc_payload_bytes_total", "application payload bytes",
                ("direction",),
            ).inc(payload_bytes, direction="recv")

    # -- reading --------------------------------------------------------------

    def snapshot(self) -> _Snapshot:
        """A consistent copy of all counters."""
        with self._lock:
            # replace() copies every field; the one mutable container is
            # re-bound to its own copy so the snapshot cannot alias live
            # state (and new fields can never be forgotten here again).
            return replace(self._data, levels_used=dict(self._data.levels_used))

    def summary(self) -> str:
        """One-line human-readable digest (both directions)."""
        s = self.snapshot()
        line = (
            f"{s.messages} msg, {s.payload_bytes} B -> {s.wire_bytes} B "
            f"(ratio {s.compression_ratio:.2f}), paths "
            f"small={s.small_path}/fast={s.fast_path}/pipe={s.pipeline_path}, "
            f"mean level {s.mean_level:.1f}, guard trips {s.guard_trips}"
        )
        if s.degraded:
            line += f", degraded {s.degraded}"
        if s.recv_messages or s.recv_payload_bytes:
            line += (
                f" | recv {s.recv_messages} msg, {s.recv_wire_bytes} B -> "
                f"{s.recv_payload_bytes} B (ratio {s.recv_compression_ratio:.2f}), "
                f"packets raw={s.recv_raw_packets}/"
                f"inflated={s.recv_decompressed_packets}"
            )
        return line
