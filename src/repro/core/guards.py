"""Incompressible-data guard.

Paper section 5, "Compressed and random data": compressing random or
already-compressed data costs CPU for nothing (ratio near or below 1).
AdOC compares each compressed packet's size with its original size; if
the achieved ratio is below a threshold it (a) stops compressing the
rest of the current buffer and (b) pins the compression level to its
minimum for the next 10 packets before letting adaptation resume.

The holdoff counts from the next level decision: the tripped buffer's
own packets were committed before the trip and do not spend it.  Each
decision the holdoff pins uses up its buffer's raw packet count
(:meth:`IncompressibleGuard.hold`), so the default 10 packets hold at
least the next buffer at the minimum level.
"""

from __future__ import annotations

from ..analysis.lockgraph import make_lock

__all__ = ["IncompressibleGuard"]


class IncompressibleGuard:
    """Per-packet compression-ratio watchdog with a packet holdoff.

    Thread-safe: with pooled compression (``compress_workers``), several
    codec workers evaluate :meth:`check_packet` for different buffers
    concurrently while the dispatcher decides levels, so the holdoff
    counter is guarded by a leaf lock (no other lock is ever taken while
    it is held).
    """

    def __init__(self, ratio_threshold: float = 0.95, holdoff_packets: int = 10) -> None:
        if not 0.0 < ratio_threshold <= 1.0:
            raise ValueError("ratio threshold must be in (0, 1]")
        if holdoff_packets < 0:
            raise ValueError("holdoff cannot be negative")
        self.ratio_threshold = ratio_threshold
        self.holdoff_packets = holdoff_packets
        self._lock = make_lock("IncompressibleGuard.lock")
        self._remaining = 0
        self._trips = 0  # diagnostic: how often the guard fired

    @property
    def active(self) -> bool:
        """True while the holdoff pins the level to the minimum."""
        with self._lock:
            return self._remaining > 0

    @property
    def trips(self) -> int:
        """How often the guard has fired (diagnostics / telemetry)."""
        with self._lock:
            return self._trips

    def check_packet(self, original_size: int, compressed_size: int) -> bool:
        """Evaluate one compressed packet; return True if the guard trips.

        A packet "fails" when compression saved less than
        ``1 - ratio_threshold`` of its size (e.g. with the default 0.95,
        saving under 5% — or expanding — counts as incompressible).
        """
        if original_size <= 0:
            return False
        if compressed_size >= original_size * self.ratio_threshold:
            with self._lock:
                self._remaining = self.holdoff_packets
                self._trips += 1
            return True
        return False

    def hold(self, packets: int) -> bool:
        """One level decision: True if the holdoff pins it to the minimum.

        A pinned decision uses up ``packets``, its buffer's raw packet
        count, of the holdoff.
        """
        with self._lock:
            if self._remaining <= 0:
                return False
            self._remaining = max(0, self._remaining - packets)
            return True
