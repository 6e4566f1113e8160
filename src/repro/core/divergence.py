"""Divergence guard: per-level visible-bandwidth records.

Paper section 5, "Compression level divergence": when the receiver is
much slower than the sender, raising the compression level makes things
*worse* (the receiver's decompression becomes the bottleneck), yet the
queue-size signal keeps saying "raise" — the feedback loop diverges.
Because AdOC respects the read/write semantics there is no back channel,
so the sender must infer the problem from what it can see: the *visible
bandwidth* (original payload bytes per second of emission) achieved at
each level.

The guard keeps one bandwidth record per level (an exponential moving
average).  When a level is proposed whose recorded bandwidth is worse
than a smaller level's record, the guard redirects to the
best-performing smaller level and forbids the proposed one for one
second, after which conditions may have changed and the level may be
tried again.

Next to those records a connection keeps :class:`CodecRates`: per-level
encode rates and compression ratios of its own codec jobs, the evidence
from which the send planner's rate fence predicts each level's pipeline
rate against the level-0 record (``core/planner.py``).
:class:`ConnectionRecords` bundles both with the level the last message
ended on and the last bandwidth probe: everything a connection carries
from one message to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BandwidthRecord", "DivergenceGuard", "CodecRates", "ConnectionRecords"]


@dataclass
class BandwidthRecord:
    """EWMA of the visible bandwidth achieved at one compression level."""

    bandwidth: float = 0.0
    samples: int = 0

    def observe(self, bandwidth: float, alpha: float = 0.5) -> None:
        if self.samples == 0:
            self.bandwidth = bandwidth
        else:
            self.bandwidth = alpha * bandwidth + (1.0 - alpha) * self.bandwidth
        self.samples += 1


class DivergenceGuard:
    """Tracks per-level visible bandwidth and vetoes diverging levels."""

    #: A smaller level must beat the proposed one by this factor before
    #: the guard intervenes.  True divergence (receiver-bound pipelines)
    #: shows order-of-magnitude gaps, while WAN jitter routinely makes a
    #: level look ~10-20% worse for a window or two — a generous margin
    #: keeps the guard from vetoing healthy levels on noise.
    MARGIN = 1.3

    #: A comparison record is only trusted once it has this many
    #: windows; a single (possibly congested) window is not evidence.
    MIN_SAMPLES = 2

    def __init__(self, forbid_seconds: float = 1.0, alpha: float = 0.5) -> None:
        self.forbid_seconds = forbid_seconds
        self.alpha = alpha
        self._records: dict[int, BandwidthRecord] = {}
        self._forbidden_until: dict[int, float] = {}
        #: When the last emission window closed (``None``: never); the
        #: send planner's ``EmissionWindows`` keep it.
        self.observed_at: float | None = None

    def observe(self, level: int, payload_bytes: int, elapsed: float) -> None:
        """Record that ``payload_bytes`` of *original* data took
        ``elapsed`` seconds to emit while at ``level``."""
        if elapsed <= 0.0 or payload_bytes <= 0:
            return
        rec = self._records.setdefault(level, BandwidthRecord())
        rec.observe(payload_bytes / elapsed, self.alpha)

    def recorded_bandwidth(self, level: int) -> float | None:
        rec = self._records.get(level)
        return rec.bandwidth if rec is not None and rec.samples else None

    def trusted_bandwidth(self, level: int) -> float | None:
        """The level's record once it has ``MIN_SAMPLES`` windows."""
        rec = self._records.get(level)
        if rec is None or rec.samples < self.MIN_SAMPLES:
            return None
        return rec.bandwidth

    def is_forbidden(self, level: int, now: float) -> bool:
        until = self._forbidden_until.get(level)
        return until is not None and now < until

    def filter_level(self, proposed: int, now: float) -> int:
        """Return the level to actually use instead of ``proposed``.

        If ``proposed`` is inside a forbid window, or a smaller level
        has a strictly better bandwidth record, fall back to the
        best-recorded smaller level (and start/refresh the forbid window
        in the latter case).  Level 0 is never vetoed: not compressing
        cannot diverge.
        """
        if proposed <= 0:
            return proposed
        if self.is_forbidden(proposed, now):
            return self._best_allowed_below(proposed, now)

        mine = self.recorded_bandwidth(proposed)
        if mine is None:
            return proposed  # never tried: let it run to collect a record
        best_level, best_bw = proposed, mine
        for lvl in range(proposed):
            bw = self.trusted_bandwidth(lvl)
            if bw is not None and bw > best_bw * self.MARGIN:
                best_level, best_bw = lvl, bw
        if best_level != proposed:
            self._forbidden_until[proposed] = now + self.forbid_seconds
            return best_level
        return proposed

    def _best_allowed_below(self, proposed: int, now: float) -> int:
        """Best-recorded non-forbidden level strictly below ``proposed``."""
        candidates = [
            (self.recorded_bandwidth(lvl) or 0.0, lvl)
            for lvl in range(proposed)
            if not self.is_forbidden(lvl, now)
        ]
        if not candidates:
            return 0
        _, lvl = max(candidates)
        return lvl


class CodecRates:
    """Per-level encode rates and compression ratios of one connection.

    The rate is input bytes per codec second; the ratio is input bytes
    over the wire bytes they became, record headers included.  Fed with
    every timed codec job; like the divergence records they outlive the
    message, so a connection's later messages start with its evidence.
    """

    def __init__(self) -> None:
        self._records: dict[int, BandwidthRecord] = {}
        self._ratios: dict[int, BandwidthRecord] = {}

    def observe(
        self, level: int, nbytes: int, seconds: float, wire_bytes: int = 0
    ) -> None:
        if seconds > 0.0 and nbytes > 0:
            self._records.setdefault(level, BandwidthRecord()).observe(nbytes / seconds)
        if wire_bytes > 0 and nbytes > 0:
            self._ratios.setdefault(level, BandwidthRecord()).observe(nbytes / wire_bytes)

    def rate(self, level: int) -> float | None:
        rec = self._records.get(level)
        return rec.bandwidth if rec is not None else None

    def ratio(self, level: int) -> float | None:
        rec = self._ratios.get(level)
        return rec.bandwidth if rec is not None else None


class ConnectionRecords:
    """What one connection has learned about its path, kept across messages.

    The divergence guard's per-level visible bandwidths, the codec's
    per-level encode rates, the level of the last buffer the previous
    message submitted (``last_level``, written by the send planner) and the
    last section-5 probe as ``(bit rate, time)``.  The live send drivers
    keep one per connection; a reactor server shares one between the
    connections of a peer host while it is fresh.
    """

    def __init__(self, forbid_seconds: float = 1.0) -> None:
        self.divergence = DivergenceGuard(forbid_seconds)
        self.codec_rates = CodecRates()
        self.last_level: int | None = None
        self.probe: tuple[float, float] | None = None

    def recent_probe(self, now: float) -> float | None:
        """The last probe's bit rate, if it is younger than the forbid window.

        The paper's one-second window after which "conditions may have
        changed" bounds how long one probe speaks for the link.
        """
        if self.probe is None:
            return None
        bps, at = self.probe
        return bps if now - at < self.divergence.forbid_seconds else None

    def worth_adopting(self, now: float) -> bool:
        """Whether another connection to the same peer should start from these.

        They must be fresh — an emission window closed within the forbid
        window — and the last message must not have ended raw: a level-0
        ending gives a warm start nothing, and on a reactor its level-0
        windows time the kernel's buffer, not the link, so sharing them
        would let one pinned message pin every later connection.
        """
        seen = self.divergence.observed_at
        fresh = seen is not None and now - seen < self.divergence.forbid_seconds
        return fresh and bool(self.last_level)
