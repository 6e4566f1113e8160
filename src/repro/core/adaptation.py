"""The Figure-2 compression-level update algorithm.

This is the heart of AdOC's adaptivity (paper section 3.3): the sender
monitors the number ``n`` of packets in its emission FIFO queue and the
variation ``delta`` of that number since the last update, and moves the
compression level so that the queue neither empties (the emission
thread would starve and the transfer would stall) nor grows without
bound (spare time exists, so compress harder).

The transcription below is line-for-line Figure 2 of RR-5500::

    1.  if n = 0                return minLevel
    3.  if n < 10:  if δ ≤ 0    l = l / 2
    6.  elif n < 20: if δ > 0   l++    elif δ < 0   l--
    11. elif n < 30: if δ > 0   l += 2 elif δ < 0   l--
    16. else:        if δ > 0   l += 2
    18. l = max(l, minLevel); l = min(l, maxLevel); return l

:func:`update_level` is that pure function; :class:`LevelAdapter` is the
stateful wrapper the pipeline uses, which also folds in the divergence
guard and the incompressible-data holdoff (section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..obs.telemetry import (
    QUEUE_DEPTH_BUCKETS as _QUEUE_DEPTH_BUCKETS,
    Telemetry,
    resolve_telemetry,
)
from .config import AdocConfig, DEFAULT_CONFIG
from .divergence import DivergenceGuard
from .guards import IncompressibleGuard

__all__ = ["update_level", "LevelAdapter", "AdaptationTrace"]


def update_level(
    n: int,
    delta: int,
    level: int,
    min_level: int = 0,
    max_level: int = 10,
    low: int = 10,
    mid: int = 20,
    high: int = 30,
) -> int:
    """Figure 2: new compression level from queue size and variation.

    ``n`` is the queue length in packets, ``delta`` its change since the
    previous update, ``level`` the current level.  Thresholds default to
    the paper's 10/20/30.
    """
    if n < 0:
        raise ValueError("queue size cannot be negative")
    if n == 0:
        return min_level
    if n < low:
        if delta <= 0:
            level //= 2
    elif n < mid:
        if delta > 0:
            level += 1
        elif delta < 0:
            level -= 1
    elif n < high:
        if delta > 0:
            level += 2
        elif delta < 0:
            level -= 1
    else:
        if delta > 0:
            level += 2
    return min(max(level, min_level), max_level)


@dataclass
class AdaptationTrace:
    """One adaptation decision, recorded for diagnostics and tests."""

    queue_size: int
    delta: int
    raw_level: int
    level: int
    forbidden: bool = False
    holdoff: bool = False
    fenced: bool = False
    warm: bool = False
    during_probe: bool = False


class LevelAdapter:
    """Stateful level controller combining Figure 2 with the guards.

    Call :meth:`next_level` once per input buffer (exactly where the
    paper re-evaluates the level).  The adapter:

    1. computes ``delta`` from the previous observed queue size (or
       from an empty queue, for a decision taken during the probe);
    2. applies :func:`update_level`, unless the caller passes a
       ``start`` level (the send planner's warm first decision), which
       then stands in for Figure 2's output;
    3. lets the :class:`~repro.core.divergence.DivergenceGuard` veto a
       level whose observed visible bandwidth is worse than a smaller
       level's (and respects its 1-second forbid window);
    4. lets the :class:`~repro.core.guards.IncompressibleGuard` pin the
       level to the minimum during its 10-packet holdoff;
    5. applies ``codec_rules(level) -> (level, fenced)``, the send
       planner's codec-failure pin, rate fence and probation.

    The level recorded, reported and used as Figure 2's next starting
    point is the one the buffer gets.
    """

    def __init__(
        self,
        config: AdocConfig = DEFAULT_CONFIG,
        divergence: DivergenceGuard | None = None,
        incompressible: IncompressibleGuard | None = None,
        telemetry: Telemetry | None = None,
        codec_rules: Callable[[int], tuple[int, bool]] | None = None,
    ) -> None:
        self.config = config
        self.divergence = divergence
        self.incompressible = incompressible
        self.codec_rules = codec_rules
        self.level = config.min_level
        self._last_queue_size: int | None = None
        self.history: list[AdaptationTrace] = []
        self._tele = telemetry if telemetry is not None else resolve_telemetry(config)

    def next_level(
        self, queue_size: int, now: float, start: int | None = None,
        during_probe: bool = False,
    ) -> int:
        """Decide the level for the next buffer given the queue size.

        ``during_probe``: the queue reading is a probe still on the wire,
        which arrived on an empty queue, so ``delta`` is the whole reading.
        """
        cfg = self.config
        previous = 0 if during_probe else self._last_queue_size
        delta = 0 if previous is None else queue_size - previous
        self._last_queue_size = queue_size

        raw = start if start is not None else update_level(
            queue_size,
            delta,
            self.level,
            cfg.min_level,
            cfg.max_level,
            cfg.queue_low,
            cfg.queue_mid,
            cfg.queue_high,
        )
        level = raw
        forbidden = False
        holdoff = False
        if self.divergence is not None:
            vetoed = self.divergence.filter_level(level, now)
            forbidden = vetoed != level
            level = vetoed
        if self.incompressible is not None and self.incompressible.active:
            level = cfg.min_level
            holdoff = True
        level = min(max(level, cfg.min_level), cfg.max_level)
        fenced = False
        if self.codec_rules is not None:
            level, fenced = self.codec_rules(level)
        old_level = self.level
        self.level = level
        self.history.append(
            AdaptationTrace(
                queue_size, delta, raw, level, forbidden, holdoff, fenced,
                start is not None, during_probe,
            )
        )
        if self._tele.enabled:
            # The paper's Figure-2 tuple, one event per input buffer:
            # this is what the timeline sampler and `adoc top` replay.
            self._tele.tracer.record(
                "level",
                "level_decision",
                n=queue_size,
                delta=delta,
                old_level=old_level,
                new_level=level,
                forbidden=forbidden,
                holdoff=holdoff,
                fenced=fenced,
                warm=start is not None,
                during_probe=during_probe,
            )
            self._tele.metrics.counter(
                "adoc_level_decisions_total", "Figure-2 controller updates"
            ).inc()
            self._tele.metrics.gauge(
                "adoc_compression_level", "level chosen for the next buffer"
            ).set(level)
            self._tele.metrics.histogram(
                "adoc_queue_depth_packets",
                "send FIFO depth at each level decision",
                buckets=_QUEUE_DEPTH_BUCKETS,
            ).observe(queue_size)
            for guard, tripped in (
                ("divergence", forbidden),
                ("incompressible_holdoff", holdoff),
                ("codec_rate", fenced),
            ):
                if tripped:
                    self._tele.metrics.counter(
                        "adoc_guard_trips_total",
                        "adaptation guard activations",
                        ("guard",),
                    ).inc(guard=guard)
        return level
