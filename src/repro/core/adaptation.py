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

:func:`update_level` is that pure function and :func:`figure2` the
control law built on it: ``(n, delta, level, config) -> proposed level``.
:class:`LevelAdapter` is the stateful wrapper the pipeline uses, which
applies a control law (Figure 2 unless told otherwise; the ablation's
alternatives live in :mod:`repro.core.policies`) and folds in the
divergence guard and the incompressible-data holdoff (section 5).
Each decision is one :class:`AdaptationTrace`; its ``level_decision``
trace event carries the same fields (:meth:`AdaptationTrace.event_args`).
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

__all__ = ["update_level", "figure2", "LevelAdapter", "AdaptationTrace"]


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


def figure2(n: int, delta: int, level: int, config: AdocConfig) -> int:
    """Figure 2 over ``config``'s levels and thresholds: the default law."""
    return update_level(
        n, delta, level, config.min_level, config.max_level,
        config.queue_low, config.queue_mid, config.queue_high,
    )


#: A control law: ``(n, delta, level, config) -> proposed level``.
ControlLaw = Callable[[int, int, int, AdocConfig], int]


#: ``level_decision`` event arg of each :class:`AdaptationTrace` field.
_EVENT_ARGS = {
    "queue_size": "n", "delta": "delta", "raw_level": "raw_level",
    "level": "new_level", "forbidden": "forbidden", "holdoff": "holdoff",
    "fenced": "fenced", "warm": "warm", "during_probe": "during_probe",
}


@dataclass
class AdaptationTrace:
    """One adaptation decision: Figure 2's view, its proposal, the level used.

    ``raw_level`` is the control law's proposal (or the warm start that
    stood in for it) and ``level`` the level the buffer gets; the flags
    say what moved one to the other.
    """

    queue_size: int
    delta: int
    raw_level: int
    level: int
    forbidden: bool = False
    holdoff: bool = False
    fenced: bool = False
    warm: bool = False
    during_probe: bool = False

    def event_args(self) -> dict:
        """This decision as ``level_decision`` event args."""
        return {arg: getattr(self, field) for field, arg in _EVENT_ARGS.items()}

    @classmethod
    def from_args(cls, args: dict) -> AdaptationTrace:
        """The decision a ``level_decision`` event's args record."""
        return cls(**{field: args[arg] for field, arg in _EVENT_ARGS.items()})


class LevelAdapter:
    """Stateful level controller combining Figure 2 with the guards.

    Call :meth:`next_level` once per input buffer (exactly where the
    paper re-evaluates the level).  The adapter:

    1. computes ``delta`` from the previous observed queue size (or
       from an empty queue, for a decision taken during the probe);
    2. applies the control law ``policy`` (:func:`figure2` by default),
       unless the caller passes a ``start`` level (the send planner's
       warm first decision), which then stands in for its output;
    3. lets the :class:`~repro.core.divergence.DivergenceGuard` veto a
       level whose observed visible bandwidth is worse than a smaller
       level's (and respects its 1-second forbid window);
    4. lets the :class:`~repro.core.guards.IncompressibleGuard` pin the
       level to the minimum while its 10-packet holdoff lasts; each
       pinned decision uses up a buffer's raw packet count of it;
    5. applies ``codec_rules(level) -> (level, fenced, args)``, the
       send planner's codec-failure pin, rate fence and probation;
       ``args`` are extra ``level_decision`` trace args.

    The level recorded, reported and used as the law's next starting
    point is the one the buffer gets.
    """

    def __init__(
        self,
        config: AdocConfig = DEFAULT_CONFIG,
        divergence: DivergenceGuard | None = None,
        incompressible: IncompressibleGuard | None = None,
        telemetry: Telemetry | None = None,
        codec_rules: Callable[[int], tuple[int, bool, dict]] | None = None,
        policy: ControlLaw | None = None,
    ) -> None:
        self.config = config
        self.policy = figure2 if policy is None else policy
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

        raw = start if start is not None else self.policy(
            queue_size, delta, self.level, cfg
        )
        level = raw
        forbidden = False
        holdoff = False
        if self.divergence is not None:
            vetoed = self.divergence.filter_level(level, now)
            forbidden = vetoed != level
            level = vetoed
        if self._held():
            level = cfg.min_level
            holdoff = True
        level = min(max(level, cfg.min_level), cfg.max_level)
        fenced = False
        fence_args: dict = {}
        if self.codec_rules is not None:
            level, fenced, fence_args = self.codec_rules(level)
        old_level = self.level
        self.level = level
        trace = AdaptationTrace(
            queue_size, delta, raw, level, forbidden, holdoff, fenced,
            start is not None, during_probe,
        )
        self.history.append(trace)
        if self._tele.enabled:
            # The paper's Figure-2 tuple, one event per input buffer:
            # this is what the timeline sampler and `adoc top` replay.
            self._tele.tracer.record(
                "level", "level_decision", old_level=old_level,
                **trace.event_args(), **fence_args,
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

    def _held(self) -> bool:
        """Whether the incompressible holdoff pins this decision."""
        cfg = self.config
        return self.incompressible is not None and self.incompressible.hold(
            -(-cfg.buffer_size // cfg.packet_size)
        )
