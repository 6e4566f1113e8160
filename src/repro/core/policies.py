"""Alternative level-control policies (research harness).

The Figure-2 controller is one point in a design space.  This module
collects comparable controllers behind the same ``next_level(queue_size,
now)`` interface as :class:`~repro.core.adaptation.LevelAdapter`, so
they can be swapped into the live pipeline or the simulator (via
``adapter_factory``) and raced in the ablation benches:

* :class:`PaperAdapter` — the Figure-2 controller (an alias);
* :class:`NaiveStepAdapter` — ±1 on queue growth/shrink, reset on
  empty: the simplest plausible controller;
* :class:`AimdAdapter` — additive increase, multiplicative decrease
  (TCP-flavoured): +1 while the queue grows, halve when it shrinks;
* :class:`FixedLevelAdapter` — no adaptation at all, a constant level
  (the "always compress at level N" straw man);
* :class:`ThresholdAdapter` — a memoryless controller mapping queue
  occupancy directly to a level (no δ term), isolating the value of
  the paper's *trend* signal.

All of them honour the shared guards (divergence, incompressible) the
same way the paper controller does, so comparisons isolate the control
law itself.
"""

from __future__ import annotations

from .adaptation import LevelAdapter
from .config import AdocConfig, DEFAULT_CONFIG
from .divergence import DivergenceGuard
from .guards import IncompressibleGuard

__all__ = [
    "PaperAdapter",
    "NaiveStepAdapter",
    "AimdAdapter",
    "FixedLevelAdapter",
    "ThresholdAdapter",
    "POLICIES",
    "make_policy",
]


class PaperAdapter(LevelAdapter):
    """The Figure-2 controller (alias for symmetry in sweeps)."""


class _GuardedAdapter(LevelAdapter):
    """Base: subclasses implement ``propose``; guards applied here."""

    def next_level(self, queue_size: int, now: float) -> int:
        cfg = self.config
        last = self._last_queue_size
        delta = 0 if last is None else queue_size - last
        self._last_queue_size = queue_size
        level = self.propose(queue_size, delta)
        if self.divergence is not None:
            level = self.divergence.filter_level(level, now)
        if self._held():
            level = cfg.min_level
        self.level = min(max(level, cfg.min_level), cfg.max_level)
        return self.level

    def propose(self, queue_size: int, delta: int) -> int:  # pragma: no cover
        raise NotImplementedError


class NaiveStepAdapter(_GuardedAdapter):
    """±1 per buffer by queue trend; reset to min on an empty queue."""

    def propose(self, queue_size: int, delta: int) -> int:
        if queue_size == 0:
            return self.config.min_level
        if delta > 0:
            return self.level + 1
        if delta < 0:
            return self.level - 1
        return self.level


class AimdAdapter(_GuardedAdapter):
    """Additive increase, multiplicative decrease on the queue trend."""

    def propose(self, queue_size: int, delta: int) -> int:
        if queue_size == 0:
            return self.config.min_level
        if delta > 0:
            return self.level + 1
        if delta < 0:
            return self.level // 2
        return self.level


class FixedLevelAdapter(_GuardedAdapter):
    """Constant level — the no-adaptation straw man."""

    def __init__(
        self,
        config: AdocConfig = DEFAULT_CONFIG,
        divergence: DivergenceGuard | None = None,
        incompressible: IncompressibleGuard | None = None,
        fixed_level: int = 7,
    ) -> None:
        super().__init__(config, divergence, incompressible)
        self.fixed_level = fixed_level

    def propose(self, queue_size: int, delta: int) -> int:
        return self.fixed_level


class ThresholdAdapter(_GuardedAdapter):
    """Memoryless occupancy-to-level map (no trend term).

    Linear in the queue size between the paper's low and high
    thresholds: empty → min, >= high → max.
    """

    def propose(self, queue_size: int, delta: int) -> int:
        cfg = self.config
        if queue_size == 0:
            return cfg.min_level
        if queue_size >= cfg.queue_high:
            return cfg.max_level
        span = cfg.queue_high - 0
        frac = queue_size / span
        return cfg.min_level + round(frac * (cfg.max_level - cfg.min_level))


POLICIES = {
    "paper": PaperAdapter,
    "naive": NaiveStepAdapter,
    "aimd": AimdAdapter,
    "fixed": FixedLevelAdapter,
    "threshold": ThresholdAdapter,
}


def make_policy(name: str, **kwargs):
    """An ``adapter_factory`` for the simulator, by policy name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; have {sorted(POLICIES)}") from None

    def factory(config, divergence, incompressible):
        return cls(config, divergence, incompressible, **kwargs)

    return factory
