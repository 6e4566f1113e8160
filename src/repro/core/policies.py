"""Alternative control laws (research harness).

The Figure-2 controller is one point in a design space.  This module
collects comparable control laws, each a pure function ``(n, delta,
level, config) -> proposed level`` like
:func:`~repro.core.adaptation.figure2`.  The one
:class:`~repro.core.adaptation.LevelAdapter` applies whichever law it is
given (``policy`` on the send planner, ``MessageSend.pipeline`` and the
simulator) and then the same guards, codec rules, history and telemetry,
so the ablation benches race the control law alone:

* ``paper`` — :func:`~repro.core.adaptation.figure2`;
* :func:`naive` — ±1 on queue growth/shrink, reset on empty: the
  simplest plausible controller;
* :func:`aimd` — additive increase, multiplicative decrease
  (TCP-flavoured): +1 while the queue grows, halve when it shrinks;
* :func:`fixed` — no adaptation at all, a constant level (the "always
  compress at level N" straw man);
* :func:`threshold` — a memoryless controller mapping queue occupancy
  directly to a level (no δ term), isolating the value of the paper's
  *trend* signal.
"""

from __future__ import annotations

from functools import partial

from .adaptation import ControlLaw, figure2
from .config import AdocConfig

__all__ = ["naive", "aimd", "fixed", "threshold", "POLICIES", "make_policy"]


def naive(n: int, delta: int, level: int, config: AdocConfig) -> int:
    """±1 per buffer by queue trend; reset to min on an empty queue."""
    if n == 0:
        return config.min_level
    if delta > 0:
        return level + 1
    if delta < 0:
        return level - 1
    return level


def aimd(n: int, delta: int, level: int, config: AdocConfig) -> int:
    """Additive increase, multiplicative decrease on the queue trend."""
    if n == 0:
        return config.min_level
    if delta > 0:
        return level + 1
    if delta < 0:
        return level // 2
    return level


def fixed(n: int, delta: int, level: int, config: AdocConfig, fixed_level: int = 7) -> int:
    """Constant level — the no-adaptation straw man."""
    return fixed_level


def threshold(n: int, delta: int, level: int, config: AdocConfig) -> int:
    """Memoryless occupancy-to-level map (no trend term).

    Linear in the queue size from an empty queue to ``queue_high``:
    empty → min, ``n >= queue_high`` → max, rounded in between
    (``queue_low`` and ``queue_mid`` play no part).
    """
    if n == 0:
        return config.min_level
    if n >= config.queue_high:
        return config.max_level
    frac = n / config.queue_high
    return config.min_level + round(frac * (config.max_level - config.min_level))


POLICIES: dict[str, ControlLaw] = {
    "paper": figure2,
    "naive": naive,
    "aimd": aimd,
    "fixed": fixed,
    "threshold": threshold,
}


def make_policy(name: str, **kwargs) -> ControlLaw:
    """The control law ``name``, its keyword parameters bound."""
    try:
        law = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; have {sorted(POLICIES)}") from None
    return partial(law, **kwargs) if kwargs else law
