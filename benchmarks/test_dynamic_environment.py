"""Dynamic environment: adaptation under a bandwidth step.

The paper's motivating scenario (sections 1-2): "if the network is very
fast, time to compress the data may not be available.  But, if the
visible bandwidth decreases (due to some congestion on the network),
some time to compress the data may become available."

This bench drives a controlled bandwidth step — the LAN drops to 10% of
its rate for the middle third of a long transfer — and asserts the
controller actually follows: the mean compression level during the slow
phase exceeds the fast phases', and adaptive AdOC beats both fixed
extremes (never compress / always compress at a fixed high level) over
the whole scenario.
"""

from __future__ import annotations

import dataclasses

from repro.core import DEFAULT_CONFIG
from repro.simulator import profile_by_name, simulate_adoc_message, simulate_posix_message
from repro.transport import LAN100

from conftest import emit

MB = 1024 * 1024
SIZE = 48 * MB


def step_schedule(t: float) -> float:
    """Full rate, except a 10x slowdown between t=1s and t=3s."""
    return 0.1 if 1.0 <= t < 3.0 else 1.0


def test_bandwidth_step(benchmark):
    data = profile_by_name("ascii")

    def run():
        adaptive = simulate_adoc_message(
            SIZE, data, LAN100, seed=1, rate_schedule=step_schedule,
        )
        posix = simulate_posix_message(SIZE, LAN100, seed=1, rate_schedule=step_schedule)
        fixed_high = simulate_adoc_message(
            SIZE, data, LAN100,
            config=DEFAULT_CONFIG.with_levels(7, 7),
            seed=1, rate_schedule=step_schedule,
        )
        return adaptive, posix, fixed_high

    adaptive, posix, fixed_high = benchmark.pedantic(run, rounds=1, iterations=1)

    history = adaptive.decisions
    # Partition decisions by when the schedule was slow vs fast is not
    # directly recorded; use the level trajectory instead: it must rise
    # visibly somewhere mid-transfer (the slow phase) above its early
    # fast-phase plateau.
    early = [t.level for t in history[:5]]
    peak = max(t.level for t in history)
    emit(
        "Dynamic environment: 48 MB ascii on LAN100 with a 10x slowdown "
        "for t in [1s, 3s)\n"
        f"adaptive AdOC: {adaptive.elapsed_s:6.2f}s (ratio {adaptive.compression_ratio:.2f})\n"
        f"POSIX raw:     {posix.elapsed_s:6.2f}s\n"
        f"fixed gzip-6:  {fixed_high.elapsed_s:6.2f}s\n"
        f"level: early fast-phase max {max(early)}, overall peak {peak}"
    )

    # The controller exploited the slow phase: it climbed well above the
    # fast-phase operating point.
    assert peak >= max(early) + 3
    # Adaptive beats raw (the slow phase rewards compression)...
    assert adaptive.elapsed_s < posix.elapsed_s
    # ...and beats the fixed high level (the fast phases punish it).
    assert adaptive.elapsed_s < fixed_high.elapsed_s
