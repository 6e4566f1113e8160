"""Simulated AdOC pipeline: decision ladder, conservation, paper shapes."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import DEFAULT_CONFIG
from repro.core.divergence import DivergenceGuard
from repro.core import planner as planner_mod
from repro.core.planner import SendPlanner
from repro.simulator import (
    profile_by_name,
    simulate_adoc_message,
    simulate_posix_message,
)
from repro.transport import GBIT, INTERNET, LAN100, RENATER

KB = 1024
MB = 1024 * KB
ASCII = profile_by_name("ascii")
BINARY = profile_by_name("binary")
INCOMPRESSIBLE = profile_by_name("incompressible")


class TestPosixBaseline:
    def test_large_transfer_tracks_bandwidth(self):
        r = simulate_posix_message(32 * MB, LAN100, seed=0)
        assert r.app_bandwidth_bps == pytest.approx(94e6, rel=0.02)

    def test_small_transfer_latency_dominated(self):
        r = simulate_posix_message(10, INTERNET, seed=0)
        assert r.elapsed_s >= INTERNET.latency_s

    def test_elapsed_monotone_in_size(self):
        times = [
            simulate_posix_message(n, RENATER, seed=3).elapsed_s
            for n in (1000, 100_000, MB)
        ]
        assert times == sorted(times)


class TestDecisionLadder:
    def test_small_message_bypasses_pipeline(self):
        r = simulate_adoc_message(100_000, ASCII, LAN100, seed=0)
        assert not r.pipeline_used
        assert not r.fast_path
        assert r.wire_bytes == 100_000 + 12 + 9

    def test_gbit_probe_takes_fast_path(self):
        r = simulate_adoc_message(4 * MB, ASCII, GBIT, seed=0)
        assert r.fast_path
        assert not r.pipeline_used
        assert r.probe_bps is not None and r.probe_bps > 500e6
        assert r.wire_bytes >= 4 * MB  # raw + framing

    def test_lan_probe_engages_pipeline(self):
        r = simulate_adoc_message(4 * MB, ASCII, LAN100, seed=0)
        assert r.pipeline_used
        assert r.probe_bps is not None and r.probe_bps < 500e6
        assert r.wire_bytes < 4 * MB

    def test_forced_compression_skips_probe(self):
        cfg = DEFAULT_CONFIG.with_levels(1, 10)
        r = simulate_adoc_message(4 * MB, ASCII, GBIT, config=cfg, seed=0)
        assert r.pipeline_used
        assert r.probe_bps is None

    def test_disabled_compression_always_raw(self):
        cfg = DEFAULT_CONFIG.with_levels(0, 0)
        r = simulate_adoc_message(4 * MB, ASCII, RENATER, config=cfg, seed=0)
        assert not r.pipeline_used
        assert r.wire_bytes >= 4 * MB


class TestPaperShapes:
    """The headline claims of Figures 3-7 (DESIGN.md section 4)."""

    def test_lan100_speedups(self):
        base = simulate_posix_message(32 * MB, LAN100, seed=1)
        ascii_r = simulate_adoc_message(32 * MB, ASCII, LAN100, seed=1)
        bin_r = simulate_adoc_message(32 * MB, BINARY, LAN100, seed=1)
        inc_r = simulate_adoc_message(32 * MB, INCOMPRESSIBLE, LAN100, seed=1)
        assert 1.6 < base.elapsed_s / ascii_r.elapsed_s < 3.5
        assert 1.2 < base.elapsed_s / bin_r.elapsed_s < 2.4
        # Incompressible: never significantly worse than POSIX.
        assert base.elapsed_s / inc_r.elapsed_s > 0.95

    def test_renater_speedups(self):
        base = simulate_posix_message(32 * MB, RENATER, seed=1)
        ascii_r = simulate_adoc_message(32 * MB, ASCII, RENATER, seed=1)
        bin_r = simulate_adoc_message(32 * MB, BINARY, RENATER, seed=1)
        assert 4.0 < base.elapsed_s / ascii_r.elapsed_s < 7.0
        assert 1.8 < base.elapsed_s / bin_r.elapsed_s < 3.0

    def test_internet_speedups(self):
        base = simulate_posix_message(32 * MB, INTERNET, seed=1)
        ascii_r = simulate_adoc_message(32 * MB, ASCII, INTERNET, seed=1)
        assert 4.5 < base.elapsed_s / ascii_r.elapsed_s < 7.0

    def test_gbit_overhead_microseconds(self):
        """Fig. 7: the Gbit overhead is fixed tens of microseconds."""
        for size in (MB, 4 * MB, 32 * MB):
            base = simulate_posix_message(size, GBIT, seed=1)
            r = simulate_adoc_message(size, ASCII, GBIT, seed=1)
            overhead = r.elapsed_s - base.elapsed_s
            assert 0 <= overhead < 100e-6

    def test_crossover_at_512kb(self):
        """Below 512 KB AdOC == POSIX; above, compression engages."""
        below = simulate_adoc_message(511 * 1024, ASCII, RENATER, seed=1)
        above = simulate_adoc_message(520 * 1024, ASCII, RENATER, seed=1)
        assert not below.pipeline_used
        assert above.pipeline_used
        assert above.wire_bytes < below.wire_bytes

    def test_adaptation_reaches_high_levels_on_slow_network(self):
        r = simulate_adoc_message(8 * MB, ASCII, INTERNET, seed=1)
        assert max(r.levels_used) >= 8

    def test_incompressible_guard_keeps_level_down(self):
        r = simulate_adoc_message(8 * MB, INCOMPRESSIBLE, RENATER, seed=1)
        assert r.guard_trips > 0
        # Most packets must be raw.
        raw = r.levels_used.get(0, 0)
        assert raw > sum(v for k, v in r.levels_used.items() if k > 0)


class TestConservationAndAccounting:
    @pytest.mark.parametrize("data", [ASCII, BINARY, INCOMPRESSIBLE])
    @pytest.mark.parametrize("size", [600_000, 3 * MB])
    def test_wire_bytes_reasonable(self, data, size):
        r = simulate_adoc_message(size, data, RENATER, seed=2)
        assert r.payload_bytes == size
        # Wire never exceeds raw + framing overhead...
        assert r.wire_bytes <= size * 1.01 + 1024
        # ...and never drops below the best conceivable ratio.
        assert r.wire_bytes >= size / (data.best_ratio * 1.1)

    def test_deterministic_given_seed(self):
        a = simulate_adoc_message(2 * MB, ASCII, RENATER, seed=42)
        b = simulate_adoc_message(2 * MB, ASCII, RENATER, seed=42)
        assert a.elapsed_s == b.elapsed_s
        assert a.wire_bytes == b.wire_bytes
        assert a.levels_used == b.levels_used

    def test_different_seeds_vary_on_jittery_wan(self):
        a = simulate_adoc_message(2 * MB, ASCII, RENATER, seed=1)
        b = simulate_adoc_message(2 * MB, ASCII, RENATER, seed=2)
        assert a.elapsed_s != b.elapsed_s


class TestDivergenceScenario:
    def test_guard_limits_slow_receiver_damage(self):
        slow = dataclasses.replace(LAN100, receiver_cpu_scale=0.02)
        with_guard = simulate_adoc_message(16 * MB, ASCII, slow, seed=1)
        without = simulate_adoc_message(
            16 * MB, ASCII, slow, seed=1, use_divergence=False
        )
        assert with_guard.elapsed_s < without.elapsed_s * 0.7

    def test_guard_settles_on_raw_for_long_transfers(self):
        slow = dataclasses.replace(LAN100, receiver_cpu_scale=0.02)
        r = simulate_adoc_message(32 * MB, ASCII, slow, seed=1)
        raw_packets = r.levels_used.get(0, 0)
        assert raw_packets > 0.7 * sum(r.levels_used.values())


class TestAdapterFactoryHook:
    def test_custom_adapter_used(self):
        """A custom control law proposes every level the adapter decides."""
        calls = []

        def law(n, delta, level, config):
            calls.append(n)
            return 5

        r = simulate_adoc_message(2 * MB, ASCII, RENATER, seed=1, policy=law)
        assert calls, "custom law must be consulted"
        assert calls == [t.queue_size for t in r.decisions]
        assert {t.raw_level for t in r.decisions} == {5}
        assert set(r.levels_used) <= {0, 5}


class TestPlannerDriven:
    """The simulator drives the live planner: its guard, trace and windows."""

    def test_decisions_after_a_trip_are_held_off(self, monkeypatch):
        """Incompressible data trips the guard; the next decision is held.

        The holdoff counts from the next decision, so the decision after
        a tripped buffer carries ``holdoff`` even though the buffer's own
        25 raw packets outnumber the 10-packet holdoff.
        """
        made: list[SendPlanner] = []

        class Recording(SendPlanner):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                self.tripped: list[bool] = []
                made.append(self)

            def complete(self, outcome, error):
                self.tripped.append(outcome[1])
                return super().complete(outcome, error)

        monkeypatch.setattr(planner_mod, "SendPlanner", Recording)
        r = simulate_adoc_message(4 * MB, INCOMPRESSIBLE, LAN100, seed=1)
        (plan,) = made
        assert r.guard_trips == plan.guard.trips > 0
        assert len(r.decisions) == len(plan.tripped)
        after = [i + 1 for i, hit in enumerate(plan.tripped[:-1]) if hit]
        assert after and all(r.decisions[i].holdoff for i in after)

    def test_shared_divergence_keeps_the_probe_samples(self):
        """The probe's two level-0 halves land in a shared guard per call."""
        half = DEFAULT_CONFIG.probe_size // 2

        class Spy(DivergenceGuard):
            def __init__(self) -> None:
                super().__init__(DEFAULT_CONFIG.divergence_forbid_s)
                self.seen: list[tuple[int, int]] = []

            def observe(self, level, payload_bytes, elapsed):
                self.seen.append((level, payload_bytes))
                super().observe(level, payload_bytes, elapsed)

        guard = Spy()
        for calls, seed in enumerate((1, 2), start=1):
            r = simulate_adoc_message(2 * MB, ASCII, RENATER, seed=seed, divergence=guard)
            assert r.probe_bps is not None and r.pipeline_used
            assert guard.seen.count((0, half)) >= 2 * calls
            assert guard._records[0].samples >= 2 * calls
