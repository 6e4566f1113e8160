"""The send planner, driven by hand: decisions, window, outcomes.

No thread, socket or pool: the test plays the driver, feeding scripted
queued-packet readings and clock values, and checks the exact Figure-2
trace and the in-flight window the planner produces.
"""

from __future__ import annotations

import pytest

from repro.core import AdocConfig
from repro.core.divergence import DivergenceGuard
from repro.core.fifo import QueuedPacket
from repro.core.packets import Record
from repro.core.planner import (
    BYPASS,
    FAST_PATH,
    PIPELINE,
    PROBE,
    EmissionWindows,
    SendPlanner,
    message_route,
    observe_probe,
    record_packets,
)
from repro.obs.telemetry import NULL_TELEMETRY

#: 8 KB buffers of 2 KB packets: every buffer is four raw packets.
CFG = AdocConfig(
    buffer_size=8 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=4 * 1024,
    probe_size=2 * 1024,
)
BUF = b"\0" * CFG.buffer_size


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.1
        return self.now


def compressed(nbytes: int) -> tuple[list[Record], bool]:
    """A codec outcome: one zlib-6 record of ``nbytes`` for a whole buffer."""
    return [Record(6, CFG.buffer_size, b"c" * nbytes)], False


class TestScriptedMessage:
    def test_trace_window_holdoff_and_degrade(self):
        plan = SendPlanner(CFG, DivergenceGuard(), NULL_TELEMETRY, workers=2)
        clock = FakeClock()
        assert (plan.window, plan.window_cap) == (1, 4)

        def decide_and_submit(queued: int) -> int:
            level = plan.decide(queued, clock())
            plan.submit(BUF, level)
            return level

        def complete(outcome, error=None) -> list[QueuedPacket]:
            return list(plan.complete(outcome, error))

        # Slow start: one buffer in flight until its outcome is back.
        assert decide_and_submit(0) == 0
        assert not plan.can_submit()
        assert len(complete(compressed(2000))) == 1
        assert plan.window == 2

        # n = queued + 4 raw packets per buffer still in flight.
        assert decide_and_submit(12) == 1  # n=12, delta=+12
        assert decide_and_submit(14) == 2  # n=18, delta=+6
        assert not plan.can_submit()
        complete(compressed(2000))
        assert plan.window == 3
        assert decide_and_submit(22) == 4  # n=26, delta=+8
        assert decide_and_submit(30) == 6  # n=38, delta=+12
        assert plan.inflight == 3 and not plan.can_submit()

        # Incompressible trip: buffer 2's codec job fired the guard and
        # shipped raw; its four packets count down the 10-packet holdoff.
        assert plan.guard.check_packet(CFG.buffer_size, CFG.buffer_size)
        packets = complete(([Record(0, CFG.buffer_size, BUF)], True))
        assert [p.level for p in packets] == [0, 0, 0, 0]
        assert plan.window == 4 and plan.guard.active
        assert decide_and_submit(30) == 0  # n=38, delta=0: held off
        assert decide_and_submit(33) == 0  # n=45, delta=+7: held off
        assert not plan.can_submit()

        # Buffer 3 emits two packets (holdoff 6 -> 4); buffer 4's codec
        # job raised: it ships raw (4 packets, holdoff drains) and every
        # later submission is pinned to level 0.
        assert len(complete(compressed(2500))) == 2
        packets = complete(None, RuntimeError("injected codec failure"))
        assert [(p.level, p.original_bytes) for p in packets] == [(0, 2048)] * 4
        assert plan.degraded and not plan.guard.active
        assert plan.window == 4  # capped
        assert decide_and_submit(40) == 0  # n=48: Figure 2 says 2, degraded 0

        trace = [
            (t.queue_size, t.delta, t.level, t.holdoff)
            for t in plan.adapter.history
        ]
        assert trace == [
            (0, 0, 0, False),
            (12, 12, 1, False),
            (18, 6, 2, False),
            (26, 8, 4, False),
            (38, 12, 6, False),
            (38, 0, 0, True),
            (45, 7, 0, True),
            (48, 3, 2, False),
        ]

    def test_no_workers_is_a_window_of_one(self):
        plan = SendPlanner(CFG, DivergenceGuard(), NULL_TELEMETRY)
        for _ in range(3):
            plan.submit(BUF, plan.decide(0, 0.0))
            assert not plan.can_submit()
            list(plan.complete(compressed(100), None))
            assert plan.window == 1

    def test_serialize_drops_the_window_to_one(self):
        plan = SendPlanner(CFG, DivergenceGuard(), NULL_TELEMETRY, workers=4)
        plan.submit(BUF, plan.decide(0, 0.0))
        list(plan.complete(compressed(100), None))
        assert plan.window == 2
        plan.serialize()
        assert (plan.window, plan.window_cap) == (1, 1)

    def test_compression_disabled_always_decides_zero(self):
        cfg = CFG.with_levels(0, 0)
        plan = SendPlanner(cfg, DivergenceGuard(), NULL_TELEMETRY)
        assert plan.decide(50, 0.0) == 0


class TestMessageRoute:
    def test_ladder_order(self):
        big = CFG.small_message_threshold
        assert message_route(big - 1, CFG) == BYPASS
        assert message_route(big, CFG) == PROBE
        assert message_route(0, CFG.with_levels(1, 10)) == PIPELINE
        assert message_route(10**9, CFG.with_levels(0, 0)) == BYPASS

    def test_probe_verdict_at_the_fast_network_threshold(self):
        big = CFG.small_message_threshold
        fast = CFG.fast_network_bps
        assert message_route(big, CFG, fast + 1) == FAST_PATH
        assert message_route(big, CFG, fast) == PIPELINE
        assert message_route(big, CFG, fast - 1) == PIPELINE

    def test_unknown_length_always_takes_the_pipeline(self):
        assert message_route(None, CFG) == PIPELINE
        assert message_route(None, CFG.with_levels(0, 0)) == PIPELINE

    def test_probe_is_two_level0_windows(self):
        guard = DivergenceGuard()
        assert observe_probe(guard, 1001, 0.5) == 1001 * 8 / 0.5
        assert guard._records[0].samples == 2
        assert guard.recorded_bandwidth(0) == pytest.approx(1001 / 0.5, rel=1e-3)
        # No guard (the ablation) still yields the rate; no clock tick
        # counts as a nanosecond.
        assert observe_probe(None, 1000, 0.0) == 1000 * 8 / 1e-9


class TestRecordPackets:
    def test_header_rides_on_first_packet_and_orig_sums(self):
        rec = Record(6, 10_000, b"z" * 5000)
        packets = list(record_packets(rec, 2048, buffer_id=7))
        assert [len(p.payload) for p in packets] == [2048, 2048, 904]
        assert packets[0].prefix == rec.header_bytes()
        assert all(p.prefix == b"" for p in packets[1:])
        assert sum(p.original_bytes for p in packets) == 10_000
        assert {p.buffer_id for p in packets} == {7}

    def test_empty_record_is_one_header_packet(self):
        rec = Record(0, 0, b"")
        (pkt,) = record_packets(rec, 2048)
        assert pkt.prefix == rec.header_bytes() and pkt.payload == b""


class TestEmissionWindows:
    def test_window_per_buffer_and_level_closed_by_the_next(self):
        seen = []

        class Recorder(DivergenceGuard):
            def observe(self, level, payload_bytes, elapsed):
                seen.append((level, payload_bytes, round(elapsed, 9)))

        windows = EmissionWindows(Recorder())
        windows.open(1.0)
        windows.leaving(QueuedPacket(b"a", 6, 100, 0), 1.0)
        windows.leaving(QueuedPacket(b"b", 6, 100, 0), 1.5)
        windows.leaving(QueuedPacket(b"c", 0, 300, 1), 2.0)
        windows.close(2.5)
        assert seen == [(6, 200, 1.0), (0, 300, 0.5)]
        # Closed: the next window times from the next open().
        windows.open(10.0)
        windows.leaving(QueuedPacket(b"d", 3, 50, 2), 10.2)
        windows.close(10.4)
        assert seen[-1] == (3, 50, pytest.approx(0.4))
