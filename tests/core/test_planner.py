"""The send planner, driven by hand: decisions, window, outcomes.

No thread, socket or pool: the test plays the driver, feeding scripted
queued-packet readings and clock values, and checks the exact Figure-2
trace and the in-flight window the planner produces.
"""

from __future__ import annotations

import pytest

from repro.core import AdocConfig
from repro.core import sender as sender_mod
from repro.core.divergence import CodecRates, DivergenceGuard
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
from repro.data import ascii_data
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.timeline import extract_timeline, render_timeline

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
            (48, 3, 0, False),  # the trace reports the level used
        ]
        assert plan.adapter.level == 0

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


#: The scripted link: the probe's level-0 record, in bytes per second.
LINK = 10e6


def probed(link: float = LINK) -> DivergenceGuard:
    """A divergence guard holding the probe's two level-0 windows."""
    guard = DivergenceGuard()
    observe_probe(guard, int(link), 1.0)
    return guard


def rated(**rates: float) -> CodecRates:
    """Encode-rate records, ``L6=4e6`` meaning level 6 at 4 MB/s."""
    records = CodecRates()
    for name, rate in rates.items():
        records.observe(int(name[1:]), CFG.buffer_size, CFG.buffer_size / rate)
    return records


def timed(level: int, rate: float, tripped: bool = False) -> tuple:
    """A codec outcome for one whole buffer that ran at ``rate``."""
    return [Record(level, CFG.buffer_size, b"c" * 100)], tripped, CFG.buffer_size / rate


class Proposer:
    """Plays the driver with Figure 2 held at a chosen level.

    Each decision reads a queue 8 packets shorter than the last, so
    ``n`` stays at 30 or more with ``delta < 0`` (a submission adds only
    four in-flight packets) and Figure 2 keeps the level it starts from.
    """

    def __init__(self, plan: SendPlanner) -> None:
        self.plan = plan
        self.queued = 200

    def propose(self, level: int, submit: bool = True) -> int:
        self.plan.adapter.level = level
        self.queued -= 8
        used = self.plan.decide(self.queued, 0.0)
        if submit:
            self.plan.submit(BUF, used)
        return used

    def fenced(self) -> bool:
        return self.plan.adapter.history[-1].fenced


class TestCodecRules:
    """The rate fence and probation, with scripted codec seconds."""

    def test_fence_picks_the_highest_passing_level(self):
        # Two workers: a level passes at 5 MB/s or more against 10 MB/s.
        rates = rated(L6=4e6, L5=4.5e6, L4=6e6)
        driver = Proposer(SendPlanner(CFG, probed(), NULL_TELEMETRY, 2, codec_rates=rates))
        assert driver.propose(6, submit=False) == 4
        assert driver.fenced()
        assert driver.plan.adapter.level == 4  # Figure 2 goes on from 4
        # An unrecorded level below a slow one is allowed (blind) ...
        rates = rated(L6=4e6, L4=6e6)
        driver = Proposer(SendPlanner(CFG, probed(), NULL_TELEMETRY, 2, codec_rates=rates))
        assert driver.propose(6, submit=False) == 5
        # ... and inline, one codec thread must keep up with the link alone.
        rates = rated(L6=4e6, L5=4.5e6, L4=6e6, L2=12e6)
        driver = Proposer(SendPlanner(CFG, probed(), NULL_TELEMETRY, 0, codec_rates=rates))
        assert driver.propose(6, submit=False) == 3
        assert driver.propose(4, submit=False) == 3
        assert driver.propose(2, submit=False) == 2 and not driver.fenced()

    def test_probation_allows_one_blind_buffer_per_level(self):
        plan = SendPlanner(CFG, probed(), NULL_TELEMETRY, 4, codec_rates=rated(L2=12e6))
        driver = Proposer(plan)
        assert driver.propose(2) == 2
        list(plan.complete(timed(2, 12e6), None))
        assert driver.propose(4) == 4 and not driver.fenced()  # the blind buffer
        assert driver.propose(4) == 2 and driver.fenced()  # on probation
        assert not plan.can_submit()
        list(plan.complete(timed(4, 8e6), None))  # level 4's evidence lands
        assert driver.propose(4) == 4 and not driver.fenced()
        assert driver.propose(6) == 6 and not driver.fenced()  # its own blind buffer
        list(plan.complete(timed(2, 12e6), None))
        list(plan.complete(timed(4, 8e6), None))
        assert driver.propose(6) == 4 and driver.fenced()  # level 5 has no record
        list(plan.complete(timed(6, 1e6), None))
        # Level 6 is now recorded too slow: the fence allows unrecorded 5.
        assert driver.propose(6, submit=False) == 5 and driver.fenced()

    def test_probation_without_a_recorded_level_below_lets_the_level_stand(self):
        plan = SendPlanner(CFG, probed(), NULL_TELEMETRY, 4, codec_rates=CodecRates())
        driver = Proposer(plan)
        assert driver.propose(0) == 0
        list(plan.complete(timed(0, 1e9), None))
        assert driver.propose(3) == 3
        assert driver.propose(3) == 3  # level 0 is no codec evidence
        assert plan.codec_rates.rate(0) is None

    def test_pinned_levels_stay_even_when_slow(self):
        cfg = CFG.with_levels(6, 6)
        slow = SendPlanner(cfg, probed(), NULL_TELEMETRY, 4, codec_rates=rated(L6=1e6))
        driver = Proposer(slow)
        assert driver.propose(6) == 6 and not driver.fenced()
        # Unrecorded, with its blind buffer in flight: nothing below 6.
        blind = SendPlanner(cfg, probed(), NULL_TELEMETRY, 4, codec_rates=CodecRates())
        driver = Proposer(blind)
        driver.propose(6)
        list(blind.complete(timed(6, 1e9, tripped=True), None))  # no record
        assert driver.propose(6) == 6
        assert driver.propose(6) == 6 and not driver.fenced()

    def test_inert_without_a_level0_record(self):
        one_window = DivergenceGuard()
        one_window.observe(0, int(LINK), 1.0)
        for guard, rates in [
            (DivergenceGuard(), rated(L10=1e6)),  # forced: no probe
            (one_window, rated(L10=1e6)),  # one window is not trusted
            (None, rated(L10=1e6)),  # the divergence ablation
            (probed(), None),  # no rates: the simulator
        ]:
            plan = SendPlanner(CFG, guard, NULL_TELEMETRY, 4, codec_rates=rates)
            driver = Proposer(plan)
            assert driver.propose(10) == 10
            assert driver.propose(10) == 10  # two blind buffers in flight
            assert not any(t.fenced for t in plan.adapter.history)

    def test_records_persist_across_messages(self):
        guard, rates = probed(), CodecRates()
        first = SendPlanner(CFG, guard, NULL_TELEMETRY, 2, codec_rates=rates)
        Proposer(first).propose(9)
        list(first.complete(timed(9, 2e6), None))
        second = SendPlanner(CFG, guard, NULL_TELEMETRY, 2, codec_rates=rates)
        assert Proposer(second).propose(9) == 8  # fenced from the first decision

    def test_a_connection_hands_every_message_the_same_records(self, monkeypatch):
        made: list[SendPlanner] = []

        class Recording(SendPlanner):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(sender_mod, "SendPlanner", Recording)

        class Sink:
            def send(self, data) -> int:
                return len(data)

            def send_vectors(self, buffers) -> int:
                return sum(len(b) for b in buffers)

        cfg = CFG.with_levels(3, 3)
        sender = sender_mod.MessageSender(Sink(), cfg)
        data = ascii_data(4 * CFG.buffer_size, seed=5)
        sender.send(data)
        assert sender.codec_rates.rate(3) is not None
        sender.send(data)
        assert [p.codec_rates for p in made] == [sender.codec_rates] * 2

    def test_tripped_and_raw_jobs_leave_no_record(self):
        rates = CodecRates()
        plan = SendPlanner(CFG, probed(), NULL_TELEMETRY, 2, codec_rates=rates)
        driver = Proposer(plan)
        driver.propose(0)
        list(plan.complete(timed(0, 1e9), None))
        driver.propose(5)
        list(plan.complete(timed(5, 1e6, tripped=True), None))
        assert rates.rate(0) is None and rates.rate(5) is None

    def test_fenced_decisions_are_traced_and_counted(self):
        tele = Telemetry(enabled=True)
        plan = SendPlanner(CFG, probed(), tele, 2, codec_rates=rated(L8=1e6))
        Proposer(plan).propose(8, submit=False)
        (event,) = tele.tracer.events("level")
        assert event.args["fenced"] is True
        assert event.args["new_level"] == 7
        counter = tele.metrics.counter("adoc_guard_trips_total", "", ("guard",))
        assert counter.value(guard="codec_rate") == 1
        (point,) = extract_timeline(tele.tracer)
        assert point.fenced
        assert render_timeline([point]).splitlines()[-1].split()[-1] == "C"


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
