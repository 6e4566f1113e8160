"""The send planner, driven by hand: decisions, window, outcomes.

No thread, socket or pool: the test plays the driver, feeding scripted
queued-packet readings and clock values, and checks the exact Figure-2
trace and the in-flight window the planner produces.
"""

from __future__ import annotations

import random

import pytest

from repro.core import AdocConfig
from repro.core import planner as planner_mod
from repro.core import sender as sender_mod
from repro.core.compressor import compress_buffer
from repro.core.divergence import CodecRates, ConnectionRecords, DivergenceGuard
from repro.core.fifo import QueuedPacket
from repro.core.packets import Record
from repro.core.planner import (
    BYPASS,
    FAST_PATH,
    PIPELINE,
    PROBE,
    EmissionWindows,
    SendPlanner,
    SendResult,
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
        # shipped raw.  The 10-packet holdoff counts from the next
        # decision; each decision it pins uses up four raw packets.
        assert plan.guard.check_packet(CFG.buffer_size, CFG.buffer_size)
        packets = complete(([Record(0, CFG.buffer_size, BUF)], True))
        assert [p.level for p in packets] == [0, 0, 0, 0]
        assert plan.window == 4 and plan.guard.active
        assert decide_and_submit(30) == 0  # n=38, delta=0: held off (10 -> 6)
        assert decide_and_submit(33) == 0  # n=45, delta=+7: held off (6 -> 2)
        assert not plan.can_submit()

        # Emitted packets spend none of the holdoff.  Buffer 4's codec
        # job raised: it ships raw and every later submission is pinned
        # to level 0.
        assert len(complete(compressed(2500))) == 2
        packets = complete(None, RuntimeError("injected codec failure"))
        assert [(p.level, p.original_bytes) for p in packets] == [(0, 2048)] * 4
        assert plan.degraded and plan.guard.active
        assert plan.window == 4  # capped
        assert decide_and_submit(40) == 0  # n=48: held off (2 -> 0)
        assert not plan.guard.active
        assert decide_and_submit(40) == 0  # n=52: Figure 2 says 2, degraded 0

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
            (48, 3, 0, True),
            (52, 4, 0, False),  # the trace reports the level used
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


class TestLedger:
    def test_result_counts_every_record_handed_out(self):
        plan = SendPlanner(CFG, DivergenceGuard(), NULL_TELEMETRY)
        noise = random.Random(1).randbytes(CFG.buffer_size)
        handed: list[QueuedPacket] = []

        plan.submit(BUF, 6)
        handed += plan.complete(compressed(3000), None)
        # Random bytes trip the guard: the records go out raw.
        plan.submit(noise, 1)
        outcome = compress_buffer(noise, 1, plan.guard, CFG)
        assert outcome[1] and plan.guard.trips == 1
        handed += plan.complete(outcome, None)
        # A codec failure ships the buffer as one raw record.
        plan.submit(BUF, 2)
        handed += plan.complete(None, RuntimeError("injected codec failure"))

        result = plan.result(SendResult(0, 12, 0.0))
        levels: dict[int, int] = {}
        for pkt in handed:
            levels[pkt.level] = levels.get(pkt.level, 0) + 1
        assert result.levels_used == levels == {6: 2, 0: 8}
        assert result.wire_bytes == 12 + sum(pkt.wire_length for pkt in handed)
        assert result.payload_bytes == 3 * CFG.buffer_size
        assert (result.guard_trips, result.degraded, result.pipeline_used) == (1, True, True)

    def test_result_of_an_empty_message(self):
        plan = SendPlanner(CFG, DivergenceGuard(), NULL_TELEMETRY)
        assert plan.result() == SendResult(0, 0, 0.0, pipeline_used=True)


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


def timed(level: int, rate: float, tripped: bool = False, payload: int = 100) -> tuple:
    """A codec outcome for one whole buffer that ran at ``rate``.

    Its ``payload`` bytes make the level's ratio record: the default
    (about 75) makes every level codec-bound against :data:`LINK`.
    """
    records = [Record(level, CFG.buffer_size, b"c" * payload)]
    return records, tripped, CFG.buffer_size / rate


#: A payload of about half the buffer: a ratio of 2, so every level
#: that passes the level-0 test moves at the link's 2x (link-bound).
HALF = CFG.buffer_size // 2


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
        # Link-bound ratios: levels 2 and 4 predict the same pipeline
        # rate, so only probation and the level-0 test move levels here.
        plan = SendPlanner(CFG, probed(), NULL_TELEMETRY, 4, codec_rates=rated(L2=12e6))
        driver = Proposer(plan)
        assert driver.propose(2) == 2
        list(plan.complete(timed(2, 12e6, payload=HALF), None))
        assert driver.propose(4) == 4 and not driver.fenced()  # the blind buffer
        assert driver.propose(4) == 2 and driver.fenced()  # on probation
        assert not plan.can_submit()
        list(plan.complete(timed(4, 8e6, payload=HALF), None))  # level 4's evidence lands
        assert driver.propose(4) == 4 and not driver.fenced()
        assert driver.propose(6) == 6 and not driver.fenced()  # its own blind buffer
        list(plan.complete(timed(2, 12e6, payload=HALF), None))
        list(plan.complete(timed(4, 8e6, payload=HALF), None))
        assert driver.propose(6) == 4 and driver.fenced()  # level 5 has no record
        list(plan.complete(timed(6, 1e6, payload=HALF), None))
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

        monkeypatch.setattr(planner_mod, "SendPlanner", Recording)

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
        assert rates.ratio(0) is None and rates.ratio(5) is None

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


def measured(**table: tuple[float, float]) -> CodecRates:
    """Rate and ratio records: ``L6=(15.5e6, 4.84)`` means level 6
    encodes at 15.5 MB/s into 1/4.84 of its bytes, headers included."""
    records = CodecRates()
    for name, (rate, ratio) in table.items():
        records.observe(
            int(name[1:]), CFG.buffer_size, CFG.buffer_size / rate,
            round(CFG.buffer_size / ratio),
        )
    return records


#: ``LAN100``'s level-0 record: 94 Mbit/s.
LAN = 94e6 / 8
#: Per-level (encode rate, ratio) of ``ascii_data`` over ``LAN100``
#: with two codec workers, read off live 8 MB transfers (EXPERIMENTS.md
#: "Live ``lan_ascii``: a throughput fence"; level 3 had no record).
#: Predicted pipeline rates T in MB/s: L2 42, L4 48, L5 41, L6 32,
#: L7 21, L8 21; L9 and L10 fall short of the link.
LAN_ASCII = dict(
    L2=(36.0e6, 3.57), L4=(24.2e6, 4.09), L5=(20.6e6, 4.14),
    L6=(15.9e6, 4.84), L7=(10.5e6, 4.98), L8=(10.3e6, 5.03),
    L9=(4.5e6, 5.12), L10=(4.2e6, 5.11),
)
#: ``binary_data`` over 22 Mbit/s ``RENATER``: flat ratios, fast codecs.
WAN = 22e6 / 8
WAN_BINARY = {f"L{lvl}": (36e6 + 2e6 * (10 - lvl), 2.14) for lvl in range(2, 11)}
#: A sparse ``rpc_dgemm`` reply: ratios over 100, so every level is
#: codec-bound, and zlib's lazy matching from level 5 halves the rate.
RPC_DGEMM = dict(
    L2=(373e6, 128.4), L3=(328e6, 153.4), L4=(367e6, 153.9),
    L5=(157e6, 336.3), L6=(156e6, 335.7), L7=(165e6, 335.7),
    L8=(141e6, 335.7), L9=(150e6, 338.5), L10=(152e6, 338.5),
)


class TestThroughputFence:
    """The fence ranks levels by ``T = min(E × workers, B × r)``."""

    @staticmethod
    def decisions(rates: CodecRates, link: float, workers: int = 2) -> list[tuple]:
        """``(proposed, used, fenced)`` for every level, from the trace."""
        plan = SendPlanner(CFG, probed(link), NULL_TELEMETRY, workers, codec_rates=rates)
        driver = Proposer(plan)
        for level in range(CFG.min_level, CFG.max_level + 1):
            driver.propose(level, submit=False)
        return [(t.raw_level, t.level, t.fenced) for t in plan.adapter.history]

    def test_lan_ascii_fences_the_levels_its_codec_cannot_feed(self):
        rows = self.decisions(measured(**LAN_ASCII), LAN)
        assert all(used <= 6 and fenced for proposed, used, fenced in rows if proposed >= 7)
        # Levels 2, 4 and 5 predict 41-48 MB/s, within MARGIN of each
        # other; 6 (32 MB/s) is beaten by 4, and levels 1 and 3 have no
        # record.
        assert [used for _, used, _ in rows] == [0, 1, 2, 3, 4, 5, 5, 5, 5, 5, 5]

    def test_wan_binary_fences_nothing(self):
        rows = self.decisions(measured(**WAN_BINARY), WAN)
        assert [used for _, used, _ in rows] == list(range(11))
        assert not any(fenced for *_, fenced in rows)

    def test_rpc_dgemm_keeps_the_fast_deflate_levels(self):
        rows = self.decisions(measured(**RPC_DGEMM), LAN)
        assert [used for _, used, _ in rows] == [0, 1, 2, 3, 4, 4, 4, 4, 4, 4, 4]
        assert [fenced for *_, fenced in rows] == [False] * 5 + [True] * 6

    @pytest.mark.parametrize("workers", [0, 2, 4])
    def test_without_ratio_records_the_level0_test_alone_decides(self, workers):
        rates = rated(**{name: rate for name, (rate, _) in LAN_ASCII.items()})
        bar = LAN / max(1, workers)

        def level0_test(level: int) -> int:
            """The highest level up to ``level`` that is unrecorded or
            keeps up with the link."""
            while (rate := rates.rate(level)) is not None and rate < bar:
                level -= 1
            return level

        rows = self.decisions(rates, LAN, workers)
        assert [used for _, used, _ in rows] == [level0_test(lvl) for lvl in range(11)]
        # Levels the ratios would fence stand without them.
        assert rows[-1][1] == {0: 6, 2: 8, 4: 10}[workers]

    def test_warm_start_takes_the_best_level_by_throughput(self):
        # T: L2 42, L6 57, L8 34 MB/s; each level keeps up with the link.
        table = dict(L2=(40e6, 3.58), L6=(32.4e6, 4.84), L8=(16.8e6, 5.03))
        rates_only = {name: rate for name, (rate, _) in table.items()}
        for last, start, ratios in [(10, 6, True), (7, 6, True), (5, 2, True), (10, 8, False)]:
            records = ConnectionRecords()
            observe_probe(records.divergence, int(LAN), 1.0)
            records.codec_rates = measured(**table) if ratios else rated(**rates_only)
            records.last_level = last
            plan = SendPlanner(CFG, records.divergence, NULL_TELEMETRY, 2, records=records)
            assert plan.decide(0, 0.0) == start
            first = plan.adapter.history[0]
            assert first.warm and not first.fenced

    def test_an_outcome_records_its_ratio_headers_included(self):
        plan = SendPlanner(CFG, probed(), NULL_TELEMETRY, 2, codec_rates=CodecRates())
        Proposer(plan).propose(5)
        records = [Record(5, 4096, b"a" * 91), Record(5, 4096, b"b" * 91)]
        list(plan.complete((records, False, 1e-3), None))
        assert plan.codec_rates.ratio(5) == CFG.buffer_size / 200

    def test_a_fenced_row_carries_the_predicted_rates(self, monkeypatch):
        tele = Telemetry(enabled=True)
        plan = SendPlanner(CFG, probed(LAN), tele, 2, codec_rates=measured(**LAN_ASCII))
        driver = Proposer(plan)
        driver.propose(4, submit=False)
        driver.propose(8, submit=False)
        kept, fenced = tele.tracer.events("level")
        assert "proposed_mb_s" not in kept.args and "used_mb_s" not in kept.args
        assert fenced.args["fenced"] and fenced.args["new_level"] == 5
        assert fenced.args["proposed_mb_s"] == pytest.approx(20.6, abs=0.01)
        assert fenced.args["used_mb_s"] == pytest.approx(41.2, abs=0.01)
        # Telemetry off: the fence predicts no rate for the trace.
        calls: list[int] = []
        predict = SendPlanner._pipeline_rate
        monkeypatch.setattr(
            SendPlanner, "_pipeline_rate",
            lambda self, level, link: calls.append(level) or predict(self, level, link),
        )

        def predicted(telemetry) -> list[int]:
            calls.clear()
            plan = SendPlanner(CFG, probed(LAN), telemetry, 2, codec_rates=measured(**LAN_ASCII))
            Proposer(plan).propose(8, submit=False)
            return list(calls)

        assert predicted(Telemetry(enabled=True)) == predicted(NULL_TELEMETRY) + [8, 5]


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
