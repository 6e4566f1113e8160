"""Warm start, and which adaptation state lives how long.

DESIGN.md's lifetime table says which state a message, a connection and
a server's peer host own.  The tests here pin it from the planner's
:class:`~repro.core.adaptation.AdaptationTrace` rows and the tracer's
records, never from a round trip: the send planner is driven by hand
(scripted queue readings, codec outcomes and clock), and the blocking
driver runs over an in-memory sink.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import AdocConfig
from repro.core import sender as sender_mod
from repro.core.divergence import CodecRates, ConnectionRecords, DivergenceGuard
from repro.core.packets import Record
from repro.core.planner import EmissionWindows, SendPlanner, observe_probe
from repro.data import ascii_data, incompressible_data
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.timeline import extract_timeline, render_timeline

#: 8 KB buffers of 2 KB packets: every buffer is four raw packets.
CFG = AdocConfig(
    buffer_size=8 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=4 * 1024,
    probe_size=2 * 1024,
    compress_workers=0,
)
BUF = b"\0" * CFG.buffer_size
#: The probe's level-0 record, in bytes per second.
LINK = 10e6


def connection(last_level: int | None = None, link: float = LINK, **rates: float):
    """Records of a connection that probed at ``link`` bytes/s.

    ``L6=4e6`` records level 6 encoding at 4 MB/s; ``last_level`` is the
    level of the previous message's last buffer.
    """
    records = ConnectionRecords()
    observe_probe(records.divergence, int(link), 1.0)
    for name, rate in rates.items():
        records.codec_rates.observe(int(name[1:]), CFG.buffer_size, CFG.buffer_size / rate)
    records.last_level = last_level
    return records


def planner(records: ConnectionRecords, cfg: AdocConfig = CFG, workers: int = 2,
            telemetry=NULL_TELEMETRY) -> SendPlanner:
    return SendPlanner(cfg, records.divergence, telemetry, workers, records=records)


def timed(level: int, rate: float) -> tuple:
    """A codec outcome for one whole buffer that ran at ``rate``."""
    payload = b"c" * 100 if level else BUF
    return [Record(level, CFG.buffer_size, payload)], False, CFG.buffer_size / rate


class TestWarmFirstDecision:
    def test_starts_at_the_best_passing_level_not_above_the_last(self):
        # Two workers: a level passes at 5 MB/s or more against 10 MB/s.
        records = connection(last_level=7, L2=20e6, L5=6e6, L6=4e6, L8=30e6)
        plan = planner(records)
        assert plan.decide(0, 0.0) == 5  # 8 is above the last level, 6 too slow
        first = plan.adapter.history[0]
        assert (first.warm, first.raw_level, first.level) == (True, 5, 5)
        assert not first.forbidden and not first.fenced
        plan.submit(BUF, 5)
        assert records.last_level == 5
        # Figure 2 goes on from 5: n = 12 + 4 in flight, delta > 0 -> 6,
        # which the fence returns to 5.
        assert plan.decide(12, 0.0) == 5
        second = plan.adapter.history[1]
        assert (second.warm, second.raw_level, second.fenced) == (False, 6, True)

    def test_only_the_first_decision_and_only_at_n0(self):
        records = connection(last_level=4, L4=20e6)
        plan = planner(records)
        assert plan.decide(3, 0.0) == 0  # n = 3: Figure 2's own step
        assert plan.decide(0, 0.0) == 0  # n = 0 later on: minLevel
        assert not any(t.warm for t in plan.adapter.history)

    def test_never_on_a_fresh_connection(self):
        fresh = ConnectionRecords()
        plan = planner(fresh)
        assert plan.decide(0, 0.0) == 0
        # After its probe a connection trusts level 0, but has no codec
        # rates and no previous message yet.
        probed = ConnectionRecords()
        observe_probe(probed.divergence, int(LINK), 1.0)
        plan = planner(probed)
        assert plan.decide(0, 0.0) == 0
        assert probed.last_level is None

    @pytest.mark.parametrize(
        "records",
        [
            pytest.param(connection(last_level=None, L4=20e6), id="no-previous-message"),
            pytest.param(connection(last_level=0, L4=20e6), id="previous-ended-raw"),
            pytest.param(connection(last_level=6, L4=2e6), id="no-passing-rate"),
            pytest.param(connection(last_level=3, L4=20e6), id="passing-only-above-last"),
        ],
    )
    def test_cold_without_the_evidence(self, records):
        plan = planner(records)
        assert plan.decide(0, 0.0) == 0
        assert not plan.adapter.history[0].warm

    def test_inert_without_a_trusted_level0_record(self):
        records = ConnectionRecords()
        records.divergence.observe(0, int(LINK), 1.0)  # one window: not trusted
        records.codec_rates.observe(4, CFG.buffer_size, 1e-6)
        records.last_level = 6
        assert planner(records).decide(0, 0.0) == 0

    def test_inert_without_records_even_given_rates(self):
        # The simulator's planner: no records, so the paper's cold start.
        guard = DivergenceGuard()
        observe_probe(guard, int(LINK), 1.0)
        rates = CodecRates()
        rates.observe(4, CFG.buffer_size, 1e-6)
        plan = SendPlanner(CFG, guard, NULL_TELEMETRY, 2, codec_rates=rates)
        assert plan.decide(0, 0.0) == 0
        assert not plan.adapter.history[0].warm

    def test_never_after_a_codec_failure_degrade(self):
        records = connection(last_level=6, L4=20e6)
        first = planner(records)
        assert first.decide(0, 0.0) == 4
        first.submit(BUF, 4)
        list(first.complete(None, RuntimeError("injected codec failure")))
        assert first.degraded and records.last_level == 0
        second = planner(records)
        assert second.decide(0, 0.0) == 0
        assert not second.adapter.history[0].warm

    def test_never_below_min_level(self):
        cfg = CFG.with_levels(3, 10)
        records = connection(last_level=8, L2=50e6)  # only level 2 passes
        plan = planner(records, cfg)
        assert plan.decide(0, 0.0) == 3  # Figure 2's minLevel
        assert not plan.adapter.history[0].warm
        records = connection(last_level=8, L2=50e6, L4=50e6)
        plan = planner(records, cfg)
        assert plan.decide(0, 0.0) == 4 and plan.adapter.history[0].warm

    def test_the_divergence_veto_still_applies(self):
        records = connection(last_level=6, L6=50e6)
        # Level 6 was seen emitting 1 KB/s: far below the level-0 record.
        records.divergence.observe(6, 1000, 1.0)
        plan = planner(records)
        assert plan.decide(0, 0.0) == 0
        first = plan.adapter.history[0]
        assert first.warm and first.forbidden and first.raw_level == 6

    def test_warm_decisions_are_traced(self):
        tele = Telemetry(enabled=True)
        plan = planner(connection(last_level=5, L5=20e6), telemetry=tele)
        plan.decide(0, 0.0)
        (event,) = tele.tracer.events("level")
        assert event.args["warm"] is True and event.args["new_level"] == 5
        (point,) = extract_timeline(tele.tracer)
        assert point.warm
        assert render_timeline([point]).splitlines()[-1].split()[-1] == "W"


def test_one_message_on_a_fresh_connection_decides_as_the_cold_planner():
    """A fresh connection's records change nothing within its first message.

    The reference is the planner as the live drivers built it before warm
    start (the divergence guard and codec rates, no records); both get
    the same queue readings, including ``n = 0`` mid-message, and the
    same timed codec outcomes.
    """
    readings = [0, 12, 14, 22, 30, 0, 33, 20, 40, 8, 0, 5, 16, 25, 31, 9]
    rate = {level: 24e6 / max(level, 1) for level in range(11)}

    def run(plan: SendPlanner) -> list[tuple]:
        for queued in readings:
            level = plan.decide(queued, 0.0)
            plan.submit(BUF, level)
            list(plan.complete(timed(level, rate[level]), None))
        return [
            (t.queue_size, t.delta, t.raw_level, t.level, t.forbidden, t.fenced, t.warm)
            for t in plan.adapter.history
        ]

    fresh = ConnectionRecords()
    observe_probe(fresh.divergence, int(LINK), 1.0)
    guard = DivergenceGuard()
    observe_probe(guard, int(LINK), 1.0)
    cold = SendPlanner(CFG, guard, NULL_TELEMETRY, 2, codec_rates=CodecRates())
    assert run(planner(fresh)) == run(cold)
    assert fresh.last_level == cold.adapter.history[-1].level


class StepClock:
    """A clock that moves 1 ms per reading; ``jump`` moves it further."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


class Sink:
    def send(self, data) -> int:
        return len(data)

    def send_vectors(self, buffers) -> int:
        return sum(len(b) for b in buffers)


class TestProbeOncePerConnection:
    def test_a_message_within_the_forbid_window_reuses_the_probe(self):
        tele = Telemetry(enabled=True)
        cfg = replace(CFG, telemetry=tele)
        clock = StepClock()
        sender = sender_mod.MessageSender(Sink(), cfg, clock)
        data = ascii_data(4 * CFG.buffer_size, seed=3)

        first = sender.send(data)
        assert first.pipeline_used and not first.probe_reused
        assert sender.records.probe == (first.probe_bps, pytest.approx(clock.now, abs=1.0))

        second = sender.send(data)
        assert second.probe_reused and second.probe_bps == first.probe_bps
        assert second.pipeline_used

        clock.now += cfg.divergence_forbid_s
        third = sender.send(data)
        assert not third.probe_reused
        assert [e.name for e in tele.tracer.events("probe")] == ["sent", "reused", "sent"]
        assert [e.args["bps"] for e in tele.tracer.events("probe")][:2] == [first.probe_bps] * 2

    def test_a_reused_probe_sends_no_probe_bytes(self, monkeypatch):
        probes: list[int] = []
        real = sender_mod.MessageSender._probe

        def counting(self, source, total, cfg):
            probes.append(total)
            return real(self, source, total, cfg)

        monkeypatch.setattr(sender_mod.MessageSender, "_probe", counting)
        sender = sender_mod.MessageSender(Sink(), CFG, StepClock())
        data = ascii_data(4 * CFG.buffer_size, seed=4)
        sender.send(data)
        sender.send(data)
        assert len(probes) == 1


class Recording(SendPlanner):
    """Every planner the blocking driver builds, with its starting window."""

    made: list = []

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.first_window = self.window
        Recording.made.append(self)


@pytest.fixture
def made(monkeypatch):
    Recording.made = []
    monkeypatch.setattr(sender_mod, "SendPlanner", Recording)
    return Recording.made


class TestLifetime:
    """DESIGN.md's table, row by row, on a persistent blocking connection."""

    def test_per_message_state_starts_over(self, made):
        # Forced levels: no probe, no warm start (no level-0 record).
        cfg = CFG.with_levels(1, 10)
        sender = sender_mod.MessageSender(Sink(), cfg)
        sender.send(incompressible_data(6 * CFG.buffer_size, seed=1))
        sender.send(ascii_data(6 * CFG.buffer_size, seed=2))
        first, second = made
        # The incompressible guard tripped in the first message only.
        assert any(t.holdoff for t in first.adapter.history)
        assert first.guard is not second.guard
        assert not second.adapter.history[0].holdoff
        # Figure 2's delta baseline and the slow-start window restart.
        assert first.adapter.history[0].delta == 0
        assert second.adapter.history[0].delta == 0
        assert first.first_window == second.first_window == 1

    def test_per_connection_state_carries_over(self, made):
        sender = sender_mod.MessageSender(Sink(), CFG, StepClock())
        sender.send(ascii_data(6 * CFG.buffer_size, seed=5))
        records = sender.records
        first = made[0]
        # The last buffer's level: the last decision only found the
        # source read out.
        assert records.last_level == first.adapter.history[-2].level
        assert records.probe is not None
        sender.send(ascii_data(6 * CFG.buffer_size, seed=6))
        second = made[1]
        assert first.codec_rates is second.codec_rates is records.codec_rates
        assert sender.divergence is records.divergence

    def test_the_guard_forbids_level1_below_level0_across_messages(self):
        """On a persistent connection the divergence records outlive a
        message: level 1's slow windows from the first message forbid it
        in the second, which ships level 0 instead.  Asserted from the
        trace: the emission clock is scripted."""
        cfg = CFG.with_levels(0, 1)
        tele = Telemetry(enabled=True)
        records = ConnectionRecords()
        observe_probe(records.divergence, 2 * CFG.buffer_size, 0.001)  # ~16 MB/s

        def message(readings: list[int], start: float) -> SendPlanner:
            plan = planner(records, cfg, workers=0, telemetry=tele)
            windows = EmissionWindows(records.divergence)
            now = start
            windows.open(now)
            for queued in readings:
                level = plan.decide(queued, now)
                plan.submit(BUF, level)
                for pkt in plan.complete(timed(level, 1e9), None):
                    # A level-1 packet takes a second to leave: the
                    # receiver cannot keep up with its decompression.
                    windows.leaving(pkt, now)
                    now += 1.0 if level else 1e-4
            windows.close(now)
            return plan

        first = message([12, 16, 20], 0.0)
        assert [t.level for t in first.adapter.history] == [0, 1, 1]
        assert not any(t.forbidden for t in first.adapter.history)
        level1 = records.divergence.recorded_bandwidth(1)
        assert level1 * records.divergence.MARGIN < records.divergence.trusted_bandwidth(0)

        second = message([12, 16], 20.0)
        proposed = second.adapter.history[1]
        assert (proposed.raw_level, proposed.level, proposed.forbidden) == (1, 0, True)
        events = [e.args for e in tele.tracer.events("level")]
        assert events[-1]["forbidden"] and events[-1]["new_level"] == 0
