"""Compressing buffer 0 while the section-5 probe is on the wire.

The blocking sender starts a probed message's dispatcher before the
probe goes out, behind a gate that opens once the probe has been on the
wire longer than ``probe bytes * 8 / fast_network_bps``.  These tests pin
the gate (a probe that beats it takes the old path byte for byte) and
the decisions around it, from the planner's trace rows and the tracer's
records.  Links are in-memory sinks; a slow one sleeps in every send.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import AdocConfig, ReceiverPipeline
from repro.core import planner as planner_mod
from repro.core import sender as sender_mod
from repro.data import ascii_data, incompressible_data
from repro.obs.telemetry import Telemetry
from repro.obs.timeline import extract_timeline, render_timeline
from repro.transport import pipe_pair

#: The golden ``probe_fast_path`` shape's sizes, with a fast-network
#: threshold that puts the gate 330 ms out: an in-memory probe beats it.
GATED = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
    fast_network_bps=1e5,
)
FAST_PATH_FIXTURE = Path(__file__).parents[1] / "golden" / "fixtures" / "probe_fast_path.bin"


class Sink:
    """A link that takes ``delay_s`` per send call and keeps every byte."""

    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s
        self.wire = bytearray()

    def send(self, data) -> int:
        time.sleep(self.delay_s)
        self.wire += data
        return len(data)

    def send_vectors(self, buffers) -> int:
        time.sleep(self.delay_s)
        for buf in buffers:
            self.wire += buf
        return sum(len(b) for b in buffers)


def decoded(wire: bytes | bytearray, cfg: AdocConfig) -> bytes:
    a, b = pipe_pair(capacity=1 << 20)
    receiver = ReceiverPipeline(b, cfg)
    out = bytearray()
    feeder = threading.Thread(target=lambda: (a.send_vectors([wire]), a.close()), daemon=True)
    feeder.start()
    while chunk := receiver.read(1 << 16):
        out += chunk
    feeder.join(5)
    receiver.close()
    return bytes(out)


def traced(cfg: AdocConfig) -> tuple[AdocConfig, Telemetry]:
    tele = Telemetry(enabled=True)
    return replace(cfg, telemetry=tele), tele


@pytest.fixture
def made(monkeypatch):
    """Every planner the blocking driver builds."""
    plans: list = []

    class Recording(planner_mod.SendPlanner):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            plans.append(self)

    monkeypatch.setattr(planner_mod, "SendPlanner", Recording)
    return plans


class TestGate:
    def test_a_probe_that_beats_the_gate_starts_no_codec_job(self):
        cfg, tele = traced(GATED)
        sink = Sink()
        result = sender_mod.MessageSender(sink, cfg).send(ascii_data(40_000, seed=12))
        assert result.fast_path
        # The same wire the golden fast-path shape froze.
        assert bytes(sink.wire) == FAST_PATH_FIXTURE.read_bytes()
        assert tele.tracer.events("buffer") == []
        assert tele.tracer.events("level") == []
        (probe,) = tele.tracer.events("probe")
        assert probe.args["overlap_level"] is None

    def test_a_slow_reading_that_beats_the_gate_takes_the_cold_pipeline(self, made):
        # The probe is timed at 32 kbit/s by the sender's clock, yet it
        # leaves the in-memory link long before the gate opens.
        cfg, tele = traced(replace(GATED, compress_workers=0))
        ticks = itertools.count()
        sender = sender_mod.MessageSender(Sink(), cfg, clock=lambda: float(next(ticks)))
        payload = ascii_data(40_000, seed=12)
        result = sender.send(payload)
        assert result.pipeline_used and not result.fast_path
        (plan,) = made
        first = plan.adapter.history[0]
        assert (first.queue_size, first.level, first.during_probe) == (0, 0, False)
        assert not any(t.during_probe for t in plan.adapter.history)
        (probe,) = tele.tracer.events("probe")
        assert probe.args["overlap_level"] is None

    def test_zero_fast_network_bps_never_overlaps(self):
        # Every probe is "very fast": there is no gate to wait out, even
        # on a link slow enough that one would open.
        cfg, tele = traced(replace(GATED, fast_network_bps=0.0))
        sink = Sink(delay_s=0.02)
        result = sender_mod.MessageSender(sink, cfg).send(ascii_data(40_000, seed=12))
        assert result.fast_path
        assert bytes(sink.wire) == FAST_PATH_FIXTURE.read_bytes()
        assert tele.tracer.events("level") == []
        assert tele.tracer.events("span") == []  # no compression thread ran

    def test_a_race_at_the_gate_ships_buffer0_as_the_fast_path_does(self, made):
        # The gate opens on a slow link, but the sender's clock times the
        # probe as very fast: buffer 0's job completes, then it ships raw.
        cfg, tele = traced(replace(GATED, fast_network_bps=500e6))  # a 66 us gate
        ticks = itertools.count()
        slow = Sink(delay_s=0.05)
        sender = sender_mod.MessageSender(slow, cfg, clock=lambda: next(ticks) * 1e-9)
        result = sender.send(ascii_data(40_000, seed=12))
        assert result.fast_path
        assert bytes(slow.wire) == FAST_PATH_FIXTURE.read_bytes()
        (plan,) = made
        assert [t.during_probe for t in plan.adapter.history] == [True]
        assert tele.tracer.events("buffer") == []
        assert sender.records.last_level is None


#: Default sizes (256 KB probe, 8 KB packets: n = 32); a link that takes
#: 20 ms per send keeps the probe on the wire for ~40 ms, far past the
#: 4.2 ms gate, and times it at ~50 Mbit/s.
SLOW_S = 0.02


class TestDecisions:
    @pytest.mark.parametrize("workers", [0, 2], ids=["inline", "pooled"])
    def test_the_probe_is_the_queue_then_the_decision_is_warm(self, made, workers):
        cfg, tele = traced(AdocConfig(compress_workers=workers))
        sink = Sink(delay_s=SLOW_S)
        payload = ascii_data(1_500_000, seed=7)
        result = sender_mod.MessageSender(sink, cfg).send(payload)
        assert result.pipeline_used and not result.probe_reused
        (plan,) = made
        during, after = plan.adapter.history[:2]
        assert (during.queue_size, during.delta, during.raw_level, during.level) == (32, 32, 2, 2)
        assert during.during_probe and not during.warm
        assert (after.warm, after.level, after.during_probe) == (True, 2, False)
        (probe,) = tele.tracer.events("probe")
        assert probe.args["overlap_level"] == 2
        decided = tele.tracer.events("level")[0]
        assert decided.args["during_probe"] and decided.ts < probe.ts
        first_buffer = tele.tracer.events("buffer")[0]
        assert (first_buffer.args["buffer_id"], first_buffer.args["level"]) == (0, 2)
        assert plan.codec_rates.rate(2) is not None
        assert decoded(sink.wire, cfg) == payload
        rows = render_timeline(extract_timeline(tele.tracer), table_rows=None).splitlines()
        assert rows[3].split()[-1] == "P" and rows[4].split()[-1] == "W"

    def test_inline_overlap_runs_on_the_compression_thread(self, monkeypatch):
        cfg = AdocConfig(compress_workers=0)
        sink = Sink(delay_s=SLOW_S)
        jobs: list[tuple[str, int, int, int]] = []
        queued = [0]
        real = sender_mod.compress_buffer

        class CountingQueue(sender_mod.PacketQueue):
            def put(self, *args, **kwargs):
                queued[0] += 1
                return super().put(*args, **kwargs)

        def watched(buf, level, guard, config):
            jobs.append((threading.current_thread().name, level, len(sink.wire), queued[0]))
            return real(buf, level, guard, config)

        monkeypatch.setattr(sender_mod, "compress_buffer", watched)
        monkeypatch.setattr(sender_mod, "PacketQueue", CountingQueue)
        sender_mod.MessageSender(sink, cfg).send(ascii_data(1_000_000, seed=8))
        name, level, on_wire, _ = jobs[0]
        assert (name, level) == ("adoc-compress", 2)
        assert on_wire < cfg.probe_size  # the probe had not left yet
        # Buffer 0's packets are queued before buffer 1 compresses, so
        # the emitter does not sit out buffer 1's job.
        assert jobs[1][3] > 0

    def test_pooling_reads_the_whole_message_with_or_without_a_fresh_probe(self, made):
        # 900 KB is over the 800 KB pooling threshold but under it once
        # the probe is taken off: both probe paths size the pool on the
        # whole message, as the reused-probe path does.
        cfg = AdocConfig(compress_workers=2)
        sender = sender_mod.MessageSender(Sink(delay_s=SLOW_S), cfg)
        payload = ascii_data(900_000, seed=10)
        assert not sender.send(payload).probe_reused
        assert sender.send(payload).probe_reused
        assert [plan.window_cap for plan in made] == [4, 4]

    def test_an_incompressible_buffer0_trips_the_guard_and_records_no_rate(self, made):
        # The next decision comes before buffer 0's 25 raw packets are
        # queued, so the trip's 10-packet holdoff still holds it.
        cfg, tele = traced(AdocConfig(compress_workers=0))
        sink = Sink(delay_s=SLOW_S)
        payload = incompressible_data(1_000_000, seed=9)
        result = sender_mod.MessageSender(sink, cfg).send(payload)
        (plan,) = made
        during, after = plan.adapter.history[:2]
        assert (during.queue_size, during.delta, during.level) == (32, 32, 2)
        assert result.guard_trips >= 1
        assert plan.codec_rates.rate(2) is None
        first_buffer = tele.tracer.events("buffer")[0]
        assert first_buffer.args["out_bytes"] == first_buffer.args["in_bytes"]  # raw
        # No rate, so no warm start: Figure 2 under the holdoff.
        assert (after.warm, after.holdoff, after.level) == (False, True, 0)
        assert decoded(sink.wire, cfg) == payload


def test_gate_races_keep_every_message_whole():
    """Probes timed near the gate: claim, settle and the race all happen.

    The gate opens after ~1 ms of a 4 KB probe; four senders on a
    two-core host with a short switch interval send over links taking
    0 to 2 ms per send, so some probes beat the gate (fast path), some
    outlast it (buffer 0 compresses during the probe) and some land in
    between.  Every wire must decode to its payload, by whichever path
    it took.
    """
    cfg = replace(GATED, fast_network_bps=32e6, compress_workers=0)
    payload = ascii_data(40_000, seed=13)
    wires: list[bytearray] = []
    errors: list[BaseException] = []

    def sender(delay_s: float) -> None:
        try:
            for _ in range(12):
                sink = Sink(delay_s)
                sender_mod.MessageSender(sink, cfg).send(payload)
                wires.append(sink.wire)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=sender, args=(delay,), name=f"test-sender-{delay}")
            for delay in (0.0, 0.0005, 0.001, 0.002)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(wires) == 48
    assert all(decoded(wire, cfg) == payload for wire in wires)
