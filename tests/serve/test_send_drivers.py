"""The send drivers over one planner: the same ladder, decisions, guards.

The blocking dispatcher (:class:`~repro.core.sender.MessageSender`) and
the reactor's :class:`~repro.serve.channel.AdocChannel` each drive a
:class:`~repro.core.planner.SendPlanner`.  With the queued-packet
reading scripted and the divergence veto stubbed out, timing cannot
reach a decision, so the drivers must produce identical Figure-2
traces; with codec seconds scripted too and a scripted level-0 record,
they fence the same levels at the same decisions.  The guard tests pin
the codec-failure and incompressible rules on the reactor path, and the
slow-reader test shows it adapts for real.
The ladder test adds the third driver, the simulator: all three take
the planner's bypass verdict.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
from dataclasses import replace

import pytest

from repro.core import AdocConfig, AdocSocket, MessageSender
from repro.core import sender as sender_mod
from repro.core.compressor import compress_buffer
from repro.core.divergence import DivergenceGuard
from repro.core.packets import END_LEVEL
from repro.core.planner import BYPASS, SendPlanner, message_route
from repro.core.receiver import StreamingParser
from repro.data import ascii_data
from repro.obs.telemetry import NULL_TELEMETRY
from repro.serve import channel as channel_mod
from repro.serve.channel import AdocChannel
from repro.serve.pool import WorkerPool, shutdown_shared_pool
from repro.simulator import profile_by_name, simulate_adoc_message
from repro.transport import LAN100, socketpair_endpoints
from repro.transport.socket_transport import SocketEndpoint

from .test_channel import Collector
from .test_reactor import run_on_loop

WORKERS = 2
CFG = AdocConfig(
    buffer_size=8 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=4 * 1024,
    probe_size=2 * 1024,
    io_timeout_s=None,
    compress_workers=WORKERS,
)
#: Forced levels: no probe, no bypass — both drivers compress the whole
#: message, one zlib record per buffer.
FORCED = CFG.with_levels(2, 10)
N_BUFFERS = 16
DATA = ascii_data(N_BUFFERS * CFG.buffer_size, seed=21)
#: Scripted queued-packet readings, cycled per decision.
READINGS = [0, 12, 14, 22, 30, 30, 33, 20, 40, 8, 5, 16, 25, 31, 9]
#: Scripted encode rate per level (bytes/s): times two workers, levels
#: 5 and up fall short of :data:`LINK`.
RATES = {level: 24e6 / level for level in range(1, 11)}
#: The scripted level-0 record (bytes/s) of the fence parity test.
LINK = 10e6


@pytest.fixture
def loop(no_thread_leaks):
    from repro.serve.reactor import Reactor

    reactor = Reactor(name="drivers-test")
    pool = WorkerPool(workers=WORKERS, max_pending=64, name="drivers-pool")
    reactor.run_in_thread()
    yield reactor, pool
    reactor.close()
    pool.close()


@pytest.fixture
def planners(monkeypatch):
    """Every SendPlanner either driver builds, in creation order."""
    made: list[SendPlanner] = []

    class Recording(SendPlanner):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(sender_mod, "SendPlanner", Recording)
    monkeypatch.setattr(channel_mod, "SendPlanner", Recording)
    return made


def scripted_codec(buf, level, guard, config):
    """The real codec's records, with seconds from :data:`RATES`."""
    records, tripped, _ = compress_buffer(buf, level, guard, config)
    return records, tripped, len(buf) / RATES[level] if level else 0.0


@pytest.fixture
def scripted(monkeypatch):
    """Script each driver's queue reading and codec seconds; stub the
    divergence veto out."""
    blocking, channel = itertools.cycle(READINGS), itertools.cycle(READINGS)
    monkeypatch.setattr(
        MessageSender, "_queued_packets", lambda self, queue: next(blocking)
    )
    monkeypatch.setattr(AdocChannel, "_queued_packets", lambda self: next(channel))
    monkeypatch.setattr(sender_mod, "compress_buffer", scripted_codec)
    monkeypatch.setattr(channel_mod, "compress_buffer", scripted_codec)
    monkeypatch.setattr(
        DivergenceGuard, "filter_level", lambda self, level, now: level
    )


@pytest.fixture
def fresh_shared_pool():
    shutdown_shared_pool()  # so the pool starts with WORKERS workers
    yield
    shutdown_shared_pool()


class CollectEndpoint:
    def __init__(self) -> None:
        self.wire = bytearray()

    def send(self, data) -> int:
        self.wire += data
        return len(data)

    def send_vectors(self, buffers) -> int:
        for b in buffers:
            self.wire += b
        return sum(len(b) for b in buffers)

    def recv(self, n: int) -> bytes:
        return b""

    def close(self) -> None:
        pass


def blocking_send(cfg: AdocConfig, data: bytes = DATA) -> bytes:
    ep = CollectEndpoint()
    MessageSender(ep, cfg).send(data)
    return bytes(ep.wire)


def channel_send(loop, cfg: AdocConfig, data: bytes = DATA) -> AdocChannel:
    """Send one message through an AdocChannel to a peer channel."""
    reactor, pool = loop
    a, b = socketpair_endpoints()
    sender = AdocChannel(reactor, a, pool, cfg)
    receiver = AdocChannel(reactor, b, pool, cfg)
    got = Collector()
    receiver.on_data = got.on_data
    receiver.on_message_end = got.on_message_end
    run_on_loop(reactor, sender.open)
    run_on_loop(reactor, receiver.open)
    run_on_loop(reactor, lambda: sender.send_message(data))
    assert got.wait_message(timeout=30.0) == data
    run_on_loop(reactor, sender.close)
    run_on_loop(reactor, receiver.close)
    return sender


def trace(plan: SendPlanner) -> list[tuple[int, int, int]]:
    return [(t.queue_size, t.delta, t.level) for t in plan.adapter.history]


def record_levels(wire: bytes) -> list[int]:
    parser = StreamingParser()
    packets = parser.feed(wire)
    return [p.level for p in packets if p.level != END_LEVEL and p.original_bytes]


class TestDriverParity:
    def test_pooled_blocking_and_channel_traces_match(
        self, loop, planners, scripted, fresh_shared_pool
    ):
        blocking_send(FORCED)
        channel_send(loop, FORCED)
        blocking, channel = planners
        assert blocking.window_cap == channel.window_cap == 2 * WORKERS
        # One decision per buffer plus the one that finds the source dry.
        assert len(blocking.adapter.history) == N_BUFFERS + 1
        assert trace(blocking) == trace(channel)
        levels = {level for _, _, level in trace(blocking)}
        assert len(levels) > 2, "the script should move the level around"

    def test_pooled_blocking_and_channel_fence_the_same_levels(
        self, loop, planners, scripted, fresh_shared_pool, monkeypatch
    ):
        # Forced compression sends no probe: script the level-0 record.
        monkeypatch.setattr(
            DivergenceGuard, "trusted_bandwidth",
            lambda self, level: LINK if level == 0 else None,
        )
        wire = blocking_send(FORCED)
        channel_send(loop, FORCED)
        blocking, channel = planners

        def decisions(plan):
            return [
                (t.queue_size, t.delta, t.raw_level, t.level, t.fenced)
                for t in plan.adapter.history
            ]

        assert decisions(blocking) == decisions(channel)
        assert any(fenced for *_, fenced in decisions(blocking)), (
            "the script should reach a slow or a blind level"
        )
        # The trace reports the levels the buffers went out at.
        used = [t.level for t in blocking.adapter.history[:N_BUFFERS]]
        assert record_levels(wire) == used

    def test_serial_blocking_matches_a_planner_with_window_one(
        self, planners, scripted
    ):
        blocking_send(replace(FORCED, compress_workers=0))
        (blocking,) = planners
        assert blocking.window_cap == 1

        plan = SendPlanner(FORCED, DivergenceGuard(), NULL_TELEMETRY)
        readings = itertools.cycle(READINGS)
        view = memoryview(DATA)
        offset = 0
        while True:
            level = plan.decide(next(readings), 0.0)
            buf = view[offset : offset + FORCED.buffer_size]
            if not len(buf):
                break
            offset += len(buf)
            plan.submit(buf, level)
            list(plan.complete(compress_buffer(buf, level, plan.guard, FORCED), None))
        assert trace(blocking) == trace(plan)


LADDER = [
    pytest.param(CFG, 0, True, id="empty"),
    pytest.param(CFG, CFG.small_message_threshold - 1, True, id="threshold-1"),
    pytest.param(CFG, CFG.small_message_threshold, False, id="threshold"),
    pytest.param(FORCED, 0, False, id="forced-empty"),
    pytest.param(CFG.with_levels(0, 0), 32 * 1024 * 1024, True, id="disabled-32MB"),
]


class TestLadderParity:
    @pytest.mark.parametrize("cfg,size,bypass", LADDER)
    def test_three_drivers_share_the_bypass_verdict(
        self, loop, planners, cfg, size, bypass
    ):
        data = bytes(size)
        assert (message_route(size, cfg) == BYPASS) is bypass

        blocking = MessageSender(CollectEndpoint(), cfg).send(data)
        assert (not blocking.pipeline_used and blocking.probe_bps is None) is bypass

        built = len(planners)
        channel_send(loop, cfg, data)
        assert (len(planners) == built) is bypass  # no planner: framed raw

        sim = simulate_adoc_message(size, profile_by_name("ascii"), LAN100, cfg)
        assert (not sim.pipeline_used and sim.probe_bps is None) is bypass


BUFFERS = [
    DATA[off : off + CFG.buffer_size] for off in range(0, len(DATA), CFG.buffer_size)
]


def failing_on_buffer_1(calls: dict[int, int]):
    """A codec that records (buffer index -> level) and fails buffer 1."""

    def codec(buf, level, guard, config):
        index = BUFFERS.index(bytes(buf))
        calls[index] = level
        if index == 1:
            raise RuntimeError("injected codec failure")
        return compress_buffer(buf, level, guard, config)

    return codec


class TestCodecFailure:
    """Buffer 1 fails: it ships raw and later submissions pin to 0.

    With the slow-start window, buffers 1 and 2 are submitted together
    once buffer 0 is back, so buffer 2 keeps its level; every buffer
    submitted after buffer 1's outcome arrived is level 0.
    """

    def check(self, calls: dict[int, int], wire_levels: list[int]) -> None:
        assert sorted(calls) == list(range(N_BUFFERS))
        assert all(calls[i] > 0 for i in range(3))
        assert all(calls[i] == 0 for i in range(3, N_BUFFERS))
        # One zlib record per buffer: record i is buffer i.
        assert len(wire_levels) == N_BUFFERS
        assert wire_levels[0] > 0 and wire_levels[2] > 0
        assert wire_levels[1] == 0
        assert all(level == 0 for level in wire_levels[3:])

    def test_blocking_driver(self, monkeypatch, fresh_shared_pool):
        calls: dict[int, int] = {}
        monkeypatch.setattr(sender_mod, "compress_buffer", failing_on_buffer_1(calls))
        wire = blocking_send(FORCED)
        self.check(calls, record_levels(wire))

        # The degraded message still decodes.
        a, b = socketpair_endpoints()
        writer = threading.Thread(
            target=a.send, args=(wire,), name="wire-writer", daemon=True
        )
        writer.start()
        with AdocSocket(b, FORCED) as rx:
            assert rx.read_exact(len(DATA)) == DATA
        writer.join(10.0)
        a.close()

    def test_channel_driver(self, loop, monkeypatch, planners):
        calls: dict[int, int] = {}
        monkeypatch.setattr(channel_mod, "compress_buffer", failing_on_buffer_1(calls))
        reactor, pool = loop
        a, b = socketpair_endpoints()
        sender = AdocChannel(reactor, a, pool, FORCED)
        run_on_loop(reactor, sender.open)
        run_on_loop(reactor, lambda: sender.send_message(DATA))
        parser = StreamingParser()
        levels: list[int] = []
        ended = False
        while not ended:
            chunk = b.recv(65536)
            assert chunk, "channel closed before the message ended"
            for pkt in parser.feed(chunk):
                if pkt.level == END_LEVEL:
                    ended = True
                elif pkt.original_bytes:
                    levels.append(pkt.level)
        run_on_loop(reactor, sender.close)
        b.close()
        assert planners[0].degraded
        self.check(calls, levels)


class TestIncompressibleHoldoff:
    def test_channel_returns_to_compression_after_the_holdoff(
        self, loop, planners, monkeypatch
    ):
        """A random prefix trips the guard; the ASCII tail compresses again.

        The queue reading climbs steadily, so Figure 2 keeps asking for
        more compression; only the 10-packet holdoff pins level 0, and
        once the channel has emitted those packets the level rises.
        """
        readings = itertools.count(40)
        monkeypatch.setattr(AdocChannel, "_queued_packets", lambda self: next(readings))
        monkeypatch.setattr(
            DivergenceGuard, "filter_level", lambda self, level, now: level
        )
        data = random.Random(3).randbytes(3 * CFG.buffer_size) + ascii_data(
            9 * CFG.buffer_size, seed=8
        )
        channel_send(loop, CFG, data)
        # The last decision finds the message read out: no buffer used it.
        history = planners[0].adapter.history[:-1]
        held = [i for i, t in enumerate(history) if t.holdoff]
        assert held, "the incompressible prefix never tripped the guard"
        assert any(t.level > 0 for t in history[held[-1] + 1 :]), (
            "the level never left 0 after the holdoff"
        )


def test_channel_decides_before_it_drains(loop, planners):
    """A cold reply ships one level-0 buffer, not one per drained backlog.

    The channel puts a completed buffer's packets in its write backlog,
    decides the next buffers, then drains: the blocking dispatcher's
    order.  Draining first let a loopback kernel swallow the packets, so
    the next decision read ``n = 0`` and shipped a second raw buffer.
    """
    reactor, pool = loop
    cfg = AdocConfig(io_timeout_s=None)
    payload = ascii_data(5 * cfg.buffer_size, seed=17)
    a, b = socketpair_endpoints()
    sender = AdocChannel(reactor, a, pool, cfg)
    run_on_loop(reactor, sender.open)
    run_on_loop(reactor, lambda: sender.send_message(payload))
    parser = StreamingParser()
    levels: list[int] = []  # one per record
    while not parser.messages:
        chunk = b.recv(1 << 16)
        assert chunk, "channel closed before the message ended"
        levels += [p.level for p in parser.feed(chunk) if p.original_bytes]
    run_on_loop(reactor, sender.close)
    b.close()
    history = planners[0].adapter.history
    assert history[0].queue_size == 0 and history[0].level == 0
    assert all(t.queue_size > 0 and t.level > 0 for t in history[1:3]), history
    assert levels.count(0) == 1, levels


class SlowReader:
    """Blocking endpoint that reads in small sips with a pause between."""

    def __init__(self, endpoint: SocketEndpoint) -> None:
        self.endpoint = endpoint

    def recv(self, n: int) -> bytes:
        time.sleep(0.002)
        return self.endpoint.recv(min(n, 16 * 1024))

    def send(self, data) -> int:
        return self.endpoint.send(data)

    def close(self) -> None:
        self.endpoint.close()


def test_channel_adapts_against_a_slow_reader(loop, planners):
    reactor, pool = loop
    s1, s2 = socket.socketpair()
    for s in (s1, s2):
        s.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 64 * 1024)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
    cfg = AdocConfig(io_timeout_s=None)
    payload = ascii_data(2 * 1024 * 1024 + 4096, seed=13)
    sender = AdocChannel(reactor, SocketEndpoint(s1), pool, cfg)
    run_on_loop(reactor, sender.open)
    with AdocSocket(SlowReader(SocketEndpoint(s2)), cfg) as rx:
        run_on_loop(reactor, lambda: sender.send_message(payload))
        assert rx.read_exact(len(payload)) == payload
    run_on_loop(reactor, sender.close)
    history = planners[0].adapter.history
    assert any(t.queue_size > 0 for t in history), [t.queue_size for t in history]
    assert any(t.level > 0 for t in history), [t.level for t in history]
