"""Emission windows on a link clock.

An endpoint may tell when the bytes it accepted leave the link
(``link_departure``, looked up duck-typed; see ``transport.base``).
The blocking sender then times each window from the departure of the
previous window's last byte to the departure of its own, so a conduit
that swallows a buffer at once no longer makes its level look fast.
These tests script the readings for
:class:`~repro.core.planner.EmissionWindows`, check which endpoints
have the clock, and show on a live ``LAN100`` transfer that the probe
and the per-level records read the link, not the buffer in front of it.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import replace

import pytest

from repro.core import AdocConfig, AdocSocket, MessageSender
from repro.core import planner as planner_mod
from repro.core.divergence import DivergenceGuard
from repro.core.fifo import QueuedPacket
from repro.core.planner import EmissionWindows, SendPlanner
from repro.data import ascii_data
from repro.obs.telemetry import Telemetry
from repro.serve.channel import AdocChannel
from repro.serve.server import ReactorServer
from repro.transport import LAN100, pipe_pair, socketpair_endpoints
from repro.transport.base import Endpoint
from repro.transport.socket_transport import tcp_pair

from ..serve.test_reactor import run_on_loop
from .test_sender_internals import (
    FEEDBACK_CFG, FEEDBACK_DATA, PINNED_OBSERVATIONS, VirtualLink,
)


class Recorder(DivergenceGuard):
    def __init__(self) -> None:
        super().__init__()
        self.seen: list[tuple[int, int, float]] = []

    def observe(self, level, payload_bytes, elapsed):
        self.seen.append((level, payload_bytes, round(elapsed, 9)))


def packet(level: int, buffer_id: int, nbytes: int, orig: int) -> QueuedPacket:
    return QueuedPacket(b"x" * nbytes, level, orig, buffer_id)


class TestEmissionWindows:
    def test_idle_gap_before_a_late_buffer_is_charged_to_its_level(self):
        guard = Recorder()
        windows = EmissionWindows(guard)
        windows.departed(0.0)  # nothing ahead of the first window
        windows.open(0.0)
        # Buffer 0 (level 6) is handed over at 0.0 and leaves the link
        # at 1.0.
        windows.leaving(packet(6, 0, 1000, 4000), 0.0)
        windows.departed(1.0)
        # Buffer 1 comes late: the link idles from 1.0, the buffer is
        # handed over at 3.0 and its bytes leave at 4.0.
        windows.leaving(packet(2, 1, 1000, 3000), 3.0)
        windows.departed(4.0)
        windows.close(3.0)
        # The send clock would charge 0.0-3.0 to level 6 and end level
        # 2's window when send() returned.
        assert guard.seen == [(6, 4000, 1.0), (2, 3000, 3.0)]
        assert guard.observed_at == 4.0

    def test_a_message_starts_once_the_bytes_ahead_have_left(self):
        guard = Recorder()
        windows = EmissionWindows(guard)
        windows.departed(2.0)  # a probe still on the wire until 2.0
        windows.open(1.0)
        windows.leaving(packet(2, 0, 100, 1000), 1.0)
        windows.departed(2.5)
        windows.close(1.5)
        # The link sat idle between messages: not charged to the next.
        windows.open(5.0)
        windows.leaving(packet(2, 1, 100, 1000), 5.0)
        windows.departed(5.25)
        windows.close(5.25)
        assert guard.seen == [(2, 1000, 0.5), (2, 1000, 0.25)]

    def test_without_readings_windows_keep_the_send_clock(self):
        guard = Recorder()
        windows = EmissionWindows(guard)
        windows.open(1.0)
        windows.leaving(packet(6, 0, 10, 100), 1.0)
        windows.leaving(packet(6, 0, 10, 100), 1.5)
        windows.leaving(packet(0, 1, 10, 300), 2.0)
        assert guard.seen == [(6, 200, 1.0)]  # observed as the next starts
        assert guard.observed_at == 2.0
        windows.close(2.5)
        assert guard.seen == [(6, 200, 1.0), (0, 300, 0.5)]


class TestWindowTrace:
    def test_one_window_closed_event_per_window(self):
        tele = Telemetry(enabled=True)
        send = EmissionWindows(DivergenceGuard(), tele)
        send.open(0.0)
        send.leaving(packet(6, 0, 100, 400), 0.0)
        send.leaving(packet(0, 1, 100, 100), 0.25)
        send.close(0.5)
        link = EmissionWindows(DivergenceGuard(), tele)
        link.departed(0.0)
        link.open(0.0)
        link.leaving(packet(6, 0, 100, 400), 0.0)
        link.departed(0.5)
        link.leaving(packet(0, 1, 100, 100), 0.1)
        link.departed(0.75)
        link.close(0.2)
        events = tele.tracer.events("window")
        assert [e.name for e in events] == ["window_closed"] * 4
        assert [
            (e.args["level"], e.args["orig_bytes"], e.args["seconds"], e.args["clock"])
            for e in events
        ] == [
            (6, 400, 0.25, "send"), (0, 100, 0.25, "send"),
            (6, 400, 0.5, "link"), (0, 100, 0.25, "link"),
        ]

    def test_nothing_is_recorded_with_telemetry_off(self):
        tele = Telemetry(enabled=False)
        windows = EmissionWindows(DivergenceGuard(), tele)
        windows.open(0.0)
        windows.leaving(packet(6, 0, 100, 400), 0.0)
        windows.close(0.5)
        assert tele.tracer.recorded == 0

    def test_a_live_transfer_traces_its_windows_on_the_link_clock(self):
        tele = Telemetry(enabled=True)
        a, b = LAN100.make_pair(seed=3)
        drain = threading.Thread(target=_drain, args=(b,), daemon=True)
        drain.start()
        MessageSender(a, AdocConfig(telemetry=tele)).send(ascii_data(1 << 20, seed=2))
        a.close()
        drain.join(10)
        events = tele.tracer.events("window")
        assert events and {e.args["clock"] for e in events} == {"link"}

    def test_a_spliced_reactor_channel_keeps_the_send_clock(self, no_thread_leaks):
        # A shaped link adopted by a server is bridged onto a socketpair,
        # which cannot tell when bytes leave: the channel's windows are
        # observed on the send clock as they end and feed its guard.
        tele = Telemetry(enabled=True)
        cfg = AdocConfig(io_timeout_s=30.0, telemetry=tele)
        server = ReactorServer(name="spliced-clock", config=cfg, telemetry=tele, workers=1)
        channels: list[AdocChannel] = []

        def factory(endpoint, addr) -> AdocChannel:
            channels.append(AdocChannel(server.reactor, endpoint, server.pool, cfg, tele))
            return channels[0]

        client_end, server_end = LAN100.make_pair(seed=1)
        payload = ascii_data(1 << 20, seed=4)
        try:
            server.adopt(server_end, factory)
            (channel,) = channels
            run_on_loop(server.reactor, lambda: channel.send_message(payload))
            assert AdocSocket(client_end, cfg).read_exact(len(payload)) == payload
        finally:
            client_end.close()
            server.close()
        events = tele.tracer.events("window")
        assert len(events) > 1 and {e.args["clock"] for e in events} == {"send"}
        assert channel.divergence.observed_at is not None


class Clocked(VirtualLink):
    """The pinned virtual link, whose bytes leave as they are accepted."""

    def link_departure(self) -> float:
        return 0.0


class Forwarding(Endpoint):
    """A wrapper that forwards unknown attributes, as the bench's timer does."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def send(self, data) -> int:
        return self._inner.send(data)

    def recv(self, n: int) -> bytes:
        return self._inner.recv(n)

    def close(self) -> None:
        self._inner.close()

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class Opaque(Forwarding):
    """A wrapper that does not forward."""

    def __getattr__(self, name: str):
        raise AttributeError(name)


class TestEndpoints:
    @pytest.mark.parametrize("link_type", [VirtualLink, Clocked])
    def test_each_window_is_observed_as_it_ends(self, monkeypatch, link_type):
        # Without a clock the records are the send clock's; a link that
        # holds nothing back gives the same records on its clock.  On
        # either, a window feeds the guard as the next one starts, so
        # the guard can veto a level in the middle of a message.
        link = link_type()
        seen, sent_at = [], []
        observe = DivergenceGuard.observe

        def record(self, level, payload_bytes, elapsed):
            seen.append((level, payload_bytes, round(elapsed, 9)))
            sent_at.append(link.sent)
            observe(self, level, payload_bytes, elapsed)

        monkeypatch.setattr(DivergenceGuard, "observe", record)
        cfg = replace(FEEDBACK_CFG, compress_workers=0)
        MessageSender(link, cfg, clock=link.clock).send(FEEDBACK_DATA)
        assert seen == PINNED_OBSERVATIONS
        assert sent_at[:-1] == sorted(set(sent_at[:-1]))
        assert sent_at[-2] < link.sent

    def test_a_shaped_endpoint_reads_its_serialization_horizon(self):
        a, b = LAN100.make_pair(seed=0)
        try:
            t0 = time.monotonic()
            assert a.send(b"x" * 11750) == 11750  # 1 ms at 94 Mbit/s
            delay = a.link_departure()
            took = time.monotonic() - t0
            # The idle link started serializing within ``took`` of t0,
            # and the reading came within ``took`` of t0 too.
            assert abs(delay - 0.001) <= took + 1e-6
        finally:
            a.close()
            b.close()

    def test_only_shaped_endpoints_have_a_link_clock(self):
        pairs = [pipe_pair(), socketpair_endpoints(), tcp_pair()]
        try:
            for end, _ in pairs:
                assert not hasattr(end, "link_departure"), end
        finally:
            for pair in pairs:
                for end in pair:
                    end.close()

    def test_a_forwarding_wrapper_keeps_the_clock_an_opaque_one_does_not(self):
        a, b = LAN100.make_pair(seed=0)
        try:
            assert hasattr(Forwarding(a), "link_departure")
            assert not hasattr(Opaque(a), "link_departure")
        finally:
            a.close()
            b.close()


def _drain(endpoint) -> None:
    while endpoint.recv(1 << 16):
        pass


class TestLan100Skew:
    """2 MB of ASCII over LAN100: the records read the link.

    On the send clock a window ended when LAN100's 64 KB conduit had
    room, so one level-2 buffer read anywhere from 16 to 650 MB/s, the
    probe read 109-120 Mbit/s and the divergence guard vetoed healthy
    levels against the inflated records.
    """

    def test_probe_and_windows_read_the_link(self, monkeypatch):
        rates: dict[int, list[float]] = {}
        plans: list[SendPlanner] = []
        observe = DivergenceGuard.observe

        def record(self, level, payload_bytes, elapsed):
            rates.setdefault(level, []).append(payload_bytes / elapsed)
            observe(self, level, payload_bytes, elapsed)

        class Recording(SendPlanner):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                plans.append(self)

        monkeypatch.setattr(DivergenceGuard, "observe", record)
        monkeypatch.setattr(planner_mod, "SendPlanner", Recording)
        # A host that stalls the sending thread leaves the link idle,
        # which can only slow the probe or a window; the send clock's
        # skew shows on every transfer.  So one clean transfer of three
        # passes.
        attempts = []
        for seed in range(3):
            rates.clear()
            plans.clear()
            faults = _skew_faults(seed, rates, plans)
            if not faults:
                return
            attempts.append(faults)
        pytest.fail(f"every transfer read the link wrong: {attempts}")


def _skew_faults(
    seed: int, rates: dict[int, list[float]], plans: list[SendPlanner]
) -> list:
    """One transfer on a fresh pair; what its records got wrong."""
    a, b = LAN100.make_pair(seed=seed)
    drain = threading.Thread(target=_drain, args=(b,), daemon=True)
    drain.start()
    sender = MessageSender(a, AdocConfig())
    result = sender.send(ascii_data(2 * 1024 * 1024, seed=3))
    a.close()
    drain.join(10)

    assert result.pipeline_used
    assert set(rates) - {0}, rates  # compressed levels were timed
    faults: list = []
    if result.probe_bps != pytest.approx(LAN100.bandwidth_bps, rel=0.10):
        faults.append(("probe_bps", result.probe_bps))
    for level, seen in rates.items():
        middle = statistics.median(seen)
        if not all(middle / 2 <= r <= middle * 2 for r in seen):
            faults.append(("spread", level, seen))
    # A veto must stand on the records: the level held back reads
    # below the one that ran instead.
    records = sender.divergence
    (plan,) = plans
    for row in plan.adapter.history:
        if row.forbidden:
            mine = records.recorded_bandwidth(row.raw_level)
            used = records.recorded_bandwidth(row.level)
            if not (mine is None or used is None or mine < used):
                faults.append(("veto", row, mine, used))
    return faults
