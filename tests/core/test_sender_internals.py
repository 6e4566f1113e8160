"""Sender internals: the probe, bypass ladder, stream sizing, feedback."""

from __future__ import annotations

import io
import random
from dataclasses import replace

import pytest

from repro.core import AdocConfig, MessageSender, SendResult
from repro.core.divergence import DivergenceGuard
from repro.data import ascii_data
from repro.serve.pool import shutdown_shared_pool
from repro.core.sources import stream_size
from repro.transport import pipe_pair, shaped_pair

CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
)


class TestProbe:
    def test_probe_feeds_level0_divergence_records(self, background):
        """The probe doubles as level-0 bandwidth evidence: two windows,
        satisfying the guard's MIN_SAMPLES rule (DESIGN.md §7.3)."""
        a, b = shaped_pair(
            bandwidth_bps=80e6, latency_s=1e-4, buffer_bytes=2 * 1024, seed=1
        )
        sender = MessageSender(a, CFG)
        drainer = background(_drain_until_eof, b)
        sender.send(b"z" * 200_000)
        a.close()
        drainer.join()
        rec = sender.divergence._records.get(0)
        assert rec is not None
        assert rec.samples >= 2
        # The record reflects the shaped line rate, not memcpy speed.
        assert rec.bandwidth < 80e6  # bytes/s upper bound sanity

    def test_fast_link_triggers_fast_path(self, background):
        # Unshaped pipes absorb the probe instantly -> "very fast".
        a, b = pipe_pair()
        sender = MessageSender(a, CFG)
        drainer = background(_drain_until_eof, b)
        result = sender.send(b"q" * 100_000)
        a.close()
        drainer.join()
        assert result.fast_path
        assert not result.pipeline_used
        assert result.probe_bps > CFG.fast_network_bps

    def test_slow_link_engages_pipeline(self, background):
        a, b = shaped_pair(
            bandwidth_bps=200e6, latency_s=1e-4, buffer_bytes=2 * 1024, seed=2
        )
        sender = MessageSender(a, CFG)
        drainer = background(_drain_until_eof, b)
        result = sender.send(b"q" * 100_000)
        a.close()
        drainer.join()
        assert result.pipeline_used
        assert result.probe_bps < CFG.fast_network_bps


class TestBypassLadder:
    def test_small_message_bypass(self):
        sender = MessageSender(_NullEndpoint(), CFG)
        assert sender._should_bypass(100, CFG)
        assert not sender._should_bypass(100_000, CFG)

    def test_forced_never_bypasses(self):
        cfg = CFG.with_levels(1, 10)
        sender = MessageSender(_NullEndpoint(), cfg)
        assert not sender._should_bypass(1, cfg)

    def test_disabled_always_bypasses(self):
        cfg = CFG.with_levels(0, 0)
        sender = MessageSender(_NullEndpoint(), cfg)
        assert sender._should_bypass(10**9, cfg)


class TestStreamSize:
    def test_seekable(self):
        f = io.BytesIO(b"0123456789")
        assert stream_size(f) == 10
        f.read(4)
        assert stream_size(f) == 6  # remaining, not total
        assert f.tell() == 4  # position restored

    def test_unseekable_returns_none(self):
        class NoSeek(io.RawIOBase):
            def tell(self):
                raise OSError("unseekable")

        assert stream_size(NoSeek()) is None


class VirtualLink:
    """Endpoint whose clock advances only as bytes are sent (1 MB/s).

    Elapsed times then depend on bytes alone, never on thread
    scheduling, so the emission loop's bandwidth windows repeat exactly.
    """

    RATE = 1_000_000

    def __init__(self) -> None:
        self.sent = 0

    def clock(self) -> float:
        return self.sent / self.RATE

    def send(self, data) -> int:
        self.sent += len(data)
        return len(data)

    def send_vectors(self, buffers) -> int:
        n = sum(len(b) for b in buffers)
        self.sent += n
        return n

    def recv(self, n):
        return b""

    def close(self):
        pass


#: (level, original bytes, elapsed) of every window the blocking driver
#: fed the divergence guard for FEEDBACK_DATA, pinned before the send
#: planner existed: four zlib-6 buffers, three incompressible buffers
#: that ship raw, five zlib-6 buffers.
PINNED_OBSERVATIONS = [
    (6, 8192, 0.001862), (6, 8192, 0.001879), (6, 8192, 0.001857),
    (6, 8192, 0.001843), (0, 8192, 0.008201), (0, 8192, 0.008201),
    (0, 8192, 0.008201), (6, 8192, 0.001862), (6, 8192, 0.001865),
    (6, 8192, 0.001856), (6, 8192, 0.001845), (6, 8192, 0.001877),
]
FEEDBACK_CFG = replace(
    CFG, buffer_size=8 * 1024, small_message_threshold=4 * 1024
).with_levels(6, 6)
FEEDBACK_DATA = (
    ascii_data(4 * 8 * 1024, seed=5)
    + random.Random(4).randbytes(3 * 8 * 1024)
    + ascii_data(5 * 8 * 1024, seed=6)
)


class TestDivergenceFeedback:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_observation_sequence_is_pinned(self, monkeypatch, workers):
        """Serial and pooled dispatch feed the guard the same windows."""
        seen = []
        observe = DivergenceGuard.observe

        def record(self, level, payload_bytes, elapsed):
            seen.append((level, payload_bytes, round(elapsed, 9)))
            observe(self, level, payload_bytes, elapsed)

        monkeypatch.setattr(DivergenceGuard, "observe", record)
        shutdown_shared_pool()  # so the pool starts with ``workers``
        link = VirtualLink()
        cfg = replace(FEEDBACK_CFG, compress_workers=workers)
        try:
            MessageSender(link, cfg, clock=link.clock).send(FEEDBACK_DATA)
        finally:
            shutdown_shared_pool()
        assert seen == PINNED_OBSERVATIONS


class TestSendResult:
    def test_ratio_zero_wire(self):
        assert SendResult(0, 0, 0.0).compression_ratio == 1.0

    def test_ratio(self):
        assert SendResult(1000, 250, 0.0).compression_ratio == 4.0


class _NullEndpoint:
    def send(self, data):
        return len(data)

    def recv(self, n):
        return b""

    def close(self):
        pass


def _drain_until_eof(endpoint) -> None:
    while endpoint.recv(65536):
        pass
