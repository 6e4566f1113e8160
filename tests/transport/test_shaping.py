"""Link shaping: serialization rate, latency, jitter, token bucket."""

from __future__ import annotations

import threading
import time

import pytest

from repro.transport import (
    CongestionModel,
    JitterModel,
    LinkScheduler,
    TokenBucket,
    recv_exact,
    sendall,
    shaped_pair,
)
from repro.transport.shaping import ShapedConduit


class TestLinkScheduler:
    def test_serialization_accumulates(self):
        sched = LinkScheduler(bandwidth_bps=8_000_000, latency_s=0.0)  # 1 MB/s
        t0 = 100.0
        t1 = sched.schedule(500_000, now=t0)
        assert t1 == pytest.approx(100.5)
        t2 = sched.schedule(500_000, now=t0)  # queued behind the first
        assert t2 == pytest.approx(101.0)

    def test_latency_added_per_segment(self):
        sched = LinkScheduler(bandwidth_bps=8e9, latency_s=0.25)
        t = sched.schedule(1, now=0.0)
        assert t >= 0.25

    def test_idle_link_does_not_accumulate(self):
        sched = LinkScheduler(bandwidth_bps=8_000_000, latency_s=0.0)
        sched.schedule(500_000, now=0.0)
        t = sched.schedule(500_000, now=100.0)  # long idle gap
        assert t == pytest.approx(100.5)

    def test_jitter_adds_nonnegative_delay(self):
        jitter = JitterModel(base=0.01, mean_extra=0.05, burst_prob=1.0)
        sched = LinkScheduler(8e6, 0.0, jitter=jitter, seed=1)
        base = LinkScheduler(8e6, 0.0, seed=1)
        assert sched.schedule(1000, now=0.0) > base.schedule(1000, now=0.0)

    def test_congestion_slows_link(self):
        cong = CongestionModel(enter_prob=1.0, exit_prob=0.0, slowdown=0.1)
        slow = LinkScheduler(8_000_000, 0.0, congestion=cong, seed=1)
        fast = LinkScheduler(8_000_000, 0.0, seed=1)
        assert slow.schedule(100_000, now=0.0) > fast.schedule(100_000, now=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkScheduler(0, 0.0)
        with pytest.raises(ValueError):
            LinkScheduler(1e6, -1.0)


class TestShapedPair:
    def test_roundtrip_correctness(self):
        a, b = shaped_pair(bandwidth_bps=80e6, latency_s=1e-4, seed=0)
        data = bytes(range(256)) * 400  # 100 KB
        t = threading.Thread(target=sendall, args=(a, data), daemon=True)
        t.start()
        got = recv_exact(b, len(data))
        t.join(timeout=10)
        assert got == data

    def test_bandwidth_enforced(self):
        # 8 Mbit/s = 1 MB/s; 200 KB (beyond the 64 KB buffer) must take
        # roughly (200-64)/1000 ~ 0.14 s to *send* and 0.2 s to receive.
        a, b = shaped_pair(bandwidth_bps=8e6, latency_s=0.0, buffer_bytes=64 * 1024, seed=0)
        data = b"x" * 200_000
        t0 = time.monotonic()
        t = threading.Thread(target=sendall, args=(a, data), daemon=True)
        t.start()
        recv_exact(b, len(data))
        elapsed = time.monotonic() - t0
        t.join(timeout=10)
        assert 0.15 <= elapsed <= 0.6, f"200KB at 1MB/s took {elapsed:.3f}s"

    def test_latency_floor(self):
        a, b = shaped_pair(bandwidth_bps=1e9, latency_s=0.1, seed=0)
        t0 = time.monotonic()
        sendall(a, b"ping")
        assert recv_exact(b, 4) == b"ping"
        assert time.monotonic() - t0 >= 0.09

    def test_duplex_symmetric(self):
        a, b = shaped_pair(bandwidth_bps=80e6, latency_s=1e-3, seed=0)
        sendall(a, b"there")
        assert recv_exact(b, 5) == b"there"
        sendall(b, b"back!")
        assert recv_exact(a, 5) == b"back!"


class TestShapedConduit:
    def test_a_short_write_bills_only_the_bytes_it_accepted(self):
        # 8 Mbit/s is one byte per microsecond.  The 2000-byte buffer
        # takes a 1500-byte fragment and 500 bytes of the next: the link
        # is busy for those 2000 bytes, not for two whole fragments.
        sched = LinkScheduler(8e6, 0)
        conduit = ShapedConduit(sched, capacity=2000, mtu=1500)
        t0 = time.monotonic()
        assert conduit.write(b"x" * 4000) == 2000
        t1 = time.monotonic()
        busy = sched.horizon - t0
        assert 2000e-6 <= busy <= 2000e-6 + (t1 - t0)


class TestTokenBucket:
    def test_burst_passes_instantly(self):
        tb = TokenBucket(rate_bps=8e6, burst_bytes=10_000)
        t0 = time.monotonic()
        tb.acquire(10_000)
        assert time.monotonic() - t0 < 0.05

    def test_sustained_rate_enforced(self):
        tb = TokenBucket(rate_bps=8e6, burst_bytes=1_000)  # 1 MB/s
        t0 = time.monotonic()
        for _ in range(10):
            tb.acquire(10_000)  # 100 KB total
        elapsed = time.monotonic() - t0
        assert elapsed >= 0.08

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0)
