"""Link shaping: bandwidth, propagation delay, jitter, congestion.

The paper evaluates AdOC on four real networks (100 Mbit LAN, Gbit LAN,
the Renater academic WAN, and a transatlantic Internet path).  We do not
have those networks; this module emulates them on top of the in-memory
pipes by scheduling each written segment's *availability time*:

    serialization:  the link is busy for ``len(segment) / bandwidth``
                    seconds per segment, segments queue behind each
                    other (``_next_free`` tracks the link's horizon);
    propagation:    a fixed one-way ``latency`` is added on top;
    jitter:         an optional random extra delay models cross-traffic
                    on WANs — this is what makes the paper's *average*
                    Renater plot (Fig. 4) oscillate while the *best-of*
                    plot (Fig. 5) is smooth;
    congestion:     an optional two-state (good/congested) Markov
                    process scales the serialization rate down for
                    stretches of time, modelling shared-WAN slowdowns.

What AdOC observes through a shaped link — the rate at which the
"socket buffer" drains, and the round-trip time — is the same signal it
would observe on the real network, which is all the adaptation algorithm
consumes.  Token-bucket pacing (:class:`TokenBucket`) is also provided
for shaping *real* sockets in live demos.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from ..analysis.lockgraph import make_lock
from .base import Endpoint
from .pipes import ByteConduit, PipeEndpoint

__all__ = [
    "JitterModel",
    "CongestionModel",
    "LinkScheduler",
    "ShapedConduit",
    "ShapedEndpoint",
    "shaped_pair",
    "TokenBucket",
]


@dataclass(frozen=True)
class JitterModel:
    """Random per-segment extra delay (seconds).

    ``base`` is added to every segment; an exponential component with
    mean ``mean_extra`` is added on top with probability ``burst_prob``.
    Exponential bursts reproduce the heavy-tailed delay spikes that make
    averaged WAN measurements noisy (paper section 6.1.1).
    """

    base: float = 0.0
    mean_extra: float = 0.0
    burst_prob: float = 0.0

    def sample(self, rng: random.Random) -> float:
        d = self.base
        if self.burst_prob > 0.0 and rng.random() < self.burst_prob:
            d += rng.expovariate(1.0 / self.mean_extra) if self.mean_extra else 0.0
        return d


@dataclass(frozen=True)
class CongestionModel:
    """Two-state Markov bandwidth degradation.

    While *congested*, the effective bandwidth is multiplied by
    ``slowdown`` (< 1).  State flips are evaluated per segment with the
    given transition probabilities, giving bursty, positively-correlated
    slowdowns rather than white noise.
    """

    enter_prob: float = 0.0
    exit_prob: float = 0.2
    slowdown: float = 0.3


class LinkScheduler:
    """Computes availability times for one direction of a shaped link."""

    def __init__(
        self,
        bandwidth_bps: float,
        latency_s: float,
        jitter: JitterModel | None = None,
        congestion: CongestionModel | None = None,
        seed: int | None = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency cannot be negative")
        self.bytes_per_second = bandwidth_bps / 8.0
        self.latency_s = latency_s
        self.jitter = jitter or JitterModel()
        self.congestion = congestion
        self._rng = random.Random(seed)
        self._congested = False
        self._next_free = 0.0
        self._lock = make_lock("LinkScheduler.lock")

    @property
    def horizon(self) -> float:
        """When the last scheduled byte finishes serializing (monotonic)."""
        with self._lock:
            return self._next_free

    def schedule(self, nbytes: int, now: float | None = None) -> float:
        """Return the absolute monotonic time at which ``nbytes`` written
        now become visible at the far end."""
        return self.schedule_all([nbytes], now)[0]

    def schedule_all(self, sizes: list[int], now: float | None = None) -> list[float]:
        """:meth:`schedule` for segments written back to back, in order."""
        if now is None:
            now = time.monotonic()
        times: list[float] = []
        with self._lock:
            for nbytes in sizes:
                rate = self.bytes_per_second
                if self.congestion is not None:
                    c = self.congestion
                    flip = c.exit_prob if self._congested else c.enter_prob
                    if self._rng.random() < flip:
                        self._congested = not self._congested
                    if self._congested:
                        rate *= c.slowdown
                start = max(now, self._next_free)
                self._next_free = start + nbytes / rate
                times.append(self._next_free + self.latency_s + self.jitter.sample(self._rng))
        return times


class ShapedConduit(ByteConduit):
    """A conduit whose deliveries are timed by a :class:`LinkScheduler`.

    Segments are chopped to ``mtu`` bytes before scheduling so the
    serialization model has packet granularity (a 200 KB write should
    not become available atomically after its full transmission time —
    the receiver sees it trickle in, which matters for AdOC's
    receive-side pipelining).

    The serialization horizon read when a write returns is exactly when
    that write's last byte leaves the link: :meth:`link_departure`, the
    link clock of a :class:`ShapedEndpoint` (``transport.base``).
    """

    # Segments here are MTU fragments: a reader taking one per call pays
    # a lock round trip per 1500 bytes and holds back a writer waiting
    # for room.
    _coalesce_reads = True

    def __init__(
        self,
        scheduler: LinkScheduler,
        capacity: int,
        mtu: int = 1500,
    ) -> None:
        super().__init__(capacity)
        self._scheduler = scheduler
        self._mtu = mtu

    def write(
        self,
        data: bytes | bytearray | memoryview,
        avail_time: float | None = None,
        timeout: float | None = None,
    ) -> int:
        total = 0
        view = memoryview(data)
        give_up = None if timeout is None else time.monotonic() + timeout
        # Queue MTU fragments of what fits; stop as soon as backpressure
        # trims one short, honouring the Endpoint short-write contract.
        # The scheduler is billed for the accepted bytes only: the rest
        # is billed when a later write carries it.  The locks are taken
        # once per run of fragments that fit, not once per 1500 bytes:
        # per-fragment round trips cost the probe half its time under
        # the lock-order detector.
        with self._lock:
            while total < len(view):
                if self._buffered >= self.capacity:
                    # Full: wake readers for what this write queued
                    # before waiting for them to make room.
                    self._readable.notify_all()
                end = min(len(view), total + self._wait_for_room(give_up))
                offsets = range(total, end, self._mtu)
                sizes = [min(self._mtu, end - off) for off in offsets]
                for off, size, when in zip(offsets, sizes, self._scheduler.schedule_all(sizes)):
                    self._segments.append((when, bytes(view[off : off + size])))
                self._buffered += end - total
                total = end
                if total % self._mtu and total < len(view):
                    break  # a fragment went short
            self._readable.notify_all()
        return total

    def link_departure(self) -> float:
        """Seconds until every accepted byte has left the link."""
        return self._scheduler.horizon - time.monotonic()


class ShapedEndpoint(PipeEndpoint):
    """A :class:`PipeEndpoint` whose outbound conduit is shaped.

    It is a link clock (``transport.base``): the outbound conduit's
    serialization horizon.
    """

    _out: ShapedConduit

    def link_departure(self) -> float:
        return self._out.link_departure()


@dataclass(frozen=True)
class _LinkSpec:
    """Per-direction shaping parameters (see profiles.NetworkProfile)."""

    bandwidth_bps: float
    latency_s: float
    jitter: JitterModel | None = None
    congestion: CongestionModel | None = None
    buffer_bytes: int = 256 * 1024
    mtu: int = 1500


def shaped_pair(
    bandwidth_bps: float,
    latency_s: float,
    jitter: JitterModel | None = None,
    congestion: CongestionModel | None = None,
    buffer_bytes: int = 256 * 1024,
    mtu: int = 1500,
    seed: int | None = None,
) -> tuple[Endpoint, Endpoint]:
    """Create a symmetric shaped duplex link; returns (end A, end B).

    ``buffer_bytes`` bounds in-flight data per direction and produces
    the sender backpressure through which AdOC senses the link speed.
    """
    fwd = ShapedConduit(
        LinkScheduler(bandwidth_bps, latency_s, jitter, congestion, seed),
        buffer_bytes,
        mtu,
    )
    back_seed = None if seed is None else seed + 0x9E3779B9
    bwd = ShapedConduit(
        LinkScheduler(bandwidth_bps, latency_s, jitter, congestion, back_seed),
        buffer_bytes,
        mtu,
    )
    return ShapedEndpoint(fwd, bwd), ShapedEndpoint(bwd, fwd)


class TokenBucket:
    """Classic token bucket for pacing real sockets in live demos.

    ``acquire(n)`` blocks until ``n`` tokens (bytes) are available.
    Burst capacity defaults to 1/10 s of line rate so short messages are
    not over-throttled while sustained throughput converges to
    ``rate_bps``.
    """

    def __init__(self, rate_bps: float, burst_bytes: int | None = None) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_bps / 8.0
        self.burst = burst_bytes if burst_bytes is not None else max(1, int(self.rate / 10))
        self._tokens = float(self.burst)
        self._stamp = time.monotonic()
        self._lock = make_lock("TokenBucket.lock")

    def acquire(self, n: int) -> None:
        # Requests larger than the burst are admitted once a full burst
        # of tokens is available, driving the balance negative (token
        # debt): oversize sends are not deadlocked, and the long-run
        # rate still converges to rate_bps because the debt must be
        # repaid before the next acquire proceeds.
        need = min(n, self.burst)
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(
                    self.burst, self._tokens + (now - self._stamp) * self.rate
                )
                self._stamp = now
                if self._tokens >= need:
                    self._tokens -= n
                    return
                deficit = need - self._tokens
            time.sleep(deficit / self.rate)


class PacedEndpoint(Endpoint):
    """Wrap any endpoint with token-bucket send pacing (live shaping)."""

    def __init__(self, inner: Endpoint, rate_bps: float) -> None:
        self._inner = inner
        self._bucket = TokenBucket(rate_bps)

    def send(self, data: bytes | bytearray | memoryview) -> int:
        chunk = data[: 64 * 1024]
        self._bucket.acquire(len(chunk))
        return self._inner.send(chunk)

    def recv(self, n: int) -> bytes:
        return self._inner.recv(n)

    def settimeout(self, timeout: float | None) -> None:
        self._inner.settimeout(timeout)

    def gettimeout(self) -> float | None:
        return self._inner.gettimeout()

    def shutdown_write(self) -> None:
        self._inner.shutdown_write()

    def close(self) -> None:
        self._inner.close()


__all__.append("PacedEndpoint")
