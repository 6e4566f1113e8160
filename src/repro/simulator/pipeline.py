"""Simulated AdOC transfer: the Figure-1 pipeline on a virtual clock.

The simulator is the third thin driver over :mod:`repro.core.planner`,
beside the blocking :class:`~repro.core.sender.MessageSender` and the
reactor's :class:`~repro.serve.channel.AdocChannel`.  The section-5
ladder, framing, probe and ledger (:class:`~repro.core.planner.MessageSend`),
the Figure-2 decisions and both guards (its ``SendPlanner``),
packetisation and the emission windows
(:class:`~repro.core.planner.EmissionWindows`) are the live code; only
the costs — codec time and ratio, wire time — come from the calibrated
model instead of real execution.  What is simulated:

* **compression process** — the probe goes raw straight into the socket
  buffer and is timed on the virtual clock; down the pipeline a
  ``SendPlanner`` decides each 200 KB buffer's level and a modelled
  codec returns the records :func:`~repro.core.compressor.compress_buffer`
  would (one per LZF slice, one per zlib buffer, the raw remainder after
  a guard trip); each compressed packet waits its share of the codec's
  CPU time before entering the FIFO, so queue dynamics match the live
  thread.  The modelled codec hands the planner no codec seconds and no
  encode-rate records, so the live drivers' codec-rate fence and
  probation stay off: the paper's fence-less adaptation (fed Table-1
  seconds, the fence moves Figure 8; EXPERIMENTS.md);
* **emission process** — drains packets into a byte-bounded "socket
  buffer" store, timing ``EmissionWindows`` for the divergence guard;
* **link process** — serializes socket-buffer chunks at the profile's
  bandwidth (with jitter and Markov congestion), pays propagation
  latency once per stream, and respects receiver-window backpressure;
* **reception + decompression processes** — the receiving half of
  Figure 1; decompression speed comes from the cost model scaled by the
  profile's ``receiver_cpu_scale``.

Fixed CPU overheads are calibrated against Table 2 of the paper (see
:data:`ADOC_FRAMING_S`, :data:`THREAD_STARTUP_S`,
:data:`PIPELINE_STALL_RTTS`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.adaptation import AdaptationTrace
from ..core.compressor import MIN_CONSUMED_FOR_GUARD
from ..core.config import AdocConfig, DEFAULT_CONFIG
from ..core.divergence import DivergenceGuard
from ..core.guards import IncompressibleGuard
from ..core.packets import Record
from ..core.planner import BYPASS, FAST_PATH, PROBE, EmissionWindows, MessageSend, SendResult
from ..core.planner import record_packets
from ..core.sources import BytesSource
from ..obs.telemetry import NULL_TELEMETRY
from ..transport.profiles import NetworkProfile
from .costmodel import DataProfile, LevelCost
from .engine import Environment, Store, Timeout

__all__ = [
    "SimTransferResult",
    "simulate_adoc_message",
    "simulate_posix_message",
    "ADOC_FRAMING_S",
    "THREAD_STARTUP_S",
    "PIPELINE_STALL_RTTS",
]

#: Fixed AdOC bookkeeping per message (framing, descriptor lookup,
#: small-path buffer management).  Calibrated to Table 2: AdOC's 0-byte
#: ping-pong is 15-20 us above plain read/write on a Gbit LAN and
#: indistinguishable on slower networks.
ADOC_FRAMING_S = 18e-6

#: Cost of spinning up the pipeline (two threads, queue, mutexes), per
#: message.  Calibrated to Table 2's "forced compression" column on the
#: LANs, where the RTT terms are small: a forced 0-byte ping-pong pays
#: this twice and lands at 1.8 ms (100 Mbit) / 1.6 ms (Gbit).
THREAD_STARTUP_S = 0.75e-3

#: Extra round-trip fraction a pipelined message loses to the transport
#: (framed multi-segment writes interacting with delayed-ACK/Nagle).
#: Calibrated to Table 2's forced column on the WANs: a ping-pong (two
#: messages) shows +1.8 RTT — +145 ms on the 80 ms-RTT Internet path,
#: +16 ms on 9.2 ms Renater — i.e. 0.9 RTT per one-way message.
PIPELINE_STALL_RTTS = 0.9


@dataclass
class SimTransferResult(SendResult):
    """One simulated one-way message: a live ``SendResult`` plus the queue and decisions."""

    queue_peak: int = 0
    #: The planner's Figure-2 trace (``adapter.history``), one entry per
    #: pipelined buffer; empty when the pipeline never started.
    decisions: list[AdaptationTrace] = field(default_factory=list)

    @property
    def app_bandwidth_bps(self) -> float:
        """Payload bits per second as the application perceives them."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.payload_bytes * 8.0 / self.elapsed_s


class _Link:
    """Serialization + latency + jitter/congestion on sim time.

    ``rate_schedule`` (optional) maps the current sim time to a
    bandwidth multiplier, for controlled dynamic-environment scenarios
    (the paper's motivating case: the visible bandwidth changes during
    the transfer and the level must follow).
    """

    def __init__(self, profile: NetworkProfile, rng: random.Random, rate_schedule=None) -> None:
        self.rate = profile.bandwidth_bps / 8.0
        self.latency = profile.latency_s
        self.jitter = profile.jitter
        self.congestion = profile.congestion
        self.rng = rng
        self.rate_schedule = rate_schedule
        self._congested = False

    def ser_time(self, nbytes: int, now: float = 0.0) -> float:
        rate = self.rate
        if self.rate_schedule is not None:
            rate *= max(self.rate_schedule(now), 1e-9)
        if self.congestion is not None:
            c = self.congestion
            flip = c.exit_prob if self._congested else c.enter_prob
            if self.rng.random() < flip:
                self._congested = not self._congested
            if self._congested:
                rate *= c.slowdown
        t = nbytes / rate
        if self.jitter is not None:
            t += self.jitter.sample(self.rng)
        return t


def simulate_posix_message(
    size: int, profile: NetworkProfile, seed: int = 0, rate_schedule=None
) -> SimTransferResult:
    """Baseline: plain read/write of ``size`` bytes over the profile.

    One-way delivery time of a continuous stream: propagation latency
    plus serialization of every chunk (with the same stochastic link
    model AdOC faces).
    """
    rng = random.Random(seed)
    link = _Link(profile, rng, rate_schedule)
    elapsed = link.latency
    chunk = profile.mtu
    remaining = size
    while remaining > 0:
        n = min(chunk, remaining)
        elapsed += link.ser_time(n, elapsed)
        remaining -= n
    return SimTransferResult(size, size, elapsed)


def _modelled_codec(
    buf: memoryview, level: int, cost: LevelCost, guard: IncompressibleGuard, cfg: AdocConfig
) -> tuple[tuple[list[Record], bool], int]:
    """What :func:`~repro.core.compressor.compress_buffer` would return.

    Record shapes, guard checks and trip points follow the live codec;
    compressed sizes follow ``cost.ratio``, and payloads are zero-copy
    slices of ``buf``.  Also returns how many bytes the codec worked on:
    the CPU charge (a tripped buffer's raw remainder costs none).
    """
    n, done, tripped = len(buf), 0, False
    if level == 0:
        return ([Record(0, n, buf)], False), 0
    records: list[Record] = []
    while done < n and not tripped:
        k = min(cfg.slice_size, n - done)
        done += k
        if level == 1:
            # LZF: one record per slice, the guard checked after each.
            out = max(1, int(k / cost.ratio))
            records.append(Record(1, k, buf[:out]) if out < k else Record(0, k, buf[:k]))
            tripped = guard.check_packet(k, out)
        elif done >= MIN_CONSUMED_FOR_GUARD:
            # zlib: the stream's running ratio, once enough input is in.
            tripped = guard.check_packet(done, max(1, int(done / cost.ratio)))
    if level > 1:
        # One zlib record, closed at the consumed prefix; raw if no gain.
        out = max(1, int(done / cost.ratio))
        if out < done:
            records.append(Record(level, done, buf[:out]))
        else:
            records.append(Record(0, done, buf[:done]))
            tripped = tripped or guard.check_packet(done, out)
    if done < n:
        records.append(Record(0, n - done, buf[done:]))
    return (records, tripped), done


def simulate_adoc_message(
    size: int,
    data: DataProfile,
    profile: NetworkProfile,
    config: AdocConfig = DEFAULT_CONFIG,
    seed: int = 0,
    divergence: DivergenceGuard | None = None,
    use_divergence: bool = True,
    policy=None,
    rate_schedule=None,
) -> SimTransferResult:
    """Simulate one ``adoc_write`` of ``size`` bytes of ``data`` texture.

    ``divergence`` may be shared across calls to model per-connection
    persistence of the bandwidth records (as the live library does).
    ``use_divergence=False`` removes the guard entirely (ablation);
    ``policy`` may substitute a different control law for Figure 2
    (:mod:`repro.core.policies`, the adaptation-policy ablation).  Both
    are handed to the :class:`~repro.core.planner.SendPlanner`.
    """
    cfg = config
    rng = random.Random(seed)
    link = _Link(profile, rng, rate_schedule)
    divergence = (divergence or DivergenceGuard(cfg.divergence_forbid_s)) if use_divergence else None
    # Zeros: calloc'd, so even a large message costs no resident memory.
    msg = MessageSend(BytesSource(bytes(size)), cfg, NULL_TELEMETRY, divergence=divergence)

    if msg.route == BYPASS:
        wire = sum(len(v) for vectors in msg.bypass() for v in vectors)
        base = simulate_posix_message(wire, profile, seed, rate_schedule)
        return msg.result(base.elapsed_s + ADOC_FRAMING_S, SimTransferResult(0, 0, 0.0))

    env = Environment()
    sock = Store(env, capacity=profile.buffer_bytes)
    recv_sock = Store(env, capacity=profile.buffer_bytes)
    queue = Store(env, capacity=cfg.queue_capacity)
    recv_queue = Store(env, capacity=cfg.recv_queue_packets)
    windows = EmissionWindows(divergence)
    msg.header()  # counted; the modelled wire starts at the first record
    state = {"done_at": None, "delivered": 0}

    def send_raw(records):
        # Raw records straight into the socket buffer: the live code
        # sends the probe and the fast path inline, before any thread
        # exists.
        for rec in records:
            for pkt in record_packets(rec, cfg.packet_size):
                yield sock.put(pkt, weight=pkt.wire_length)

    def compression_proc():
        if msg.route == PROBE:
            t0 = env.now
            yield from send_raw(msg.probe(t0))
            if msg.probe_timed(t0, env.now) == FAST_PATH:
                yield from send_raw(msg.raw_records())
                queue.close()
                return
        plan = msg.pipeline(policy=policy)
        yield Timeout(THREAD_STARTUP_S)
        windows.open(env.now)
        while (job := msg.next_job(queue.size, lambda: env.now)) is not None:
            buf, level = job
            plan.submit(buf, level)
            cost = data.cost(level)
            outcome, charged = _modelled_codec(buf, level, cost, plan.guard, cfg)
            cpu_bps = cost.compress_bps * profile.sender_cpu_scale
            for pkt in plan.complete(outcome, None):
                if charged > 0:
                    # The codec's CPU time, paid packet by packet.
                    yield Timeout(pkt.original_bytes / cpu_bps)
                    charged -= pkt.original_bytes
                yield queue.put(pkt)
        queue.close()

    def emission_proc():
        while True:
            pkt = yield queue.get()
            if pkt is None:
                break
            windows.leaving(pkt, env.now)
            yield sock.put(pkt, weight=pkt.wire_length)
        windows.close(env.now)
        sock.close()

    def link_proc():
        first = True
        while True:
            pkt = yield sock.get()
            if pkt is None:
                break
            yield Timeout(link.ser_time(pkt.wire_length, env.now))
            if first:
                yield Timeout(link.latency)
                first = False
            yield recv_sock.put(pkt, weight=pkt.wire_length)
        recv_sock.close()

    def reception_proc():
        while True:
            pkt = yield recv_sock.get()
            if pkt is None:
                break
            yield recv_queue.put(pkt)
        recv_queue.close()

    def decompression_proc():
        while True:
            pkt = yield recv_queue.get()
            if pkt is None:
                break
            if pkt.level > 0:
                cpu_bps = data.cost(pkt.level).decompress_bps * profile.receiver_cpu_scale
                yield Timeout(pkt.original_bytes / cpu_bps)
            state["delivered"] += pkt.original_bytes
            state["done_at"] = env.now

    env.process(compression_proc(), "compress")
    env.process(emission_proc(), "emit")
    env.process(link_proc(), "link")
    env.process(reception_proc(), "recv")
    env.process(decompression_proc(), "decompress")
    env.run()

    if state["delivered"] != size:
        raise AssertionError(
            f"simulation delivered {state['delivered']} of {size} bytes"
        )

    elapsed = state["done_at"] if state["done_at"] is not None else env.now
    elapsed += ADOC_FRAMING_S
    if msg.route != FAST_PATH:
        # The pipelined wire pattern loses a fraction of an RTT to
        # transport stalls (Table 2 calibration).
        elapsed += PIPELINE_STALL_RTTS * profile.rtt_s
    return msg.result(elapsed, SimTransferResult(
        0, 0, 0.0,
        queue_peak=queue.peak_size,
        decisions=[] if msg.plan is None else msg.plan.adapter.history,
    ))
