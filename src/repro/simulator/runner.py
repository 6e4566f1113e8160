"""High-level simulation entry points for the experiments.

Wraps :mod:`repro.simulator.pipeline` with the measurement conventions
of the paper's section 6.1.1:

* the figures' *bandwidth* is the application-visible rate of a
  send-and-receive-back exchange; with a symmetric link this equals
  ``size / one_way_time``, so we simulate one way and report that;
* WAN plots come in two flavours — **average of 40** measurements
  (Fig. 4, oscillating) and **best of 40** (Fig. 5-6, smooth) — exposed
  as :func:`sweep` with ``agg="mean"`` or ``agg="best"``;
* Table 2's *latency* is a 0-byte ping-pong: round-trip time of an
  empty message, for plain read/write, AdOC, and AdOC with compression
  forced.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ..core.config import AdocConfig, DEFAULT_CONFIG
from ..core.stats import ConnectionStats
from ..obs.telemetry import Telemetry
from ..transport.profiles import NetworkProfile
from .costmodel import DataProfile, profile_by_name
from .pipeline import (
    ADOC_FRAMING_S,
    PIPELINE_STALL_RTTS,
    THREAD_STARTUP_S,
    SimTransferResult,
    simulate_adoc_message,
    simulate_posix_message,
)

__all__ = [
    "transfer_bandwidth",
    "sweep",
    "pingpong_latency",
    "simulate_fleet",
    "flow_snapshot",
    "SweepPoint",
]


@dataclass(frozen=True)
class SweepPoint:
    """One (size, method) cell of a bandwidth figure."""

    size: int
    method: str          # "posix" or a data-class name for AdOC
    bandwidth_bps: float
    elapsed_s: float
    wire_bytes: int


def transfer_bandwidth(
    size: int,
    method: str,
    profile: NetworkProfile,
    config: AdocConfig = DEFAULT_CONFIG,
    seed: int = 0,
) -> SimTransferResult:
    """One simulated transfer.  ``method`` is ``"posix"`` or the name of
    a data profile (``"ascii"``, ``"binary"``, ``"incompressible"``,
    ``"sparse"``, ``"dense"``) for AdOC."""
    if method == "posix":
        return simulate_posix_message(size, profile, seed)
    data = profile_by_name(method)
    return simulate_adoc_message(size, data, profile, config, seed)


def sweep(
    sizes: list[int],
    methods: list[str],
    profile: NetworkProfile,
    config: AdocConfig = DEFAULT_CONFIG,
    repeats: int = 1,
    agg: str = "best",
    seed0: int = 0,
) -> list[SweepPoint]:
    """A figure's worth of points: sizes x methods, aggregated over
    ``repeats`` stochastic runs (``agg`` in {"best", "mean"})."""
    if agg not in ("best", "mean"):
        raise ValueError("agg must be 'best' or 'mean'")
    points: list[SweepPoint] = []
    for size in sizes:
        for method in methods:
            runs = [
                transfer_bandwidth(size, method, profile, config, seed0 + r)
                for r in range(repeats)
            ]
            if agg == "best":
                chosen = min(runs, key=lambda r: r.elapsed_s)
                elapsed = chosen.elapsed_s
                wire = chosen.wire_bytes
            else:
                elapsed = statistics.fmean(r.elapsed_s for r in runs)
                wire = int(statistics.fmean(r.wire_bytes for r in runs))
            bw = size * 8.0 / elapsed if elapsed > 0 else float("inf")
            points.append(SweepPoint(size, method, bw, elapsed, wire))
    return points


def flow_snapshot(result: SimTransferResult, method: str) -> dict:
    """One simulated flow as a metrics snapshot, using the *live*
    pipeline's metric names.

    The fleet aggregator doesn't care whether a push came from a real
    transfer or a simulated one — same series, same labels — so a
    simulated fleet exercises the whole ``adoc top --fleet`` path and
    its per-instance summary columns light up identically.  The send
    series come from the live fold,
    :meth:`~repro.core.stats.ConnectionStats.record_send`.
    """
    tele = Telemetry(tracer_capacity=1)
    ConnectionStats(tele).record_send(result)
    reg = tele.metrics
    levels = result.levels_used
    # The gauge mirrors "current level": report the level the flow
    # spent most buffers at (0 when the fast path skipped the pipeline).
    level = max(levels, key=lambda k: levels[k]) if levels else 0
    reg.gauge(
        "adoc_compression_level", "current compression level"
    ).set(float(level))
    reg.gauge(
        "adoc_queue_depth", "FIFO queue depth", ("queue",)
    ).set(float(result.queue_peak), queue="sim")
    reg.counter(
        "adoc_level_decisions_total", "Figure-2 controller updates"
    ).inc(len(result.decisions))
    # Materialize the failure counters at zero so the fleet view shows
    # explicit healthy zeros rather than missing columns.
    reg.counter(
        "adoc_retries_total", "retry attempts, by failing stage", ("stage",)
    ).inc(0, stage="sim")
    reg.counter(
        "adoc_degraded_streams_total", "messages pinned to raw after a codec failure"
    ).inc(0)
    reg.counter(
        "adoc_guard_trips_total", "adaptation guard activations", ("guard",)
    ).inc(0, guard="incompressible")
    reg.gauge(
        "adoc_sim_bandwidth_bps", "simulated application bandwidth", ("method",)
    ).set(result.app_bandwidth_bps, method=method)
    return reg.to_json()


def simulate_fleet(
    address: tuple[str, int],
    flows: int = 3,
    size: int = 1 << 20,
    method: str = "ascii",
    profile: NetworkProfile | None = None,
    config: AdocConfig = DEFAULT_CONFIG,
    seed0: int = 0,
    job: str = "adoc-sim",
    timeout: float = 5.0,
) -> list[SimTransferResult]:
    """Run ``flows`` simulated transfers and push each flow's adaptation
    metrics to a fleet aggregator at ``address``.

    Each flow publishes as its own instance (``flow-0000`` …), so
    ``adoc top --fleet`` renders a live multi-flow view of a whole
    simulated deployment from one process.  Returns the per-flow
    results (seeded ``seed0 + i`` — deterministic for a fixed config).
    """
    from ..obs.fleet import push_many
    from ..transport.profiles import RENATER

    if flows <= 0:
        raise ValueError("flows must be positive")
    net = profile if profile is not None else RENATER
    results = [
        transfer_bandwidth(size, method, net, config, seed0 + i)
        for i in range(flows)
    ]
    push_many(
        address,
        (
            (f"flow-{i:04d}", flow_snapshot(result, method))
            for i, result in enumerate(results)
        ),
        job=job,
        timeout=timeout,
    )
    return results


def pingpong_latency(profile: NetworkProfile, mode: str) -> float:
    """Zero-byte ping-pong round-trip time (Table 2), in seconds.

    ``mode``:

    * ``"posix"`` — plain read/write: one RTT;
    * ``"adoc"`` — AdOC small-message path: one RTT plus the fixed
      framing overhead on each side;
    * ``"forced"`` — compression forced: the full pipeline spins up in
      both directions (threads + queue + framed segments), paying the
      start-up cost and the transport stalls each way.
    """
    rtt = profile.rtt_s
    if mode == "posix":
        return rtt
    if mode == "adoc":
        return rtt + 2 * ADOC_FRAMING_S
    if mode == "forced":
        per_way = (
            ADOC_FRAMING_S + THREAD_STARTUP_S + PIPELINE_STALL_RTTS * profile.rtt_s
        )
        return rtt + 2 * per_way
    raise ValueError(f"unknown ping-pong mode {mode!r}")
