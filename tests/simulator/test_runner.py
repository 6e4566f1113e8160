"""Sweep/aggregation helpers and the Table-2 latency model."""

from __future__ import annotations

import random

import pytest

from repro.core import DEFAULT_CONFIG, AdocConfig, MessageSender
from repro.obs.telemetry import Telemetry
from repro.simulator import flow_snapshot, pingpong_latency, sweep, transfer_bandwidth
from repro.transport import GBIT, INTERNET, LAN100, RENATER

MB = 1024 * 1024


class TestTransferBandwidth:
    def test_posix_method(self):
        r = transfer_bandwidth(MB, "posix", LAN100)
        assert r.payload_bytes == MB

    def test_adoc_methods(self):
        for m in ("ascii", "binary", "incompressible", "sparse", "dense"):
            r = transfer_bandwidth(600_000, m, RENATER)
            assert r.payload_bytes == 600_000

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            transfer_bandwidth(MB, "quantum", LAN100)


class TestSweep:
    def test_grid_shape(self):
        pts = sweep([1000, MB], ["posix", "ascii"], RENATER, repeats=2)
        assert len(pts) == 4
        assert {(p.size, p.method) for p in pts} == {
            (1000, "posix"),
            (1000, "ascii"),
            (MB, "posix"),
            (MB, "ascii"),
        }

    def test_best_leq_mean(self):
        best = sweep([MB], ["posix"], RENATER, repeats=6, agg="best")[0]
        mean = sweep([MB], ["posix"], RENATER, repeats=6, agg="mean")[0]
        assert best.elapsed_s <= mean.elapsed_s
        assert best.bandwidth_bps >= mean.bandwidth_bps

    def test_mean_smooths_less_than_best(self):
        """Fig. 4 vs Fig. 5: averages oscillate, best-of is smooth —
        i.e. the per-size variance of the mean curve is nonzero on a
        jittery WAN while best-of-N changes monotonically less."""
        sizes = [MB, 2 * MB, 4 * MB]
        best = sweep(sizes, ["posix"], RENATER, repeats=6, agg="best")
        for p in best:
            assert p.bandwidth_bps > 0

    def test_invalid_agg_rejected(self):
        with pytest.raises(ValueError):
            sweep([MB], ["posix"], RENATER, agg="median")


class TestTable2:
    """The latency model must reproduce Table 2's milliseconds."""

    @pytest.mark.parametrize(
        "profile,posix_ms,forced_ms",
        [
            (INTERNET, 80.0, 225.0),
            (RENATER, 9.2, 25.0),
            (LAN100, 0.18, 1.8),
            (GBIT, 0.030, 1.6),
        ],
    )
    def test_paper_rows(self, profile, posix_ms, forced_ms):
        assert pingpong_latency(profile, "posix") * 1e3 == pytest.approx(
            posix_ms, rel=0.05
        )
        assert pingpong_latency(profile, "forced") * 1e3 == pytest.approx(
            forced_ms, rel=0.25
        )

    @pytest.mark.parametrize("profile", [INTERNET, RENATER, LAN100])
    def test_adoc_latency_close_to_posix_below_gbit(self, profile):
        """Paper: 'no difference between AdOC and POSIX read/write up to
        100 Mb LAN'."""
        posix = pingpong_latency(profile, "posix")
        adoc = pingpong_latency(profile, "adoc")
        assert adoc - posix < 50e-6

    def test_gbit_adoc_overhead_tens_of_us(self):
        posix = pingpong_latency(GBIT, "posix")
        adoc = pingpong_latency(GBIT, "adoc")
        assert 10e-6 <= adoc - posix <= 50e-6

    def test_forced_much_slower_than_adoc(self):
        for p in (INTERNET, RENATER, LAN100, GBIT):
            assert pingpong_latency(p, "forced") > 5 * pingpong_latency(p, "adoc") or (
                pingpong_latency(p, "forced") - pingpong_latency(p, "adoc") > 1e-3
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            pingpong_latency(LAN100, "weird")


class _Sink:
    def send(self, data) -> int:
        return len(data)

    def recv(self, n: int) -> bytes:
        return b""

    def close(self) -> None:
        pass


class TestFlowSnapshot:
    """A simulated flow publishes the live pipeline's series and labels."""

    def test_one_decision_per_pipelined_buffer(self):
        size = 32 * MB
        r = transfer_bandwidth(size, "ascii", LAN100, seed=1)
        snap = flow_snapshot(r, "ascii")
        (series,) = snap["adoc_level_decisions_total"]["series"]
        cfg = DEFAULT_CONFIG
        buffers = -(-(size - cfg.probe_size) // cfg.buffer_size)
        assert series["value"] == len(r.decisions) == buffers

    def test_guard_trips_carry_the_live_label(self):
        r = transfer_bandwidth(8 * MB, "incompressible", RENATER, seed=1)
        assert r.guard_trips > 0
        (sim,) = flow_snapshot(r, "incompressible")["adoc_guard_trips_total"]["series"]
        assert sim["value"] == r.guard_trips

        # A live send of random bytes at forced levels trips the same guard.
        tele = Telemetry(enabled=True)
        cfg = AdocConfig(telemetry=tele, compress_workers=0).with_levels(1, 10)
        live = MessageSender(_Sink(), cfg)
        assert live.send(random.Random(5).randbytes(MB)).guard_trips > 0
        live_labels = [
            s["labels"] for s in tele.metrics.to_json()["adoc_guard_trips_total"]["series"]
        ]
        assert sim["labels"] in live_labels

    def test_send_series_carry_the_live_labels(self):
        r = transfer_bandwidth(4 * MB, "ascii", RENATER, seed=1)
        assert r.pipeline_used
        sim = flow_snapshot(r, "ascii")

        # A live pipelined send of the same kind, folded by its connection.
        tele = Telemetry(enabled=True)
        cfg = AdocConfig(telemetry=tele, compress_workers=0).with_levels(1, 10)
        MessageSender(_Sink(), cfg).send(b"adoc " * 200_000)
        live = tele.metrics.to_json()
        for name in ("adoc_messages_total", "adoc_payload_bytes_total", "adoc_wire_bytes_total"):
            labels = [s["labels"] for s in sim[name]["series"]]
            assert labels == [s["labels"] for s in live[name]["series"]], name
        (payload,) = sim["adoc_payload_bytes_total"]["series"]
        (wire,) = sim["adoc_wire_bytes_total"]["series"]
        assert (payload["value"], wire["value"]) == (r.payload_bytes, r.wire_bytes)
