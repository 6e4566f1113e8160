"""Per-layer numbers for the traced run.

Everything here reads the program from outside: the bench's own timers
around calls into ``repro.core.api``, ``repro.middleware`` and
``repro.compress``, the :class:`~endpoints.TimedEndpoint` counters, the
``ConnectionStats`` snapshots the API hands out, and the ``Telemetry``
spans and ``level_decision`` events the program already records.

:class:`LayerLog` folds one traced op at a time; :meth:`LayerLog.metrics`
turns the folded sums into the per-layer metric dictionary.  Values are
per op unless the name says share, mean or a percentile.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

import numpy as np

from repro.compress.registry import ADOC_MAX_LEVEL, codec_for_level
from repro.data.matrices import decode_matrix_ascii, encode_matrix_ascii
from repro.middleware.services import default_registry

__all__ = ["LayerLog", "codec_rates", "middleware_times", "quantile"]

MB = 1 << 20

#: Span names the pipeline threads record (one span per thread).
_SPANS = ("compress", "emit", "recv", "decompress")

#: Server histograms reported as their mean in ms, by metric name.
_SERVER_HISTOGRAMS = {
    "serve.loop_lag_ms_mean": "adoc_reactor_loop_lag_seconds",
    "serve.server_rpc_ms_mean": "adoc_rpc_latency_seconds",
}


def _histogram(tele, name: str) -> tuple[float, int]:
    """(sum in seconds, count) over every series of one histogram."""
    series = tele.metrics.to_json().get(name, {"series": []})["series"]
    return sum(e["sum"] for e in series), sum(e["count"] for e in series)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``); 0 when empty."""
    return float(np.quantile(values, q)) if len(values) else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerLog:
    """Accumulates per-layer evidence across the traced ops of one run."""

    def __init__(self) -> None:
        self.ops = 0
        self.sums: Counter[str] = Counter()
        self.levels: Counter[int] = Counter()
        self.depths: list[int] = []
        self.probe_mbps: list[float] = []
        self.dropped = 0
        # RPC-only evidence (zero for the bulk workloads).
        self.reply_levels: list[int] = []
        self.reply_depths: list[int] = []
        self._server0: dict[str, tuple[float, int]] = {}

    # -- folding ------------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.sums[name] += value

    def fold_telemetry(self, tele) -> None:
        """Spans, level decisions and FIFO stalls of one sending side."""
        tracer = tele.tracer
        for event in tracer.events():
            if event.kind == "span" and event.name in _SPANS:
                self.sums[f"span.{event.name}_s"] += event.dur
            elif event.kind == "level":
                self.depths.append(int(event.args["n"]))
            elif event.kind == "stall" and event.name.startswith("send."):
                # send.full: the compressor waited for room (the link is
                # behind); send.empty: the emitter waited for packets
                # (the codec is behind).
                self.sums["fifo.stall_s"] += event.dur
                self.sums["fifo.stall_events"] += 1
                if event.name == "send.full":
                    self.sums["fifo.full_s"] += event.dur
        self.dropped += tracer.dropped

    def mark_server(self, tele) -> None:
        """Note the server histograms now, so warm-up calls are left out."""
        self._server0 = {m: _histogram(tele, h) for m, h in _SERVER_HISTOGRAMS.items()}

    def fold_server_telemetry(self, tele) -> None:
        """The reactor server's reply-side level decisions and histograms."""
        for event in tele.tracer.events("level"):
            self.reply_depths.append(int(event.args["n"]))
            self.reply_levels.append(int(event.args["new_level"]))
        self.dropped += tele.tracer.dropped
        for metric, hist in _SERVER_HISTOGRAMS.items():
            total, count = _histogram(tele, hist)
            total0, count0 = self._server0.get(metric, (0.0, 0))
            self.sums[f"{metric}.sum"] += total - total0
            self.sums[f"{metric}.count"] += count - count0

    def fold_sender(self, before, after, results) -> None:
        """Send-side ``ConnectionStats`` delta plus captured ``SendResult``s."""
        for level, count in after.levels_used.items():
            self.levels[level] += count - before.levels_used.get(level, 0)
        self.sums["sender.guard_trips"] += after.guard_trips - before.guard_trips
        self.sums["msg.fast"] += after.fast_path - before.fast_path
        self.sums["msg.pipeline"] += after.pipeline_path - before.pipeline_path
        self.probe_mbps.extend(
            r.probe_bps / 1e6 for r in results if r.probe_bps is not None
        )

    def fold_rpc_client(self, stats) -> None:
        """One closed RPC client connection's two-way ``ConnectionStats``."""
        self.sums["mw.request_payload"] += stats.payload_bytes
        self.sums["mw.request_wire"] += stats.wire_bytes
        self.sums["mw.reply_payload"] += stats.recv_payload_bytes
        self.sums["mw.reply_wire"] += stats.recv_wire_bytes
        self.sums["mw.reply_raw"] += stats.recv_raw_packets
        self.sums["mw.reply_inflated"] += stats.recv_decompressed_packets

    def fold_transport(self, sent: dict, got: dict) -> None:
        """``TimedEndpoint`` counters: the send side's and the receive side's."""
        self.sums["transport.send_calls"] += sent["send_calls"]
        self.sums["transport.send_bytes"] += sent["send_bytes"]
        self.sums["transport.send_blocked_s"] += sent["send_blocked_s"]
        self.sums["transport.recv_calls"] += got["recv_calls"]
        self.sums["transport.recv_wait_s"] += got["recv_wait_s"]

    # -- reduction ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        s = self.sums
        out: dict[str, float] = {
            "api.write_s": s["api.write_s"] / ops,
            "api.read_wait_s": s["api.read_wait_s"] / ops,
            "api.read_calls": s["api.read_calls"] / ops,
        }
        packets = sum(self.levels.values())
        for level in range(ADOC_MAX_LEVEL + 1):
            out[f"sender.level_share.L{level}"] = _share(self.levels[level], packets)
        out["sender.mean_level"] = _share(
            sum(level * n for level, n in self.levels.items()), packets
        )
        out["sender.guard_trips"] = s["sender.guard_trips"] / ops
        out["sender.probe_mbps"] = (
            statistics.median(self.probe_mbps) if self.probe_mbps else 0.0
        )
        out["sender.fast_path_share"] = _share(
            s["msg.fast"], s["msg.fast"] + s["msg.pipeline"]
        )
        out["adapt.decisions"] = len(self.depths) / ops
        out["adapt.n0_share"] = _share(
            sum(1 for n in self.depths if n == 0), len(self.depths)
        )
        out["adapt.queue_depth_p50"] = quantile(self.depths, 0.5)
        out["adapt.queue_depth_p90"] = quantile(self.depths, 0.9)
        out["fifo.stall_s"] = s["fifo.stall_s"] / ops
        out["fifo.stall_events"] = s["fifo.stall_events"] / ops
        out["fifo.full_share"] = _share(s["fifo.full_s"], s["fifo.stall_s"])
        for name in _SPANS:
            out[f"span.{name}_s"] = s[f"span.{name}_s"] / ops
        out["transport.send_calls"] = s["transport.send_calls"] / ops
        out["transport.send_bytes_mean"] = _share(
            s["transport.send_bytes"], s["transport.send_calls"]
        )
        out["transport.send_blocked_s"] = s["transport.send_blocked_s"] / ops
        out["transport.recv_calls"] = s["transport.recv_calls"] / ops
        out["transport.recv_wait_s"] = s["transport.recv_wait_s"] / ops
        out["middleware.request_ratio"] = _share(s["mw.request_payload"], s["mw.request_wire"])
        out["middleware.reply_ratio"] = _share(s["mw.reply_payload"], s["mw.reply_wire"])
        out["middleware.reply_level0_share"] = _share(
            s["mw.reply_raw"], s["mw.reply_raw"] + s["mw.reply_inflated"]
        )
        for metric in _SERVER_HISTOGRAMS:
            out[metric] = 1e3 * _share(s[f"{metric}.sum"], s[f"{metric}.count"])
        out["serve.callback_errors"] = s["serve.callback_errors"]
        out["serve.reply_decisions"] = len(self.reply_depths) / ops
        out["serve.reply_n0_share"] = _share(
            sum(1 for n in self.reply_depths if n == 0), len(self.reply_depths)
        )
        out["serve.reply_mean_level"] = _share(
            sum(self.reply_levels), len(self.reply_levels)
        )
        out["trace.dropped_events"] = float(self.dropped)
        return out


def codec_rates(sample: bytes, chunk: int, reps: int) -> dict[str, float]:
    """Encode/decode MB/s of every compressing level on ``sample``.

    The sample is cut into ``chunk``-byte buffers, as the sender cuts its
    input, and each level's rate is the median of ``reps`` passes.  Every
    decode is checked against its input.
    """
    pieces = [sample[off : off + chunk] for off in range(0, len(sample), chunk)]
    mb = len(sample) / MB
    out: dict[str, float] = {}
    for level in range(1, ADOC_MAX_LEVEL + 1):
        codec = codec_for_level(level)
        enc_s: list[float] = []
        dec_s: list[float] = []
        for _ in range(reps):
            t0 = time.perf_counter()
            packed = [codec.compress(p) for p in pieces]
            t1 = time.perf_counter()
            unpacked = [codec.decompress(c, len(p)) for c, p in zip(packed, pieces)]
            t2 = time.perf_counter()
            if unpacked != pieces:
                raise AssertionError(f"level {level} codec failed to round-trip")
            enc_s.append(t1 - t0)
            dec_s.append(t2 - t1)
        out[f"compress.encode_mb_s.L{level}"] = mb / statistics.median(enc_s)
        out[f"compress.decode_mb_s.L{level}"] = mb / statistics.median(dec_s)
    return out


def middleware_times(a, b, reps: int) -> dict[str, float]:
    """Median ms of marshalling and of the ``dgemm`` service, called directly."""
    dgemm = default_registry().lookup("dgemm")
    b_bytes = encode_matrix_ascii(b)
    enc: list[float] = []
    dec: list[float] = []
    svc: list[float] = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a_bytes = encode_matrix_ascii(a)
        t1 = time.perf_counter()
        decode_matrix_ascii(a_bytes)
        t2 = time.perf_counter()
        dgemm([a_bytes, b_bytes])
        t3 = time.perf_counter()
        enc.append(t1 - t0)
        dec.append(t2 - t1)
        svc.append(t3 - t2)
    return {
        "middleware.encode_ms": 1e3 * statistics.median(enc),
        "middleware.decode_ms": 1e3 * statistics.median(dec),
        "middleware.service_ms": 1e3 * statistics.median(svc),
    }
