"""End-to-end acceptance: a traced transfer explains itself.

The ISSUE acceptance bar: with telemetry enabled, one pipelined
transfer must produce a valid Chrome trace with spans for all four
pipeline threads and one Figure-2 ``level`` decision per input buffer,
each carrying ``(n, delta, old_level, new_level)``.  Compression is
forced (levels 1..10) because over an in-memory pipe the bandwidth
probe classifies the link as "very fast network" and takes the raw
fast path, which never runs the controller.
"""

from __future__ import annotations

import json
import threading
import time

from repro.core import AdocConfig, AdocSocket
from repro.core import planner as planner_mod
from repro.data import ascii_data
from repro.obs import Telemetry, extract_timeline
from repro.transport import pipe_pair

#: The four pipeline stages the paper's Figure 1 draws.
PIPELINE_SPANS = {"compress", "emit", "recv", "decompress"}


def traced_transfer(size: int = 6 * 200 * 1024) -> tuple[Telemetry, object, object, int]:
    """One forced-compression transfer; returns (tele, tx_stats, rx_stats, buffers)."""
    tele = Telemetry(enabled=True)
    cfg = AdocConfig(telemetry=tele)
    payload = ascii_data(size, seed=11)
    a, b = pipe_pair()
    tx, rx = AdocSocket(a, cfg), AdocSocket(b, cfg)
    got: list[bytes] = []
    reader = threading.Thread(
        target=lambda: got.append(rx.read_exact(len(payload))),
        name="test-reader",
        daemon=True,
    )
    reader.start()
    tx.write_levels(payload, 1, 10)
    reader.join(timeout=30)
    stats = tx.stats
    # Receive-side spans are recorded when the worker threads unwind;
    # closing the sender EOFs the pipe, then give them a beat.
    tx.close()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if PIPELINE_SPANS <= {e.name for e in tele.tracer.events("span")}:
            break
        time.sleep(0.02)
    rx_stats = rx.stats
    rx.close()
    assert got and got[0] == payload
    buffers = -(-size // cfg.buffer_size)
    return tele, stats, rx_stats, buffers


def test_traced_transfer_covers_all_four_pipeline_stages():
    tele, _, _, buffers = traced_transfer()

    span_names = {e.name for e in tele.tracer.events("span")}
    assert PIPELINE_SPANS <= span_names

    # One Figure-2 decision per buffer, on the compression thread; the
    # adapter also decides once at stream start, hence >=.
    levels = tele.tracer.events("level")
    assert len(levels) >= buffers
    for event in levels:
        assert {"n", "delta", "old_level", "new_level"} <= set(event.args)

    # The timeline extractor sees the same series.
    points = extract_timeline(tele.tracer)
    assert len(points) == len(levels)
    assert all(1 <= p.level <= 10 for p in points)

    # The export is real Chrome trace JSON: serialisable, with one
    # thread_name row per pipeline stage's thread.
    trace = tele.tracer.to_chrome_trace()
    json.dumps(trace)
    thread_rows = {
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {"adoc-compress", "adoc-recv", "adoc-decompress"} <= thread_rows

    digest = tele.digest()
    assert digest["level_decisions"] == len(levels)
    assert digest["mean_level"] > 0
    assert set(digest["span_time_s"]) >= PIPELINE_SPANS


def test_timeline_is_the_adapters_history(monkeypatch):
    """The trace's decisions are the adapter's own records, field for field."""
    made: list[planner_mod.SendPlanner] = []

    class Recording(planner_mod.SendPlanner):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(planner_mod, "SendPlanner", Recording)
    tele, _, _, buffers = traced_transfer()
    (plan,) = made
    history = plan.adapter.history
    assert len(history) == buffers
    assert extract_timeline(tele.tracer) == history
    assert [e.args["raw_level"] for e in tele.tracer.events("level")] == [
        t.raw_level for t in history
    ]


def test_metrics_cover_both_directions():
    tele, tx_stats, rx_stats, _ = traced_transfer()
    reg = tele.metrics
    sent, received = tx_stats.snapshot(), rx_stats.snapshot()

    payload = reg.counter("adoc_payload_bytes_total", "", ("direction",))
    assert payload.value(direction="send") == sent.payload_bytes
    assert payload.value(direction="recv") == received.recv_payload_bytes

    # The receiving socket's accounting mirrors the sender's: same one
    # message, same payload, and wire bytes actually compressed.
    assert received.recv_messages == sent.messages == 1
    assert 0 < sent.wire_bytes < sent.payload_bytes
    assert received.recv_payload_bytes == sent.payload_bytes
    assert received.recv_wire_bytes >= sent.wire_bytes
    assert received.recv_compression_ratio > 1.0
    assert received.recv_decompressed_packets > 0

    decisions = reg.counter("adoc_level_decisions_total", "", ())
    assert decisions.value() == len(tele.tracer.events("level"))

    # Prometheus exposition renders without blowing up and mentions
    # the headline families.
    text = reg.expose()
    for family in (
        "adoc_payload_bytes_total",
        "adoc_queue_depth_packets",
        "adoc_compression_level",
    ):
        assert family in text


def test_disabled_telemetry_records_nothing():
    tele = Telemetry(enabled=False)
    cfg = AdocConfig(telemetry=tele)
    payload = ascii_data(256 * 1024, seed=3)
    a, b = pipe_pair()
    tx, rx = AdocSocket(a, cfg), AdocSocket(b, cfg)
    got: list[bytes] = []
    reader = threading.Thread(
        target=lambda: got.append(rx.read_exact(len(payload))),
        name="test-reader",
        daemon=True,
    )
    reader.start()
    tx.write_levels(payload, 1, 10)
    reader.join(timeout=30)
    tx.close()
    rx.close()
    assert got and got[0] == payload
    assert len(tele.tracer) == 0
    assert tele.metrics.to_json() == {}
