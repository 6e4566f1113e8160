"""Self-test of the live benchmark harness.

Run from the repository root (outside the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/live -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from endpoints import PacedLink, TimedEndpoint  # noqa: E402
from repro.data.generators import incompressible_data  # noqa: E402
from repro.transport.base import recv_exact  # noqa: E402
from repro.transport.faults import Fault, FaultyEndpoint  # noqa: E402
from repro.transport.pipes import pipe_pair  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _drain(ep, n: int, out: list) -> None:
    got = 0
    while got < n:
        chunk = ep.recv(65536)
        if not chunk:
            break
        got += len(chunk)
    out.append(got)


# -- endpoint wrappers ------------------------------------------------------


def test_timed_endpoint_forwards_and_counts():
    a, b = pipe_pair()
    ta, tb = TimedEndpoint(a), TimedEndpoint(b)
    assert ta.send(b"hello") == 5
    assert ta.send_vectors([b"ab", memoryview(b"cd")]) == 4
    assert recv_exact(tb, 9) == b"helloabcd"  # three pipe segments
    ta.settimeout(2.5)
    assert a.gettimeout() == 2.5 and ta.gettimeout() == 2.5
    ta.shutdown_write()
    assert tb.recv(10) == b""  # EOF forwarded
    sent, got = ta.snapshot(), tb.snapshot()
    assert (sent["send_calls"], sent["send_bytes"]) == (2, 9)
    assert (got["recv_calls"], got["recv_bytes"]) == (4, 9)
    assert sent["send_blocked_s"] >= 0.0 and got["recv_wait_s"] >= 0.0
    tb.close()
    ta.close()


def test_timed_endpoint_forwards_other_attributes():
    a, _ = pipe_pair()
    a.marker = "inner"
    assert TimedEndpoint(a).marker == "inner"


@pytest.mark.parametrize("direction", ["send", "recv"])
def test_paced_link_holds_its_rate(direction):
    rate_bps = 8e6  # 1 MB/s
    total = 1_000_000
    a, b = pipe_pair(capacity=1 << 20)
    if direction == "send":
        tx, rx = PacedLink(a, rate_bps), b
    else:
        tx, rx = a, PacedLink(b, rate_bps)
    received: list[int] = []
    reader = threading.Thread(target=_drain, args=(rx, total, received), name="drain")
    reader.start()
    t0 = time.perf_counter()
    view = memoryview(bytes(total))
    while view:
        view = view[tx.send_vectors([view[:40_000], view[40_000:80_000]]) :]
    reader.join(10)
    elapsed = time.perf_counter() - t0
    assert received == [total]
    # The first burst is free; the rest drains at the line rate.
    expected = (total - 16 * 1024) / (rate_bps / 8)
    assert abs(elapsed - expected) / expected < 0.10


# -- failed ops ----------------------------------------------------------------


class _FlipOnce:
    """A link profile whose receive side flips one byte on one op."""

    def __init__(self, bad_seed: int) -> None:
        self.bad_seed = bad_seed

    def make_pair(self, seed: int):
        a, b = pipe_pair()
        if seed == self.bad_seed:
            # Inside the probe's raw record, so the flip reaches the
            # output instead of failing a decode.
            b = FaultyEndpoint(b, [Fault("corrupt", direction="recv", at_byte=100_000, length=1)])
        return a, b


def test_flipped_byte_is_one_failed_op_and_the_run_goes_on():
    w = workloads.BulkWorkload("flip", _FlipOnce(bad_seed=1), incompressible_data, 0, 1 << 20)
    w.prepare()
    w.begin(None)
    samples = workloads.measure(w, 0, 0.0, 3)
    assert [s.ok for s in samples] == [True, False, True]
    assert samples[1].error == ""  # a wrong output, not an exception
    metrics = workloads.end_to_end(samples, *w.end())
    assert metrics["goodput_mb_s"] > 0


def test_raising_op_is_counted_as_failed():
    class Boom:
        def op(self, i):
            raise RuntimeError("link down")

    [sample] = workloads.measure(Boom(), 0, 0.0, 1)
    assert not sample.ok and "link down" in sample.error


# -- the whole harness, smoke-sized ---------------------------------------------


def _smoke(*extra: str) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
def test_smoke_emits_exactly_the_declared_metrics(traced):
    t0 = time.perf_counter()
    lines = _smoke("--trace", "1" if traced else "0")
    if traced:
        assert time.perf_counter() - t0 < 30
    declared = [m["name"] for m in SPEC["per_layer" if traced else "end_to_end"]]
    assert len(lines) == len(SPEC["workloads"])
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
        assert list(line["metrics"]) == declared
    if traced:
        rpc = lines[-1]["metrics"]
        assert rpc["trace.dropped_events"]["value"] == 0
        assert rpc["middleware.reply_level0_share"]["value"] > 0


def test_workload_without_a_verified_op_still_prints_its_line(monkeypatch, capsys):
    def fake(name, seed, seconds, traced, smoke, trace_out):
        if name == "wan_binary":
            return {"correct": False, "attempted": 3, "failed": 3, "metrics": {"setup_s": 0.2}}
        metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(run, "run_workload", fake)
    assert run.main(["--seed", "0"]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["correct"] for line in lines] == [True, False, True, True]
    assert (lines[1]["attempted"], lines[1]["failed"]) == (3, 3)
    assert list(lines[1]["metrics"]) == ["setup_s"]


def test_missing_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "benchmarks" / "live"
    bench.mkdir(parents=True)
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/live/run.py", "--workload", "lan_ascii", "--seed", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# -- compare.py ------------------------------------------------------------------


def _record(value: float, failed: int = 0, host_s: float = 0.01) -> dict:
    return {"host": {"cpu_reference_s": host_s}, "workloads": {"lan_ascii": {
        "attempted": 10, "failed": failed, "metrics": {"goodput_mb_s": value},
    }}}


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "improved"),
        ([10.0, 10.1, 9.9, 10.0], [10.05, 9.95, 10.0, 10.1], "unchanged"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "regressed"),
        ([8.0, 12.0, 9.0, 11.0], [8.5, 11.5, 9.5, 10.5], "unresolved"),
    ],
)
def test_compare_reaches_every_verdict(parent, change, verdict):
    assert compare.judge(parent, change, "higher", 0.1) == verdict
    # Lower-is-better mirrors higher-is-better on negated values.
    mirrored = compare.judge([-v for v in parent], [-v for v in change], "lower", 0.1)
    assert mirrored == verdict


def _write(tmp_path: Path, name: str, records: list[dict]) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps({"sets": records}))
    return path


@pytest.mark.parametrize(
    "change, failed, host_s, status",
    [
        ([10.0, 10.0], 0, 0.0105, 0),
        ([5.0, 5.0], 0, 0.01, 1),
        ([10.0, 10.0], 1, 0.01, 1),
        ([5.0, 5.0], 0, 0.02, 2),
        ([5.0, 5.0], 1, 0.02, 1),
    ],
    ids=["unchanged", "regressed", "failed_ops_rose", "host_slower", "host_slower_failed_ops"],
)
def test_compare_exit_status(tmp_path, capsys, change, failed, host_s, status):
    parent = _write(tmp_path, "p.json", [_record(10.0), _record(10.0)])
    new = _write(tmp_path, "c.json", [_record(v, failed, host_s) for v in change])
    assert compare.main(["--parent", str(parent), "--change", str(new)]) == status
    out = capsys.readouterr().out
    assert "goodput_mb_s" in out
    # At different host speeds no metric gets a verdict.
    assert ("unresolved" in out) == (host_s == 0.02)
