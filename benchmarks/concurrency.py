"""Concurrency benchmark: the reactor RPC server as streams grow.

Measures aggregate echo throughput of
:class:`repro.middleware.server.ReactorRpcServer` — one loop thread
multiplexing every connection through the shared selectors reactor
(``dispatch="inline"``: echo does no codec work, so a pool hop would
only add latency; the pool path is exercised by the adoc-mode tests
and the fault suite) — as the number of concurrent streams grows.

The client driver is a single-threaded, selectors-based closed loop
that keeps exactly one echo RPC in flight per stream.  It is written
against raw sockets — deliberately independent of ``repro.serve`` — so
the measured curve is the server's, not a shared client artefact.

Workload: plain-mode ``echo`` with a small (2 KB) payload.  Small
requests put the weight on per-request machinery (readiness callbacks,
syscalls, framing) rather than ``memcpy``.

Output: ``BENCH_concurrency.json`` (see ``--out``) with the
streams-vs-throughput curve, plus a gnuplot/spreadsheet-friendly
``.tsv`` next to it.  The JSON carries ``key_fields`` so
``benchmarks/compare.py`` can gate it on ``(impl, streams)``.  The
enforced bars live in ``main`` next to the measured numbers they guard.

Usage::

    PYTHONPATH=src python benchmarks/concurrency.py           # full curve
    PYTHONPATH=src python benchmarks/concurrency.py --smoke   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import selectors
import socket
import sys
import time

from repro.core.config import AdocConfig
from repro.middleware.protocol import MsgType, RpcMessage, iter_message_segments
from repro.middleware.server import ReactorRpcServer

MB = 1 << 20

PAYLOAD_BYTES = 2048

#: The ``impl`` field of every row (``compare.py`` keys on it).
IMPL = "reactor"

FULL_STREAMS = (16, 64, 256, 1024)
SMOKE_STREAMS = (16, 64)

FULL_WARMUP_S, FULL_MEASURE_S = 1.0, 3.0
SMOKE_WARMUP_S, SMOKE_MEASURE_S = 0.3, 1.0

CFG = AdocConfig(io_timeout_s=None)


def raise_nofile_limit(needed: int) -> None:
    """Lift the soft fd limit so 1000+ sockets (2 fds each: client end
    plus server end, same process) fit."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = min(hard, max(needed, 4096))
    if soft < want:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))


def echo_request(payload: bytes) -> tuple[bytes, int]:
    """The wire bytes of one echo request and the exact reply length.

    The reply is the same message with ``RESPONSE`` in the type byte,
    so request and reply have identical wire lengths — which is what
    lets the driver count completed RPCs by byte arithmetic alone.
    """
    msg = RpcMessage(MsgType.REQUEST, "echo", [payload])
    wire = b"".join(iter_message_segments(msg))
    return wire, len(wire)


class _Stream:
    """One closed-loop echo stream: exactly one RPC in flight."""

    __slots__ = ("sock", "sendbuf", "received", "ops", "dead")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.sendbuf = b""
        self.received = 0
        self.ops = 0
        self.dead = False


class ClosedLoopDriver:
    """Single-threaded selectors client: N streams, window 1 each."""

    def __init__(self, address, streams: int, request: bytes, reply_len: int):
        self.address = address
        self.request = request
        self.reply_len = reply_len
        self.sel = selectors.DefaultSelector()
        self.streams: list[_Stream] = []
        self.errors = 0
        self._want = streams

    def connect_all(self) -> None:
        # Sequential blocking connects: loopback SYN/ACK completes long
        # before accept(), so this paces the storm without serialising
        # on the server's accept loop.
        for _ in range(self._want):
            sock = socket.create_connection(self.address, timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            stream = _Stream(sock)
            self.streams.append(stream)
            self.sel.register(sock, selectors.EVENT_READ, stream)

    def kick_all(self) -> None:
        for stream in self.streams:
            self._send(stream, self.request)

    def _send(self, stream: _Stream, data: bytes) -> None:
        try:
            n = stream.sock.send(data)
        except BlockingIOError:
            n = 0
        except OSError:
            self._kill(stream)
            return
        if n < len(data):
            stream.sendbuf = data[n:]
            self.sel.modify(
                stream.sock,
                selectors.EVENT_READ | selectors.EVENT_WRITE,
                stream,
            )

    def _kill(self, stream: _Stream) -> None:
        if stream.dead:
            return
        stream.dead = True
        self.errors += 1
        try:
            self.sel.unregister(stream.sock)
        except (KeyError, ValueError):
            pass
        stream.sock.close()

    def _on_ready(self, stream: _Stream, mask: int) -> None:
        if mask & selectors.EVENT_WRITE and stream.sendbuf:
            pending, stream.sendbuf = stream.sendbuf, b""
            self.sel.modify(stream.sock, selectors.EVENT_READ, stream)
            self._send(stream, pending)
        if not mask & selectors.EVENT_READ:
            return
        try:
            chunk = stream.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._kill(stream)
            return
        if not chunk:
            self._kill(stream)
            return
        stream.received += len(chunk)
        while stream.received >= self.reply_len:
            stream.received -= self.reply_len
            stream.ops += 1
            self._send(stream, self.request)

    def total_ops(self) -> int:
        return sum(s.ops for s in self.streams)

    def run(self, warmup_s: float, measure_s: float) -> dict:
        self.connect_all()
        self.kick_all()
        start = time.perf_counter()
        warmup_end = start + warmup_s
        measure_end = warmup_end + measure_s
        ops_at_warmup = 0
        t_measure_start = warmup_end
        in_measure = False
        while True:
            now = time.perf_counter()
            if not in_measure and now >= warmup_end:
                ops_at_warmup = self.total_ops()
                t_measure_start = now
                in_measure = True
            if now >= measure_end:
                break
            if self.errors == len(self.streams):
                break  # every stream died; report it, don't spin
            for key, mask in self.sel.select(timeout=0.05):
                self._on_ready(key.data, mask)
        t_end = time.perf_counter()
        ops = self.total_ops() - ops_at_warmup
        window = t_end - t_measure_start
        self.close()
        return {
            "requests": ops,
            "elapsed_s": round(window, 6),
            "requests_s": round(ops / window, 1),
            "throughput_mb_s": round(ops * PAYLOAD_BYTES / MB / window, 2),
            "errors": self.errors,
        }

    def close(self) -> None:
        for stream in self.streams:
            if not stream.dead:
                stream.dead = True
                try:
                    self.sel.unregister(stream.sock)
                except (KeyError, ValueError):
                    pass
                stream.sock.close()
        self.sel.close()


def run_one(streams: int, warmup_s: float, measure_s: float) -> dict:
    request, reply_len = echo_request(b"x" * PAYLOAD_BYTES)
    server = ReactorRpcServer(
        "bench-reactor", config=CFG, mode="plain", dispatch="inline"
    )
    try:
        address = server.listen(backlog=max(streams, 512))
        driver = ClosedLoopDriver(address, streams, request, reply_len)
        row = driver.run(warmup_s, measure_s)
    finally:
        server.close()
    row.update(impl=IMPL, streams=streams)
    return row


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="small counts only (CI)")
    ap.add_argument("--out", default="BENCH_concurrency.json")
    args = ap.parse_args(argv)

    plan = SMOKE_STREAMS if args.smoke else FULL_STREAMS
    warmup_s = SMOKE_WARMUP_S if args.smoke else FULL_WARMUP_S
    measure_s = SMOKE_MEASURE_S if args.smoke else FULL_MEASURE_S
    raise_nofile_limit(2 * max(plan) + 64)

    results: list[dict] = []
    for streams in plan:
        row = run_one(streams, warmup_s, measure_s)
        results.append(row)
        print(f"{streams:>5} streams: "
              f"{row['requests_s']:>9.1f} req/s  "
              f"{row['throughput_mb_s']:>8.2f} MB/s  "
              f"{row['errors']} errors")
    by_streams = {r["streams"]: r for r in results}

    summary: dict = {}
    if not args.smoke:
        peak = max(FULL_STREAMS)
        flatness = (by_streams[peak]["throughput_mb_s"]
                    / by_streams[64]["throughput_mb_s"])
        summary = {
            "reactor_flatness_peak_over_64": round(flatness, 2),
            "reactor_max_streams": peak,
            "reactor_max_streams_requests": by_streams[peak]["requests"],
            "reactor_max_streams_errors": by_streams[peak]["errors"],
        }
        # The acceptance bars, enforced where the data lives: the
        # reactor holds its peak stream count without dropping a
        # stream, and its throughput there stays within reach of its
        # 64-stream rate.
        assert by_streams[peak]["errors"] == 0, (
            f"reactor dropped streams at {peak}"
        )
        assert by_streams[peak]["requests"] > 0, (
            f"reactor made no progress at {peak} streams"
        )
        assert flatness >= 0.6, (
            f"reactor throughput at {peak} streams fell to "
            f"{flatness:.2f}x of its 64-stream rate (floor: 0.6x)"
        )

    payload = {
        "meta": {
            "mode": "smoke" if args.smoke else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "payload_bytes": PAYLOAD_BYTES,
            "workload": "plain-mode echo RPC, closed loop, window 1/stream",
            "driver": "single-threaded selectors client (raw sockets)",
            "warmup_s": warmup_s,
            "measure_s": measure_s,
        },
        "key_fields": ["impl", "streams"],
        "results": results,
        "summary": summary,
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    # The curve artefact: one row per (impl, streams) point, ready for
    # gnuplot or a spreadsheet.
    curve_path = os.path.splitext(args.out)[0] + ".tsv"
    with open(curve_path, "w") as f:
        f.write("impl\tstreams\trequests_s\tthroughput_mb_s\terrors\n")
        for r in results:
            f.write(f"{r['impl']}\t{r['streams']}\t{r['requests_s']}\t"
                    f"{r['throughput_mb_s']}\t{r['errors']}\n")

    print(f"wrote {args.out} and {curve_path}")
    if summary:
        print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
