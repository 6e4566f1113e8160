"""The four live workloads and the closed-loop measurement around them.

Each workload drives the real library over a shaped link with one
operation in flight at a time (AdOC callers block in ``adoc_write`` or in
an RPC, so a closed loop is the honest model), verifies every output,
and reports the end-to-end metrics.  With ``traced=True`` the run also
collects the per-layer numbers of :mod:`layers`.

* ``lan_ascii`` — 8 MB ``ascii_data`` over ``LAN100``: the link outruns
  the Python codecs, so codec CPU and the Figure-2 level choice set
  goodput.
* ``wan_binary`` — 8 MB ``binary_data`` over ``RENATER.scaled(4)`` with
  seeded jitter and congestion: link-bound, the codec mostly waits on
  emission backpressure.
* ``lan_incompressible`` — 8 MB ``incompressible_data`` over ``LAN100``:
  the incompressible guard trips and everything ships raw, so this
  measures AdOC's overhead where compression cannot win.
* ``rpc_dgemm`` — ``dgemm`` on 256x256 sparse matrices through an
  ``AdocCommunicator`` to ``ReactorRpcServer(mode="adoc")`` on loopback
  TCP, the client paced at 94 Mbit/s both ways: the only workload
  through marshalling, the reactor channel and the pool.

Bulk workloads use one writer thread and the calling thread as reader;
``rpc_dgemm`` uses the calling thread as its one client.  The program's
own pipeline threads, pool workers and reactor are not load.
"""

from __future__ import annotations

import resource
import socket
import statistics
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from repro import LAN100, RENATER, AdocSocket
from repro.core.config import AdocConfig
from repro.data.generators import ascii_data, binary_data, incompressible_data
from repro.data.matrices import decode_matrix_ascii, encode_matrix_ascii, sparse_matrix
from repro.middleware.communicator import AdocCommunicator
from repro.middleware.protocol import (
    MsgType,
    RpcMessage,
    iter_message_segments,
    read_message,
    write_message,
)
from repro.middleware.server import ReactorRpcServer
from repro.obs import Telemetry
from repro.obs.tracer import merge_chrome_traces
from repro.serve.pool import shared_pool, shutdown_shared_pool
from repro.transport.socket_transport import SocketEndpoint

from endpoints import PacedLink, TimedEndpoint
from layers import LayerLog, codec_rates, middleware_times, quantile

__all__ = ["WORKLOADS", "make", "run", "setup_only", "OpSample", "measure", "end_to_end"]

MB = 1 << 20

#: An op that raises, or runs past this, fails (also the library's own
#: per-operation I/O bound).
IO_TIMEOUT_S = 30.0
CONFIG = AdocConfig(io_timeout_s=IO_TIMEOUT_S)

BULK_BYTES = 8 * MB
#: Warm-up transfer: four buffers or more, so it takes the pooled path.
WARMUP_BYTES = 2 * MB

#: Trace ring per Telemetry handle: one traced 8 MB transfer records a
#: few thousand events, a traced RPC phase a few tens of thousands.  The
#: ring must never evict (``trace.dropped_events`` must read 0).
TRACE_RING = 1 << 18

RPC_N = 256
#: Seeded non-zero entries per RPC matrix: enough that ``allclose``
#: against ``A @ B`` checks real numbers, few enough that the matrices
#: stay the paper's "sparse" (almost all zero) case.
RPC_NONZEROS = 64
RPC_WARMUP = 5
LINK_BPS = 94e6
RCVBUF = 64 * 1024

#: Every run measures at least this many ops, however slow.
MIN_OPS = 3


@dataclass
class OpSample:
    """One closed-loop operation: timings, bytes, verdict."""

    wall_s: float
    cpu_s: float
    payload_bytes: int
    ok: bool
    #: Empty for a verified op or a wrong output; the exception otherwise.
    error: str = ""


def _read_all(sock: AdocSocket, n: int, timers: dict | None) -> bytearray:
    """``adoc_read`` until ``n`` bytes or EOF, timing each call."""
    buf = bytearray()
    calls = 0
    waited = 0.0
    while len(buf) < n:
        t0 = time.perf_counter()
        chunk = sock.read(n - len(buf))
        waited += time.perf_counter() - t0
        calls += 1
        if not chunk:
            break
        buf += chunk
    if timers is not None:
        timers["api.read_wait_s"] = waited
        timers["api.read_calls"] = calls
    return buf


def _capture_sends(sock: AdocSocket) -> list:
    """Record every ``SendResult`` the socket's sender folds into its stats.

    ``adoc_write`` returns only ``(n, slen)``; the probe rate lives on
    the ``SendResult`` handed to ``ConnectionStats.record_send``.
    """
    stats = sock.stats
    inner = stats.record_send
    results: list = []

    def record_send(result) -> None:
        results.append(result)
        inner(result)

    stats.record_send = record_send
    return results


class BulkWorkload:
    """One 8 MB ``adoc_write``/``adoc_read`` per op over a fresh shaped pair."""

    def __init__(self, name, profile, generate, seed: int, payload_bytes: int) -> None:
        self.name = name
        self.profile = profile
        self.generate = generate
        self.seed = seed
        self.payload_bytes = payload_bytes
        self.payload = b""
        self.log: LayerLog | None = None
        self.trace_doc: dict | None = None
        self.want_trace = False
        self._first: tuple[AdocSocket, AdocSocket] | None = None
        self._payload_total = 0
        self._wire_total = 0

    def setup(self) -> None:
        """Fixtures: the shared codec pool, the first pair attached at both ends."""
        shared_pool()
        a, b = self.profile.make_pair(seed=self.seed * 1000)
        self._first = (AdocSocket(a, CONFIG), AdocSocket(b, CONFIG))

    def prepare(self) -> None:
        self.payload = self.generate(self.payload_bytes, self.seed)
        self.close()

    def codec_sample(self) -> bytes:
        return self.payload[:MB]

    def warm_up(self) -> None:
        self._transfer(self.payload[:WARMUP_BYTES], self.seed * 1000 + 999, None)

    def begin(self, log: LayerLog | None) -> None:
        self.log = log
        self._payload_total = self._wire_total = 0

    def op(self, i: int) -> OpSample:
        return self._transfer(self.payload, self.seed * 1000 + i, self.log)

    def end(self) -> tuple[int, int]:
        """Payload and wire bytes of the verified ops of this phase."""
        return self._payload_total, self._wire_total

    def close(self) -> None:
        for sock in self._first or ():
            sock.close()
        self._first = None

    def _transfer(self, payload: bytes, link_seed: int, log: LayerLog | None) -> OpSample:
        a, b = self.profile.make_pair(seed=link_seed)
        tele = None
        cfg = CONFIG
        if log is not None:
            a, b = TimedEndpoint(a), TimedEndpoint(b)
            tele = Telemetry(enabled=True, tracer_capacity=TRACE_RING)
            cfg = replace(CONFIG, telemetry=tele)
        tx, rx = AdocSocket(a, cfg), AdocSocket(b, cfg)
        tx_stats = tx.stats
        stats0 = tx_stats.snapshot()
        sends = _capture_sends(tx) if log is not None else []
        timers: dict = {}
        outcome: dict = {}

        def write() -> None:
            t = time.perf_counter()
            try:
                outcome["slen"] = tx.write(payload)[1]
            except BaseException as exc:  # noqa: BLE001 - re-raised by the reader
                outcome["error"] = exc
            timers["api.write_s"] = time.perf_counter() - t

        writer = threading.Thread(target=write, name="bench-writer", daemon=True)
        try:
            t0 = time.perf_counter()
            c0 = time.process_time()
            writer.start()
            got = _read_all(rx, len(payload), timers if log is not None else None)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            writer.join(IO_TIMEOUT_S)
            if writer.is_alive():
                raise TimeoutError("writer still blocked after the payload was read")
            if "error" in outcome:
                raise outcome["error"]
        finally:
            tx.close()
            rx.close()
            writer.join(IO_TIMEOUT_S)
        ok = got == payload
        if ok:
            self._payload_total += len(payload)
            self._wire_total += outcome["slen"]
        if log is not None:
            log.ops += 1
            for key, value in timers.items():
                log.add(key, value)
            log.fold_sender(stats0, tx_stats.snapshot(), sends)
            log.fold_transport(a.snapshot(), b.snapshot())
            log.fold_telemetry(tele)
            if self.want_trace and self.trace_doc is None:
                self.trace_doc = tele.tracer.to_chrome_trace(self.name)
        return OpSample(wall, cpu, len(payload), ok)


class TimedCommunicator(AdocCommunicator):
    """``AdocCommunicator`` that times each call into ``adoc_write``/``adoc_read``."""

    def __init__(self, endpoint, config: AdocConfig) -> None:
        super().__init__(endpoint, config)
        self.write_s = 0.0
        self.read_s = 0.0
        self.read_calls = 0

    def write(self, data: bytes) -> None:
        t0 = time.perf_counter()
        super().write(data)
        self.write_s += time.perf_counter() - t0

    def read(self, n: int) -> bytes:
        t0 = time.perf_counter()
        data = super().read(n)
        self.read_s += time.perf_counter() - t0
        self.read_calls += 1
        return data


class _RpcClient:
    """One paced client connection to the RPC server."""

    def __init__(self, address: tuple[str, int], config: AdocConfig, traced: bool) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            # A small receive buffer, set before connect so the window
            # scale honours it, makes the paced reader push back on the
            # server's sends as a 94 Mbit/s link would.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF)
            sock.settimeout(10.0)
            sock.connect(address)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        endpoint = PacedLink(SocketEndpoint(sock), LINK_BPS)
        self.timed = TimedEndpoint(endpoint) if traced else None
        if self.timed is not None:
            self.comm = TimedCommunicator(self.timed, config)
        else:
            self.comm = AdocCommunicator(endpoint, config)
        self.stats = self.comm.socket.stats

    def close(self) -> None:
        # adoc_close joins the receive thread, and closing a socket does
        # not wake a thread blocked in recv() on it; a shutdown does.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the server already hung up
        self.comm.close()


def rpc_matrices(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeded sparse ``A`` and ``B`` of the ``dgemm`` requests."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        m = sparse_matrix(RPC_N)
        rows = rng.integers(0, RPC_N, RPC_NONZEROS)
        cols = rng.integers(0, RPC_N, RPC_NONZEROS)
        m[rows, cols] = rng.uniform(-1.0, 1.0, RPC_NONZEROS)
        mats.append(m)
    return mats[0], mats[1]


class RpcWorkload:
    """``dgemm`` calls, one in flight, each on its own client connection.

    A connection per call is how NetSolve (and ``repro.middleware.Client``)
    issues RPCs.  It also keeps the calls independent: AdOC's adaptation
    state lives per connection, and over one persistent connection that
    state drifts, which moved the median call time by ~10% between
    otherwise identical runs (against ~2% with a connection per call).
    """

    name = "rpc_dgemm"

    def __init__(self, seed: int, warmup: int) -> None:
        self.seed = seed
        self.warmup = warmup
        self.server: ReactorRpcServer | None = None
        self.address: tuple[str, int] = ("127.0.0.1", 0)
        self.client_cfg = CONFIG
        self.server_tele: Telemetry | None = None
        self.client_tele: Telemetry | None = None
        self.log: LayerLog | None = None
        self.trace_doc: dict | None = None
        self.want_trace = False
        self._first: _RpcClient | None = None
        self._payload_total = 0
        self._wire_total = 0

    def setup(self) -> None:
        """Fixtures: the shared codec pool, the server listening, a client attached."""
        shared_pool()
        self._serve(None)
        self._first = _RpcClient(self.address, CONFIG, traced=False)

    def _serve(self, tele: Telemetry | None) -> None:
        # The server keeps the library's default config (no io_timeout_s):
        # with it set, every channel arms a stall timer, and cancelling
        # the last live one can crash the reactor loop (TimerWheel's
        # next_deadline() takes min() of an empty sequence); the client's
        # own 30 s bound still fails any call that stalls.
        cfg = AdocConfig(telemetry=tele)
        self.server = ReactorRpcServer(
            "bench", config=cfg, mode="adoc", dispatch="pool", telemetry=tele
        )
        self.address = self.server.listen()

    def prepare(self) -> None:
        args = [encode_matrix_ascii(m) for m in rpc_matrices(self.seed)]
        # The server multiplies what it decodes; so does the check.
        self.expected = decode_matrix_ascii(args[0]) @ decode_matrix_ascii(args[1])
        self.request = RpcMessage(MsgType.REQUEST, "dgemm", args)
        if self._first is not None:
            self._first.close()
            self._first = None

    def codec_sample(self) -> bytes:
        return self.request.args[0][:MB]

    def warm_up(self) -> None:
        for _ in range(self.warmup):
            self._call(None)

    def begin(self, log: LayerLog | None) -> None:
        """Start a phase; a traced one gets its own, traced server.

        Both ends of a traced phase carry a Telemetry handle; the
        warm-up events are dropped so the folded numbers cover measured
        calls only.
        """
        self.log = log
        self._payload_total = self._wire_total = 0
        if log is None:
            return
        self.server.close()
        self.server_tele = Telemetry(enabled=True, tracer_capacity=TRACE_RING)
        self.client_tele = Telemetry(enabled=True, tracer_capacity=TRACE_RING)
        self.client_cfg = replace(CONFIG, telemetry=self.client_tele)
        self._serve(self.server_tele)
        self.warm_up()
        self.client_tele.tracer.clear()
        self.server_tele.tracer.clear()
        log.mark_server(self.server_tele)

    def op(self, i: int) -> OpSample:
        sample = self._call(self.log)
        if self.log is not None and self.want_trace and self.trace_doc is None:
            self.trace_doc = merge_chrome_traces(
                [
                    self.client_tele.tracer.to_chrome_trace(),
                    self.server_tele.tracer.to_chrome_trace(),
                ],
                names=["rpc_dgemm client", "rpc_dgemm server"],
            )
        return sample

    def _call(self, log: LayerLog | None) -> OpSample:
        client = _RpcClient(self.address, self.client_cfg, traced=log is not None)
        stats0 = client.stats.snapshot()
        sends = _capture_sends(client.comm.socket) if log is not None else []
        try:
            t0 = time.perf_counter()
            c0 = time.process_time()
            sent = write_message(client.comm, self.request)
            reply = read_message(client.comm)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        finally:
            client.close()
        if reply is None:
            raise ConnectionError("server closed the connection before replying")
        received = sum(len(seg) for seg in iter_message_segments(reply))
        ok = (
            reply.type == MsgType.RESPONSE
            and reply.status == 0
            and len(reply.args) == 1
            and np.allclose(decode_matrix_ascii(reply.args[0]), self.expected)
        )
        # Closed, so the receive side's accounting is final.
        st = client.stats.snapshot()
        if ok:
            self._payload_total += st.payload_bytes + st.recv_payload_bytes
            self._wire_total += st.wire_bytes + st.recv_wire_bytes
        if log is not None:
            comm = client.comm
            log.ops += 1
            log.add("api.write_s", comm.write_s)
            log.add("api.read_wait_s", comm.read_s)
            log.add("api.read_calls", comm.read_calls)
            log.fold_sender(stats0, st, sends)
            log.fold_transport(client.timed.snapshot(), client.timed.snapshot())
            log.fold_rpc_client(st)
        return OpSample(wall, cpu, sent + received, ok)

    def end(self) -> tuple[int, int]:
        """Payload and wire bytes of this phase's verified calls, both directions."""
        log = self.log
        if log is not None:
            log.fold_telemetry(self.client_tele)
            log.fold_server_telemetry(self.server_tele)
            log.add("serve.callback_errors", self.server.reactor.callback_errors)
        return self._payload_total, self._wire_total

    def close(self) -> None:
        if self._first is not None:
            self._first.close()
            self._first = None
        if self.server is not None:
            self.server.close()
            self.server = None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


WORKLOADS = ("lan_ascii", "wan_binary", "lan_incompressible", "rpc_dgemm")


def make(name: str, seed: int, smoke: bool = False):
    """A fresh workload instance (nothing started yet)."""
    if name == "lan_ascii":
        return BulkWorkload(name, LAN100, ascii_data, seed, BULK_BYTES)
    if name == "wan_binary":
        return BulkWorkload(name, RENATER.scaled(4), binary_data, seed, BULK_BYTES)
    if name == "lan_incompressible":
        return BulkWorkload(name, LAN100, incompressible_data, seed, BULK_BYTES)
    if name == "rpc_dgemm":
        return RpcWorkload(seed, 1 if smoke else RPC_WARMUP)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def _attempt(workload, i: int) -> OpSample:
    t0 = time.perf_counter()
    try:
        sample = workload.op(i)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
        return OpSample(time.perf_counter() - t0, 0.0, 0, False, f"{type(exc).__name__}: {exc}")
    if sample.wall_s > IO_TIMEOUT_S:
        sample.ok = False
        sample.error = f"op took {sample.wall_s:.1f}s, past io_timeout_s"
    return sample


def measure(workload, first: int, seconds: float, min_ops: int) -> list[OpSample]:
    """Closed loop: ops back to back for ``seconds``, and at least ``min_ops``."""
    samples: list[OpSample] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < min_ops or time.perf_counter() < deadline:
        samples.append(_attempt(workload, first + len(samples)))
    return samples


def end_to_end(samples: list[OpSample], payload: int, wire: int) -> dict[str, float]:
    """The end-to-end metrics over the verified ops of one phase."""
    good = [s for s in samples if s.ok]
    if not good:
        return {}
    walls = [s.wall_s for s in good]
    return {
        "goodput_mb_s": statistics.median(s.payload_bytes / MB / s.wall_s for s in good),
        "latency_ms_p50": 1e3 * statistics.median(walls),
        "latency_ms_p90": 1e3 * quantile(walls, 0.9),
        "wire_ratio": _ratio(payload, wire),
    }


def cpu_ms_per_mb(samples: list[OpSample]) -> float:
    """Median over verified ops of process CPU time per payload MB."""
    good = [s for s in samples if s.ok]
    if not good:
        return 0.0
    return statistics.median(1e3 * s.cpu_s / (s.payload_bytes / MB) for s in good)


def direct_calls(workload, seed: int, smoke: bool) -> dict[str, float]:
    """Codec and middleware rates from direct calls, outside any transfer."""
    reps = 1 if smoke else 3
    out = codec_rates(workload.codec_sample(), CONFIG.buffer_size, reps)
    out.update(middleware_times(*rpc_matrices(seed), reps))
    return out


def per_layer(log: LayerLog, plain, traced) -> dict[str, float]:
    """The per-layer metrics of a traced run, less the direct calls."""
    metrics = log.metrics()
    metrics["proc.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # From the untraced ops: tracing itself costs CPU.
    metrics["proc.cpu_ms_per_mb"] = cpu_ms_per_mb(plain)
    base = [s.wall_s for s in plain if s.ok]
    with_trace = [s.wall_s for s in traced if s.ok]
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(with_trace) / statistics.median(base) - 1.0)
        if base and with_trace
        else 0.0
    )
    return metrics


def setup_only(name: str, seed: int) -> float:
    """Build the workload's fixtures, then tear them down (cold-start timing).

    Returns the ``perf_counter()`` reading taken once the fixtures are
    ready, before the teardown.
    """
    workload = make(name, seed)
    try:
        workload.setup()
        return time.perf_counter()
    finally:
        workload.close()
        shutdown_shared_pool()


def run(
    name: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    smoke: bool = False,
    want_trace: bool = False,
) -> dict:
    """One workload run; returns the result record (metrics by name).

    Untraced, every measured op feeds the end-to-end metrics.  Traced,
    the first third of the time runs untraced and the rest traced: the
    per-layer metrics come from the traced ops, and the two phases'
    median latencies give ``trace.overhead_pct``.  ``smoke`` runs two
    ops per phase (one untraced op before a traced phase), untimed.
    """
    if smoke:
        seconds = 0.0
    workload = make(name, seed, smoke)
    workload.want_trace = want_trace
    try:
        workload.setup()
        workload.prepare()
        direct = direct_calls(workload, seed, smoke) if traced else {}
        workload.warm_up()
        workload.begin(None)
        plain_s = seconds / 3 if traced else seconds
        plain = measure(workload, 0, plain_s, 1 if traced else 2 if smoke else MIN_OPS)
        totals = workload.end()
        samples = plain
        if not traced:
            metrics = end_to_end(plain, *totals)
        else:
            log = LayerLog()
            workload.begin(log)
            traced_ops = measure(workload, len(plain), seconds - plain_s, 2)
            workload.end()
            samples = plain + traced_ops
            metrics = {**per_layer(log, plain, traced_ops), **direct}
    finally:
        workload.close()
        shutdown_shared_pool()
    mismatched = sum(1 for s in samples if not s.ok and not s.error)
    failed = sum(1 for s in samples if not s.ok)
    return {
        "correct": mismatched == 0 and failed < len(samples),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
        "errors": sorted({s.error for s in samples if s.error}),
        "ops": [[s.wall_s, s.cpu_s, s.payload_bytes, s.ok] for s in samples],
        "trace": workload.trace_doc,
    }
