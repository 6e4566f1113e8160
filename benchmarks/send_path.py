"""Send-path benchmark: seed (copying) engine vs the streaming engine.

Measures throughput and peak memory of one AdOC file send across a
size x level matrix, for two implementations:

* ``legacy`` — a faithful transcription of the seed sender
  (commit 176a7f0): ``send_stream`` reads the whole file into memory,
  every record is materialised via ``Record.serialize()`` (header +
  payload copy), packets are ``bytes`` slices of that copy, and each
  packet costs one ``send`` call.
* ``new`` — the current zero-copy streaming engine: ``ChunkSource``
  reads in ``buffer_size`` chunks, payloads travel as ``memoryview``
  slices, and the emission loop coalesces packets into vectored sends.

Both run against the same codecs, adapter, guards and a null endpoint,
so the delta is exactly the copy/syscall overhead the refactor removed.

Output: ``BENCH_send_path.json`` (see ``--out``).  Throughput and peak
memory are measured in separate passes — tracemalloc slows allocation
enough to distort timing.  ``peak_rss_kb`` (``ru_maxrss``) is recorded
for completeness but is a process-lifetime high-water mark, so only the
tracemalloc figures are comparable across runs within one process.

Usage::

    PYTHONPATH=src python benchmarks/send_path.py            # full matrix
    PYTHONPATH=src python benchmarks/send_path.py --smoke    # CI smoke (~seconds)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import threading
import time
import tracemalloc
from typing import BinaryIO

from repro.core.adaptation import LevelAdapter
from repro.core.compressor import compress_buffer
from repro.core.config import AdocConfig
from repro.core.divergence import DivergenceGuard
from repro.core.fifo import PacketQueue, QueueClosed, QueuedPacket
from repro.core.guards import IncompressibleGuard
from repro.core.packets import Record, pack_message_header
from repro.core.sender import MessageSender, SendResult
from repro.transport.base import sendall

MB = 1 << 20

FULL_SIZES_MB = (1, 32, 256)
SMOKE_SIZES_MB = (1,)
LEVELS = (0, 1, 6)

#: The pure-Python LZF codec moves ~1 MB/s; combos above this budget
#: would take minutes per implementation and are skipped (recorded in
#: the JSON so the gap is visible, not silent).
LZF_TIMING_CAP_MB = 32
LZF_MEMORY_CAP_MB = 1


class NullEndpoint:
    """Accepts everything instantly; counts bytes and calls."""

    def __init__(self) -> None:
        self.bytes = 0
        self.send_calls = 0

    def send(self, data) -> int:
        self.send_calls += 1
        self.bytes += len(data)
        return len(data)

    def send_vectors(self, buffers) -> int:
        self.send_calls += 1
        total = sum(len(b) for b in buffers)
        self.bytes += total
        return total

    def recv(self, n: int) -> bytes:
        return b""

    def close(self) -> None:
        pass


class LegacySender:
    """The seed sender's copying send path (commit 176a7f0), verbatim
    in behaviour: whole-file read, ``Record.serialize()`` copies,
    per-packet ``bytes`` slices, one ``send`` per packet.

    Only the paths this benchmark exercises are transcribed: the
    disabled-compression bypass and the forced-compression pipeline
    (levels are pinned via ``with_levels``, so the probe never runs).
    """

    def __init__(self, endpoint, config: AdocConfig) -> None:
        self.endpoint = endpoint
        self.config = config
        self.clock = time.monotonic
        self.divergence = DivergenceGuard(config.divergence_forbid_s)

    def send_stream(self, stream: BinaryIO, config: AdocConfig | None = None) -> SendResult:
        cfg = config or self.config
        data = stream.read()  # the seed's whole-file materialisation
        return self.send(data, cfg)

    def send(self, data, config: AdocConfig | None = None) -> SendResult:
        cfg = config or self.config
        data = bytes(data)
        start = self.clock()
        header = pack_message_header(len(data), length_known=True)

        if cfg.compression_disabled:
            wire = self._send_raw(header, data)
            return SendResult(len(data), wire, self.clock() - start)
        assert cfg.compression_forced, "benchmark pins levels; probe path unused"

        sendall(self.endpoint, header)
        result = self._run_pipeline(data, 0, cfg)
        result.payload_bytes = len(data)
        result.wire_bytes += len(header)
        result.elapsed_s = self.clock() - start
        return result

    def _send_raw(self, header: bytes, data: bytes) -> int:
        rec = Record(0, len(data), data).serialize()
        sendall(self.endpoint, header + rec)
        return len(header) + len(rec)

    def _run_pipeline(self, data: bytes, offset: int, cfg: AdocConfig) -> SendResult:
        queue: PacketQueue = PacketQueue(cfg.queue_capacity)
        inc_guard = IncompressibleGuard(
            cfg.incompressible_ratio, cfg.incompressible_holdoff
        )
        adapter = LevelAdapter(cfg, self.divergence, inc_guard)
        error: list[BaseException] = []

        worker = threading.Thread(
            target=self._compression_thread,
            args=(data, offset, cfg, queue, adapter, inc_guard, error),
            name="legacy-compress",
            daemon=True,
        )
        worker.start()
        result = self._emission_loop(queue)
        worker.join()
        if error:
            raise error[0]
        result.pipeline_used = True
        return result

    def _compression_thread(self, data, offset, cfg, queue, adapter, inc_guard, error):
        try:
            total = len(data)
            buffer_id = 0
            while offset < total:
                level = adapter.next_level(queue.size(), self.clock())
                buf = data[offset : offset + cfg.buffer_size]
                records, _, _ = compress_buffer(buf, level, inc_guard, cfg)
                for rec in records:
                    wire = rec.serialize()  # the seed's header+payload copy
                    n = len(wire)
                    for off in range(0, n, cfg.packet_size):
                        chunk = wire[off : off + cfg.packet_size]
                        orig = rec.original_size * len(chunk) // n
                        queue.put(QueuedPacket(chunk, rec.level, orig, buffer_id))
                        inc_guard.note_packet_emitted()
                offset += len(buf)
                buffer_id += 1
        except QueueClosed:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            error.append(exc)
        finally:
            queue.close()

    def _emission_loop(self, queue: PacketQueue) -> SendResult:
        wire_bytes = 0
        try:
            while True:
                pkt = queue.get()
                if pkt is None:
                    break
                sendall(self.endpoint, pkt.payload)  # one call per 8 KB packet
                wire_bytes += len(pkt.payload)
        except BaseException:
            queue.close()
            raise
        return SendResult(0, wire_bytes, 0.0)


def make_payload_file(path: str, size: int) -> None:
    """Deterministic compressible pseudo-text, written in 1 MB tiles."""
    words = [f"word{i:04d}" for i in range(512)]
    base = bytearray()
    i = 0
    while len(base) < MB:
        base += words[(i * 7919) % len(words)].encode()
        base += b" " if i % 13 else b"\n"
        i += 1
    tile = bytes(base[:MB])
    with open(path, "wb") as f:
        written = 0
        while written < size:
            f.write(tile[: min(MB, size - written)])
            written += min(MB, size - written)


def make_sender(impl: str, cfg: AdocConfig):
    ep = NullEndpoint()
    if impl == "legacy":
        return LegacySender(ep, cfg), ep
    return MessageSender(ep, cfg), ep


def run_traced_digest(path: str, size: int, base_cfg: AdocConfig) -> dict:
    """One fully-traced send of the streaming engine; returns the
    telemetry digest (mean level, queue-depth percentiles, stall time).

    Runs with its own enabled :class:`~repro.obs.Telemetry` — the
    timing matrix above runs with telemetry disabled, so the digest
    explains the run without contaminating the measurements.
    """
    from dataclasses import replace

    from repro.obs import Telemetry

    tele = Telemetry(enabled=True)
    cfg = replace(base_cfg.with_levels(1, 10), telemetry=tele)
    sender, _ = make_sender("new", cfg)
    with open(path, "rb") as f:
        sender.send_stream(f, cfg)
    return tele.digest()


def run_one(impl: str, path: str, size: int, cfg: AdocConfig, measure_memory: bool) -> dict:
    sender, ep = make_sender(impl, cfg)
    with open(path, "rb") as f:
        t0 = time.perf_counter()
        result = sender.send_stream(f, cfg)
        elapsed = time.perf_counter() - t0
    assert result.payload_bytes == size
    row = {
        "impl": impl,
        "elapsed_s": round(elapsed, 6),
        "throughput_mb_s": round(size / MB / elapsed, 2),
        "wire_bytes": result.wire_bytes,
        "send_calls": ep.send_calls,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if measure_memory:
        sender, _ = make_sender(impl, cfg)
        with open(path, "rb") as f:
            tracemalloc.start()
            sender.send_stream(f, cfg)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        row["peak_traced_bytes"] = peak
    return row


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="small sizes only (CI)")
    ap.add_argument("--out", default="BENCH_send_path.json")
    args = ap.parse_args(argv)

    sizes_mb = SMOKE_SIZES_MB if args.smoke else FULL_SIZES_MB
    base_cfg = AdocConfig()
    results: list[dict] = []
    skipped: list[dict] = []

    with tempfile.TemporaryDirectory(prefix="adoc-bench-") as tmp:
        for size_mb in sizes_mb:
            size = size_mb * MB
            path = os.path.join(tmp, f"payload-{size_mb}mb.bin")
            make_payload_file(path, size)
            for level in LEVELS:
                if level == 1 and size_mb > LZF_TIMING_CAP_MB:
                    skipped.append({
                        "size_mb": size_mb, "level": level,
                        "reason": "pure-Python LZF moves ~1 MB/s; this combo "
                                  "would take minutes per implementation",
                    })
                    continue
                cfg = base_cfg.with_levels(level, level)
                measure_memory = not (level == 1 and size_mb > LZF_MEMORY_CAP_MB)
                for impl in ("new", "legacy"):  # new first: ru_maxrss only grows
                    row = run_one(impl, path, size, cfg, measure_memory)
                    row.update(size_mb=size_mb, level=level)
                    results.append(row)
                    print(f"{impl:6s} {size_mb:4d} MB level {level}: "
                          f"{row['throughput_mb_s']:9.2f} MB/s  "
                          f"{row['send_calls']:6d} sends"
                          + (f"  peak {row['peak_traced_bytes'] / MB:8.2f} MB"
                             if measure_memory else ""))
            os.unlink(path)
        # One adaptive, fully-traced run for the embedded telemetry
        # digest (separate from the timing matrix, which runs with
        # telemetry disabled).
        digest_size = sizes_mb[0] * MB
        digest_path = os.path.join(tmp, "payload-digest.bin")
        make_payload_file(digest_path, digest_size)
        telemetry_digest = run_traced_digest(digest_path, digest_size, base_cfg)
        telemetry_digest["size_mb"] = sizes_mb[0]

    def pick(size_mb, level, impl, key):
        for r in results:
            if (r["size_mb"], r["level"], r["impl"]) == (size_mb, level, impl):
                return r.get(key)
        return None

    summary: dict = {}
    if not args.smoke:
        speedup = (pick(32, 0, "new", "throughput_mb_s")
                   / pick(32, 0, "legacy", "throughput_mb_s"))
        peak_new = pick(256, 0, "new", "peak_traced_bytes")
        peak_legacy = pick(256, 0, "legacy", "peak_traced_bytes")
        summary = {
            "speedup_32mb_level0": round(speedup, 2),
            "peak_traced_256mb_level0_new_bytes": peak_new,
            "peak_traced_256mb_level0_legacy_bytes": peak_legacy,
            "peak_new_over_buffer_size": round(peak_new / base_cfg.buffer_size, 2),
        }
        # The PR's acceptance bars, enforced where the data lives.
        assert speedup >= 1.3, f"32 MB level-0 speedup {speedup:.2f} < 1.3"
        assert peak_new <= 8 * base_cfg.buffer_size, (
            f"256 MB file send peaked at {peak_new} traced bytes — "
            f"not O(buffer_size={base_cfg.buffer_size})"
        )

    payload = {
        "meta": {
            "mode": "smoke" if args.smoke else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "buffer_size": base_cfg.buffer_size,
            "packet_size": base_cfg.packet_size,
            "payload": "deterministic compressible pseudo-text (1 MB tile)",
            "endpoint": "NullEndpoint (no network: isolates engine overhead)",
        },
        "results": results,
        "skipped": skipped,
        "summary": summary,
        "telemetry": telemetry_digest,
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    if summary:
        print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
