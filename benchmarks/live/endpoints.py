"""Bench-side endpoint wrappers: pacing and per-call timing.

Both wrap any :class:`repro.transport.base.Endpoint` and hand the
library an endpoint it cannot tell from the one inside.

* :class:`PacedLink` paces ``send``, ``send_vectors`` and ``recv`` with
  one :class:`~repro.transport.shaping.TokenBucket` per direction and a
  16 KB burst.  ``PacedEndpoint``'s default burst (1/10 s, ~1.2 MB at
  94 Mbit/s) swallows AdOC's 256 KB bandwidth probe whole, so the probe
  reads the link as infinitely fast and the sender ships raw; a burst
  well under the probe makes the probe feel the line rate.
* :class:`TimedEndpoint` counts calls and bytes and times each blocking
  ``send``/``send_vectors``/``recv``, which is the transport layer's
  share of a transfer as seen from above.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

from repro.transport.base import Endpoint
from repro.transport.shaping import TokenBucket

__all__ = ["PacedLink", "TimedEndpoint", "PACED_BURST_BYTES"]

#: Token-bucket burst of :class:`PacedLink`: far below the 256 KB probe.
PACED_BURST_BYTES = 16 * 1024


def _take_prefix(
    buffers: Sequence[bytes | bytearray | memoryview], limit: int
) -> list[memoryview]:
    """The leading ``limit`` bytes of ``buffers`` as views (no copy)."""
    out: list[memoryview] = []
    for buf in buffers:
        if limit <= 0:
            break
        view = memoryview(buf)[:limit]
        if len(view):
            out.append(view)
            limit -= len(view)
    return out


class PacedLink(Endpoint):
    """Token-bucket pacing of both directions of ``inner``.

    Each call moves at most one burst, so a large write is admitted at
    the line rate instead of all at once; ``recv`` is charged after the
    bytes arrive, which leaves the kernel's receive buffer to fill and
    push back on the peer exactly as a slow link would.
    """

    def __init__(self, inner: Endpoint, rate_bps: float) -> None:
        self._inner = inner
        self._tx = TokenBucket(rate_bps, PACED_BURST_BYTES)
        self._rx = TokenBucket(rate_bps, PACED_BURST_BYTES)

    def send(self, data: bytes | bytearray | memoryview) -> int:  # adoclint: disable=ADOC111 -- proxy: mirrors the wrapped endpoint's blocking semantics; the bound is the inner endpoint's settimeout
        chunk = memoryview(data)[:PACED_BURST_BYTES]
        self._tx.acquire(len(chunk))
        return self._inner.send(chunk)

    def send_vectors(self, buffers: Sequence[bytes | bytearray | memoryview]) -> int:  # adoclint: disable=ADOC111 -- proxy: mirrors the wrapped endpoint's blocking semantics; the bound is the inner endpoint's settimeout
        views = _take_prefix(buffers, PACED_BURST_BYTES)
        self._tx.acquire(sum(len(v) for v in views))
        return self._inner.send_vectors(views)

    def recv(self, n: int) -> bytes:  # adoclint: disable=ADOC111 -- proxy: mirrors the wrapped endpoint's blocking semantics; the bound is the inner endpoint's settimeout
        data = self._inner.recv(min(n, PACED_BURST_BYTES))
        if data:
            self._rx.acquire(len(data))
        return data

    def settimeout(self, timeout: float | None) -> None:
        self._inner.settimeout(timeout)

    def gettimeout(self) -> float | None:
        return self._inner.gettimeout()

    def shutdown_write(self) -> None:
        self._inner.shutdown_write()

    def close(self) -> None:
        self._inner.close()


class TimedEndpoint(Endpoint):
    """Counts and times every blocking call into ``inner``.

    Anything other than ``send``/``send_vectors``/``recv`` is forwarded
    unchanged, so wrapping changes no behaviour of the library above.
    """

    def __init__(self, inner: Endpoint) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self.send_calls = 0
        self.send_bytes = 0
        self.send_blocked_s = 0.0
        self.recv_calls = 0
        self.recv_bytes = 0
        self.recv_wait_s = 0.0

    def _note_send(self, sent: int, t0: float) -> int:
        dt = time.perf_counter() - t0
        with self._lock:
            self.send_calls += 1
            self.send_bytes += sent
            self.send_blocked_s += dt
        return sent

    def send(self, data: bytes | bytearray | memoryview) -> int:  # adoclint: disable=ADOC111 -- proxy: mirrors the wrapped endpoint's blocking semantics; the bound is the inner endpoint's settimeout
        t0 = time.perf_counter()
        return self._note_send(self._inner.send(data), t0)

    def send_vectors(self, buffers: Sequence[bytes | bytearray | memoryview]) -> int:  # adoclint: disable=ADOC111 -- proxy: mirrors the wrapped endpoint's blocking semantics; the bound is the inner endpoint's settimeout
        t0 = time.perf_counter()
        return self._note_send(self._inner.send_vectors(buffers), t0)

    def recv(self, n: int) -> bytes:  # adoclint: disable=ADOC111 -- proxy: mirrors the wrapped endpoint's blocking semantics; the bound is the inner endpoint's settimeout
        t0 = time.perf_counter()
        data = self._inner.recv(n)
        dt = time.perf_counter() - t0
        with self._lock:
            self.recv_calls += 1
            self.recv_bytes += len(data)
            self.recv_wait_s += dt
        return data

    def snapshot(self) -> dict[str, float]:
        """Counters so far, as plain numbers."""
        with self._lock:
            return {
                "send_calls": self.send_calls,
                "send_bytes": self.send_bytes,
                "send_blocked_s": self.send_blocked_s,
                "recv_calls": self.recv_calls,
                "recv_bytes": self.recv_bytes,
                "recv_wait_s": self.recv_wait_s,
            }

    def settimeout(self, timeout: float | None) -> None:
        self._inner.settimeout(timeout)

    def gettimeout(self) -> float | None:
        return self._inner.gettimeout()

    def shutdown_write(self) -> None:
        self._inner.shutdown_write()

    def close(self) -> None:
        self._inner.close()

    def __getattr__(self, name: str):
        # Only reached for attributes this class lacks (fileno, socket,
        # setblocking, ...): those belong to the wrapped endpoint.
        return getattr(self._inner, name)
