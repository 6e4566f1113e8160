"""In-memory duplex byte pipes.

A :class:`PipeEndpoint` pair behaves like a connected TCP socket pair
(ordered, reliable, backpressured byte stream) without touching the
kernel.  This is the substrate the shaped links build on: segments
written to a conduit carry an *availability time*, which the shaping
layer sets in the future to model transmission and propagation delay.

The unshaped pipes created by :func:`pipe_pair` deliver immediately and
are used by unit tests and by the middleware's loopback mode.
"""

from __future__ import annotations

import time
from collections import deque

from ..analysis.lockgraph import make_condition, make_lock
from .base import Endpoint, TransportClosed, TransportTimeout

__all__ = ["ByteConduit", "PipeEndpoint", "pipe_pair"]

#: Default conduit capacity, mirroring a typical socket buffer.  The
#: bound is what produces sender backpressure, which the AdOC emission
#: thread relies on: a full "socket buffer" is how a slow network is
#: felt by the sender.
DEFAULT_CAPACITY = 256 * 1024


class ByteConduit:
    """One direction of a pipe: a bounded queue of timed byte segments.

    Writers block while ``capacity`` bytes are in flight; readers block
    until a segment's availability time has passed.  Availability times
    are supplied by the writer (``avail_time`` argument), letting the
    shaping layer schedule deliveries on the real-time clock.
    """

    #: Whether a read takes every deliverable segment up to ``n`` bytes
    #: (else one segment, as a plain pipe's segments are whole writes).
    _coalesce_reads = False

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._segments: deque[tuple[float, bytes]] = deque()
        self._buffered = 0
        self._eof = False
        self._broken = False
        self._lock = make_lock("ByteConduit.lock")
        self._readable = make_condition(self._lock, "ByteConduit.readable")
        self._writable = make_condition(self._lock, "ByteConduit.writable")

    def write(
        self,
        data: bytes | bytearray | memoryview,
        avail_time: float | None = None,
        timeout: float | None = None,
    ) -> int:
        """Queue up to capacity-limited prefix of ``data``; return count.

        ``avail_time`` is an absolute ``time.monotonic`` timestamp before
        which readers will not see the segment (``None`` = immediately).
        Views are accepted; the accepted prefix is copied once into the
        segment queue (delivery is asynchronous, so the conduit cannot
        borrow the caller's buffer).  A ``timeout`` bounds the wait for
        buffer room (a stalled reader): on expiry
        :exc:`~repro.transport.base.TransportTimeout` is raised and no
        bytes are taken.
        """
        if not len(data):
            return 0
        give_up = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            taken = data[: self._wait_for_room(give_up)]
            self._segments.append((avail_time or 0.0, bytes(taken)))
            self._buffered += len(taken)
            self._readable.notify_all()
            return len(taken)

    def _wait_for_room(self, give_up: float | None) -> int:
        """Free capacity, once there is some (call with the lock held)."""
        while True:
            if self._broken or self._eof:
                raise TransportClosed("conduit closed")
            room = self.capacity - self._buffered
            if room > 0:
                return room
            if give_up is None:
                self._writable.wait()
            else:
                remaining = give_up - time.monotonic()
                if remaining <= 0:
                    raise TransportTimeout(
                        "conduit write timed out waiting for buffer room"
                    )
                self._writable.wait(remaining)

    def read(self, n: int, timeout: float | None = None) -> bytes:
        """Read up to ``n`` bytes; ``b""`` on EOF.  Blocks as needed.

        ``timeout`` bounds the wait for data (a stalled writer): on
        expiry :exc:`~repro.transport.base.TransportTimeout` is raised.
        Shaping delays count against the timeout — a link slow enough
        to starve the reader past its deadline *is* a stall.
        """
        if n <= 0:
            raise ValueError("read size must be positive")
        give_up = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if self._segments:
                    avail, _ = self._segments[0]
                    now = time.monotonic()
                    if avail <= now:
                        break
                    if give_up is not None and give_up <= now:
                        raise TransportTimeout("conduit read timed out")
                    # Sleep until the head segment is deliverable, but
                    # stay interruptible by new writes/EOF.
                    wait_s = avail - now
                    if give_up is not None:
                        wait_s = min(wait_s, give_up - now)
                    self._readable.wait(timeout=wait_s)
                    continue
                if self._eof or self._broken:
                    return b""
                if give_up is None:
                    self._readable.wait()
                else:
                    remaining = give_up - time.monotonic()
                    if remaining <= 0:
                        raise TransportTimeout(
                            "conduit read timed out waiting for data"
                        )
                    self._readable.wait(remaining)
            parts: list[bytes] = []
            size = 0
            while self._segments and size < n and (self._coalesce_reads or not parts):
                avail, seg = self._segments[0]
                if avail > now:
                    break
                self._segments.popleft()
                if size + len(seg) > n:
                    cut = n - size
                    self._segments.appendleft((avail, seg[cut:]))
                    seg = seg[:cut]
                parts.append(seg)
                size += len(seg)
            self._buffered -= size
            self._writable.notify_all()
            return parts[0] if len(parts) == 1 else b"".join(parts)

    def close_write(self) -> None:
        """EOF from the writer; queued data remains readable."""
        with self._lock:
            self._eof = True
            self._readable.notify_all()
            self._writable.notify_all()

    def close_read(self) -> None:
        """Reader abandons the conduit; further writes fail."""
        with self._lock:
            self._broken = True
            self._segments.clear()
            self._buffered = 0
            self._readable.notify_all()
            self._writable.notify_all()

    @property
    def buffered(self) -> int:
        """Bytes currently in flight (for tests and diagnostics)."""
        with self._lock:
            return self._buffered


class PipeEndpoint(Endpoint):
    """Endpoint over a pair of directed conduits."""

    def __init__(self, out: ByteConduit, inn: ByteConduit) -> None:
        self._out = out
        self._in = inn

    def send(self, data: bytes | bytearray | memoryview) -> int:
        return self._out.write(data, timeout=self._io_timeout)

    def recv(self, n: int) -> bytes:
        return self._in.read(n, timeout=self._io_timeout)

    def shutdown_write(self) -> None:
        self._out.close_write()

    def close(self) -> None:
        self._out.close_write()
        self._in.close_read()


def pipe_pair(capacity: int = DEFAULT_CAPACITY) -> tuple[PipeEndpoint, PipeEndpoint]:
    """Create a connected pair of in-memory endpoints."""
    a_to_b = ByteConduit(capacity)
    b_to_a = ByteConduit(capacity)
    return PipeEndpoint(a_to_b, b_to_a), PipeEndpoint(b_to_a, a_to_b)
