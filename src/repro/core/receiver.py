"""The AdOC reception pipeline: reception thread + decompression thread.

The receiving half of Figure 1: one thread reads the network, the other
decompresses, with a FIFO queue between them (the receiver does *not*
monitor its queue size — adaptation is sender-side only).  Decompressed
bytes land in a bounded :class:`OutputBuffer` that ``adoc_read`` drains.
The wire parser and the in-order decode core (:class:`StreamingParser`,
:class:`ReceivePlanner`) are shared with the reactor's ``AdocChannel``.

The bounded buffer chain is load-bearing for the paper's divergence
story: when the application (or this host's CPU) consumes slowly, the
output buffer fills, the decompression thread blocks, the record queue
fills, the reception thread stops reading, the peer's socket buffer
fills, and the *sender's* emission thread finally feels it as a drop in
visible bandwidth — the only signal the sender-side divergence guard
gets, since the read/write semantics forbid any explicit feedback.

POSIX ``read`` semantics (paper section 4.1): reads may be partial and
may span message boundaries (send 100 MB, read 60 MB then 40 MB);
whatever has been decompressed but not yet read is held in the buffer
and freed by ``adoc_close``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import BinaryIO, Iterator

from ..analysis.lockgraph import make_condition, make_lock
from ..compress.registry import codec_for_level
from ..obs.telemetry import Telemetry, resolve_telemetry
from ..transport.base import Endpoint, TransportClosed, TransportTimeout
from .config import AdocConfig, DEFAULT_CONFIG
from .deadlines import DeadlineExceeded, TransferError
from .fifo import PacketQueue, QueueClosed, QueuedPacket
from .packets import (
    END_LEVEL,
    MESSAGE_HEADER_SIZE,
    RECORD_HEADER_SIZE,
    ProtocolError,
    unpack_message_header,
    unpack_record_header,
)
from .stats import ConnectionStats

__all__ = [
    "OutputBuffer", "ReceivePlanner", "ReceiverPipeline", "StreamingParser",
    "decode_record",
]

#: Sentinel chunk marking an end-of-message boundary in the buffers.
_EOM = object()

#: How much the reception thread asks the transport for per read: the
#: parser is incremental, so one read may carry many records or half one.
_RECV_CHUNK = 64 * 1024

# StreamingParser states.
_WANT_MSG_HDR = 0
_WANT_REC_HDR = 1
_WANT_PAYLOAD = 2


class StreamingParser:
    """Incremental, push-mode parser for the AdOC wire format.

    Feed it arbitrary byte chunks — whatever the transport happened to
    deliver — and it emits complete :class:`~repro.core.fifo.QueuedPacket`
    items: one per record (``payload``/``level``/``original_bytes``) and
    one marker packet (level :data:`~repro.core.packets.END_LEVEL`) per
    message boundary, with ``original_bytes`` on the marker carrying the
    message's total wire size for accounting.

    It rejects an END record in a known-length message and records
    overflowing the declared length, and it persists across messages:
    a chunk may end one message and start the next.  Both receive
    drivers sit on this class and on :class:`ReceivePlanner`, so the
    two cannot drift.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0
        self._state = _WANT_MSG_HDR
        self._header = None  # current MessageHeader
        self._remaining = 0  # original bytes still due (known-length)
        self._rec = None  # current RecordHeader awaiting payload
        self._message_wire = 0
        #: Messages completed since construction (diagnostics).
        self.messages = 0

    @property
    def mid_message(self) -> bool:
        """True when bytes of an unfinished frame are outstanding.

        Drives the timeout semantics: idle between messages is legal
        (the bounded read simply re-arms), a stall mid-message means the
        peer died and must surface.
        """
        return self._state != _WANT_MSG_HDR or self._pos < len(self._buf)

    def _take(self, n: int) -> bytes | None:
        if len(self._buf) - self._pos < n:
            return None
        start = self._pos
        self._pos += n
        return bytes(self._buf[start : self._pos])

    def feed(self, data: bytes) -> list[QueuedPacket]:
        """Consume a chunk, returning every packet it completed."""
        self._buf += data
        out: list[QueuedPacket] = []
        while True:
            if self._state == _WANT_MSG_HDR:
                raw = self._take(MESSAGE_HEADER_SIZE)
                if raw is None:
                    break
                self._header = unpack_message_header(raw)
                self._remaining = self._header.total_length
                self._message_wire = MESSAGE_HEADER_SIZE
                self._state = _WANT_REC_HDR
                if self._header.length_known and self._remaining <= 0:
                    self._finish_message(out)
            elif self._state == _WANT_REC_HDR:
                raw = self._take(RECORD_HEADER_SIZE)
                if raw is None:
                    break
                rec = unpack_record_header(raw)
                self._message_wire += RECORD_HEADER_SIZE
                if rec.is_end:
                    if self._header.length_known:
                        raise ProtocolError("unexpected END in known-length message")
                    self._finish_message(out)
                else:
                    self._rec = rec
                    self._state = _WANT_PAYLOAD
            else:  # _WANT_PAYLOAD
                payload = self._take(self._rec.wire_size)
                if payload is None:
                    break
                rec = self._rec
                self._message_wire += rec.wire_size
                out.append(QueuedPacket(payload, rec.level, rec.original_size))
                self._state = _WANT_REC_HDR
                if self._header.length_known:
                    self._remaining -= rec.original_size
                    if self._remaining < 0:
                        raise ProtocolError("records overflow declared length")
                    if self._remaining == 0:
                        self._finish_message(out)
        # Compact the consumed prefix so the buffer never grows beyond
        # one read plus a partial frame.
        if self._pos:
            del self._buf[: self._pos]
            self._pos = 0
        return out

    def _finish_message(self, out: list[QueuedPacket]) -> None:
        out.append(QueuedPacket(b"", END_LEVEL, self._message_wire))
        self.messages += 1
        self._header = None
        self._state = _WANT_MSG_HDR

    def feed_eof(self) -> None:
        """The stream ended; raises unless at a message boundary."""
        if self.mid_message:
            raise TransportClosed(
                f"stream ended mid-message with "
                f"{len(self._buf) - self._pos} bytes of an unfinished frame"
            )


def decode_record(level: int, payload: bytes, orig: int) -> tuple[bytes, float]:
    """Decode one record, timed: the job both receive drivers run."""
    start = time.perf_counter()
    data = codec_for_level(level).decompress(payload, orig)
    return data, time.perf_counter() - start


class ReceivePlanner:
    """In-order decode and accounting of one connection's inbound records.

    The receive twin of :class:`~repro.core.planner.SendPlanner`: it
    owns no thread, pool, socket or clock.  Drivers pass in every parsed
    packet (:meth:`accept`), run each decode job it returns with
    :func:`decode_record` — inline, or on a pool that completes them in
    submission order — pass the outcomes back in that order
    (:meth:`complete`) and deliver what :meth:`release` yields.  Receive
    accounting folds into ``stats`` per message; each decoded record
    leaves one ``buffer_decoded`` trace record.
    """

    def __init__(self, stats: ConnectionStats, telemetry: Telemetry) -> None:
        self._stats = stats
        self._tele = telemetry
        self._items: deque[QueuedPacket] = deque()  # wire order, unreleased
        self._jobs: deque[QueuedPacket] = deque()  # decodes not completed
        self._decoded: deque[bytes] = deque()  # completed, not released
        self._raw = self._inflated = self._payload = 0

    @property
    def pending(self) -> int:
        """Accepted items (records and boundaries) not yet released."""
        return len(self._items)

    def accept(self, pkt: QueuedPacket) -> tuple[int, bytes, int] | None:
        """Queue one parsed packet; a decode job for compressed records."""
        self._items.append(pkt)
        if pkt.level == 0 or pkt.level == END_LEVEL:
            return None
        self._jobs.append(pkt)
        return pkt.level, pkt.payload, pkt.original_bytes

    def complete(
        self, outcome: tuple[bytes, float] | None, error: BaseException | None
    ) -> None:
        """Take the oldest outstanding decode job's outcome.

        A codec failure is fatal to the stream: it raises
        :exc:`~repro.core.deadlines.TransferError` at stage ``decompress``.
        """
        pkt = self._jobs.popleft()
        if error is not None or outcome is None:
            raise TransferError(
                f"decompression failed at level {pkt.level}: {error}",
                stage="decompress",
            ) from error
        data, seconds = outcome
        self._decoded.append(data)
        if self._tele.enabled:
            self._tele.tracer.record(
                "buffer", "buffer_decoded",
                level=pkt.level,
                wire_bytes=len(pkt.payload),
                raw_bytes=len(data),
                decode_us=round(seconds * 1e6, 1),
            )

    def release(self) -> Iterator[bytes | None]:
        """Data chunks, and ``None`` per message boundary, in wire order.

        Stops at the first record whose decode has not completed.
        """
        items = self._items
        while items:
            pkt = items[0]
            if pkt.level == END_LEVEL:
                items.popleft()
                self._stats.record_recv_message(pkt.original_bytes)
                self._stats.record_recv_packets(self._raw, self._inflated, self._payload)
                self._raw = self._inflated = self._payload = 0
                yield None
                continue
            if pkt.level == 0:
                data = pkt.payload
                self._raw += 1
            elif self._decoded:
                data = self._decoded.popleft()
                self._inflated += 1
            else:
                return
            items.popleft()
            self._payload += len(data)
            if len(data):
                yield data


class OutputBuffer:
    """Bounded blocking byte buffer with end-of-message markers.

    ``read`` implements the byte-stream view (markers are transparent);
    ``read_until_marker`` implements the message view used by
    ``adoc_receive_file``.

    ``timeout_s`` bounds every blocking wait (producer waiting for
    room, consumer waiting for data) with
    :exc:`~repro.core.deadlines.DeadlineExceeded`; a timed-out read
    leaves the buffer consistent, so the caller may retry.
    """

    def __init__(
        self,
        capacity_bytes: int = 4 * 1024 * 1024,
        timeout_s: float | None = None,
    ) -> None:
        self._chunks: deque[object] = deque()
        self._buffered = 0
        self.capacity = capacity_bytes
        self.timeout_s = timeout_s
        self._eof = False
        self._error: BaseException | None = None
        self._skip_next_marker = False
        self._lock = make_lock("OutputBuffer.lock")
        self._readable = make_condition(self._lock, "OutputBuffer.readable")
        self._writable = make_condition(self._lock, "OutputBuffer.writable")

    def _deadline(self) -> float | None:
        return None if self.timeout_s is None else time.monotonic() + self.timeout_s

    def _wait(self, cond, give_up: float | None, stage: str) -> None:
        """One bounded wait on ``cond`` (caller holds the lock)."""
        if give_up is None:
            cond.wait()
            return
        remaining = give_up - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(
                f"output buffer wait exceeded {self.timeout_s}s", stage=stage
            )
        cond.wait(remaining)

    # producer side (decompression thread) ---------------------------------

    def put(self, chunk: bytes) -> None:
        if not chunk:
            return
        give_up = self._deadline()
        with self._lock:
            while self._buffered >= self.capacity and not self._eof:
                self._wait(self._writable, give_up, "output.put")
            if self._eof:
                return  # reader closed; drop silently
            # More data for the message a byte-read drained mid-flight:
            # its boundary has not been crossed after all.
            self._skip_next_marker = False
            self._chunks.append(chunk)
            self._buffered += len(chunk)
            self._readable.notify_all()

    def put_marker(self) -> None:
        with self._lock:
            if self._skip_next_marker:
                # A byte-read already consumed this message to its end
                # (see read()): the boundary is crossed, don't expose it.
                self._skip_next_marker = False
                return
            self._chunks.append(_EOM)
            self._readable.notify_all()

    def finish(self, error: BaseException | None = None) -> None:
        """No more data will arrive (EOF or failure)."""
        with self._lock:
            self._eof = True
            self._error = error
            self._readable.notify_all()
            self._writable.notify_all()

    # consumer side (adoc_read) ---------------------------------------------

    def read(self, n: int) -> bytes:
        """Up to ``n`` bytes; ``b""`` at EOF; raises a deferred error."""
        if n <= 0:
            return b""
        give_up = self._deadline()
        with self._lock:
            while True:
                # Skip any leading message markers: byte-stream view.
                while self._chunks and self._chunks[0] is _EOM:
                    self._chunks.popleft()
                if self._chunks:
                    break
                if self._eof:
                    if self._error is not None:
                        raise self._error
                    return b""
                self._wait(self._readable, give_up, "output.read")
            out = bytearray()
            while self._chunks and len(out) < n:
                head = self._chunks[0]
                if head is _EOM:
                    break  # do not cross into marker handling mid-read
                take = n - len(out)
                if len(head) <= take:
                    out += head
                    self._chunks.popleft()
                    self._buffered -= len(head)
                else:
                    out += head[:take]
                    self._chunks[0] = head[take:]
                    self._buffered -= take
            # If this read consumed a message right up to its boundary,
            # the boundary is crossed: drop exactly that one marker so a
            # following read_until_marker applies to the *next* message
            # rather than reporting a stale, empty tail.  When the read
            # drained the buffer entirely, the verdict depends on what
            # arrives next (more data: same message continues; a marker:
            # it was the end) — _skip_next_marker defers the decision.
            if out:
                if self._chunks and self._chunks[0] is _EOM:
                    self._chunks.popleft()
                elif not self._chunks and not self._eof:
                    self._skip_next_marker = True
            self._writable.notify_all()
            return bytes(out)

    def read_until_marker(self, sink: BinaryIO) -> int:
        """Write everything up to the next message boundary into ``sink``.

        Returns the byte count.  Raises on EOF-before-marker only if
        bytes were already consumed (truncated message)."""
        total = 0
        while True:
            with self._lock:
                # Bound each chunk wait rather than the whole message:
                # a long message streaming steadily is progress, not a
                # stall.
                give_up = self._deadline()
                while not self._chunks and not self._eof:
                    self._wait(self._readable, give_up, "output.read")
                if not self._chunks:
                    if self._error is not None:
                        raise self._error
                    if total:
                        raise ProtocolError("stream ended mid-message")
                    return total
                head = self._chunks.popleft()
                if head is _EOM:
                    self._writable.notify_all()
                    return total
                self._buffered -= len(head)
                self._writable.notify_all()
            sink.write(head)  # write outside the lock
            total += len(head)

    @property
    def buffered_bytes(self) -> int:
        with self._lock:
            return self._buffered


class ReceiverPipeline:
    """Reads AdOC framing from an endpoint and yields decompressed bytes.

    Threads start lazily on construction and run until EOF, a protocol
    error, or :meth:`close`.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        config: AdocConfig = DEFAULT_CONFIG,
        output_capacity: int = 4 * 1024 * 1024,
        stats: ConnectionStats | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.config = config
        if config.io_timeout_s is not None and hasattr(endpoint, "settimeout"):
            endpoint.settimeout(config.io_timeout_s)
        self.telemetry: Telemetry = resolve_telemetry(config)
        # Full-duplex connections pass the sender's stats in so both
        # directions fold into one view; a standalone receiver owns its
        # accounting and shows up in `adoc top`.
        self.stats = stats if stats is not None else ConnectionStats(self.telemetry)
        if stats is None and self.telemetry.enabled:
            self.telemetry.register_connection("recv", self)
        self.output = OutputBuffer(output_capacity, timeout_s=config.io_timeout_s)
        self._queue = PacketQueue(config.recv_queue_packets, self.telemetry, "recv")
        self._closed = False
        self._rx_error: BaseException | None = None
        self._reader = threading.Thread(
            target=self._reception_thread, name="adoc-recv", daemon=True
        )
        self._decompressor = threading.Thread(
            target=self._decompression_thread, name="adoc-decompress", daemon=True
        )
        self._reader.start()
        self._decompressor.start()

    # -- public API ----------------------------------------------------------

    def read(self, n: int) -> bytes:
        return self.output.read(n)

    def receive_into(self, sink: BinaryIO) -> int:
        """Receive exactly one message into ``sink`` (adoc_receive_file)."""
        return self.output.read_until_marker(sink)

    def close(self) -> None:
        """Free internal buffers and detach the threads (adoc_close)."""
        self._closed = True
        self.output.finish()
        self._queue.close()

    def join(self, timeout: float | None = None) -> None:
        """Wait for the pipeline threads (tests and orderly shutdown)."""
        self._reader.join(timeout)
        self._decompressor.join(timeout)

    # -- reception thread: socket -> record queue ----------------------------

    def _reception_thread(self) -> None:
        error: BaseException | None = None
        parser = StreamingParser()
        try:
            with self.telemetry.span("recv"):
                while not self._closed and self._read_chunk(parser):
                    pass
        except QueueClosed:  # close() while a put was blocked
            pass
        except TransportTimeout as exc:
            # Only mid-message timeouts escape _read_chunk: bytes of a
            # frame are outstanding and the peer stopped sending.
            error = DeadlineExceeded(
                f"peer stalled mid-message past {self.config.io_timeout_s}s: {exc}",
                stage="recv",
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced to reader
            error = exc
        finally:
            # The decompression thread surfaces the error once it has
            # delivered everything queued before it, so the reader sees
            # the same bytes whatever the thread timing.
            self._rx_error = error
            self._queue.close()

    def _read_chunk(self, parser: StreamingParser) -> bool:
        """Read once, feed the parser; False on clean EOF.

        This thread owns its direction of the socket, so reading past a
        message boundary only primes the parser for the next message.
        """
        try:
            data = self.endpoint.recv(_RECV_CHUNK)
        except TransportTimeout:
            # Idle between messages is legal — no frame is outstanding,
            # the bounded recv simply re-arms.  Mid-message the peer
            # died: let it propagate.
            if parser.mid_message:
                raise
            return not self._closed
        if not data:
            parser.feed_eof()  # truncated frame surfaces as TransportClosed
            return False
        for pkt in parser.feed(data):
            self._queue.put(pkt, timeout=self.config.io_timeout_s)
        return True

    # -- decompression thread: record queue -> output buffer ------------------

    def _decompression_thread(self) -> None:
        plan = ReceivePlanner(self.stats, self.telemetry)
        output = self.output
        try:
            with self.telemetry.span("decompress"):
                while (pkt := self._queue.get()) is not None:
                    job = plan.accept(pkt)
                    if job is not None:
                        try:
                            outcome, error = decode_record(*job), None
                        except Exception as exc:  # noqa: BLE001 - planner maps it
                            outcome, error = None, exc
                        plan.complete(outcome, error)
                    for chunk in plan.release():
                        if chunk is None:
                            output.put_marker()
                        else:
                            output.put(chunk)
        except BaseException as exc:  # noqa: BLE001
            output.finish(exc)
        else:
            output.finish(self._rx_error)
