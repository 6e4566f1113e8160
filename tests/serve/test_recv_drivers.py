"""The receive drivers over one planner: the same bytes, boundaries, stats.

The blocking :class:`~repro.core.receiver.ReceiverPipeline` decodes
inline on its decompression thread; the reactor's
:class:`~repro.serve.channel.AdocChannel` decodes on a worker pool.
Both drive a :class:`~repro.core.receiver.ReceivePlanner`, so one
captured wire must come out of both as identical messages, identical
``recv_*`` accounting and identical ``buffer_decoded`` trace records —
even with the pool's workers finishing later jobs first.
"""

from __future__ import annotations

import io
import itertools
import threading
import time
from dataclasses import fields, replace

import pytest

from repro.core import AdocConfig, ReceiverPipeline
from repro.core.compressor import compress_buffer
from repro.core.deadlines import TransferError
from repro.core.fifo import QueuedPacket
from repro.core.packets import (
    END_LEVEL,
    ProtocolError,
    Record,
    end_record_bytes,
    pack_message_header,
    pack_record_header,
)
from repro.core.receiver import ReceivePlanner, decode_record
from repro.core.sender import raw_message_vectors
from repro.core.stats import ConnectionStats, _Snapshot
from repro.data import ascii_data, binary_data
from repro.obs import Telemetry
from repro.serve import channel as channel_mod
from repro.serve.channel import AdocChannel
from repro.serve.pool import WorkerPool
from repro.transport import TransportClosed, socketpair_endpoints
from repro.transport.base import sendall

from .test_channel import Collector
from .test_reactor import run_on_loop

CFG = AdocConfig(
    buffer_size=8 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    io_timeout_s=None,
)
RECV_FIELDS = [f.name for f in fields(_Snapshot) if f.name.startswith("recv_")]


def records(data: bytes, levels: list[int]) -> list[Record]:
    """``data`` cut into buffers, buffer ``i`` compressed at ``levels[i]``."""
    out: list[Record] = []
    size = CFG.buffer_size
    for i, level in enumerate(levels):
        out += compress_buffer(data[i * size : (i + 1) * size], level, None, CFG)[0]
    return out


def frame(recs: list[Record], total: int | None) -> bytes:
    if total is None:
        head, tail = pack_message_header(0, length_known=False), end_record_bytes()
    else:
        head, tail = pack_message_header(total), b""
    return head + b"".join(r.serialize() for r in recs) + tail


ASCII = ascii_data(4 * CFG.buffer_size, seed=5)
BINARY = binary_data(2 * CFG.buffer_size, seed=6)
SMALL = b"raw bypass message"
MESSAGES = [ASCII, BINARY + SMALL, SMALL, b"", ASCII[: CFG.buffer_size]]
#: Back to back: a multi-level compressed message, an unknown-length
#: message ending in a raw record, raw bypass messages (one empty) and
#: one more compressed message.
WIRE = b"".join(
    [
        frame(records(ASCII, [1, 2, 6, 10]), len(ASCII)),
        frame(records(BINARY, [3, 9]) + [Record(0, len(SMALL), SMALL)], None),
        b"".join(raw_message_vectors(SMALL)),
        b"".join(raw_message_vectors(b"")),
        frame(records(ASCII, [9]), CFG.buffer_size),
    ]
)


def corrupted_wire() -> bytes:
    """The first message with its third compressed record garbled."""
    recs = records(ASCII, [6, 6, 6, 6])
    bad = bytearray(recs[2].payload)
    bad[len(bad) // 2] ^= 0xFF
    recs[2] = Record(recs[2].level, recs[2].original_size, bytes(bad))
    return frame(recs, len(ASCII))


#: Malformed wires and the error both drivers must close with.
MALFORMED = [
    pytest.param(corrupted_wire, TransferError, id="corrupt-record"),
    # Claims 100 bytes, carries 10: would "complete" the message short.
    pytest.param(
        lambda: pack_message_header(100) + pack_record_header(0, 100, 10) + b"x" * 10,
        ProtocolError,
        id="raw-sizes-disagree",
    ),
    pytest.param(
        lambda: pack_message_header(10) + end_record_bytes(),
        ProtocolError,
        id="end-in-known-length",
    ),
    pytest.param(
        lambda: pack_message_header(4) + pack_record_header(42, 4, 4) + b"xxxx",
        ProtocolError,
        id="bad-level",
    ),
    pytest.param(lambda: WIRE[:-5], TransportClosed, id="truncated"),
]


def decoded_trace(tele: Telemetry) -> list[tuple[int, int, int]]:
    return [
        (e.args["level"], e.args["wire_bytes"], e.args["raw_bytes"])
        for e in tele.tracer.events("buffer")
        if e.name == "buffer_decoded"
    ]


def recv_stats(stats: ConnectionStats) -> dict[str, int]:
    snap = stats.snapshot()
    return {name: getattr(snap, name) for name in RECV_FIELDS}


def write_and_close(endpoint, wire: bytes) -> threading.Thread:
    def run() -> None:
        try:
            sendall(endpoint, wire)
        except OSError:
            pass  # the receiver failed and hung up first
        finally:
            endpoint.close()

    writer = threading.Thread(target=run, name="wire-writer", daemon=True)
    writer.start()
    return writer


def blocking_receive(wire: bytes, cfg: AdocConfig):
    """The expected messages and EOF (or the error), pipeline, error."""
    a, b = socketpair_endpoints()
    writer = write_and_close(a, wire)
    rx = ReceiverPipeline(b, cfg)
    messages: list[bytes] = []
    error = None
    try:
        for _ in MESSAGES:
            sink = io.BytesIO()
            rx.receive_into(sink)
            messages.append(sink.getvalue())
        assert rx.receive_into(io.BytesIO()) == 0  # then a clean EOF
    except Exception as exc:  # noqa: BLE001 - the verdict under test
        error = exc
    writer.join(10.0)
    rx.close()
    rx.join(10.0)
    return messages, rx, error


def channel_receive(loop, wire: bytes, cfg: AdocConfig):
    """Messages until the channel closes, the channel and its error."""
    reactor, pool = loop
    a, b = socketpair_endpoints()
    got = Collector()
    channel = AdocChannel(reactor, b, pool, cfg)
    channel.on_data = got.on_data
    channel.on_message_end = got.on_message_end
    channel.on_close = got.on_close
    run_on_loop(reactor, channel.open)
    writer = write_and_close(a, wire)
    assert got.closed.wait(20.0), "channel never closed"
    writer.join(10.0)
    return got.payloads, channel, got.close_error


@pytest.fixture
def loop(no_thread_leaks):
    from repro.serve.reactor import Reactor

    reactor = Reactor(name="recv-drivers")
    pool = WorkerPool(workers=2, max_pending=64, name="recv-drivers-pool")
    reactor.run_in_thread()
    yield reactor, pool
    reactor.close()
    pool.close()


@pytest.fixture
def later_jobs_first(monkeypatch) -> list[int]:
    """Channel decodes where every even job sleeps: odd ones overtake it."""
    finished: list[int] = []
    counter = itertools.count()

    def decode(level, payload, orig):
        index = next(counter)
        if index % 2 == 0:
            time.sleep(0.02)
        out = decode_record(level, payload, orig)
        finished.append(index)
        return out

    monkeypatch.setattr(channel_mod, "decode_record", decode)
    return finished


class TestDriverParity:
    def test_same_messages_stats_and_decode_trace(self, loop, later_jobs_first):
        blocking_tele, channel_tele = Telemetry(), Telemetry()
        blocking, rx, error = blocking_receive(
            WIRE, replace(CFG, telemetry=blocking_tele)
        )
        assert error is None
        channel, ch, close_error = channel_receive(
            loop, WIRE, replace(CFG, telemetry=channel_tele)
        )
        assert close_error is None

        assert later_jobs_first != sorted(later_jobs_first), later_jobs_first
        assert blocking == channel == MESSAGES
        assert recv_stats(rx.stats) == recv_stats(ch.stats)
        snap = ch.stats.snapshot()
        assert snap.recv_messages == len(MESSAGES)
        assert snap.recv_wire_bytes == len(WIRE)
        assert snap.recv_payload_bytes == sum(map(len, MESSAGES))
        assert snap.recv_raw_packets == 2  # the two SMALL records
        assert snap.recv_decompressed_packets > 6

        trace = decoded_trace(blocking_tele)
        assert trace == decoded_trace(channel_tele)
        assert len(trace) == snap.recv_decompressed_packets
        assert {level for level, _, _ in trace} == {1, 2, 3, 6, 9, 10}

    @pytest.mark.parametrize("make_wire,error", MALFORMED)
    def test_malformed_wire_fails_both_drivers_alike(self, loop, make_wire, error):
        wire = make_wire()
        blocking, _, blocking_error = blocking_receive(wire, CFG)
        channel, _, close_error = channel_receive(loop, wire, CFG)
        assert blocking == channel  # the complete messages before the fault
        for exc in (blocking_error, close_error):
            assert isinstance(exc, error), exc
        if error is TransferError:
            assert blocking_error.stage == close_error.stage == "decompress"


def packet(level: int, data: bytes) -> QueuedPacket:
    if level == END_LEVEL:
        return QueuedPacket(b"", END_LEVEL, len(data))
    payload = data if level == 0 else compress_buffer(data, level, None, CFG)[0][0].payload
    return QueuedPacket(payload, level, len(data))


class TestReceivePlanner:
    def test_release_waits_for_the_oldest_decode(self):
        stats = ConnectionStats()
        plan = ReceivePlanner(stats, Telemetry())
        a, b = ascii_data(4096, seed=1), ascii_data(4096, seed=2)
        jobs = [
            plan.accept(p)
            for p in (
                packet(0, b"head"),
                packet(6, a),
                packet(0, b"tail"),
                packet(END_LEVEL, b"x" * 50),
                packet(2, b),
                packet(END_LEVEL, b"y" * 40),
            )
        ]
        assert [job is None for job in jobs] == [True, False, True, True, False, True]
        # Raw records and boundaries queue behind the pending decode.
        assert list(plan.release()) == [b"head"]
        assert plan.pending == 5

        plan.complete(decode_record(*jobs[1]), None)
        assert list(plan.release()) == [a, b"tail", None]
        assert plan.pending == 2
        assert stats.snapshot().recv_messages == 1

        plan.complete(decode_record(*jobs[4]), None)
        assert list(plan.release()) == [b, None]
        assert plan.pending == 0
        snap = stats.snapshot()
        assert (snap.recv_messages, snap.recv_wire_bytes) == (2, 90)
        assert (snap.recv_raw_packets, snap.recv_decompressed_packets) == (2, 2)
        assert snap.recv_payload_bytes == len(a) + len(b) + 8

    def test_codec_failure_is_a_decompress_transfer_error(self):
        plan = ReceivePlanner(ConnectionStats(), Telemetry())
        assert plan.accept(packet(6, ascii_data(4096))) is not None
        with pytest.raises(TransferError) as info:
            plan.complete(None, ValueError("boom"))
        assert info.value.stage == "decompress"
        assert isinstance(info.value.__cause__, ValueError)
