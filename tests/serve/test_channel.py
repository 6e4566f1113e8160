"""Channels: roundtrips, blocking-engine interop, wire byte-identity."""

from __future__ import annotations

import threading

import pytest

from repro.core import AdocConfig
from repro.core.api import adoc_attach, adoc_detach, adoc_read, adoc_write
from repro.core.planner import raw_message_vectors
from repro.core.sender import MessageSender
from repro.data import ascii_data
from repro.serve.channel import AdocChannel, NonBlockingEndpoint, PlainChannel
from repro.serve.pool import WorkerPool
from repro.serve.reactor import Reactor
from repro.transport import socketpair_endpoints

from .test_reactor import run_on_loop

#: Small buffers so even modest payloads exercise the chunk pipeline;
#: no io timeout — these tests assert logic, not stall detection.
CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
    io_timeout_s=None,
)
#: max_level=0 disables compression outright: the deterministic wire
#: shape shared byte-for-byte by both engines.
RAW_CFG = AdocConfig(
    min_level=0,
    max_level=0,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
    io_timeout_s=None,
)


@pytest.fixture
def loop(no_thread_leaks):
    reactor = Reactor(name="chan-test")
    pool = WorkerPool(workers=2, max_pending=64, name="chan-pool")
    reactor.run_in_thread()
    yield reactor, pool
    reactor.close()
    pool.close()


class Collector:
    """Reassemble messages at the boundaries the channel reports.

    ``on_data``/``on_message_end`` run on the loop thread; the chunk
    buffer is cut into a finished payload at each boundary there, so a
    test thread waiting on message N never races message N+1's bytes.
    """

    def __init__(self) -> None:
        self.chunks: list[bytes] = []
        self.payloads: list[bytes] = []
        self.messages = 0
        self.closed = threading.Event()
        self.close_error: BaseException | None = None
        self._cond = threading.Condition()

    def on_data(self, data: bytes) -> None:
        self.chunks.append(bytes(data))

    def on_message_end(self) -> None:
        with self._cond:
            self.payloads.append(b"".join(self.chunks))
            self.chunks.clear()
            self.messages += 1
            self._cond.notify_all()

    def on_close(self, error: BaseException | None) -> None:
        self.close_error = error
        self.closed.set()

    def wait_message(self, index: int = 0, timeout: float = 10.0) -> bytes:
        with self._cond:
            arrived = self._cond.wait_for(
                lambda: len(self.payloads) > index, timeout
            )
            assert arrived, f"message {index} never finished"
            return self.payloads[index]


def _wire(loop, cls, endpoint, collector, config=CFG, **kwargs):
    reactor, pool = loop
    if cls is AdocChannel:
        channel = cls(reactor, endpoint, pool, config)
        channel.on_message_end = collector.on_message_end
    else:
        channel = cls(reactor, endpoint, config)
    channel.on_data = collector.on_data
    channel.on_close = collector.on_close
    run_on_loop(reactor, channel.open)
    return channel


def test_plain_channels_pass_raw_bytes_both_ways(loop):
    reactor, _ = loop
    a, b = socketpair_endpoints()
    ca, cb = Collector(), Collector()
    cha = _wire(loop, PlainChannel, a, ca)
    chb = _wire(loop, PlainChannel, b, cb)
    run_on_loop(reactor, lambda: cha.send_message(b"ping"))
    run_on_loop(reactor, lambda: chb.send_message(b"pong"))
    deadline = threading.Event()
    for collector, expect in ((cb, b"ping"), (ca, b"pong")):
        for _ in range(1000):
            if b"".join(collector.chunks) == expect:
                break
            deadline.wait(0.01)
        assert b"".join(collector.chunks) == expect
    run_on_loop(reactor, cha.close)
    # Closing one side EOFs the other; its channel closes cleanly.
    assert cb.closed.wait(10.0)
    assert cb.close_error is None


def test_adoc_channel_roundtrip_compressed(loop):
    reactor, _ = loop
    a, b = socketpair_endpoints()
    ca, cb = Collector(), Collector()
    # Pinning min == max forces compression at a fixed level: the wire
    # must shrink regardless of how fast the backlog drains.
    forced = CFG.with_levels(6, 6)
    cha = _wire(loop, AdocChannel, a, ca, config=forced)
    chb = _wire(loop, AdocChannel, b, cb, config=forced)
    payload = ascii_data(300 * 1024, seed=3)
    run_on_loop(reactor, lambda: cha.send_message(payload))
    assert cb.wait_message() == payload
    assert cb.messages == 1
    sent, got = cha.stats.snapshot(), chb.stats.snapshot()
    assert sent.messages == 1 and got.recv_messages == 1
    # The send ledger counts every byte the channel wrote.
    assert sent.wire_bytes == cha.bytes_out == got.recv_wire_bytes
    # Compressible ASCII must actually compress on the wire.
    assert cha.bytes_out < len(payload)
    run_on_loop(reactor, cha.close)
    run_on_loop(reactor, chb.close)


def test_adoc_channel_queues_messages_while_tx_busy(loop):
    reactor, _ = loop
    a, b = socketpair_endpoints()
    ca, cb = Collector(), Collector()
    cha = _wire(loop, AdocChannel, a, ca)
    chb = _wire(loop, AdocChannel, b, cb)
    payloads = [ascii_data(100 * 1024, seed=i) for i in range(3)]

    def send_all() -> None:
        for p in payloads:
            cha.send_message(p)

    run_on_loop(reactor, send_all)
    for i, expected in enumerate(payloads):
        assert cb.wait_message(i) == expected
    assert cha.stats.snapshot().messages == 3
    assert chb.stats.snapshot().recv_messages == 3
    run_on_loop(reactor, cha.close)
    run_on_loop(reactor, chb.close)


def test_reactor_sender_interops_with_blocking_reader(loop):
    # AdocChannel frames on one end, the blocking adoc_read engine
    # consumes on the other: wire compatibility by construction.
    reactor, _ = loop
    a, b = socketpair_endpoints()
    cha = _wire(loop, AdocChannel, a, Collector())
    fd = adoc_attach(b, CFG)
    payload = ascii_data(250 * 1024, seed=11)
    try:
        run_on_loop(reactor, lambda: cha.send_message(payload))
        got = bytearray()
        while len(got) < len(payload):
            got += adoc_read(fd, len(payload) - len(got))
        assert bytes(got) == payload
    finally:
        run_on_loop(reactor, cha.close)
        adoc_detach(fd)
        b.close()


def test_blocking_sender_interops_with_reactor_reader(loop):
    reactor, _ = loop
    a, b = socketpair_endpoints()
    cb = Collector()
    chb = _wire(loop, AdocChannel, b, cb)
    fd = adoc_attach(a, CFG)
    payload = ascii_data(250 * 1024, seed=12)
    try:
        sent = threading.Thread(
            target=adoc_write, args=(fd, payload), name="blocking-writer"
        )
        sent.start()
        sent.join(10.0)
        assert not sent.is_alive()
        assert cb.wait_message() == payload
    finally:
        run_on_loop(reactor, chb.close)
        adoc_detach(fd)
        a.close()


def test_raw_wire_bytes_identical_to_blocking_engine(loop):
    # Golden byte-identity on the deterministic (uncompressed) path:
    # the reactor channel and the blocking MessageSender must emit the
    # same bytes for the same message.
    class Capture:
        def __init__(self) -> None:
            self.buffer = bytearray()

        def send(self, data) -> int:
            self.buffer += data
            return len(data)

        def recv(self, n: int) -> bytes:
            return b""

        def close(self) -> None:
            pass

    payload = ascii_data(64 * 1024, seed=5)
    golden = Capture()
    MessageSender(golden, RAW_CFG).send(payload)

    reactor, _ = loop
    a, b = socketpair_endpoints()
    cha = _wire(
        loop, AdocChannel, a, Collector(),
        config=RAW_CFG,
    )
    run_on_loop(reactor, lambda: cha.send_message(payload))
    wire = bytearray()
    while len(wire) < len(golden.buffer):
        chunk = b.recv(65536)
        assert chunk, "reactor channel sent fewer bytes than the blocking engine"
        wire += chunk
    assert bytes(wire) == bytes(golden.buffer)
    run_on_loop(reactor, cha.close)
    b.close()


def test_small_message_bypass_matches_raw_vectors(loop):
    # Below the small-message threshold the channel frames raw inline —
    # identical to the blocking sender's bypass.
    reactor, _ = loop
    payload = b"tiny but framed"
    expected = b"".join(bytes(v) for v in raw_message_vectors(payload))
    a, b = socketpair_endpoints()
    cha = _wire(loop, AdocChannel, a, Collector())
    run_on_loop(reactor, lambda: cha.send_message(payload))
    wire = bytearray()
    while len(wire) < len(expected):
        chunk = b.recv(65536)
        assert chunk
        wire += chunk
    assert bytes(wire) == expected
    run_on_loop(reactor, cha.close)
    b.close()


def test_endpoint_without_fileno_is_rejected():
    class NotASocket:
        pass

    with pytest.raises(TypeError):
        NonBlockingEndpoint(NotASocket())
