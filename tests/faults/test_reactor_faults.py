"""Chaos for the reactor core: storms, mid-transfer resets, saturation.

A thread-per-connection server meets faults one connection at a time;
the reactor meets them all on one loop thread, so the failure modes
worth testing are the *aggregate* ones — a storm of connections, RSTs
landing while hundreds of other streams are mid-transfer, a codec pool
too small for the offered load.  Every test ends with the same probe: a
fresh client served correctly, because the claim under test is always
"the loop outlives the fault".
"""

from __future__ import annotations

import resource
import socket
import struct
import threading
import time

import pytest

from repro.core import AdocConfig
from repro.data import ascii_data
from repro.middleware.protocol import MsgType, RpcMessage, iter_message_segments
from repro.middleware.server import ReactorRpcServer
from repro.serve.channel import AdocChannel
from repro.serve.pool import WorkerPool
from repro.serve.reactor import Reactor
from repro.transport import SocketEndpoint, socketpair_endpoints
from repro.transport.base import TransportClosed
from repro.transport.faults import Fault, FaultyEndpoint

CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
    io_timeout_s=None,
)

#: ~500 concurrent streams (the issue's storm scale): 2 fds per stream
#: live in this one process, so the soft fd limit must clear ~1100.
STORM_STREAMS = 500

#: Hard RST on close: SO_LINGER with a zero timeout skips FIN entirely.
_RST = struct.pack("ii", 1, 0)


@pytest.fixture(autouse=True)
def _room_for_fds():
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = min(hard, 4096)
    if soft < want:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
    yield
    resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def echo_request(payload: bytes) -> tuple[bytes, int]:
    """Request wire bytes + the (equal) reply length, plain mode."""
    msg = RpcMessage(MsgType.REQUEST, "echo", [payload])
    wire = b"".join(iter_message_segments(msg))
    return wire, len(wire)


def read_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            break
        buf += chunk
    return bytes(buf)


def wait_until(predicate, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def probe_fresh_client(address) -> None:
    """The post-fault health check: a new connection gets served."""
    request, reply_len = echo_request(b"still alive")
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(request)
        assert read_exact(sock, reply_len) == request.replace(
            bytes([MsgType.REQUEST]), bytes([MsgType.RESPONSE]), 1
        )


def test_connection_storm_all_served():
    # A storm of ~500 near-simultaneous connections, one echo each: the
    # accept path (bounded accepts per callback) must serve every one
    # without starving established channels, and close must get the
    # connection gauge back to zero.
    server = ReactorRpcServer("storm", config=CFG, dispatch="inline")
    address = server.listen()
    request, reply_len = echo_request(b"x" * 512)
    socks: list[socket.socket] = []
    try:
        for _ in range(STORM_STREAMS):
            sock = socket.create_connection(address, timeout=30.0)
            sock.settimeout(30.0)
            socks.append(sock)
        for sock in socks:
            sock.sendall(request)
        for sock in socks:
            assert len(read_exact(sock, reply_len)) == reply_len
        assert wait_until(lambda: server.connection_count == STORM_STREAMS)
        assert server.stats.requests == STORM_STREAMS
    finally:
        for sock in socks:
            sock.close()
    assert wait_until(lambda: server.connection_count == 0)
    probe_fresh_client(address)
    server.close()


def test_mid_transfer_resets_at_storm_scale():
    # ~500 streams mid-request; every tenth one RSTs after sending half
    # a message.  The survivors' replies must be unaffected, the dead
    # channels reaped, and a fresh client served afterwards.
    server = ReactorRpcServer("reset-storm", config=CFG, dispatch="inline")
    address = server.listen()
    request, reply_len = echo_request(b"y" * 512)
    socks = [
        socket.create_connection(address, timeout=30.0)
        for _ in range(STORM_STREAMS)
    ]
    victims = [s for i, s in enumerate(socks) if i % 10 == 0]
    survivors = [s for i, s in enumerate(socks) if i % 10 != 0]
    try:
        for sock in survivors:
            sock.settimeout(30.0)
        # Victims send half a message — the server's assembler is left
        # mid-frame — then hard-reset (no FIN).
        half = len(request) // 2
        for sock in victims:
            sock.sendall(request[:half])
        for sock in victims:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _RST)
            sock.close()
        for sock in survivors:
            sock.sendall(request)
        for sock in survivors:
            assert len(read_exact(sock, reply_len)) == reply_len
        assert wait_until(
            lambda: server.connection_count == len(survivors)
        ), f"dead channels not reaped: {server.connection_count}"
    finally:
        for sock in survivors:
            sock.close()
    assert wait_until(lambda: server.connection_count == 0)
    probe_fresh_client(address)
    server.close()


def test_pool_saturation_delays_but_never_drops():
    # A one-worker, two-slot pool under 16 connections x 8 pipelined
    # requests: submissions are refused constantly, the retry timer
    # must keep draining the parked queues, and every reply must come
    # back on the right connection in the right order.
    server = ReactorRpcServer(
        "saturated", config=CFG, dispatch="pool", workers=1, max_pending=2
    )
    address = server.listen()
    conns = 16
    per_conn = 8
    socks = [
        socket.create_connection(address, timeout=30.0) for _ in range(conns)
    ]
    try:
        requests = []
        for i, sock in enumerate(socks):
            sock.settimeout(30.0)
            batch = [
                echo_request(f"conn{i}-req{j}".encode().ljust(256, b"."))
                for j in range(per_conn)
            ]
            requests.append(batch)
            sock.sendall(b"".join(wire for wire, _ in batch))
        for i, sock in enumerate(socks):
            for j, (wire, reply_len) in enumerate(requests[i]):
                reply = read_exact(sock, reply_len)
                assert f"conn{i}-req{j}".encode() in reply, (
                    f"conn {i} got reply {j} out of order"
                )
        assert server.stats.requests == conns * per_conn
        assert server.stats.errors == 0
    finally:
        for sock in socks:
            sock.close()
    probe_fresh_client(address)
    server.close()


class _ChannelProbe:
    """Minimal channel observer: collected bytes + close signal."""

    def __init__(self) -> None:
        self.chunks: list[bytes] = []
        self.closed = threading.Event()
        self.close_error: BaseException | None = None

    def on_data(self, data: bytes) -> None:
        self.chunks.append(bytes(data))

    def on_close(self, error: BaseException | None) -> None:
        self.close_error = error
        self.closed.set()


def _run_on_loop(reactor: Reactor, fn, timeout: float = 10.0):
    done = threading.Event()
    box: list = [None, None]

    def call() -> None:
        try:
            box[0] = fn()
        except BaseException as exc:  # noqa: BLE001 - reraised below
            box[1] = exc
        finally:
            done.set()

    reactor.call_soon_threadsafe(call)
    assert done.wait(timeout), "loop call never ran"
    if box[1] is not None:
        raise box[1]
    return box[0]


def test_scripted_reset_composes_with_adoc_channel():
    # FaultyEndpoint under a non-blocking AdocChannel: a scripted reset
    # mid-message surfaces as on_close(TransportClosed) on the sender,
    # EOF-close on the peer — and the loop and pool stay usable for a
    # fresh channel pair afterwards.
    reactor = Reactor(name="chaos-chan")
    pool = WorkerPool(workers=2, max_pending=64, name="chaos-pool")
    reactor.run_in_thread()
    try:
        a, b = socketpair_endpoints()
        faulty = FaultyEndpoint(a, [Fault("reset", "send", at_byte=40 * 1024)])
        pa, pb = _ChannelProbe(), _ChannelProbe()
        cha = AdocChannel(reactor, faulty, pool, CFG)
        cha.on_close = pa.on_close
        chb = AdocChannel(reactor, b, pool, CFG)
        chb.on_data = pb.on_data
        chb.on_close = pb.on_close
        _run_on_loop(reactor, cha.open)
        _run_on_loop(reactor, chb.open)
        payload = ascii_data(200 * 1024, seed=21)
        _run_on_loop(reactor, lambda: cha.send_message(payload))
        assert pa.closed.wait(30.0), "sender channel never closed"
        assert isinstance(pa.close_error, TransportClosed)
        assert faulty.fired and faulty.fired[0].kind == "reset"
        # The reset closed the inner endpoint: the peer sees EOF and
        # closes cleanly, with only a prefix of the payload delivered.
        assert pb.closed.wait(30.0), "peer channel never saw the reset"
        assert len(b"".join(pb.chunks)) < len(payload)

        # Same loop, same pool, fresh channels: fault isolation.
        c, d = socketpair_endpoints()
        pc, pd = _ChannelProbe(), _ChannelProbe()
        boundary = threading.Event()
        chc = AdocChannel(reactor, c, pool, CFG)
        chc.on_close = pc.on_close
        chd = AdocChannel(reactor, d, pool, CFG)
        chd.on_data = pd.on_data
        chd.on_close = pd.on_close
        chd.on_message_end = boundary.set
        _run_on_loop(reactor, chc.open)
        _run_on_loop(reactor, chd.open)
        again = ascii_data(60 * 1024, seed=22)
        _run_on_loop(reactor, lambda: chc.send_message(again))
        assert boundary.wait(30.0), "post-fault channel made no progress"
        assert b"".join(pd.chunks) == again
        _run_on_loop(reactor, chc.close)
        _run_on_loop(reactor, chd.close)
    finally:
        reactor.close()
        pool.close()
