"""Listener + ReactorServer: accept path, adopt/splice, socket options, teardown."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.config import AdocConfig
from repro.core.deadlines import TransferError
from repro.core.divergence import ConnectionRecords
from repro.serve.channel import PlainChannel
from repro.serve.reactor import Reactor
from repro.serve.server import DEFAULT_BACKLOG, MAX_PEERS, Listener, ReactorServer
from repro.transport import FaultyEndpoint, pipe_pair, socketpair_endpoints
from repro.transport.base import recv_exact, sendall

from .test_reactor import run_on_loop

CFG = AdocConfig(io_timeout_s=None)


@pytest.fixture
def server(no_thread_leaks):
    srv = ReactorServer(name="test-server", config=CFG, workers=2)
    yield srv
    srv.close()


def echo_factory(server: ReactorServer):
    """Channel factory wiring a byte-echo on every accepted connection."""

    def factory(endpoint, addr):
        channel = PlainChannel(server.reactor, endpoint, server.config)
        channel.on_data = channel.send_message
        return channel

    return factory


def test_listener_sets_so_reuseaddr_and_binds(no_thread_leaks):
    reactor = Reactor(name="lst")
    reactor.run_in_thread()
    try:
        listener = Listener(reactor, "127.0.0.1", 0, lambda ep, addr: ep.close())
        try:
            assert listener.address[1] > 0
            assert (
                listener._sock.getsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEADDR
                )
                != 0
            )
        finally:
            listener.close()
    finally:
        reactor.close()


def test_listener_accepts_and_hands_over_nonblocking_endpoints(no_thread_leaks):
    reactor = Reactor(name="lst2")
    reactor.run_in_thread()
    accepted = threading.Event()
    seen: list = []

    def on_accept(endpoint, addr) -> None:
        seen.append((endpoint, addr))
        endpoint.close()
        accepted.set()

    listener = Listener(reactor, "127.0.0.1", 0, on_accept, backlog=16)
    try:
        with socket.create_connection(listener.address, timeout=5.0):
            assert accepted.wait(5.0)
        assert listener.accepted == 1
        endpoint, addr = seen[0]
        assert addr[0] == "127.0.0.1"
    finally:
        listener.close()
        reactor.close()


def test_reactor_server_echoes_and_counts_connections(server):
    address = server.listen("127.0.0.1", 0, echo_factory(server))
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(b"hello reactor")
        got = bytearray()
        while len(got) < len(b"hello reactor"):
            chunk = sock.recv(1024)
            assert chunk
            got += chunk
        assert bytes(got) == b"hello reactor"
        deadline = threading.Event()
        for _ in range(500):
            if server.connection_count == 1:
                break
            deadline.wait(0.01)
        assert server.connection_count == 1
    # Channel EOF untracks the connection.
    for _ in range(500):
        if server.connection_count == 0:
            break
        deadline.wait(0.01)
    assert server.connection_count == 0


def test_reactor_server_serves_many_sockets_on_one_thread(server):
    address = server.listen("127.0.0.1", 0, echo_factory(server))
    before = threading.active_count()
    socks = [socket.create_connection(address, timeout=5.0) for _ in range(32)]
    try:
        for i, sock in enumerate(socks):
            sock.sendall(f"conn-{i}".encode())
        for i, sock in enumerate(socks):
            expected = f"conn-{i}".encode()
            got = bytearray()
            while len(got) < len(expected):
                chunk = sock.recv(1024)
                assert chunk
                got += chunk
            assert bytes(got) == expected
        # The whole fan-in rode the existing loop thread: no per
        # connection threads appeared.
        assert threading.active_count() <= before
    finally:
        for sock in socks:
            sock.close()


def test_custom_backlog_and_default(server):
    addr_default = server.listen("127.0.0.1", 0, echo_factory(server))
    addr_small = server.listen(
        "127.0.0.1", 0, echo_factory(server), backlog=4
    )
    assert addr_default != addr_small
    assert DEFAULT_BACKLOG == 512
    for addr in (addr_default, addr_small):
        with socket.create_connection(addr, timeout=5.0) as sock:
            sock.sendall(b"x")
            assert sock.recv(1) == b"x"


def test_close_refuses_new_connections_and_is_idempotent(no_thread_leaks):
    srv = ReactorServer(name="closing-server", config=CFG, workers=2)
    address = srv.listen("127.0.0.1", 0, echo_factory(srv))
    srv.close()
    srv.close()
    with pytest.raises(OSError):
        socket.create_connection(address, timeout=0.5).close()


def test_close_tears_down_live_channels(no_thread_leaks):
    srv = ReactorServer(name="teardown-server", config=CFG, workers=2)
    address = srv.listen("127.0.0.1", 0, echo_factory(srv))
    sock = socket.create_connection(address, timeout=5.0)
    try:
        sock.sendall(b"x")
        assert sock.recv(1) == b"x"
        assert srv.connection_count == 1
        srv.close()
        assert srv.connection_count == 0
        # Server side closed the channel: the client sees EOF.
        sock.settimeout(5.0)
        assert sock.recv(1) == b""
    finally:
        sock.close()


def test_shared_reactor_and_pool_are_not_closed(no_thread_leaks):
    reactor = Reactor(name="shared")
    reactor.run_in_thread()
    from repro.serve.pool import WorkerPool

    pool = WorkerPool(workers=2, name="shared-pool")
    try:
        srv = ReactorServer(
            name="guest", config=CFG, reactor=reactor, pool=pool
        )
        srv.listen("127.0.0.1", 0, echo_factory(srv))
        srv.close()
        # Borrowed infrastructure survives the guest server's close.
        assert not pool.closed
        done = threading.Event()
        reactor.call_soon_threadsafe(done.set)
        assert done.wait(5.0)
    finally:
        pool.close()
        reactor.close()


# -- adopt(): connections made elsewhere, spliced when not selectable ------


def splice_pumps() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if "-splice-" in t.name]


def test_adopt_hands_a_socket_straight_to_the_loop(server):
    client, server_end = socketpair_endpoints()
    try:
        server.adopt(server_end, echo_factory(server))
        sendall(client, b"ping")
        assert recv_exact(client, 4) == b"ping"
        assert splice_pumps() == []
    finally:
        client.close()


def test_adopt_splices_a_pipe_and_client_close_ends_the_pumps(server):
    client, server_end = pipe_pair()
    server.adopt(server_end, echo_factory(server))
    pumps = splice_pumps()
    assert sorted(t.name for t in pumps) == [
        "test-server-splice-in",
        "test-server-splice-out",
    ]
    sendall(client, b"ping")
    assert recv_exact(client, 4) == b"ping"
    client.close()
    for t in pumps:
        t.join(5.0)
        assert not t.is_alive(), f"{t.name} outlived the client close"


def test_server_close_reaps_pumps_of_a_peer_that_stopped_reading(
    no_thread_leaks,
):
    srv = ReactorServer(name="stuck-peer", config=CFG, workers=2)
    client, server_end = pipe_pair(capacity=4096)
    srv.adopt(server_end, echo_factory(srv))
    # Echo far more than the pipe holds while never reading: the
    # outbound pump ends up blocked on the full pipe.
    sendall(client, b"x" * 64 * 1024)
    srv.close()
    assert splice_pumps() == []
    client.close()


def test_fault_wrapped_pipe_is_spliced_not_rejected(server):
    client, server_end = pipe_pair()
    wrapped = FaultyEndpoint(server_end)
    # The wrapper has the attribute, but there is no fd behind it.
    assert hasattr(wrapped, "fileno")
    with pytest.raises(AttributeError):
        wrapped.fileno()
    server.adopt(wrapped, echo_factory(server))
    sendall(client, b"ping")
    assert recv_exact(client, 4) == b"ping"
    client.close()


def test_adopt_after_close_is_refused(no_thread_leaks):
    srv = ReactorServer(name="closed-adopt", config=CFG, workers=2)
    srv.close()
    client, server_end = pipe_pair()
    with pytest.raises(TransferError, match="closed"):
        srv.adopt(server_end, echo_factory(srv))
    assert splice_pumps() == []


def test_close_during_splice_refuses_and_reaps_the_pumps(no_thread_leaks, monkeypatch):
    import repro.serve.server as server_mod

    srv = ReactorServer(name="close-mid-adopt", config=CFG, workers=2)
    real_splice = server_mod.splice

    def splice_then_close(endpoint, name):
        spliced = real_splice(endpoint, name=name)
        srv.close()  # lands between the splice and the bookkeeping
        return spliced

    monkeypatch.setattr(server_mod, "splice", splice_then_close)
    client, server_end = pipe_pair()
    with pytest.raises(TransferError, match="closed"):
        srv.adopt(server_end, echo_factory(srv))
    assert splice_pumps() == []
    client.close()


def test_close_before_the_loop_opens_the_channel_reaps_everything(no_thread_leaks):
    srv = ReactorServer(name="close-mid-setup", config=CFG, workers=2)
    closer = threading.Thread(target=srv.close, name="closer")

    def factory(endpoint, addr):
        # close() runs while the loop is inside the factory: the channel
        # built here must not be tracked by a server already torn down.
        closer.start()
        while not srv._closed:
            closer.join(0.01)
        return echo_factory(srv)(endpoint, addr)

    client, server_end = pipe_pair()
    with pytest.raises(TransferError, match="closed"):
        srv.adopt(server_end, factory)
    closer.join(10.0)
    assert not closer.is_alive()
    assert splice_pumps() == []
    client.close()


def test_peer_table_adopts_fresh_compressed_records_and_stays_bounded(server):
    now = time.monotonic()

    def records(seen_ago: float | None, last_level: int | None) -> ConnectionRecords:
        rec = ConnectionRecords()
        rec.divergence.observed_at = None if seen_ago is None else now - seen_ago
        rec.last_level = last_level
        return rec

    def adopt(host: str, own: ConnectionRecords) -> ConnectionRecords:
        return run_on_loop(server.reactor, lambda: server._peer_records(host, own))

    first = records(0.0, 4)
    assert adopt("10.0.0.1", first) is first
    assert adopt("10.0.0.1", records(None, None)) is first  # fresh: shared
    stale = records(5.0, 4)
    assert adopt("10.0.0.2", stale) is stale
    newer = records(None, None)
    assert adopt("10.0.0.2", newer) is newer  # stale: starts over
    ended_raw = records(0.0, 0)
    assert adopt("10.0.0.3", ended_raw) is ended_raw
    fresh = records(None, None)
    assert adopt("10.0.0.3", fresh) is fresh  # ended raw: starts over

    # Bounded: the least recently connected hosts go first.
    def fill() -> None:
        for i in range(MAX_PEERS):
            server._peer_records(f"10.1.{i // 256}.{i % 256}", records(None, None))

    run_on_loop(server.reactor, fill)
    assert len(server.peers) == MAX_PEERS
    assert "10.0.0.3" not in server.peers and "10.1.0.0" in server.peers
    server.close()
    assert server.peers == {}
