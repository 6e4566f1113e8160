"""ReactorRpcServer on the wire: TCP listeners and spliced in-memory links."""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.core import AdocConfig
from repro.data import decode_matrix_ascii, dense_matrix, encode_matrix_ascii, sparse_matrix
from repro.middleware import ReactorRpcServer
from repro.middleware.communicator import AdocCommunicator, PlainCommunicator
from repro.middleware.protocol import MsgType, RpcMessage, read_message, write_message
from repro.obs import Telemetry
from repro.transport import LAN100, SocketEndpoint, pipe_pair, socketpair_endpoints

from .conftest import CFG, call, connect


@pytest.fixture(params=["plain", "adoc"])
def served(request, servers, closing):
    """(server, dial): ``dial()`` opens a connection closed at teardown."""
    server = servers("rx-test", mode=request.param)
    address = server.listen()
    return server, lambda: closing(connect(address, request.param))


def test_echo_roundtrip(served):
    _, dial = served
    reply = call(dial(), "echo", [b"hello", b"world"])
    assert reply.type == MsgType.RESPONSE
    assert reply.args == [b"hello", b"world"]


def test_dgemm_roundtrip(served):
    _, dial = served
    a, b = dense_matrix(24, seed=1), dense_matrix(24, seed=2)
    reply = call(dial(), "dgemm", [encode_matrix_ascii(a), encode_matrix_ascii(b)])
    assert reply.type == MsgType.RESPONSE
    np.testing.assert_allclose(decode_matrix_ascii(reply.args[0]), a @ b, rtol=1e-9)


def test_unknown_service_returns_error_not_disconnect(served):
    _, dial = served
    comm = dial()
    assert call(comm, "no-such-service", []).type == MsgType.ERROR
    # The connection survives the refusal.
    assert call(comm, "echo", [b"still here"]).args == [b"still here"]


def test_stats_count_requests_and_errors(served):
    server, dial = served
    comm = dial()
    call(comm, "echo", [b"1"])
    call(comm, "echo", [b"2"])
    call(comm, "boom", [])
    assert server.stats.requests == 3
    assert server.stats.errors == 1


def test_many_connections_one_loop_thread(served):
    server, dial = served
    comms = [dial() for _ in range(16)]
    for i, comm in enumerate(comms):
        write_message(comm, RpcMessage(MsgType.REQUEST, "echo", [f"c{i}".encode()]))
    for i, comm in enumerate(comms):
        assert read_message(comm).args == [f"c{i}".encode()]
    assert server.connection_count == 16


def test_inline_dispatch_mode(servers, closing):
    server = servers("inline-test", dispatch="inline")
    comm = closing(connect(server.listen(), "plain"))
    assert call(comm, "echo", [b"inline"]).args == [b"inline"]


def test_sequential_requests_on_one_connection(served):
    _, dial = served
    comm = dial()
    for i in range(5):
        m = dense_matrix(10, seed=i)
        reply = call(comm, "transpose", [encode_matrix_ascii(m)])
        np.testing.assert_allclose(decode_matrix_ascii(reply.args[0]), m.T)


def test_invalid_mode_and_dispatch_rejected():
    with pytest.raises(ValueError):
        ReactorRpcServer("bad", mode="zip")
    with pytest.raises(ValueError):
        ReactorRpcServer("bad", dispatch="sideways")


# -- links without a socket: spliced onto a socketpair ----------------------


class RecordingCommunicator(PlainCommunicator):
    """Plain communicator that keeps every byte it reads."""

    def __init__(self, endpoint) -> None:
        super().__init__(endpoint)
        self.seen = bytearray()

    def read(self, n: int) -> bytes:
        data = super().read(n)
        self.seen += data
        return data


def test_spliced_pipe_reply_bytes_equal_socketpair_reply_bytes(servers):
    server = servers("splice-wire")
    a, b = dense_matrix(24, seed=1), dense_matrix(24, seed=2)
    args = [encode_matrix_ascii(a), encode_matrix_ascii(b)]
    replies = []
    for factory in (pipe_pair, socketpair_endpoints):
        client_end, server_end = factory()
        server.serve(server_end)
        comm = RecordingCommunicator(client_end)
        try:
            reply = call(comm, "dgemm", args)
        finally:
            comm.close()
        np.testing.assert_allclose(decode_matrix_ascii(reply.args[0]), a @ b, rtol=1e-9)
        replies.append(bytes(comm.seen))
    assert replies[0] == replies[1]


def test_adoc_replies_adapt_over_a_spliced_lan_link(servers):
    """Fig. 8's link: the reply's write backlog is felt through the splice."""
    tele = Telemetry(enabled=True)
    server = servers("splice-lan", mode="adoc", telemetry=tele)
    client_end, server_end = LAN100.make_pair(seed=21)
    server.serve(server_end)
    comm = AdocCommunicator(client_end, CFG)
    try:
        s = encode_matrix_ascii(sparse_matrix(180))
        reply = call(comm, "dgemm", [s, s])
    finally:
        comm.close()
    assert not decode_matrix_ascii(reply.args[0]).any()
    decisions = tele.tracer.events("level")
    assert decisions, "the reply made no level decisions"
    assert max(e.args["n"] for e in decisions) > 0
    assert max(e.args["new_level"] for e in decisions) > 0


# -- warm start: a peer host's records outlive its connections --------------


def test_a_peer_hosts_later_reply_starts_warm(servers, closing):
    """Three ``dgemm`` calls from 127.0.0.1 to one server, a connection
    each, as NetSolve clients call.  The first two replies start cold and
    leave the peer's records two level-0 windows (a trusted record) and
    codec rates; the third reply's first decision starts warm from them.
    A spliced peer has no host: its channel starts cold."""
    tele = Telemetry(enabled=True)
    cfg = AdocConfig(io_timeout_s=30.0)
    server = servers("warm-rx", mode="adoc", config=cfg, telemetry=tele)
    address = server.listen()
    rng = np.random.default_rng(5)
    a = sparse_matrix(256)
    a[rng.integers(0, 256, 40), rng.integers(0, 256, 40)] = rng.uniform(-1, 1, 40)
    args = [encode_matrix_ascii(a), encode_matrix_ascii(a.T)]

    def first_decision(comm) -> dict:
        tele.tracer.clear()
        try:
            reply = call(comm, "dgemm", args)
        finally:
            comm.close()
        np.testing.assert_allclose(decode_matrix_ascii(reply.args[0]), a @ a.T)
        return tele.tracer.events("level")[0].args

    def dial() -> AdocCommunicator:
        return AdocCommunicator(SocketEndpoint(socket.create_connection(address, 10.0)), cfg)

    firsts = [first_decision(dial()) for _ in range(3)]
    assert [f["warm"] for f in firsts[:2]] == [False, False]
    assert firsts[2]["warm"], firsts
    peers = server._server.peers
    assert list(peers) == ["127.0.0.1"]
    assert peers["127.0.0.1"].divergence.trusted_bandwidth(0) is not None

    client_end, server_end = pipe_pair()
    server.serve(server_end)
    assert not first_decision(AdocCommunicator(client_end, cfg))["warm"]
    assert list(peers) == ["127.0.0.1"]
    server.close()
    assert not peers
