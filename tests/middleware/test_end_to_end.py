"""Agent + server + client end to end, plain and AdOC, over in-memory links.

The agent hands each in-memory pipe to the reactor server, which
splices it onto a socketpair (see ``ReactorServer.adopt``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import dense_matrix, sparse_matrix
from repro.middleware import AdocCommunicator, Agent, Client, PlainCommunicator, RpcError
from repro.transport import pipe_pair

from .conftest import CFG


def adoc_comm(endpoint):
    return AdocCommunicator(endpoint, CFG)


@pytest.fixture(params=["plain", "adoc"])
def stack(request, servers):
    comm = PlainCommunicator if request.param == "plain" else adoc_comm
    agent = Agent()
    server = servers("s1", mode=request.param)
    agent.register(server, pipe_pair)
    return Client(agent, communicator_factory=comm), agent, server


class TestRpc:
    def test_dgemm_dense(self, stack):
        client, _, _ = stack
        a, b = dense_matrix(20, seed=1), dense_matrix(20, seed=2)
        c = client.call("dgemm", a, b)
        np.testing.assert_allclose(c, a @ b, rtol=1e-9)

    def test_dgemm_sparse(self, stack):
        client, _, _ = stack
        s = sparse_matrix(32)
        assert not client.call("dgemm", s, s).any()

    def test_sequential_requests(self, stack):
        client, _, server = stack
        for i in range(3):
            m = dense_matrix(10, seed=i)
            np.testing.assert_allclose(client.call("transpose", m), m.T)
        assert server.stats.requests == 3
        assert server.stats.errors == 0

    def test_remote_error_propagates(self, stack):
        client, _, server = stack
        with pytest.raises(RpcError, match="dgemm"):
            client.call("dgemm", dense_matrix(4, seed=1))  # wrong arity
        assert server.stats.errors == 1

    def test_unknown_service_raises_lookup(self, stack):
        client, _, _ = stack
        with pytest.raises(LookupError):
            client.call("fft", dense_matrix(4, seed=1))

    def test_call_timed_accounting(self, stack):
        client, _, _ = stack
        m = dense_matrix(16, seed=3)
        result, info = client.call_timed("norm", m)
        assert info.elapsed_s > 0
        assert info.request_payload_bytes > 0
        assert result.shape == (1, 1)


class TestAgent:
    def test_least_busy_round_robin(self, servers):
        agent = Agent()
        s1 = servers("s1")
        s2 = servers("s2")
        agent.register(s1, pipe_pair)
        agent.register(s2, pipe_pair)
        client = Client(agent)
        for i in range(4):
            client.call("norm", dense_matrix(6, seed=i))
        # Round robin: both served some requests.
        assert s1.stats.requests > 0
        assert s2.stats.requests > 0

    def test_service_filtering(self, servers):
        from repro.middleware import ServiceRegistry

        agent = Agent()
        special = ServiceRegistry()
        special.register("only-here", lambda args: args)
        s1 = servers("plain-server")
        s2 = servers("special-server", registry=special)
        agent.register(s1, pipe_pair)
        agent.register(s2, pipe_pair)
        assert agent.servers_for("only-here") == [s2]
        assert agent.servers_for("dgemm") == [s1]

    def test_no_server_raises(self):
        with pytest.raises(LookupError):
            Agent().connect("dgemm")


class TestAdocActuallyCompresses:
    def test_request_wire_smaller_for_sparse(self, servers):
        agent = Agent()
        server = servers("s1", mode="adoc")
        agent.register(server, pipe_pair)
        client = Client(agent, communicator_factory=adoc_comm)
        s = sparse_matrix(96)  # ~184 KB ASCII: room for the level to climb
        _, info = client.call_timed("dgemm", s, s)
        assert info.compression_ratio > 1.5

    def test_plain_never_compresses(self, servers):
        agent = Agent()
        server = servers("s1")
        agent.register(server, pipe_pair)
        client = Client(agent)
        s = sparse_matrix(48)
        _, info = client.call_timed("dgemm", s, s)
        assert info.compression_ratio <= 1.0


class TestAsyncCalls:
    def test_call_async_resolves(self, stack):
        client, _, _ = stack
        a, b = dense_matrix(16, seed=8), dense_matrix(16, seed=9)
        future = client.call_async("dgemm", a, b)
        np.testing.assert_allclose(future.result(timeout=30), a @ b, rtol=1e-9)

    def test_parallel_requests_fan_out(self, servers):
        agent = Agent()
        s1, s2 = servers("s1"), servers("s2")
        agent.register(s1, pipe_pair)
        agent.register(s2, pipe_pair)
        client = Client(agent)
        mats = [dense_matrix(12, seed=i) for i in range(4)]
        futures = [client.call_async("transpose", m) for m in mats]
        for m, f in zip(mats, futures):
            np.testing.assert_allclose(f.result(timeout=30), m.T)
        assert s1.stats.requests + s2.stats.requests == 4
        assert s1.stats.requests > 0 and s2.stats.requests > 0

    def test_async_error_via_future(self, stack):
        client, _, _ = stack
        future = client.call_async("dgemm", dense_matrix(4, seed=1))  # bad arity
        with pytest.raises(RpcError):
            future.result(timeout=30)
