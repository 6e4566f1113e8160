"""Reconnect-with-backoff behaviour of the middleware/gridftp/depot clients."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core import RetryPolicy
from repro.data import dense_matrix
from repro.depot import ByteArrayDepot, DepotClient, depot_registry
from repro.gridftp import ControlConnectionLost, FileClient, FileServer, GridFtpError
from repro.middleware import Agent, Client, ReactorRpcServer, RpcError
from repro.middleware.client import RETRYABLE_RPC_ERRORS
from repro.middleware.protocol import ConnectionLost
from repro.transport import Fault, FaultyEndpoint, pipe_pair

#: Fast, deterministic backoff for tests.
FAST_RETRY = RetryPolicy(attempts=4, base_delay=0.005, jitter=0.0, seed=0)


def rpc_server(closing, name: str, **kwargs) -> ReactorRpcServer:
    return closing(ReactorRpcServer(name, workers=2, **kwargs))


def file_server(closing, **kwargs) -> FileServer:
    return closing(FileServer(pipe_pair, workers=2, **kwargs))


def flaky_factory(failures: int, fault: Fault):
    """Transport factory whose first ``failures`` connections carry a
    fault on the client end; later ones are clean.  Returns (factory,
    connection counter)."""
    count = [0]

    def factory():
        a, b = pipe_pair()
        count[0] += 1
        if count[0] <= failures:
            return FaultyEndpoint(a, [fault]), b
        return a, b

    return factory, count


class TestMiddlewareRetry:
    def test_call_succeeds_after_connection_reset(self, closing):
        factory, count = flaky_factory(2, Fault("reset", at_byte=100))
        agent = Agent()
        agent.register(rpc_server(closing, "s1"), factory)
        client = Client(agent, retry=FAST_RETRY)
        m = dense_matrix(12, seed=3)
        out = client.call("transpose", m)
        np.testing.assert_allclose(out, m.T)
        assert count[0] == 3  # two failed connections + the clean one

    def test_no_retry_without_policy(self, closing):
        factory, count = flaky_factory(1, Fault("reset", at_byte=100))
        agent = Agent()
        agent.register(rpc_server(closing, "s1"), factory)
        client = Client(agent)  # no retry policy
        with pytest.raises(Exception):
            client.call("transpose", dense_matrix(8, seed=1))
        assert count[0] == 1

    def test_remote_refusal_is_not_retried(self, closing):
        connects = [0]

        def factory():
            connects[0] += 1
            return pipe_pair()

        agent = Agent()
        agent.register(rpc_server(closing, "s1"), factory)
        client = Client(agent, retry=FAST_RETRY)
        with pytest.raises(RpcError):
            # transpose on garbage bytes fails remotely: the server
            # answers with an ERROR reply over a healthy connection.
            client.call_raw("transpose", [b"not a matrix"])
        assert connects[0] == 1  # the refusal must not be replayed

    def test_retries_exhausted_surfaces_error(self, closing):
        factory, count = flaky_factory(99, Fault("reset", at_byte=50))
        agent = Agent()
        agent.register(rpc_server(closing, "s1"), factory)
        client = Client(agent, retry=FAST_RETRY)
        with pytest.raises(RETRYABLE_RPC_ERRORS):
            client.call("transpose", dense_matrix(8, seed=1))
        assert count[0] == FAST_RETRY.attempts

    def test_file_args_rewound_between_attempts(self, closing):
        """A streamed request that died mid-flight is replayed from the
        file's starting offset, not from wherever the stream broke."""
        factory, count = flaky_factory(1, Fault("reset", at_byte=200))
        agent = Agent()
        agent.register(rpc_server(closing, "echo", registry=_echo_registry()), factory)
        client = Client(agent, retry=FAST_RETRY)
        blob = bytes(range(256)) * 8  # 2 KB
        f = io.BytesIO(blob)
        result = client.call_raw("echo", [f])
        assert result.results[0] == blob
        assert count[0] == 2

    def test_connection_lost_is_an_rpc_error(self):
        # Callers catching RpcError keep working; retry loops can still
        # distinguish the retryable subtype.
        assert issubclass(ConnectionLost, RpcError)


def _echo_registry():
    from repro.middleware.services import ServiceRegistry

    reg = ServiceRegistry()
    reg.register("echo", lambda args: list(args))
    return reg


class TestGridFtpRetry:
    def test_store_retrieve_after_control_loss(self, closing):
        server = file_server(closing, chunk_size=32 * 1024)
        client = FileClient(server, retry=FAST_RETRY)
        client.store("a.bin", b"alpha" * 1000)
        # Kill the control channel behind the client's back.
        client.control.close()
        client.store("b.bin", b"beta" * 1000)  # reconnects transparently
        assert client.reconnects == 1
        assert client.retrieve("b.bin") == b"beta" * 1000
        client.quit()

    def test_reconnect_replays_session_state(self, closing):
        server = file_server(closing, chunk_size=32 * 1024)
        client = FileClient(server, retry=FAST_RETRY)
        client.set_mode("ADOC")
        client.set_stripes(2)
        client.control.close()
        data = b"gamma " * 5000
        report = client.store("c.bin", data)
        # The fresh session re-issued MODE/STRIPES before the transfer.
        assert report.mode == "ADOC"
        assert report.stripes == 2
        assert client.retrieve("c.bin") == data
        client.quit()

    def test_no_retry_without_policy(self, closing):
        server = file_server(closing)
        client = FileClient(server)
        client.control.close()
        with pytest.raises((GridFtpError, Exception)):
            client.store("d.bin", b"data")

    def test_control_loss_error_type(self, closing):
        server = file_server(closing)
        client = FileClient(server)
        # Half-close our sending side: the server sees EOF, tears the
        # session down, and the next reply read observes peer EOF.
        client.control.shutdown_write()
        with pytest.raises(ControlConnectionLost):
            client._read_reply()


class TestDepotRetry:
    def test_store_load_after_reset(self, closing):
        depot = ByteArrayDepot(total_capacity=1 << 20)
        factory, count = flaky_factory(1, Fault("reset", at_byte=150))
        agent = Agent()
        agent.register(
            rpc_server(closing, "depot", registry=depot_registry(depot)), factory
        )
        client = DepotClient(agent, retry=FAST_RETRY)
        _handle, read_cap, write_cap = client.allocate(64 * 1024)
        blob = b"stored bytes " * 1000
        stored = client.store(write_cap, blob)
        assert stored == len(blob)
        assert client.load(read_cap, 0, len(blob)) == blob
        assert count[0] >= 2  # at least one reconnect happened
