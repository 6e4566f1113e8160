"""Trace-context propagation across the RPC boundary.

The client stamps every request with a trace/span id (when telemetry is
enabled); the server adopts it while handling, so both sides' events
carry the same ``trace`` arg — the join key ``adoc trace merge`` uses
to line up one call across two processes' timelines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.middleware import Agent, Client
from repro.middleware.protocol import MsgType, RpcMessage
from repro.middleware.server import ReactorRpcServer
from repro.obs import Telemetry, set_active_telemetry
from repro.transport import pipe_pair

from .conftest import call, connect


@pytest.fixture
def make_stack(servers):
    """``make_stack(cls)`` -> (blocking client, server) over a pipe.  The
    server resolves telemetry when built: build it after ``traced``."""

    def make(cls=ReactorRpcServer):
        agent = Agent()
        agent.register(server := servers("s1", cls=cls), pipe_pair)
        return Client(agent), server

    return make


@pytest.fixture
def traced():
    """An enabled telemetry handle, process-wide for the test."""
    tele = Telemetry(enabled=True)
    set_active_telemetry(tele)
    yield tele
    set_active_telemetry(None)


class TestBlockingPath:
    """A blocking client on an in-memory link to the reactor server."""

    def test_client_and_server_events_share_one_trace(self, traced, make_stack):
        client, _ = make_stack()
        client.call("transpose", np.ones((8, 8)))
        sides = {e.args["side"]: e for e in traced.tracer.events("rpc")}
        assert set(sides) == {"client", "server"}
        trace = sides["client"].args["trace"]
        assert len(trace) == 32
        assert sides["server"].args["trace"] == trace
        # The server-side event names the client's span.
        assert sides["server"].args["span"] == sides["client"].args["span"]

    def test_distinct_calls_get_distinct_traces(self, traced, make_stack):
        client, _ = make_stack()
        m = np.ones((4, 4))
        client.call("transpose", m)
        client.call("transpose", m)
        traces = {
            e.args["trace"]
            for e in traced.tracer.events("rpc")
            if e.args["side"] == "client"
        }
        assert len(traces) == 2

    def test_caller_context_is_restored_after_call(self, traced, make_stack):
        traced.tracer.set_trace("f" * 32)
        client, _ = make_stack()
        client.call("transpose", np.ones((4, 4)))
        assert traced.tracer.current_trace() == "f" * 32
        # An existing context is propagated, not replaced.
        client_events = [
            e for e in traced.tracer.events("rpc") if e.args["side"] == "client"
        ]
        assert all(e.args["trace"] == "f" * 32 for e in client_events)

    def test_disabled_telemetry_keeps_legacy_wire(self, make_stack):
        """With telemetry off the client must not attach trace context —
        the request goes out under the byte-identical legacy header."""
        set_active_telemetry(None)
        seen: list[RpcMessage] = []

        class Spy(ReactorRpcServer):
            def _execute(self, msg):
                seen.append(msg)
                return super()._execute(msg)

        client, _ = make_stack(Spy)
        client.call("transpose", np.ones((4, 4)))
        (msg,) = seen
        assert msg.trace_id is None and msg.span_id is None


class TestReactorPath:
    def test_reply_echoes_trace_and_server_adopts_it(self, servers, closing):
        tele = Telemetry(enabled=True)
        comm = closing(connect(servers("traced", telemetry=tele).listen(), "plain"))
        trace = "ab" * 16
        span = "cd" * 8
        reply = call(comm, "echo", [b"ping"], trace_id=trace, span_id=span)
        assert reply.type == MsgType.RESPONSE
        assert reply.trace_id == trace
        assert reply.span_id == span
        server_rpc = [
            e for e in tele.tracer.events("rpc") if e.args.get("side") == "server"
        ]
        assert server_rpc, "server never recorded the adopted trace"
        assert server_rpc[0].args["trace"] == trace
        assert server_rpc[0].args["span"] == span

    def test_error_reply_echoes_trace(self, servers, closing):
        trace = "11" * 16
        comm = closing(connect(servers("traced-err").listen(), "plain"))
        reply = call(comm, "no-such-service", [], trace_id=trace)
        assert reply.type == MsgType.ERROR
        assert reply.trace_id == trace
