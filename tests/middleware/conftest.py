"""Shared config, server fixture and wire helpers for the middleware tests."""

from __future__ import annotations

import socket

import pytest

from repro.core import AdocConfig
from repro.middleware import AdocCommunicator, PlainCommunicator, ReactorRpcServer
from repro.middleware.protocol import MsgType, RpcMessage, read_message, write_message
from repro.transport import SocketEndpoint

#: AdOC config that exercises the pipeline even on tiny test matrices.
CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
    fast_network_bps=float("inf"),
)


@pytest.fixture
def servers(closing):
    """``servers(name, **kwargs)``: a small-config server closed at teardown."""
    return lambda name, cls=ReactorRpcServer, **kwargs: closing(
        cls(name, **{"config": CFG, "workers": 2, **kwargs})
    )


def connect(address, mode):
    """A blocking client communicator dialled to a listening server."""
    endpoint = SocketEndpoint(socket.create_connection(address, timeout=10.0))
    return AdocCommunicator(endpoint, CFG) if mode == "adoc" else PlainCommunicator(endpoint)


def call(comm, name, args, **trace):
    """One request/reply round trip through a blocking communicator."""
    write_message(comm, RpcMessage(MsgType.REQUEST, name, args, **trace))
    reply = read_message(comm)
    assert reply is not None
    return reply
