"""The full stack over real loopback TCP sockets.

Every higher-level subsystem is transport-agnostic through the
``transport_factory`` seam; these tests prove it by running middleware,
depot and gridFTP over genuine TCP connections (the paper's deployment
surface) rather than in-memory pipes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdocConfig
from repro.data import ascii_data, dense_matrix
from repro.depot import ByteArrayDepot, DepotClient, depot_registry
from repro.gridftp import FileClient, FileServer
from repro.middleware import AdocCommunicator, Agent, Client, ReactorRpcServer
from repro.transport import tcp_pair

CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
    fast_network_bps=float("inf"),
)


def adoc_comm(endpoint):
    return AdocCommunicator(endpoint, CFG)


class TestMiddlewareOverTcp:
    def test_dgemm(self):
        agent = Agent()
        server = ReactorRpcServer("tcp-server", config=CFG, mode="adoc", workers=2)
        agent.register(server, tcp_pair)
        try:
            client = Client(agent, communicator_factory=adoc_comm)
            a, b = dense_matrix(24, seed=1), dense_matrix(24, seed=2)
            c = client.call("dgemm", a, b)
            np.testing.assert_allclose(c, a @ b, rtol=1e-9)
        finally:
            server.close()


class TestDepotOverTcp:
    def test_store_load(self):
        depot = ByteArrayDepot()
        agent = Agent()
        server = ReactorRpcServer(
            "tcp-depot",
            registry=depot_registry(depot),
            config=CFG,
            mode="adoc",
            workers=2,
        )
        agent.register(server, tcp_pair)
        try:
            client = DepotClient(agent, communicator_factory=adoc_comm)
            blob = ascii_data(120_000, seed=3)
            _, read_cap, write_cap = client.allocate(len(blob))
            client.store(write_cap, blob)
            assert client.load(read_cap) == blob
        finally:
            server.close()


class TestGridFtpOverTcp:
    def test_store_retrieve_adoc_mode(self):
        server = FileServer(tcp_pair, config=CFG, chunk_size=96 * 1024, workers=2)
        try:
            client = FileClient(server, config=CFG)
            client.set_mode("ADOC")
            client.set_stripes(2)
            data = ascii_data(250_000, seed=4)
            report = client.store("tcp.txt", data)
            assert report.compression_ratio > 1.0
            assert client.retrieve("tcp.txt") == data
            client.quit()
        finally:
            server.close()
