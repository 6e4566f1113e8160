"""Depot over the wire — the paper's IBP integration, end to end.

The decisive test is the last one: multiple client threads driving AdOC
connections into one depot concurrently ("IBP uses multiple threads to
store or retrieve data from data handlers.  It works without error.").
"""

from __future__ import annotations

import threading

import pytest

from repro.core import AdocConfig
from repro.data import ascii_data, incompressible_data
from repro.depot import ByteArrayDepot, DepotClient, depot_registry
from repro.middleware import (
    AdocCommunicator,
    Agent,
    PlainCommunicator,
    ReactorRpcServer,
    RpcError,
)
from repro.transport import pipe_pair

SMALL_CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
    fast_network_bps=float("inf"),
)


def adoc_comm(endpoint):
    return AdocCommunicator(endpoint, SMALL_CFG)


@pytest.fixture
def depot_agent(closing):
    """``depot_agent(depot, mode)`` -> an agent with one depot server."""

    def make(depot: ByteArrayDepot, mode: str = "adoc") -> Agent:
        server = ReactorRpcServer(
            "depot-1", depot_registry(depot), SMALL_CFG, mode, workers=2
        )
        agent = Agent()
        agent.register(closing(server), pipe_pair)
        return agent

    return make


@pytest.fixture(params=["plain", "adoc"])
def stack(request, depot_agent):
    comm = PlainCommunicator if request.param == "plain" else adoc_comm
    depot = ByteArrayDepot(total_capacity=32 * 1024 * 1024)
    agent = depot_agent(depot, request.param)
    return DepotClient(agent, communicator_factory=comm), depot


class TestRemoteOps:
    def test_allocate_store_load(self, stack):
        client, _ = stack
        _, read_cap, write_cap = client.allocate(100_000)
        blob = ascii_data(60_000, seed=1)
        assert client.store(write_cap, blob) == len(blob)
        assert client.load(read_cap) == blob

    def test_store_stream(self, stack):
        import io

        client, _ = stack
        _, read_cap, write_cap = client.allocate(100_000)
        blob = ascii_data(60_000, seed=9)
        assert client.store_stream(write_cap, io.BytesIO(blob)) == len(blob)
        assert client.load(read_cap) == blob

    def test_partial_range_load(self, stack):
        client, _ = stack
        _, read_cap, write_cap = client.allocate(1000)
        client.store(write_cap, bytes(range(256)) * 3)
        assert client.load(read_cap, offset=256, length=256) == bytes(range(256))

    def test_probe_and_free(self, stack):
        client, depot = stack
        _, read_cap, write_cap = client.allocate(512)
        client.store(write_cap, b"xyz")
        assert client.probe(read_cap) == (3, 512)
        client.free(write_cap)
        assert depot.allocation_count == 0

    def test_remote_errors_propagate(self, stack):
        client, _ = stack
        _, read_cap, write_cap = client.allocate(10)
        with pytest.raises(RpcError, match="capacity"):
            client.store(write_cap, b"x" * 11)
        with pytest.raises(RpcError, match="capability"):
            client.load("R-bogus")


class TestAdocCompressionOnStorePath:
    def test_compressible_store_shrinks_on_wire(self, depot_agent):
        depot = ByteArrayDepot()
        agent = depot_agent(depot)
        client = DepotClient(agent, communicator_factory=adoc_comm)
        _, read_cap, write_cap = client.allocate(400_000)
        blob = ascii_data(300_000, seed=2)
        res = client.store_timed(write_cap, blob)
        # Over an unshaped (very fast) pipe the controller rightly
        # favours low levels; engaging compression at all is the check.
        assert res.compression_ratio > 1.15
        assert client.load(read_cap) == blob

    def test_incompressible_store_not_inflated(self, depot_agent):
        depot = ByteArrayDepot()
        agent = depot_agent(depot)
        client = DepotClient(agent, communicator_factory=adoc_comm)
        _, read_cap, write_cap = client.allocate(300_000)
        blob = incompressible_data(200_000, seed=3)
        res = client.store_timed(write_cap, blob)
        assert res.request_wire_bytes <= len(blob) * 1.02 + 2048
        assert client.load(read_cap) == blob


def test_ibp_style_concurrent_movers(depot_agent):
    """Many threads, one depot, AdOC communicators everywhere."""
    depot = ByteArrayDepot(total_capacity=64 * 1024 * 1024)
    agent = depot_agent(depot)
    errors: list[BaseException] = []

    def mover(i: int) -> None:
        try:
            client = DepotClient(agent, communicator_factory=adoc_comm)
            blob = ascii_data(40_000 + i * 1000, seed=i)
            _, read_cap, write_cap = client.allocate(len(blob))
            client.store(write_cap, blob)
            assert client.load(read_cap) == blob, f"mover {i} corrupted"
            client.free(write_cap)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=mover, args=(i,), daemon=True) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "mover hung"
    assert not errors, errors
    assert depot.allocation_count == 0
