"""FileServer over sockets: control sessions on the reactor, TCP listener."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.data import ascii_data
from repro.gridftp.client import FileClient, GridFtpError
from repro.transport import FaultyEndpoint, pipe_pair, socketpair_endpoints

from .conftest import CFG


@pytest.fixture
def server(make_server):
    return make_server(socketpair_endpoints)


def test_store_and_retrieve_plain(server):
    client = FileClient(server, config=CFG)
    payload = ascii_data(200 * 1024, seed=1)
    client.store("data.txt", payload)
    assert client.retrieve("data.txt") == payload
    assert server.files["data.txt"] == payload
    client.quit()


def test_store_and_retrieve_adoc_striped(server):
    client = FileClient(server, config=CFG)
    client.set_mode("ADOC")
    client.set_stripes(2)
    payload = ascii_data(400 * 1024, seed=2)
    client.store("big.txt", payload)
    assert client.retrieve("big.txt") == payload
    client.quit()


def test_listing_and_size(server):
    client = FileClient(server, config=CFG)
    client.store("a.bin", b"x" * 100)
    client.store("b.bin", b"y" * 200)
    listing = client.list_files()
    assert listing == {"a.bin": 100, "b.bin": 200}
    client.quit()


def test_concurrent_sessions_share_one_loop(server):
    clients = [FileClient(server, config=CFG) for _ in range(4)]
    payloads = [ascii_data(50 * 1024, seed=i) for i in range(4)]
    threads = [
        threading.Thread(
            target=client.store,
            args=(f"f{i}.bin", payloads[i]),
            name=f"store-{i}",
        )
        for i, client in enumerate(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
        assert not t.is_alive()
    for i, client in enumerate(clients):
        assert client.retrieve(f"f{i}.bin") == payloads[i]
        client.quit()
    assert server.transfers == 8


def test_mode_state_is_per_session(server):
    adoc_client = FileClient(server, config=CFG)
    plain_client = FileClient(server, config=CFG)
    adoc_client.set_mode("ADOC")
    payload = ascii_data(60 * 1024, seed=7)
    adoc_client.store("adoc.bin", payload)
    assert plain_client.retrieve("adoc.bin") == payload  # plain session
    adoc_client.quit()
    plain_client.quit()


def test_unknown_command_gets_502(server):
    client = FileClient(server, config=CFG)
    with pytest.raises(GridFtpError, match="502"):
        client._command("NOPE")
    # The session survives the refusal.
    assert client.list_files() == {}
    client.quit()


def test_tcp_listen_serves_the_same_protocol(server):
    with socket.create_connection(server.listen("127.0.0.1", 0), timeout=10.0) as sock:
        fh = sock.makefile("rb")
        assert fh.readline().startswith(b"220")
        sock.sendall(b"LIST\r\n")
        assert fh.readline().startswith(b"200")
        sock.sendall(b"QUIT\r\n")
        assert fh.readline().startswith(b"221")


def test_fault_wrapped_control_pipe_is_spliced(make_server):
    def factory():
        client_end, server_end = pipe_pair()
        return client_end, FaultyEndpoint(server_end)

    client = FileClient(make_server(factory), config=CFG)
    client.store("f.txt", b"spliced control")
    assert client.retrieve("f.txt") == b"spliced control"
    client.quit()
