"""gridFTP-lite end to end over in-memory links: STOR/RETR, modes, striping,
errors.  Control pipes are spliced onto the server's reactor."""

from __future__ import annotations

import pytest

from repro.data import ascii_data, incompressible_data, synthetic_tar_bytes
from repro.gridftp import FileClient, GridFtpError

from .conftest import CFG


@pytest.fixture
def server(make_server):
    return make_server(chunk_size=96 * 1024)


@pytest.fixture
def client(server):
    c = FileClient(server, config=CFG)
    yield c
    try:
        c.quit()
    except GridFtpError:
        pass


class TestSession:
    def test_greeting_and_quit(self, server):
        c = FileClient(server, config=CFG)
        c.quit()

    def test_mode_selection(self, client):
        client.set_mode("ADOC")
        assert client.mode == "ADOC"
        client.set_mode("PLAIN")
        assert client.mode == "PLAIN"

    def test_invalid_mode_rejected(self, client):
        with pytest.raises(GridFtpError):
            client._command("MODE TURBO")

    def test_invalid_stripes_rejected(self, client):
        with pytest.raises(GridFtpError):
            client._command("STRIPES 99")

    def test_unknown_command(self, client):
        with pytest.raises(GridFtpError):
            client._command("FROB x")


class TestTransfers:
    @pytest.mark.parametrize("mode", ["PLAIN", "ADOC"])
    @pytest.mark.parametrize("stripes", [1, 3])
    def test_store_retrieve_roundtrip(self, client, mode, stripes):
        client.set_mode(mode)
        client.set_stripes(stripes)
        data = ascii_data(150_000, seed=1)
        report = client.store("a.txt", data)
        assert report.payload_bytes == len(data)
        assert report.stripes == stripes
        assert client.retrieve("a.txt") == data

    def test_adoc_mode_compresses_upload(self, client):
        client.set_mode("ADOC")
        data = ascii_data(200_000, seed=2)
        report = client.store("big.txt", data)
        assert report.compression_ratio > 1.1

    def test_plain_mode_wire_equals_payload(self, client):
        data = ascii_data(100_000, seed=3)
        report = client.store("raw.txt", data)
        assert report.wire_bytes == len(data)
        assert report.compression_ratio == pytest.approx(1.0)

    def test_incompressible_upload_adoc(self, client):
        client.set_mode("ADOC")
        data = incompressible_data(120_000, seed=4)
        report = client.store("rnd.bin", data)
        assert client.retrieve("rnd.bin") == data
        assert report.wire_bytes <= len(data) * 1.03 + 2048

    def test_real_tarball(self, client):
        client.set_mode("ADOC")
        client.set_stripes(2)
        tar = synthetic_tar_bytes(n_members=2, member_size=80_000, seed=5)
        client.store("bin.tar", tar)
        assert client.retrieve("bin.tar") == tar

    def test_empty_file(self, client):
        client.store("empty", b"")
        assert client.retrieve("empty") == b""

    def test_mode_switch_between_transfers(self, client):
        d1 = ascii_data(60_000, seed=6)
        client.store("p.txt", d1)
        client.set_mode("ADOC")
        d2 = ascii_data(60_000, seed=7)
        client.store("q.txt", d2)
        assert client.retrieve("q.txt") == d2
        client.set_mode("PLAIN")
        assert client.retrieve("p.txt") == d1


class TestCatalog:
    def test_list_and_size(self, client):
        assert client.list_files() == {}
        client.store("one.bin", b"12345")
        client.store("two.bin", b"123")
        assert client.list_files() == {"one.bin": 5, "two.bin": 3}
        assert client.size("one.bin") == 5

    def test_missing_file_errors(self, client):
        with pytest.raises(GridFtpError):
            client.retrieve("ghost")
        with pytest.raises(GridFtpError):
            client.size("ghost")


class TestConcurrentSessions:
    def test_two_clients_one_server(self, server):
        c1 = FileClient(server, config=CFG)
        c2 = FileClient(server, config=CFG)
        c1.set_mode("ADOC")
        d1 = ascii_data(90_000, seed=8)
        d2 = ascii_data(70_000, seed=9)
        c1.store("c1.txt", d1)
        c2.store("c2.txt", d2)
        assert c2.retrieve("c1.txt") == d1
        assert c1.retrieve("c2.txt") == d2
        c1.quit()
        c2.quit()


def test_broker_tokens_single_use(server):
    client = FileClient(server, config=CFG)
    data = b"x" * 50_000
    reply = client._command(f"STOR f {len(data)}")
    tokens = reply.text.split()
    ep = server.broker.redeem(tokens[0])
    with pytest.raises(KeyError):
        server.broker.redeem(tokens[0])
    # Clean up: complete the transfer so the pool worker is released.
    from repro.gridftp.transfer import send_data

    send_data([ep], data, "PLAIN", server.chunk_size, CFG)
    client._read_reply()
    client.quit()
