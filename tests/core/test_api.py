"""The seven-function API: POSIX semantics, descriptors, partial reads."""

from __future__ import annotations

import io
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ADOC_MIN_LEVEL,
    AdocConfig,
    AdocSocket,
    adoc_attach,
    adoc_close,
    adoc_detach,
    adoc_read,
    adoc_receive_file,
    adoc_send_file,
    adoc_send_file_levels,
    adoc_write,
    adoc_write_levels,
)
from repro.data import ascii_data
from repro.transport import pipe_pair, socketpair_endpoints

CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
    fast_network_bps=float("inf"),
    # These tests document the paper's original two-thread pipeline:
    # with an in-process pipe the consumer is effectively infinitely
    # fast, and the queue buildup that makes the Figure-2 ladder climb
    # here comes from the inline thread's tight produce loop.  The
    # pooled dispatcher (the default) is exercised separately in
    # test_pooled_compression.py with controlled-speed endpoints.
    compress_workers=0,
)


@pytest.fixture
def conn(background):
    """Two attached descriptors over a pipe pair."""
    a, b = pipe_pair()
    fd_a = adoc_attach(a, CFG)
    fd_b = adoc_attach(b, CFG)
    yield fd_a, fd_b
    for fd in (fd_a, fd_b):
        try:
            adoc_close(fd)
        except ValueError:
            pass


class TestWriteRead:
    def test_write_returns_nbytes_and_slen(self, conn, background):
        fd_a, fd_b = conn
        data = ascii_data(50_000, seed=1)
        bg = background(adoc_write, fd_a, data)
        out = bytearray()
        while len(out) < len(data):
            chunk = adoc_read(fd_b, len(data) - len(out))
            assert chunk
            out += chunk
        nbytes, slen = bg.join()
        assert nbytes == len(data)
        assert slen < nbytes  # compression engaged
        assert bytes(out) == data

    def test_partial_reads_reassemble(self, conn, background):
        """The paper's example: send 100 (k)B, read 60 then 40."""
        fd_a, fd_b = conn
        data = ascii_data(100_000, seed=2)
        bg = background(adoc_write, fd_a, data)
        part1 = bytearray()
        while len(part1) < 60_000:
            part1 += adoc_read(fd_b, 60_000 - len(part1))
        part2 = bytearray()
        while len(part2) < 40_000:
            part2 += adoc_read(fd_b, 40_000 - len(part2))
        bg.join()
        assert bytes(part1 + part2) == data

    def test_reads_span_message_boundaries(self, conn, background):
        fd_a, fd_b = conn
        bg1 = background(adoc_write, fd_a, b"first-")
        bg2 = None
        out = bytearray()
        while len(out) < 6:
            out += adoc_read(fd_b, 6 - len(out))
        bg1.join()
        bg2 = background(adoc_write, fd_a, b"second")
        while len(out) < 12:
            out += adoc_read(fd_b, 12 - len(out))
        bg2.join()
        assert bytes(out) == b"first-second"

    def test_memoryview_and_bytearray_accepted(self, conn, background):
        fd_a, fd_b = conn
        data = bytearray(b"mutable payload")
        bg = background(adoc_write, fd_a, memoryview(data))
        got = bytearray()
        while len(got) < len(data):
            got += adoc_read(fd_b, len(data) - len(got))
        bg.join()
        assert got == data

    def test_read_zero_or_negative_returns_empty(self, conn):
        _, fd_b = conn
        assert adoc_read(fd_b, 0) == b""


class TestLevels:
    def test_write_levels_disable(self, conn, background):
        fd_a, fd_b = conn
        data = ascii_data(50_000, seed=3)
        bg = background(adoc_write_levels, fd_a, data, ADOC_MIN_LEVEL, ADOC_MIN_LEVEL)
        out = bytearray()
        while len(out) < len(data):
            out += adoc_read(fd_b, len(data) - len(out))
        nbytes, slen = bg.join()
        assert bytes(out) == data
        assert slen >= nbytes  # raw + framing

    def test_write_levels_force(self, conn, background):
        fd_a, fd_b = conn
        data = b"z" * 4000  # small, but forced
        bg = background(adoc_write_levels, fd_a, data, 1, 10)
        out = bytearray()
        while len(out) < len(data):
            out += adoc_read(fd_b, len(data) - len(out))
        nbytes, slen = bg.join()
        assert bytes(out) == data
        assert slen < nbytes

    def test_invalid_levels_rejected(self, conn):
        fd_a, _ = conn
        with pytest.raises(ValueError):
            adoc_write_levels(fd_a, b"x", 5, 3)


class TestFiles:
    def test_send_receive_file(self, conn, background):
        fd_a, fd_b = conn
        data = ascii_data(80_000, seed=4)
        bg = background(adoc_send_file, fd_a, io.BytesIO(data))
        sink = io.BytesIO()
        stored = adoc_receive_file(fd_b, sink)
        size, slen = bg.join()
        assert size == len(data)
        assert stored == len(data)
        assert sink.getvalue() == data
        assert size / slen > 1.1  # the paper's ratio definition

    def test_send_file_levels_disable(self, conn, background):
        fd_a, fd_b = conn
        data = ascii_data(30_000, seed=5)
        bg = background(
            adoc_send_file_levels, fd_a, io.BytesIO(data), ADOC_MIN_LEVEL, ADOC_MIN_LEVEL
        )
        sink = io.BytesIO()
        stored = adoc_receive_file(fd_b, sink)
        size, slen = bg.join()
        assert stored == len(data) and sink.getvalue() == data
        assert slen >= size

    def test_two_files_back_to_back(self, conn, background):
        fd_a, fd_b = conn
        f1 = ascii_data(30_000, seed=6)
        f2 = ascii_data(20_000, seed=7)
        bg1 = background(adoc_send_file, fd_a, io.BytesIO(f1))
        s1 = io.BytesIO()
        assert adoc_receive_file(fd_b, s1) == len(f1)
        bg1.join()
        bg2 = background(adoc_send_file, fd_a, io.BytesIO(f2))
        s2 = io.BytesIO()
        assert adoc_receive_file(fd_b, s2) == len(f2)
        bg2.join()
        assert s1.getvalue() == f1 and s2.getvalue() == f2


class TestDescriptors:
    def test_unknown_descriptor_raises(self):
        with pytest.raises(ValueError):
            adoc_write(999_999_999, b"x")
        with pytest.raises(ValueError):
            adoc_read(999_999_999, 1)
        with pytest.raises(ValueError):
            adoc_close(999_999_999)

    def test_close_frees_descriptor(self):
        a, b = pipe_pair()
        fd = adoc_attach(a, CFG)
        assert adoc_close(fd) == 0
        with pytest.raises(ValueError):
            adoc_close(fd)
        b.close()

    def test_detach_returns_endpoint_unclosed(self):
        a, b = pipe_pair()
        fd = adoc_attach(a, CFG)
        ep = adoc_detach(fd)
        assert ep is a
        # Endpoint still usable raw.
        ep.send(b"raw")
        assert b.recv(3) == b"raw"
        a.close()
        b.close()

    def test_attach_accepts_raw_socket(self, background):
        import socket as socketlib

        s1, s2 = socketlib.socketpair()
        fd_a = adoc_attach(s1, CFG)
        fd_b = adoc_attach(s2, CFG)
        bg = background(adoc_write, fd_a, b"over a real socket")
        out = bytearray()
        while len(out) < 18:
            out += adoc_read(fd_b, 18 - len(out))
        bg.join()
        assert bytes(out) == b"over a real socket"
        adoc_close(fd_a)
        adoc_close(fd_b)


class TestAdocSocketWrapper:
    def test_context_manager_roundtrip(self, background):
        a, b = pipe_pair()
        with AdocSocket(a, CFG) as tx, AdocSocket(b, CFG) as rx:
            bg = background(tx.write, b"wrapped")
            assert rx.read_exact(7) == b"wrapped"
            bg.join()

    def test_read_exact_stops_at_eof(self, background):
        a, b = pipe_pair()
        tx, rx = AdocSocket(a, CFG), AdocSocket(b, CFG)
        bg = background(tx.write, b"short")
        bg.join()
        a.close()  # EOF after one message
        assert rx.read_exact(100) == b"short"
        rx.close()

    def test_close_wakes_a_reader_blocked_on_a_socket(self):
        """close() must not wait out join_timeout_s on a parked recv()."""
        a, b = socketpair_endpoints()
        rx = AdocSocket(a, replace(CFG, join_timeout_s=3.0))
        got: list[bytes] = []
        reader = threading.Thread(
            target=lambda: got.append(rx.read(10)),
            name="blocked-reader",
            daemon=True,
        )
        reader.start()
        time.sleep(0.2)  # let the reception thread park in recv()
        t0 = time.monotonic()
        rx.close()
        elapsed = time.monotonic() - t0
        reader.join(5.0)
        b.close()
        assert elapsed < 1.0, f"close took {elapsed:.2f}s"
        assert not reader.is_alive()
        assert got == [b""]


@settings(max_examples=20, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=30_000),
    chunks=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=8),
)
def test_any_read_chunking_reassembles_stream(data, chunks):
    """Property: POSIX read semantics — arbitrary read sizes recombine
    the byte stream exactly, independent of write-side framing."""
    a, b = pipe_pair()
    tx, rx = AdocSocket(a, CFG), AdocSocket(b, CFG)
    err = []

    def send():
        try:
            tx.write(data)
        except BaseException as exc:  # noqa: BLE001
            err.append(exc)

    t = threading.Thread(target=send, daemon=True)
    t.start()
    out = bytearray()
    i = 0
    while len(out) < len(data):
        want = min(chunks[i % len(chunks)], len(data) - len(out))
        chunk = rx.read(want)
        assert chunk, "premature EOF"
        assert len(chunk) <= want
        out += chunk
        i += 1
    t.join(timeout=30)
    assert not err
    assert bytes(out) == data
    tx.close()
    rx.close()
