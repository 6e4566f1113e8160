"""Wire-protocol fuzzing: corrupted streams never hang either receiver.

AdOC (like the original library) carries no integrity check of its own
— it trusts TCP's — so corruption of *raw payload* bytes is silently
passed through.  What the framing layer must guarantee is bounded
behaviour: any corruption of *framing or compressed* bytes either
raises a protocol/codec error or yields different bytes; it never
deadlocks the pipeline and never fabricates a successful longer read.
Every wire goes to both receive drivers — the blocking
:class:`~repro.core.receiver.ReceiverPipeline` and the reactor's
:class:`~repro.serve.channel.AdocChannel` — which must agree on the
verdict.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdocConfig, MessageSender, ReceiverPipeline
from repro.serve.channel import AdocChannel
from repro.serve.pool import WorkerPool
from repro.serve.reactor import Reactor
from repro.transport import pipe_pair, socketpair_endpoints
from repro.transport.base import sendall

CFG = AdocConfig(
    buffer_size=8 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=4 * 1024,
    probe_size=2 * 1024,
    fast_network_bps=float("inf"),
)


def capture_wire_bytes(data: bytes) -> bytes:
    """Record the exact wire bytes AdOC produces for ``data``."""

    class Recorder:
        def __init__(self):
            self.buf = bytearray()

        def send(self, chunk):
            self.buf += bytes(chunk)
            return len(chunk)

        def recv(self, n):  # pragma: no cover - sender never reads
            return b""

        def close(self):
            pass

        def shutdown_write(self):
            pass

    rec = Recorder()
    MessageSender(rec, CFG).send(data)
    return bytes(rec.buf)


def feed_receiver(wire: bytes, expected_len: int, timeout: float = 20.0):
    """Feed ``wire`` to a receiver; returns ('ok'|'error'|'eof', bytes)."""
    a, b = pipe_pair()
    receiver = ReceiverPipeline(b, CFG)

    def feed():
        try:
            sendall(a, wire)
        finally:
            a.close()

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    out = bytearray()
    verdict = "ok"
    try:
        while len(out) < expected_len:
            chunk = receiver.read(expected_len - len(out))
            if not chunk:
                verdict = "eof"
                break
            out += chunk
    except Exception:
        verdict = "error"
    feeder.join(timeout=timeout)
    receiver.close()
    return verdict, bytes(out)


@pytest.fixture(scope="module")
def loop():
    reactor = Reactor(name="fuzz")
    pool = WorkerPool(workers=2, max_pending=64, name="fuzz-pool")
    reactor.run_in_thread()
    yield reactor, pool
    reactor.close()
    pool.close()


def feed_channel(loop, wire: bytes, expected_len: int, timeout: float = 20.0):
    """Feed ``wire`` to an AdocChannel; the same verdict as feed_receiver."""
    reactor, pool = loop
    a, b = socketpair_endpoints()
    out = bytearray()
    closed = threading.Event()
    errors: list[BaseException | None] = []
    channel = AdocChannel(reactor, b, pool, CFG)
    channel.on_data = out.extend
    channel.on_close = lambda exc: (errors.append(exc), closed.set())
    reactor.call_soon_threadsafe(channel.open)
    try:
        sendall(a, wire)
    except OSError:
        pass  # the channel failed and hung up first
    a.close()
    assert closed.wait(timeout), "the channel hung"
    assert len(out) <= expected_len, "longer read than the wire holds"
    if len(out) >= expected_len:
        return "ok", bytes(out)
    return ("eof" if errors[0] is None else "error"), bytes(out)


def both_drivers(loop, wire: bytes, expected_len: int):
    """One verdict from the two receive drivers, which must agree."""
    verdict, out = feed_receiver(wire, expected_len)
    channel_verdict, channel_out = feed_channel(loop, wire, expected_len)
    assert channel_verdict == verdict, (verdict, channel_verdict)
    if verdict == "ok":
        assert channel_out == out
    return verdict, out


@settings(max_examples=25, deadline=None)
@given(
    flip_at=st.integers(min_value=0, max_value=10_000),
    xor=st.integers(min_value=1, max_value=255),
)
def test_single_byte_corruption_bounded(loop, flip_at, xor):
    from repro.data import ascii_data

    data = ascii_data(20_000, seed=1)
    wire = bytearray(capture_wire_bytes(data))
    flip_at %= len(wire)
    wire[flip_at] ^= xor
    verdict, out = both_drivers(loop, bytes(wire), len(data))
    # Bounded behaviour: error, truncation, or byte-different output.
    if verdict == "ok" and out == data:
        # The flipped byte must have been neutral (e.g. inside a length
        # field high byte that wrapped to the same framing) — possible
        # only if the stream re-synchronised exactly; verify at least
        # that we didn't "succeed" by reading past the wire.
        assert len(out) == len(data)
    else:
        assert verdict in ("error", "eof") or out != data


@settings(max_examples=20, deadline=None)
@given(cut=st.integers(min_value=1, max_value=10_000))
def test_truncated_stream_never_hangs(loop, cut):
    from repro.data import binary_data

    data = binary_data(15_000, seed=2)
    wire = capture_wire_bytes(data)
    cut %= len(wire)
    verdict, out = both_drivers(loop, wire[:cut], len(data))
    assert verdict in ("error", "eof")
    assert len(out) < len(data)


@settings(max_examples=20, deadline=None)
@given(junk=st.binary(min_size=1, max_size=512))
def test_pure_junk_never_hangs(loop, junk):
    verdict, out = both_drivers(loop, junk, 1000)
    assert verdict in ("error", "eof")
