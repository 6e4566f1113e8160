"""Property tests: conduits preserve the byte stream under any chunking."""

from __future__ import annotations

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport import ByteConduit, LinkScheduler, pipe_pair, shaped_pair
from repro.transport.base import recv_exact, sendall
from repro.transport.shaping import ShapedConduit


@settings(max_examples=50, deadline=None)
@given(
    writes=st.lists(st.binary(min_size=1, max_size=300), min_size=1, max_size=20),
    read_sizes=st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=10),
)
def test_conduit_stream_integrity(writes, read_sizes):
    """Any write chunking + any read chunking = the same byte stream."""
    c = ByteConduit(capacity=1 << 20)
    expected = b"".join(writes)
    for w in writes:
        assert c.write(w) == len(w)  # capacity never hit here
    c.close_write()
    out = bytearray()
    i = 0
    while True:
        chunk = c.read(read_sizes[i % len(read_sizes)])
        if not chunk:
            break
        out += chunk
        i += 1
    assert bytes(out) == expected


@settings(max_examples=25, deadline=None)
@given(
    payload=st.binary(min_size=1, max_size=20_000),
    capacity=st.integers(min_value=16, max_value=4096),
)
def test_pipe_backpressure_preserves_stream(payload, capacity):
    """Tiny capacities force many blocking cycles; bytes still arrive
    intact and in order."""
    a, b = pipe_pair(capacity=capacity)
    t = threading.Thread(target=sendall, args=(a, payload), daemon=True)
    t.start()
    got = recv_exact(b, len(payload))
    t.join(timeout=30)
    assert not t.is_alive()
    assert got == payload
    a.close()
    b.close()


@settings(max_examples=10, deadline=None)
@given(
    payload=st.binary(min_size=1, max_size=30_000),
    seed=st.integers(min_value=0, max_value=100),
)
def test_shaped_link_preserves_stream(payload, seed):
    """Shaping (MTU chopping + timed delivery) never reorders or drops."""
    a, b = shaped_pair(
        bandwidth_bps=800e6, latency_s=1e-5, buffer_bytes=8 * 1024, seed=seed
    )
    t = threading.Thread(target=sendall, args=(a, payload), daemon=True)
    t.start()
    got = recv_exact(b, len(payload))
    t.join(timeout=30)
    assert got == payload
    a.close()
    b.close()


class _BillingScheduler(LinkScheduler):
    """Records every size the conduit bills to the link."""

    def __init__(self) -> None:
        super().__init__(bandwidth_bps=8e12, latency_s=0.0)
        self.billed: list[int] = []

    def schedule_all(self, sizes, now=None):
        self.billed += sizes
        return super().schedule_all(sizes, now)


@settings(max_examples=50, deadline=None)
@given(
    writes=st.lists(st.integers(min_value=1, max_value=6000), min_size=1, max_size=10),
    read_size=st.integers(min_value=64, max_value=4096),
    capacity=st.integers(min_value=256, max_value=8192),
    mtu=st.integers(min_value=64, max_value=3000),
)
def test_shaped_conduit_bills_exactly_the_accepted_bytes(writes, read_size, capacity, mtu):
    """Short writes included, the link is billed once per byte it carries."""
    sched = _BillingScheduler()
    c = ShapedConduit(sched, capacity=capacity, mtu=mtu)
    got = bytearray()

    def drain() -> None:
        while chunk := c.read(read_size):
            got.extend(chunk)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    sent = bytearray()
    try:
        for i, size in enumerate(writes):
            data = bytes([i % 251]) * size
            while data:
                accepted = c.write(data)
                sent += data[:accepted]
                data = data[accepted:]
                assert sum(sched.billed) == len(sent)
    finally:
        c.close_write()  # the reader ends at EOF, pass or fail
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert all(0 < n <= mtu for n in sched.billed)
    assert bytes(got) == bytes(sent)
