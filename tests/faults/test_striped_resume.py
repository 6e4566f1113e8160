"""Chaos acceptance: resumable striped transfers over injected faults."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import AdocConfig, RetryPolicy, TransferError
from repro.data import ascii_data
from repro.mover import receive_striped, send_striped
from repro.transport import Fault, FaultyEndpoint, pipe_pair

CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
    fast_network_bps=float("inf"),
    io_timeout_s=2.0,
    join_timeout_s=5.0,
)

FAST_RETRY = RetryPolicy(attempts=4, base_delay=0.005, jitter=0.0, seed=0)


def _spare_connections(n_streams: int, per_stream: int = 2):
    """Pre-built replacement pipe pairs, handed out per stream in order.

    Both sides call their reconnect callback independently; handing out
    the two ends of the *same* pre-built pair keeps them talking.
    """
    spares = {
        i: [pipe_pair() for _ in range(per_stream)] for i in range(n_streams)
    }
    taken_a = {i: 0 for i in range(n_streams)}
    taken_b = {i: 0 for i in range(n_streams)}
    lock = threading.Lock()

    def sender_side(i: int):
        with lock:
            k = taken_a[i]
            taken_a[i] += 1
        return spares[i][k][0]

    def receiver_side(i: int):
        with lock:
            k = taken_b[i]
            taken_b[i] += 1
        return spares[i][k][1]

    return sender_side, receiver_side


class TestStripedResume:
    def test_mid_stream_reset_resumes_byte_identical(self, background):
        """ISSUE acceptance: one mid-stream reset, transfer completes
        after reconnect, payload byte-identical."""
        payload = ascii_data(2 * 1024 * 1024, seed=11)  # 2 MB
        n = 2
        pairs = [pipe_pair() for _ in range(n)]
        # Reset stream 1's sender side deep into the transfer.  Stream 0
        # is left clean so the control header always arrives.
        send_ends = [
            pairs[0][0],
            FaultyEndpoint(pairs[1][0], [Fault("reset", at_byte=200_000)]),
        ]
        recv_ends = [p[1] for p in pairs]
        sender_rc, receiver_rc = _spare_connections(n)

        job = background(
            send_striped,
            send_ends,
            payload,
            64 * 1024,
            CFG,
            sender_rc,
            FAST_RETRY,
        )
        got = receive_striped(recv_ends, CFG, receiver_rc, FAST_RETRY)
        stats = job.join()
        assert got == payload
        assert stats.reconnects == 1
        assert stats.payload_bytes == len(payload)
        # Retransmission costs wire bytes, never payload integrity.
        assert stats.wire_bytes > 0

    def test_two_resets_on_different_streams(self, background):
        payload = ascii_data(2 * 1024 * 1024, seed=12)
        n = 2
        pairs = [pipe_pair() for _ in range(n)]
        # Each stream carries 1 MB of ASCII; even at zlib 9 on every
        # buffer stream 0 puts ~224 KB on the wire, so both resets land
        # mid-stream.
        send_ends = [
            FaultyEndpoint(pairs[0][0], [Fault("reset", at_byte=200_000)]),
            FaultyEndpoint(pairs[1][0], [Fault("reset", at_byte=150_000)]),
        ]
        recv_ends = [p[1] for p in pairs]
        sender_rc, receiver_rc = _spare_connections(n)

        job = background(
            send_striped,
            send_ends,
            payload,
            64 * 1024,
            CFG,
            sender_rc,
            FAST_RETRY,
        )
        got = receive_striped(recv_ends, CFG, receiver_rc, FAST_RETRY)
        stats = job.join()
        assert got == payload
        assert stats.reconnects == 2

    def test_reset_without_reconnect_fails_cleanly(self, background):
        """No reconnect callback: the transfer fails with the stream
        error — bounded, with all worker threads reaped."""
        payload = ascii_data(512 * 1024, seed=13)
        pairs = [pipe_pair() for _ in range(2)]
        send_ends = [
            pairs[0][0],
            FaultyEndpoint(pairs[1][0], [Fault("reset", at_byte=50_000)]),
        ]
        recv_ends = [p[1] for p in pairs]

        job = background(send_striped, send_ends, payload, 64 * 1024, CFG)
        with pytest.raises(Exception):
            receive_striped(recv_ends, CFG)
        with pytest.raises(Exception):
            job.join()

    def test_fault_free_transfer_reports_zero_reconnects(self, background):
        payload = ascii_data(256 * 1024, seed=14)
        pairs = [pipe_pair() for _ in range(2)]
        job = background(
            send_striped, [p[0] for p in pairs], payload, 32 * 1024, CFG
        )
        got = receive_striped([p[1] for p in pairs], CFG)
        stats = job.join()
        assert got == payload
        assert stats.reconnects == 0


class TestStalledStripe:
    def test_stalled_peer_bounded_failure(self, background):
        """ISSUE acceptance: a stalled peer raises TransferError within
        the configured deadline — no hung threads (autouse fixture)."""
        payload = b"s" * (1024 * 1024)
        cfg = AdocConfig(
            buffer_size=16 * 1024,
            packet_size=2 * 1024,
            slice_size=2 * 1024,
            small_message_threshold=8 * 1024,
            probe_size=4 * 1024,
            fast_network_bps=float("inf"),
            io_timeout_s=0.4,
            join_timeout_s=5.0,
        )
        a0, b0 = pipe_pair(capacity=16 * 1024)
        t0 = time.monotonic()
        # The receiver never shows up: the sender's bounded waits must
        # surface a structured TransferError, not park forever.
        with pytest.raises(TransferError):
            send_striped([a0], payload, 64 * 1024, cfg)
        assert time.monotonic() - t0 < 15.0
        a0.close()
        b0.close()
