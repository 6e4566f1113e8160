"""A probe that fails while buffer 0 compresses behind it.

The blocking sender compresses a probed message's first buffer while the
probe is on the wire.  When the probe's send fails, the send call must
raise what it raised before that overlap existed, and return only once
the codec job holding the caller's borrowed buffer has completed, with
no compression thread left behind.  A probe that keeps moving is not
a stall, however long it takes in all.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

import repro.core.sender as sender_mod
from repro.core import AdocConfig, DeadlineExceeded
from repro.core.sender import MessageSender
from repro.data import ascii_data
from repro.transport import TransportClosed, pipe_pair
from repro.transport.faults import Fault, FaultyEndpoint

#: A 64 KB probe in four raw records; the gate opens after ~1 ms of it.
CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=64 * 1024,
    probe_size=64 * 1024,
    io_timeout_s=0.3,
    join_timeout_s=5.0,
)
PAYLOAD = b"compressible " * 20_000
CODEC_S = 0.6


@pytest.fixture
def slow_codec(monkeypatch):
    """A codec whose jobs take :data:`CODEC_S`; records (start, end) per job."""
    jobs: list[list[float]] = []
    real = sender_mod.compress_buffer

    def slow(buf, level, guard, config):
        job = [time.monotonic()]
        jobs.append(job)
        time.sleep(CODEC_S)
        try:
            return real(buf, level, guard, config)
        finally:
            job.append(time.monotonic())

    monkeypatch.setattr(sender_mod, "compress_buffer", slow)
    return jobs


def drained(endpoint) -> threading.Thread:
    def run() -> None:
        try:
            while endpoint.recv(65536):
                pass
        except Exception:  # noqa: BLE001 - the sender reset the link
            pass

    reader = threading.Thread(target=run, name="test-drain", daemon=True)
    reader.start()
    return reader


def send_expecting(sender: MessageSender, error: type) -> tuple[BaseException, float]:
    with pytest.raises(error) as info:
        sender.send(PAYLOAD)
    return info.value, time.monotonic()


def no_compression_thread() -> bool:
    return not any(t.name == "adoc-compress" for t in threading.enumerate())


@pytest.mark.parametrize("workers", [0, 2], ids=["inline", "pooled"])
def test_a_reset_probe_waits_for_buffer0s_job(slow_codec, workers):
    a, b = pipe_pair(capacity=1 << 20)
    # The stall keeps the probe on the wire past the gate; the reset
    # lands in its third record, while buffer 0 is on the codec.
    faulty = FaultyEndpoint(
        a, [Fault("stall", at_byte=100, duration_s=0.1), Fault("reset", at_byte=40_000)]
    )
    reader = drained(b)
    sender = MessageSender(faulty, replace(CFG, compress_workers=workers))
    exc, returned = send_expecting(sender, TransportClosed)
    assert "injected reset" in str(exc)
    assert [f.kind for f in faulty.fired] == ["stall", "reset"]
    (job,) = slow_codec
    assert len(job) == 2 and job[1] <= returned
    assert no_compression_thread()
    reader.join(5)
    b.close()


@pytest.mark.parametrize("workers", [0, 2], ids=["inline", "pooled"])
def test_a_stalled_probe_raises_the_deadline_after_buffer0s_job(slow_codec, workers):
    a, b = pipe_pair(capacity=8 * 1024)  # nobody reads: the probe stalls
    sender = MessageSender(a, replace(CFG, compress_workers=workers))
    t0 = time.monotonic()
    exc, returned = send_expecting(sender, DeadlineExceeded)
    assert exc.stage == "send"
    (job,) = slow_codec
    assert len(job) == 2 and job[1] <= returned
    assert returned - t0 >= CODEC_S
    assert no_compression_thread()
    a.close()
    b.close()


class Trickle:
    """A link that takes at most ``chunk`` bytes per send, ``delay_s`` each."""

    def __init__(self, chunk: int, delay_s: float) -> None:
        self.chunk = chunk
        self.delay_s = delay_s
        self.wire = bytearray()

    def send(self, data) -> int:
        return self.send_vectors([data])

    def send_vectors(self, buffers) -> int:
        time.sleep(self.delay_s)
        taken = 0
        for buf in buffers:
            part = bytes(buf[: self.chunk - taken])
            self.wire += part
            taken += len(part)
            if taken == self.chunk:
                break
        return taken


@pytest.mark.parametrize("workers", [0, 2], ids=["inline", "pooled"])
def test_a_probe_that_keeps_moving_outlasts_io_timeout(workers):
    # 16 KB every 50 ms: the 256 KB probe takes ~0.8 s, no send call
    # comes near the 0.3 s bound, and buffer 0 compresses behind it.
    from repro.core import ReceiverPipeline
    from repro.obs.telemetry import Telemetry

    tele = Telemetry(enabled=True)
    cfg = AdocConfig(io_timeout_s=0.3, compress_workers=workers, telemetry=tele)
    link = Trickle(16 * 1024, 0.05)
    payload = ascii_data(1_000_000, seed=21)
    t0 = time.monotonic()
    result = MessageSender(link, cfg).send(payload)
    assert time.monotonic() - t0 > 2 * cfg.io_timeout_s
    assert result.pipeline_used and not result.fast_path
    (probe,) = tele.tracer.events("probe")
    assert probe.args["overlap_level"] == 2  # buffer 0 compressed behind it
    a, b = pipe_pair(capacity=1 << 21)
    a.send_vectors([link.wire])
    a.close()
    receiver = ReceiverPipeline(b, cfg)
    out = bytearray()
    while chunk := receiver.read(1 << 16):
        out += chunk
    receiver.close()
    assert bytes(out) == payload
    assert no_compression_thread()


def test_a_failed_hand_off_after_the_probe_joins_the_compression_thread(slow_codec, monkeypatch):
    # The caller's wait for the decision taken during the probe fails:
    # send raises it only once buffer 0's job has completed.
    def overdue(self, timeout):
        raise DeadlineExceeded("probe hand-off overdue", stage="send")

    monkeypatch.setattr(sender_mod._ProbeGate, "overlap_level", overdue)
    link = Trickle(16 * 1024, 0.01)  # the 64 KB probe outlasts the 1 ms gate
    sender = MessageSender(link, replace(CFG, compress_workers=0))
    exc, returned = send_expecting(sender, DeadlineExceeded)
    assert "hand-off" in str(exc)
    (job,) = slow_codec
    assert len(job) == 2 and job[1] <= returned
    assert no_compression_thread()
