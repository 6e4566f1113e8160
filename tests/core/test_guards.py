"""Incompressible-data guard (paper section 5)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import IncompressibleGuard


def test_good_ratio_does_not_trip():
    g = IncompressibleGuard(ratio_threshold=0.95, holdoff_packets=10)
    assert not g.check_packet(8192, 4000)
    assert not g.active


def test_poor_ratio_trips_and_holds():
    g = IncompressibleGuard(ratio_threshold=0.95, holdoff_packets=10)
    assert g.check_packet(8192, 8100)  # saved < 5%
    assert g.active
    assert g.trips == 1


def test_expansion_trips():
    g = IncompressibleGuard()
    assert g.check_packet(8192, 9000)


def test_holdoff_expires_after_n_packets():
    # The holdoff counts from the next decision: each decision it pins
    # uses up that buffer's raw packet count.
    g = IncompressibleGuard(holdoff_packets=10)
    g.check_packet(100, 100)
    assert g.active
    assert g.hold(4) and g.hold(4)  # 10 -> 6 -> 2
    assert g.active
    assert g.hold(4)  # two packets left still pin a whole decision
    assert not g.active
    assert not g.hold(4)


def test_retrip_resets_holdoff():
    g = IncompressibleGuard(holdoff_packets=5)
    g.check_packet(100, 100)
    assert g.hold(4)  # 5 -> 1
    g.check_packet(100, 100)  # trips again: a whole holdoff
    assert g.trips == 2
    assert g.hold(4)
    assert g.active  # 4 of 5 used
    assert g.hold(4)
    assert not g.active


def test_note_without_trip_is_noop():
    # A decision with no trip behind it is not pinned and spends nothing.
    g = IncompressibleGuard()
    assert not g.hold(25)
    assert not g.active
    assert g.check_packet(100, 100)
    assert g.hold(25) and not g.active  # one 200 KB buffer spends it all


def test_concurrent_decisions_spend_the_holdoff_exactly_once():
    # Deciding threads race on the holdoff's check-then-spend: a lost
    # update would let more than ``holdoff_packets`` one-packet
    # decisions be pinned.
    g = IncompressibleGuard(holdoff_packets=2000)
    g.check_packet(100, 100)
    pinned = [0] * 4

    def decide(slot: int) -> None:
        for _ in range(1000):
            pinned[slot] += g.hold(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=decide, args=(i,), name=f"decider-{i}")
            for i in range(len(pinned))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sum(pinned) == 2000
    assert not g.active


def test_zero_original_size_ignored():
    g = IncompressibleGuard()
    assert not g.check_packet(0, 0)


def test_threshold_validation():
    with pytest.raises(ValueError):
        IncompressibleGuard(ratio_threshold=0.0)
    with pytest.raises(ValueError):
        IncompressibleGuard(ratio_threshold=1.5)
    with pytest.raises(ValueError):
        IncompressibleGuard(holdoff_packets=-1)


def test_exact_threshold_boundary():
    g = IncompressibleGuard(ratio_threshold=0.95)
    # compressed == 0.95 * original: not strictly below the required
    # saving, so it trips (>= comparison).
    assert g.check_packet(1000, 950)
    g2 = IncompressibleGuard(ratio_threshold=0.95)
    assert not g2.check_packet(1000, 949)
