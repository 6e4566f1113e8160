"""TimerWheel: hashed buckets, deadline cache, cancellation reclaim."""

from __future__ import annotations

from repro.serve.reactor import TimerHandle, TimerWheel


def _handle(deadline: float) -> TimerHandle:
    return TimerHandle(deadline, lambda: None)


def test_empty_wheel_has_no_deadline():
    wheel = TimerWheel()
    assert wheel.next_deadline() is None
    assert wheel.expire(100.0) == []
    assert len(wheel) == 0


def test_add_and_expire_in_deadline_order():
    wheel = TimerWheel(granularity_s=0.01)
    late, early, mid = _handle(1.30), _handle(1.10), _handle(1.20)
    for h in (late, early, mid):
        wheel.add(h)
    assert wheel.next_deadline() == 1.10
    due = wheel.expire(2.0)
    assert due == [early, mid, late]
    assert len(wheel) == 0


def test_expire_only_pops_due_timers():
    wheel = TimerWheel(granularity_s=0.01)
    soon, later = _handle(1.0), _handle(5.0)
    wheel.add(soon)
    wheel.add(later)
    assert wheel.expire(1.5) == [soon]
    assert len(wheel) == 1
    assert wheel.next_deadline() == 5.0
    assert wheel.expire(6.0) == [later]


def test_cancelled_timer_never_fires_and_is_reclaimed():
    wheel = TimerWheel(granularity_s=0.01)
    h = _handle(1.0)
    wheel.add(h)
    h.cancel()
    assert wheel.expire(2.0) == []
    assert len(wheel) == 0


def test_clock_jump_past_a_full_revolution_expires_everything():
    # 8 slots x 10ms = an 80ms revolution; timers spread across it all
    # come due after one jump far beyond the wheel's span.
    wheel = TimerWheel(granularity_s=0.01, slots=8)
    handles = [_handle(1.0 + i * 0.05) for i in range(16)]
    for h in handles:
        wheel.add(h)
    due = wheel.expire(1000.0)
    assert due == sorted(handles, key=lambda h: h.deadline)
    assert len(wheel) == 0


def test_deadline_cache_recomputes_after_expiry():
    wheel = TimerWheel(granularity_s=0.01)
    wheel.add(_handle(1.0))
    wheel.add(_handle(3.0))
    assert wheel.next_deadline() == 1.0
    wheel.expire(1.5)
    assert wheel.next_deadline() == 3.0


def test_same_bucket_collision_keeps_future_timer():
    # Two deadlines one revolution apart hash into the same slot; only
    # the due one pops.
    wheel = TimerWheel(granularity_s=0.01, slots=4)
    near, far = _handle(1.0), _handle(1.0 + 4 * 0.01)
    wheel.add(near)
    wheel.add(far)
    assert wheel.expire(1.005) == [near]
    assert len(wheel) == 1
    assert wheel.expire(2.0) == [far]


def test_only_cancelled_timers_left_means_no_deadline():
    # Expiring the due timer leaves just a cancelled one behind in a
    # bucket the clock has not crossed yet: the wheel still holds an
    # entry, but no live deadline exists.
    wheel = TimerWheel(granularity_s=0.01)
    wheel.expire(0.0)  # a running loop has swept before: cursor is set
    due, cancelled = _handle(0.001), _handle(0.5)
    wheel.add(due)
    wheel.add(cancelled)
    cancelled.cancel()
    assert wheel.expire(0.01) == [due]
    assert wheel.next_deadline() is None
