"""The reactor: one thread, one ``selectors`` loop, many sockets.

Three scheduling surfaces, all single-threaded from the callback's
point of view:

* **readiness callbacks** — :meth:`Reactor.register` binds a file
  object to ``callback(mask)``; the loop invokes it whenever the
  selector reports the fd ready;
* **soon callbacks** — :meth:`Reactor.call_soon` (loop thread) and
  :meth:`Reactor.call_soon_threadsafe` (any thread; worker-pool
  completions use this) enqueue a thunk for the next loop iteration;
* **timers** — :meth:`Reactor.call_later` / :meth:`Reactor.call_at`
  park a thunk on a hashed timing wheel; the loop's ``select`` timeout
  is always the distance to the nearest live deadline, so an idle
  reactor sleeps exactly as long as its timers allow (deadline-aware,
  no fixed tick).

Callbacks must never block: no socket sends/recvs outside the
non-blocking ``try_*`` surface, no lock waits, no untimed queue gets.
``adoc check`` proves that property statically (rule ADOC115, see
``docs/ANALYSIS.md``); the observability here — a loop-lag histogram
and a ready-queue depth gauge — catches what slips through at runtime.

A callback that raises is logged and counted
(``adoc_reactor_callback_errors_total``), never allowed to kill the
loop: one broken connection must not take down the other thousands.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable

from ..analysis.lockgraph import make_lock
from ..obs.telemetry import LATENCY_BUCKETS, Telemetry, resolve_telemetry

__all__ = ["TimerHandle", "TimerWheel", "Reactor"]

_log = logging.getLogger("repro.serve.reactor")

EVENT_READ = selectors.EVENT_READ
EVENT_WRITE = selectors.EVENT_WRITE


class TimerHandle:
    """One scheduled timer; :meth:`cancel` is safe from the loop thread."""

    __slots__ = ("deadline", "callback", "cancelled")

    def __init__(self, deadline: float, callback: Callable[[], None]) -> None:
        self.deadline = deadline
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class TimerWheel:
    """A hashed timing wheel over ``time.monotonic`` deadlines.

    Deadlines hash into ``slots`` buckets of ``granularity_s`` width;
    :meth:`expire` walks only the buckets the clock actually crossed,
    so a wheel with thousands of idle timers costs nothing per loop
    iteration.  :meth:`next_deadline` keeps the reactor deadline-aware:
    the nearest live deadline is cached on :meth:`add` and recomputed
    lazily after expiry, so ``select`` sleeps exactly until the next
    timer instead of polling on a fixed tick.
    """

    def __init__(self, granularity_s: float = 0.005, slots: int = 256) -> None:
        if granularity_s <= 0:
            raise ValueError("granularity must be positive")
        self._granularity = granularity_s
        self._slots: list[list[TimerHandle]] = [[] for _ in range(slots)]
        self._count = 0
        self._cursor: int | None = None  # last fully-expired tick
        self._soonest: float | None = None  # cached nearest deadline

    def _tick(self, when: float) -> int:
        return int(when / self._granularity)

    def add(self, handle: TimerHandle) -> None:
        tick = self._tick(handle.deadline)
        self._slots[tick % len(self._slots)].append(handle)
        self._count += 1
        if self._soonest is None or handle.deadline < self._soonest:
            self._soonest = handle.deadline

    def __len__(self) -> int:
        return self._count

    def next_deadline(self) -> float | None:
        """Nearest live deadline, or ``None`` when no timer is live."""
        if self._count == 0:
            return None
        if self._soonest is None:
            self._soonest = min(
                (
                    h.deadline
                    for bucket in self._slots
                    for h in bucket
                    if not h.cancelled
                ),
                default=None,
            )
        return self._soonest

    def expire(self, now: float) -> list[TimerHandle]:
        """Pop every timer due at ``now``, ordered by deadline.

        Cancelled timers are dropped silently (and reclaimed here, so a
        cancel never leaks a wheel entry past its deadline).
        """
        if self._count == 0:
            self._cursor = self._tick(now)
            return []
        tick_now = self._tick(now)
        # With no prior cursor there is no "last expired tick" to sweep
        # from: force a full pass so timers in any bucket are found.
        start = (
            self._cursor
            if self._cursor is not None
            else tick_now - len(self._slots)
        )
        span = tick_now - start
        if span <= 0 and self._soonest is not None and self._soonest > now:
            return []
        # Walk each bucket the clock crossed once; if the clock jumped
        # further than a full revolution, one pass over every bucket
        # covers all of them.
        buckets = (
            range(len(self._slots))
            if span >= len(self._slots)
            else [t % len(self._slots) for t in range(start, tick_now + 1)]
        )
        due: list[TimerHandle] = []
        for idx in set(buckets):
            bucket = self._slots[idx]
            if not bucket:
                continue
            keep: list[TimerHandle] = []
            for h in bucket:
                if h.cancelled:
                    self._count -= 1
                elif h.deadline <= now:
                    due.append(h)
                    self._count -= 1
                else:
                    keep.append(h)
            self._slots[idx] = keep
        self._cursor = tick_now
        if due or self._soonest is not None and self._soonest <= now:
            self._soonest = None  # recompute lazily on next_deadline()
        due.sort(key=lambda h: h.deadline)
        return due


class Reactor:
    """A ``selectors`` event loop with timers and cross-thread wakeup.

    One instance multiplexes any number of non-blocking file objects on
    a single thread.  All state except the cross-thread ``call_soon``
    queue is loop-thread-confined, so readiness callbacks run without
    taking locks.
    """

    def __init__(
        self,
        telemetry: Telemetry | None = None,
        wheel_granularity_s: float = 0.005,
        name: str = "reactor",
    ) -> None:
        self.name = name
        self._tele = telemetry if telemetry is not None else resolve_telemetry()
        self._selector = selectors.DefaultSelector()
        self._wheel = TimerWheel(wheel_granularity_s)
        #: Loop-thread-only queue of (callback, enqueued_at).
        self._ready: deque[tuple[Callable[[], None], float]] = deque()
        #: Cross-thread queue, drained into _ready under the lock.
        self._remote: deque[tuple[Callable[[], None], float]] = deque()
        self._lock = make_lock("Reactor.lock")
        self._stopping = False
        self._closed = False
        self._thread: threading.Thread | None = None
        self._loop_thread_id: int | None = None
        self.iterations = 0  # diagnostic counter
        self.callback_errors = 0
        # Self-pipe: lets call_soon_threadsafe interrupt a parked select.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, EVENT_READ, self._drain_wakeup)

    # -- registration (loop thread unless noted) ---------------------------

    def register(
        self, fileobj, events: int, callback: Callable[[int], None]
    ) -> None:
        """Bind ``callback(mask)`` to readiness of ``fileobj``."""
        self._selector.register(fileobj, events, callback)

    def modify(
        self, fileobj, events: int, callback: Callable[[int], None]
    ) -> None:
        self._selector.modify(fileobj, events, callback)

    def unregister(self, fileobj) -> None:
        try:
            self._selector.unregister(fileobj)
        except KeyError:
            pass

    @property
    def registered_count(self) -> int:
        """Registered fds, excluding the internal wakeup pipe."""
        return max(0, len(self._selector.get_map()) - 1)

    # -- scheduling --------------------------------------------------------

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Queue ``callback`` for the next loop pass (loop thread only)."""
        self._ready.append((callback, time.monotonic()))

    def call_soon_threadsafe(self, callback: Callable[[], None]) -> None:
        """Queue ``callback`` from any thread and wake the loop."""
        with self._lock:
            self._remote.append((callback, time.monotonic()))
        self._wakeup()

    def call_later(
        self, delay_s: float, callback: Callable[[], None]
    ) -> TimerHandle:
        return self.call_at(time.monotonic() + max(delay_s, 0.0), callback)

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        handle = TimerHandle(when, callback)
        self._wheel.add(handle)
        return handle

    def _wakeup(self) -> None:
        try:
            self._wake_w.send(b"\x00")  # adoclint: disable=ADOC111 -- one byte into a non-blocking socketpair: succeeds or EAGAIN (pipe already signalled), never blocks
        except (BlockingIOError, OSError):
            pass  # already signalled, or the reactor is closing

    def _drain_wakeup(self, mask: int) -> None:
        try:
            self._wake_r.recv(4096)
        except (BlockingIOError, OSError):
            pass

    # -- the loop ----------------------------------------------------------

    def run(self) -> None:
        """Run until :meth:`stop`; the caller becomes the loop thread."""
        self._loop_thread_id = threading.get_ident()
        tele = self._tele
        lag_hist = depth_gauge = None
        if tele.enabled:
            lag_hist = tele.metrics.histogram(
                "adoc_reactor_loop_lag_seconds",
                "delay between a callback/timer becoming due and running",
                ("reactor", "source"),
                buckets=LATENCY_BUCKETS,
            )
            depth_gauge = tele.metrics.gauge(
                "adoc_reactor_ready_queue_depth",
                "callbacks runnable at the top of a loop iteration",
                ("reactor",),
            )
        try:
            while not self._stopping:
                self.iterations += 1
                timeout = self._select_timeout()
                events = self._selector.select(timeout)
                now = time.monotonic()

                with self._lock:
                    if self._remote:
                        self._ready.extend(self._remote)
                        self._remote.clear()

                if depth_gauge is not None:
                    depth_gauge.set(
                        len(events) + len(self._ready), reactor=self.name
                    )

                for key, mask in events:
                    self._invoke(key.data, mask)

                for handle in self._wheel.expire(now):
                    if lag_hist is not None:
                        lag_hist.observe(
                            max(0.0, now - handle.deadline),
                            reactor=self.name, source="timer",
                        )
                    self._invoke(handle.callback)

                # Drain only what was queued at entry: a callback that
                # re-queues itself yields to I/O instead of starving it.
                for _ in range(len(self._ready)):
                    cb, enqueued = self._ready.popleft()
                    if lag_hist is not None:
                        lag_hist.observe(
                            max(0.0, time.monotonic() - enqueued),
                            reactor=self.name, source="callback",
                        )
                    self._invoke(cb)
        finally:
            self._loop_thread_id = None

    def _select_timeout(self) -> float | None:
        if self._ready or self._remote:
            return 0.0
        deadline = self._wheel.next_deadline()
        if deadline is None:
            return None
        return max(0.0, deadline - time.monotonic())

    def _invoke(self, callback, *args) -> None:
        try:
            callback(*args)
        except Exception:  # noqa: BLE001 - one connection must not kill the loop
            self.callback_errors += 1
            _log.exception("reactor callback failed")
            if self._tele.enabled:
                self._tele.metrics.counter(
                    "adoc_reactor_callback_errors_total",
                    "exceptions raised by reactor callbacks",
                    ("reactor",),
                ).inc(reactor=self.name)

    def run_in_thread(self) -> threading.Thread:
        """Start the loop on a named daemon thread and return it."""
        if self._thread is not None and self._thread.is_alive():
            return self._thread
        self._stopping = False
        self._thread = threading.Thread(
            target=self.run, name=f"adoc-{self.name}", daemon=True
        )
        self._thread.start()
        return self._thread

    @property
    def in_loop_thread(self) -> bool:
        return threading.get_ident() == self._loop_thread_id

    def stop(self) -> None:
        """Ask the loop to exit after the current iteration (any thread)."""
        self._stopping = True
        self._wakeup()

    def close(self, join_timeout: float = 10.0) -> None:
        """Stop the loop, join its thread, release the selector."""
        if self._closed:
            return
        self.stop()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(join_timeout)
        self._closed = True
        self._selector.close()
        for s in (self._wake_r, self._wake_w):
            try:
                s.close()
            except OSError:
                pass
