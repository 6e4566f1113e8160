"""Shared fixtures for the AdOC reproduction test suite."""

from __future__ import annotations

import os
import threading

import pytest

from repro.transport import pipe_pair


def pytest_sessionfinish(session, exitstatus):
    """Under ``REPRO_LOCKCHECK=1``, fail the run on lock-order cycles.

    The whole suite doubles as a lock-ordering workload: every checked
    lock acquisition recorded an edge in the global lock graph, and a
    cycle there is a potential deadlock even though no run hung.
    """
    from repro.analysis.lockgraph import GLOBAL_GRAPH, enabled

    if not enabled():
        return
    export_path = os.environ.get("REPRO_LOCKCHECK_EXPORT")
    if export_path:
        # Interchange with the static analyzer: `adoc check --lockgraph`
        # reads this to flag statically-possible orderings the suite
        # never exercised (ADOC114).
        import json

        with open(export_path, "w", encoding="utf-8") as fh:
            json.dump(GLOBAL_GRAPH.to_json(), fh, indent=2)
            fh.write("\n")
    report = GLOBAL_GRAPH.report()
    cycles = GLOBAL_GRAPH.find_cycles()
    tr = session.config.pluginmanager.get_plugin("terminalreporter")
    write = tr._tw.line if tr is not None else print
    write("")
    for line in report.splitlines():
        write(line)
    if cycles:
        write("REPRO_LOCKCHECK: lock-order cycles detected — failing the run")
        session.exitstatus = 3


@pytest.fixture
def no_thread_leaks():
    """Assert the test left no live worker threads behind.

    Snapshots ``threading.enumerate()`` on entry and, after the test,
    gives late joiners a short grace period before asserting that every
    thread started during the test has exited.  Used (autouse) across
    ``tests/faults``: the fault-tolerance contract is that *failed*
    transfers tear their pipelines down, not just successful ones.

    The process-wide shared codec pool (``adoc-shared-codec-*``) is
    exempt by design: its workers deliberately outlive individual
    transfers (that is the point of sharing them), and their reaping is
    covered by the ``shutdown_shared_pool`` tests in
    ``tests/core/test_pooled_compression.py``.
    """
    import time as _time

    from repro.serve.pool import SHARED_POOL_NAME

    shared_prefix = f"adoc-{SHARED_POOL_NAME}-"
    before = set(threading.enumerate())
    yield
    deadline = _time.monotonic() + 5.0
    while _time.monotonic() < deadline:
        leaked = [
            t
            for t in threading.enumerate()
            if t not in before
            and t.is_alive()
            and not t.name.startswith(shared_prefix)
        ]
        if not leaked:
            return
        _time.sleep(0.05)
    assert not leaked, f"test leaked live threads: {[t.name for t in leaked]}"


@pytest.fixture
def closing(no_thread_leaks):
    """``closing(server)`` returns ``server`` and closes it at teardown.

    For servers that own threads (a reactor loop, pool workers, splice
    pumps): the thread-leak check then also proves that ``close()``
    reaps all of them.
    """
    servers: list = []

    def keep(server):
        servers.append(server)
        return server

    yield keep
    for server in reversed(servers):
        server.close()


@pytest.fixture
def pipes():
    """A connected in-memory endpoint pair, closed on teardown."""
    a, b = pipe_pair()
    yield a, b
    a.close()
    b.close()


class BackgroundSender:
    """Run a send callable on a thread and re-raise its errors on join."""

    def __init__(self, fn, *args, **kwargs):
        self.result = None
        self.error: BaseException | None = None

        def run():
            try:
                self.result = fn(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - surfaced on join
                self.error = exc

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()

    def join(self, timeout: float = 60.0):
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "background sender timed out"
        if self.error is not None:
            raise self.error
        return self.result


@pytest.fixture
def background():
    """Factory fixture: run a callable in the background, join safely."""
    senders: list[BackgroundSender] = []

    def start(fn, *args, **kwargs) -> BackgroundSender:
        s = BackgroundSender(fn, *args, **kwargs)
        senders.append(s)
        return s

    yield start
    for s in senders:
        s.thread.join(timeout=5)
