"""Positive/negative fixtures for every `adoc check` rule family.

Each rule gets at least one seeded violation (the rule must fire) and
one compliant variant (the rule must stay quiet) — the acceptance bar
for the analyzer is that the *shape* of the violation is detected, not
the exact program.  Every fixture runs through the one driver,
``run_check``, so single-file and whole-program rules see it together.
"""

from __future__ import annotations

import textwrap

from repro.analysis.checker import run_check


def lint(source: str, path: str = "fixture.py"):
    return run_check([(path, textwrap.dedent(source))])


def fired(source: str) -> set[str]:
    return {f.rule for f in lint(source).findings}


# -- ADOC110, direct case (the retired ADOC101): blocking call under a lock -


def test_adoc101_socket_send_under_lock_fires():
    src = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()

            def poke(self, sock):
                with self._lock:
                    sock.sendall(b"x")
    """
    assert "ADOC110" in fired(src)


def test_adoc101_sleep_and_compress_under_lock_fire():
    src = """
        import threading, time, zlib

        lock = threading.Lock()

        def slowpath(data):
            with lock:
                time.sleep(0.1)
                return zlib.compress(data)
    """
    report = lint(src)
    assert sum(f.rule == "ADOC110" for f in report.findings) == 2


def test_adoc101_queue_put_under_lock_fires_but_dict_get_does_not():
    src = """
        import threading

        class Box:
            def __init__(self, queue):
                self._lock = threading.Lock()
                self._queue = queue
                self.files = {}

            def bad(self, item):
                with self._lock:
                    self._queue.put(item)

            def fine(self, key):
                with self._lock:
                    return self.files.get(key)
    """
    report = lint(src)
    assert sum(f.rule == "ADOC110" for f in report.findings) == 1


def test_adoc101_io_outside_lock_is_clean():
    src = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()

            def poke(self, sock):
                with self._lock:
                    payload = self.buf
                sock.sendall(payload)
    """
    assert "ADOC110" not in fired(src)


def test_adoc101_nested_def_inside_with_is_clean():
    # The nested function runs later, lock-free.
    src = """
        import threading

        lock = threading.Lock()

        def make(sock):
            with lock:
                def sender():
                    sock.sendall(b"x")
                return sender
    """
    assert "ADOC110" not in fired(src)


def test_adoc110_module_level_sleep_under_lock_fires():
    # Import-time statements are walked too, not only function bodies.
    src = """
        import threading, time

        lock = threading.Lock()

        with lock:
            time.sleep(1)
    """
    [f] = [f for f in lint(src).findings if f.rule == "ADOC110"]
    assert f.line == 7 and "sleep" in f.message


# -- ADOC102: wait() must sit in a while loop ------------------------------


def test_adoc102_if_guarded_wait_fires():
    src = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._ready = threading.Condition(self._lock)
                self.items = []

            def take(self):
                with self._lock:
                    if not self.items:
                        self._ready.wait()
                    return self.items.pop()
    """
    assert "ADOC102" in fired(src)


def test_adoc102_while_guarded_wait_is_clean():
    src = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._ready = threading.Condition(self._lock)
                self.items = []

            def take(self):
                with self._lock:
                    while not self.items:
                        self._ready.wait()
                    return self.items.pop()
    """
    assert "ADOC102" not in fired(src)


def test_adoc102_event_wait_is_not_a_condition_wait():
    src = """
        import threading

        done = threading.Event()

        def block():
            done.wait(timeout=5)
    """
    assert "ADOC102" not in fired(src)


# -- ADOC103: notify under the owning lock ---------------------------------


def test_adoc103_notify_outside_lock_fires():
    src = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._ready = threading.Condition(self._lock)

            def close(self):
                self._closed = True
                self._ready.notify_all()
    """
    assert "ADOC103" in fired(src)


def test_adoc103_notify_under_lock_is_clean():
    src = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._ready = threading.Condition(self._lock)

            def close(self):
                with self._lock:
                    self._closed = True
                    self._ready.notify_all()
    """
    assert "ADOC103" not in fired(src)


# -- ADOC104 thread names; ADOC112 (absorbed the retired ADOC105) lifecycle -


def test_adoc104_anonymous_thread_fires():
    src = """
        import threading

        def go(fn):
            threading.Thread(target=fn, daemon=True).start()
    """
    assert "ADOC104" in fired(src)


def test_adoc105_no_daemon_no_join_fires():
    src = """
        import threading

        def go(fn):
            threading.Thread(target=fn, name="worker").start()
    """
    assert "ADOC112" in fired(src)


def test_adoc105_joined_thread_is_clean():
    src = """
        import threading

        def go(fn):
            t = threading.Thread(target=fn, name="worker")
            t.start()
            t.join()
    """
    assert fired(src) == set()


def test_named_daemon_thread_without_join_fires_adoc112():
    # The one fixture whose outcome changed when ADOC105 was retired:
    # daemon=True alone used to settle the lifecycle; ADOC112 still
    # wants a join or reap on some shutdown path.
    src = """
        import threading

        def go(fn):
            threading.Thread(target=fn, name="worker", daemon=True).start()
    """
    assert fired(src) == {"ADOC112"}


# -- ADOC106: thread bodies must record exceptions -------------------------


def test_adoc106_swallowed_exception_fires():
    src = """
        import threading

        def worker():
            try:
                do_work()
            except Exception:
                pass

        threading.Thread(target=worker, name="w", daemon=True).start()
    """
    assert "ADOC106" in fired(src)


def test_adoc106_recorded_exception_is_clean():
    src = """
        import threading

        errors = []

        def worker():
            try:
                do_work()
            except Exception as exc:
                errors.append(exc)

        threading.Thread(target=worker, name="w", daemon=True).start()
    """
    assert "ADOC106" not in fired(src)


def test_adoc106_narrow_except_is_a_decision_not_a_violation():
    src = """
        import threading

        def worker():
            try:
                do_work()
            except KeyError:
                pass

        threading.Thread(target=worker, name="w", daemon=True).start()
    """
    assert "ADOC106" not in fired(src)


def test_adoc106_ignores_non_thread_functions():
    src = """
        def helper():
            try:
                do_work()
            except Exception:
                pass
    """
    assert "ADOC106" not in fired(src)


# -- ADOC107: struct pack/unpack symmetry ----------------------------------


def test_adoc107_pack_without_unpack_fires():
    src = """
        import struct

        def frame(n):
            return struct.pack(">HH", n, n)
    """
    assert "ADOC107" in fired(src)


def test_adoc107_struct_alias_roundtrip_is_clean():
    src = """
        import struct

        _HDR = struct.Struct(">BI")

        def frame(level, size):
            return _HDR.pack(level, size)

        def parse(data):
            return _HDR.unpack(data)
    """
    assert "ADOC107" not in fired(src)


def test_adoc107_cross_file_unpack_counts():
    sender = """
        import struct

        def frame(n):
            return struct.pack(">Q", n)
    """
    receiver = """
        import struct

        def parse(data):
            return struct.unpack(">Q", data)
    """
    report = run_check(
        [
            ("sender.py", textwrap.dedent(sender)),
            ("receiver.py", textwrap.dedent(receiver)),
        ]
    )
    assert {f.rule for f in report.findings} == set()


def test_adoc107_mismatched_formats_fire():
    sender = "import struct\n\ndef f(n):\n    return struct.pack('>HH', n, n)\n"
    receiver = "import struct\n\ndef g(d):\n    return struct.unpack('>I', d)\n"
    report = run_check([("s.py", sender), ("r.py", receiver)])
    assert {f.rule for f in report.findings} == {"ADOC107"}


# -- ADOC108: whole-payload copies on the hot path -------------------------

CORE_PATH = "src/repro/core/fixture.py"


def test_adoc108_bytes_of_payload_in_core_fires():
    src = """
        def emit(endpoint, payload):
            endpoint.send(bytes(payload))
    """
    assert "ADOC108" in {f.rule for f in lint(src, path=CORE_PATH).findings}


def test_adoc108_bytes_of_attribute_payload_fires():
    src = """
        def emit(endpoint, record):
            endpoint.send(bytes(record.payload))
    """
    assert "ADOC108" in {f.rule for f in lint(src, path=CORE_PATH).findings}


def test_adoc108_empty_bytes_join_fires():
    src = """
        def frame(parts):
            return b"".join(parts)
    """
    assert "ADOC108" in {f.rule for f in lint(src, path=CORE_PATH).findings}


def test_adoc108_non_payloadish_bytes_is_clean():
    src = """
        def widen(count):
            return bytes(count)
    """
    assert "ADOC108" not in {f.rule for f in lint(src, path=CORE_PATH).findings}


def test_adoc108_outside_core_is_exempt():
    src = """
        def emit(endpoint, payload):
            endpoint.send(bytes(payload))
            return b"".join([payload])
    """
    for path in ("src/repro/gridftp/fixture.py", "tests/fixture.py", "benchmarks/fixture.py"):
        assert "ADOC108" not in {f.rule for f in lint(src, path=path).findings}


def test_adoc108_justified_suppression_is_honored():
    src = """
        def reassemble(parts):
            return b"".join(parts)  # adoclint: disable=ADOC108 -- caller asked for bytes
    """
    report = lint(src, path=CORE_PATH)
    assert "ADOC108" not in {f.rule for f in report.findings}
    assert "ADOC108" in {f.rule for f in report.suppressed}


# -- suppressions (ADOC100) ------------------------------------------------


def test_justified_suppression_silences_the_finding():
    src = """
        import threading

        def go(fn):
            t = threading.Thread(target=fn, daemon=True)  # adoclint: disable=ADOC104 -- ephemeral probe thread, named by its pool
            t.start()
            t.join()
    """
    report = lint(src)
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["ADOC104"]


def test_unjustified_suppression_earns_adoc100():
    src = """
        import threading

        def go(fn):
            t = threading.Thread(target=fn, daemon=True)  # adoclint: disable=ADOC104
            t.start()
            t.join()
    """
    report = lint(src)
    assert [f.rule for f in report.findings] == ["ADOC100"]
    assert [f.rule for f in report.suppressed] == ["ADOC104"]


def test_unknown_rule_in_suppression_earns_adoc100():
    src = """
        x = 1  # adoclint: disable=ADOC999 -- no such rule
    """
    assert fired(src) == {"ADOC100"}


def test_retired_rule_id_in_suppression_earns_adoc100():
    # An unmigrated ADOC101/ADOC105 suppression must not hide anything.
    src = """
        x = 1  # adoclint: disable=ADOC101 -- lock exists to serialise sends
        y = 2  # adoclint: disable=ADOC105 -- lifecycle decided by the caller
    """
    report = lint(src)
    assert [(f.line, f.rule) for f in report.findings] == [
        (2, "ADOC100"),
        (3, "ADOC100"),
    ]


def test_report_renders_location_and_rule():
    src = """
        import threading

        def go(fn):
            threading.Thread(target=fn, daemon=True).start()
    """
    report = lint(src, path="pkg/mod.py")
    line = report.render().splitlines()[0]
    assert line.startswith("pkg/mod.py:5:") and "ADOC104" in line


# -- ADOC109: unregistered locks in obs/ ------------------------------------


def test_adoc109_bare_lock_in_obs_fires():
    src = """
        import threading

        _lock = threading.Lock()
    """
    report = lint(src, path="src/repro/obs/metrics.py")
    assert [f.rule for f in report.findings] == ["ADOC109"]


def test_adoc109_condition_in_obs_fires_with_make_condition_hint():
    src = """
        import threading

        cond = threading.Condition()
    """
    report = lint(src, path="src/repro/obs/tracer.py")
    assert [f.rule for f in report.findings] == ["ADOC109"]
    assert "make_condition" in report.findings[0].message


def test_adoc109_make_lock_in_obs_is_quiet():
    src = """
        from repro.analysis.lockgraph import make_lock

        _lock = make_lock("obs.registry")
    """
    report = lint(src, path="src/repro/obs/metrics.py")
    assert report.findings == []


def test_adoc109_bare_lock_outside_obs_is_quiet():
    src = """
        import threading

        _lock = threading.Lock()
    """
    report = lint(src, path="src/repro/transport/faults.py")
    assert "ADOC109" not in {f.rule for f in report.findings}
