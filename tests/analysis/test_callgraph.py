"""Call-graph construction and name-resolution tests.

Fixtures are small synthetic modules passed as (path, source) pairs;
paths without a ``src`` marker become dotted module names verbatim
(``pkg/a.py`` -> ``pkg.a``), which keeps expectations readable.
"""

from __future__ import annotations

from repro.analysis.callgraph import build_callgraph, module_name_for_path


def test_module_name_for_path_strips_src_prefix():
    assert module_name_for_path("src/repro/core/fifo.py") == "repro.core.fifo"
    assert module_name_for_path("/abs/path/src/repro/cli.py") == "repro.cli"
    assert module_name_for_path("pkg/a.py") == "pkg.a"
    assert module_name_for_path("src/repro/gridftp/__init__.py") == "repro.gridftp"


def test_module_level_call_resolves():
    cg = build_callgraph(
        [
            (
                "pkg/a.py",
                """
def helper():
    pass

def caller():
    helper()
""",
            )
        ]
    )
    assert cg.callees("pkg.a.caller") == {"pkg.a.helper"}


def test_imported_name_call_resolves_across_modules():
    cg = build_callgraph(
        [
            ("pkg/a.py", "def helper():\n    pass\n"),
            (
                "pkg/b.py",
                """
from pkg.a import helper

def caller():
    helper()
""",
            ),
        ]
    )
    assert cg.callees("pkg.b.caller") == {"pkg.a.helper"}


def test_relative_import_call_resolves():
    cg = build_callgraph(
        [
            ("pkg/a.py", "def helper():\n    pass\n"),
            (
                "pkg/b.py",
                """
from .a import helper

def caller():
    helper()
""",
            ),
        ]
    )
    assert cg.callees("pkg.b.caller") == {"pkg.a.helper"}


def test_self_method_call_resolves_including_base_class():
    cg = build_callgraph(
        [
            (
                "pkg/a.py",
                """
class Base:
    def shared(self):
        pass

class Child(Base):
    def go(self):
        self.local()
        self.shared()

    def local(self):
        pass
""",
            )
        ]
    )
    assert cg.callees("pkg.a.Child.go") == {
        "pkg.a.Child.local",
        "pkg.a.Base.shared",
    }


def test_typed_receiver_via_constructor_assignment():
    cg = build_callgraph(
        [
            (
                "pkg/a.py",
                """
class Worker:
    def run(self):
        pass

def caller():
    w = Worker()
    w.run()
""",
            )
        ]
    )
    assert "pkg.a.Worker.run" in cg.callees("pkg.a.caller")


def test_unique_method_name_fallback_resolves_only_when_unambiguous():
    cg = build_callgraph(
        [
            (
                "pkg/a.py",
                """
class Only:
    def distinctive(self):
        pass

class A:
    def common(self):
        pass

class B:
    def common(self):
        pass

def caller(x, y):
    x.distinctive()
    y.common()
""",
            )
        ]
    )
    callees = cg.callees("pkg.a.caller")
    assert "pkg.a.Only.distinctive" in callees
    # Two classes define `common`: resolving either would be a guess.
    assert not any(c.endswith(".common") for c in callees)


def test_transport_op_names_never_resolve_by_name_alone():
    # One in-tree `accept` method must not swallow a socket's accept():
    # left unresolved, the blocking rules still judge the bare call.
    cg = build_callgraph(
        [
            (
                "pkg/a.py",
                """
class Planner:
    def accept(self, item):
        pass

def serve(sock):
    sock.accept()
""",
            )
        ]
    )
    assert cg.callees("pkg.a.serve") == set()


def test_thread_target_is_a_thread_kind_edge():
    cg = build_callgraph(
        [
            (
                "pkg/a.py",
                """
import threading

def worker():
    pass

def spawner():
    t = threading.Thread(target=worker, name="w")
    t.start()
""",
            )
        ]
    )
    assert cg.callees("pkg.a.spawner", kinds=("call",)) == set()
    assert cg.callees("pkg.a.spawner", kinds=("thread",)) == {"pkg.a.worker"}


def test_constructor_call_resolves_to_init():
    cg = build_callgraph(
        [
            (
                "pkg/a.py",
                """
class Thing:
    def __init__(self):
        pass

def caller():
    Thing()
""",
            )
        ]
    )
    assert cg.callees("pkg.a.caller") == {"pkg.a.Thing.__init__"}


def test_reachable_walks_transitively():
    cg = build_callgraph(
        [
            (
                "pkg/a.py",
                """
def c():
    pass

def b():
    c()

def a():
    b()
""",
            )
        ]
    )
    assert cg.reachable(["pkg.a.a"]) == {"pkg.a.a", "pkg.a.b", "pkg.a.c"}


def test_shortest_path_finds_a_route():
    cg = build_callgraph(
        [
            (
                "pkg/a.py",
                """
def c():
    pass

def b():
    c()

def a():
    b()
""",
            )
        ]
    )
    assert cg.shortest_path("pkg.a.a", {"pkg.a.c"}) == [
        "pkg.a.a",
        "pkg.a.b",
        "pkg.a.c",
    ]
    assert cg.shortest_path("pkg.a.c", {"pkg.a.a"}) is None


def test_public_names_come_from_dunder_all():
    cg = build_callgraph(
        [
            (
                "pkg/a.py",
                """
__all__ = ["visible"]

def visible():
    pass

def hidden():
    pass
""",
            )
        ]
    )
    assert cg.modules["pkg.a"].public_names == {"visible"}
