"""ADOC115: nothing reachable from a reactor callback may block.

The reactor (:mod:`repro.serve.reactor`) multiplexes every connection
on one loop thread; a single blocking call inside any callback stalls
*all* of them — the whole point of the refactor evaporates silently.
This pass proves the discipline statically:

* **Roots** are functions the loop thread will invoke: callback
  arguments of the reactor's scheduling APIs (``register``/``modify``/
  ``call_soon``/``call_soon_threadsafe``/``call_later``/``call_at``,
  recognized on any ``...reactor...``-named receiver, with
  ``functools.partial`` unwrapped), functions assigned to ``on_*``
  channel hooks (``channel.on_data = session.feed``), and function
  references named ``on_*``/``_on_*`` passed as call arguments (the
  hook-wiring idiom).
* The search walks synchronous **call edges only**.  Handing work to a
  :class:`~repro.serve.pool.WorkerPool` creates no edge — the job
  argument runs on a worker thread, which is exactly the sanctioned
  escape hatch for blocking/CPU work.
* **Blocking** is the lock-order catalog's transport set (``recv``,
  ``send``, ``accept`` …) plus the waits it deliberately leaves out:
  untimed ``.wait()``/bare ``.acquire()`` (lock wait), ``queue.get``/
  ``put``/``join`` without a timeout, ``sleep``, and the codec calls
  ``compress``/``decompress`` — CPU work that starves the loop just as
  effectively as I/O.

Findings point at the **blocking call itself**, not the callback: the
fix (or the justified suppression — e.g. a ``try_send`` on an
``O_NONBLOCK`` socket, where ``send`` returns ``EAGAIN`` instead of
parking) belongs at the leaf, and one sanctioned leaf should not need
re-suppressing for every callback that reaches it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .callgraph import (
    CallGraph,
    _CallCollector,
    _dotted,
    _last_name,
    _own_statements,
    _short,
)
from .findings import Finding
from .rules import _CPU_OPS, _TRANSPORT_OPS

__all__ = ["check_reactor_callbacks"]

#: Reactor scheduling API -> positional index of the callback argument.
_REACTOR_APIS = {
    "register": 2,
    "modify": 2,
    "call_soon": 0,
    "call_soon_threadsafe": 0,
    "call_later": 1,
    "call_at": 1,
}

#: Queue/thread operations that block unless given a timeout.
_TIMED_OK = {"get", "join"}  # blocking only when called with no arguments
_PUT_LIKE = {"put"}  # always takes the item; needs an explicit timeout kwarg


@dataclass(frozen=True)
class _Root:
    qualname: str
    #: Where the callback was wired up (for the finding message).
    wired_path: str
    wired_line: int


def _has_timeout_kwarg(call: ast.Call) -> bool:
    return any(
        kw.arg is not None and "timeout" in kw.arg.lower() for kw in call.keywords
    )


def _blocking_reason(call: ast.Call) -> str | None:
    """Why this call would park the loop thread, or ``None``."""
    name = _last_name(call.func)
    if name is None:
        return None
    if name in _TRANSPORT_OPS:
        return f"blocking transport op '{name}'"
    if name in _CPU_OPS:
        # Not an unbounded wait, but it parks the loop for the duration.
        return f"loop-starving call '{name}'"
    if name == "wait" and not call.args and not _has_timeout_kwarg(call):
        return "untimed 'wait()' (lock/event wait)"
    if name == "acquire" and not call.args and not _has_timeout_kwarg(call):
        return "bare 'acquire()' (untimed lock wait)"
    if isinstance(call.func, ast.Attribute):
        if name in _TIMED_OK and not call.args and not _has_timeout_kwarg(call):
            return f"untimed '{name}()'"
        if name in _PUT_LIKE and not _has_timeout_kwarg(call):
            recv = _last_name(call.func.value)
            if recv is not None and any(
                frag in recv.lower() for frag in ("queue", "fifo")
            ):
                return "untimed 'put()' on a bounded queue"
    return None


def _reactorish_receiver(func: ast.AST) -> bool:
    """Is this an attribute call on something reactor-flavoured?"""
    if not isinstance(func, ast.Attribute):
        return False
    chain = _dotted(func.value)
    return chain is not None and "reactor" in chain.lower()


class _RefResolver:
    """Resolve a function *reference* (not a call) to graph qualnames."""

    def __init__(self, cg: CallGraph, collector: _CallCollector) -> None:
        self.cg = cg
        self.collector = collector

    def resolve(self, expr: ast.AST) -> tuple[str, ...]:
        if isinstance(expr, ast.Call):
            # partial(f, ...) wires f; any other call's result is opaque.
            if _last_name(expr.func) == "partial" and expr.args:
                return self.resolve(expr.args[0])
            return ()
        if isinstance(expr, ast.Lambda):
            # The lambda body runs in the callback; treat its calls as
            # the roots.
            out: list[str] = []
            for sub in ast.walk(expr.body):
                if isinstance(sub, ast.Call):
                    out.extend(self.collector.resolve(sub))
            return tuple(out)
        if isinstance(expr, (ast.Name, ast.Attribute)):
            # Reuse the call collector's machinery by resolving the
            # reference as if it were being called.
            fake = ast.Call(func=expr, args=[], keywords=[])
            ast.copy_location(fake, expr)
            targets = self.collector.resolve(fake)
            return tuple(t for t in targets if t in self.cg.functions)
        return ()


def _collect_roots(cg: CallGraph) -> list[_Root]:
    roots: list[_Root] = []
    seen: set[str] = set()

    def add(quals: tuple[str, ...], path: str, line: int) -> None:
        for q in quals:
            if q not in seen:
                seen.add(q)
                roots.append(_Root(q, path, line))

    for qual, info in sorted(cg.functions.items()):
        mod = cg.modules.get(info.module)
        if mod is None:
            continue
        resolver = _RefResolver(cg, _CallCollector(cg, mod, info))
        for node in _own_statements(info.node):
            if isinstance(node, ast.Call):
                name = _last_name(node.func)
                if (
                    name in _REACTOR_APIS
                    and _reactorish_receiver(node.func)
                    and len(node.args) > _REACTOR_APIS[name]
                ):
                    cb = node.args[_REACTOR_APIS[name]]
                    add(resolver.resolve(cb), info.path, node.lineno)
                # Hook-wiring idiom: a reference named on_*/_on_* handed
                # to anything (assembler ctors, listener factories).
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if isinstance(arg, (ast.Name, ast.Attribute)):
                        leaf = _last_name(arg)
                        if leaf is not None and leaf.lstrip("_").startswith("on_"):
                            add(resolver.resolve(arg), info.path, node.lineno)
            elif isinstance(node, ast.Assign):
                # channel.on_data = session.feed
                for t in node.targets:
                    if isinstance(t, ast.Attribute) and t.attr.startswith("on_"):
                        add(resolver.resolve(node.value), info.path, node.lineno)
                        break
    return roots


def check_reactor_callbacks(cg: CallGraph) -> list[Finding]:
    """ADOC115: blocking calls reachable from reactor callbacks.

    Findings attach at the blocking leaf, so an inline ``ADOC115``
    suppression there is honoured by the driver's ordinary filter — no
    special pruning logic is needed here.
    """
    # Direct blocking ops per function, minus call sites the graph
    # resolved in-tree (the BFS judges the callee's body instead).
    blocking: dict[str, list[tuple[str, int, int]]] = {}
    for qual, info in cg.functions.items():
        resolved = frozenset(
            (site.line, site.col) for site in cg.calls.get(qual, ()) if site.callees
        )
        ops: list[tuple[str, int, int]] = []
        for node in _own_statements(info.node):
            if not isinstance(node, ast.Call):
                continue
            if (node.lineno, node.col_offset) in resolved:
                continue
            reason = _blocking_reason(node)
            if reason is not None:
                ops.append((reason, node.lineno, node.col_offset))
        if ops:
            blocking[qual] = ops

    findings: list[Finding] = []
    reported: set[tuple[str, int]] = set()
    for root in _collect_roots(cg):
        # BFS over synchronous call edges only: thread/pool hand-offs
        # leave the loop thread and are the sanctioned escape hatch.
        parent: dict[str, str] = {root.qualname: ""}
        queue = [root.qualname]
        while queue:
            cur = queue.pop(0)
            for reason, line, col in blocking.get(cur, ()):
                info = cg.functions[cur]
                if (info.path, line) in reported:
                    continue
                reported.add((info.path, line))
                chain = [cur]
                while parent[chain[-1]]:
                    chain.append(parent[chain[-1]])
                path_str = " -> ".join(_short(q) for q in reversed(chain))
                findings.append(
                    Finding(
                        info.path,
                        line,
                        col,
                        "ADOC115",
                        f"{reason} runs on the reactor loop thread: reachable "
                        f"from callback '{_short(root.qualname)}' (wired at "
                        f"{root.wired_path}:{root.wired_line}) via {path_str} — "
                        "every connection on the loop stalls while it runs; "
                        "hand the work to the worker pool, use the "
                        "non-blocking variant, or suppress with a "
                        "justification",
                    )
                )
            for nxt in sorted(cg.callees(cur, kinds=("call",))):
                if nxt not in parent:
                    parent[nxt] = cur
                    queue.append(nxt)
    return findings
