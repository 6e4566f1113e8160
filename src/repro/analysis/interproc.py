"""Interprocedural protocol rules: ADOC111 (deadline propagation) and
ADOC112 (thread lifecycle).

Both rules answer whole-program questions a per-file rule cannot:

* **ADOC111** — PR 3's discipline is that every blocking transport or
  queue operation reachable from a *public API entry point* is bounded
  by an ``io_timeout_s`` / :class:`~repro.core.deadlines.Deadline`
  somewhere on the path.  A path where no function on it even mentions
  a timeout/deadline is an unbounded-blocking hazard: one dead peer
  parks the caller forever.  Entry points are module-level functions
  named in ``__all__`` plus public methods of classes named in
  ``__all__``; a function "carries a bound" if it mentions a
  timeout/deadline-flavoured name (parameter, attribute, keyword
  argument, ``settimeout`` call, ``Deadline`` use).  The path search
  stops at bounded functions — the bound covers everything below it.
* **ADOC112** — every ``Thread.start()`` must have a join/reap on some
  shutdown path.  Evidence (a ``.join(...)`` call or a
  ``reap_threads(...)`` call) counts in the starting function, in any
  method of the enclosing class and in any direct caller — the places
  a shutdown path lives — and the start site is reported when *none*
  of those scopes can ever join the thread.  That is a static thread
  leak: the thread outlives every handle that could have reaped it.
  ``daemon=True`` is not evidence: a daemon thread still needs a
  shutdown path, or it dies mid-operation at interpreter exit.

Heuristics are name-based, like the rest of the analyzer; false
positives carry justified inline suppressions naming the rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import CallGraph, FunctionInfo, _is_thread_ctor, _last_name, _short
from .findings import Finding
from .rules import _TRANSPORT_OPS, _queue_op

__all__ = ["check_deadline_propagation", "check_thread_lifecycles"]

_BOUND_FRAGMENTS = ("timeout", "deadline", "expires", "give_up")
_BOUND_NAMES = {"Deadline", "settimeout"}

#: Receivers whose ``send`` resumes a generator/coroutine — control
#: flow, not I/O.  Exact names only: "gen" must not match "agent".
_GENERATOR_RECEIVERS = {"gen", "generator", "coro", "coroutine"}


# ---------------------------------------------------------------------------
# ADOC111: deadline propagation
# ---------------------------------------------------------------------------


def _mentions_bound(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Does this function visibly participate in deadline discipline?"""
    args = list(fn.args.posonlyargs) + list(fn.args.args) + list(fn.args.kwonlyargs)
    for arg in args:
        if _boundish(arg.arg):
            return True
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            if _boundish(node.id) or node.id in _BOUND_NAMES:
                return True
        elif isinstance(node, ast.Attribute):
            if _boundish(node.attr) or node.attr in _BOUND_NAMES:
                return True
        elif isinstance(node, ast.keyword) and node.arg is not None:
            if _boundish(node.arg):
                return True
    return False


def _boundish(name: str) -> bool:
    low = name.lower()
    return any(frag in low for frag in _BOUND_FRAGMENTS)


def _transport_blocking_ops(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    resolved_sites: frozenset[tuple[int, int]] = frozenset(),
) -> list[tuple[str, int]]:
    """Direct blocking transport/queue operations in one function.

    Sleeps and codec calls are not in the vocabulary: they are bounded,
    not waits on a peer.  ``resolved_sites`` holds (line, col) of calls
    the call graph resolved to in-tree functions; those are *not* direct
    transport ops — the BFS descends into them and judges the callee's
    own body instead.
    """
    ops: list[tuple[str, int]] = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if (node.lineno, node.col_offset) in resolved_sites:
            continue
        name = _last_name(node.func)
        if name is not None and name in _TRANSPORT_OPS:
            if (
                name == "send"
                and isinstance(node.func, ast.Attribute)
                and _last_name(node.func.value) in _GENERATOR_RECEIVERS
            ):
                continue
            ops.append((name, node.lineno))
        else:
            op = _queue_op(node)
            if op is not None:
                ops.append((op, node.lineno))
    return ops


def _entry_points(cg: CallGraph) -> list[FunctionInfo]:
    """Public API surface: ``__all__`` functions + public methods of
    ``__all__`` classes."""
    out: list[FunctionInfo] = []
    for mod in cg.modules.values():
        for name in sorted(mod.public_names):
            qual = f"{mod.name}.{name}"
            if qual in cg.functions:
                out.append(cg.functions[qual])
            elif qual in cg.classes:
                cls = cg.classes[qual]
                for meth, meth_qual in sorted(cls.methods.items()):
                    if not meth.startswith("_"):
                        out.append(cg.functions[meth_qual])
    return out


def check_deadline_propagation(
    cg: CallGraph,
    suppressions: dict[str, dict[int, set[str]]] | None = None,
) -> list[Finding]:
    """ADOC111: unbounded blocking reachable from the public API.

    ``suppressions`` is the per-path, per-line suppressed-rule map the
    driver already parsed.  A blocking call whose own line carries an
    ``ADOC111`` suppression is a *justified leaf* — non-blocking by
    construction (``O_NONBLOCK`` descriptors, self-pipe writes) — and
    kills every path through it, so a sanctioned leaf does not have to
    be re-suppressed at each public entry point that can reach it.  The
    leaf still yields one finding at its own line (which the driver's
    suppression filter then records as suppressed) so the report stays
    honest about what was sanctioned.
    """
    suppressions = suppressions or {}
    bounded = {
        qual: _mentions_bound(info.node) for qual, info in cg.functions.items()
    }
    blocking = {}
    findings: list[Finding] = []
    leaf_seen: set[tuple[str, int]] = set()
    for qual, info in cg.functions.items():
        resolved = frozenset(
            (site.line, site.col)
            for site in cg.calls.get(qual, ())
            if site.callees
        )
        sanctioned = suppressions.get(info.path, {})
        live_ops = []
        for op, line in _transport_blocking_ops(info.node, resolved):
            if "ADOC111" not in sanctioned.get(line, ()):
                live_ops.append((op, line))
            elif (info.path, line) not in leaf_seen:
                leaf_seen.add((info.path, line))
                findings.append(
                    Finding(
                        info.path,
                        line,
                        info.node.col_offset,
                        "ADOC111",
                        f"blocking '{op}' in '{_short(qual)}' sanctioned "
                        "at the leaf — paths through it are pruned",
                    )
                )
        blocking[qual] = live_ops
    for entry in _entry_points(cg):
        if bounded.get(entry.qualname, False):
            continue
        # BFS along call + thread edges, pruned at bounded functions.
        parent: dict[str, str] = {entry.qualname: ""}
        queue = [entry.qualname]
        hit: tuple[str, str, int] | None = None  # (fn, op, line)
        while queue and hit is None:
            cur = queue.pop(0)
            if blocking.get(cur):
                op, line = blocking[cur][0]
                hit = (cur, op, line)
                break
            for nxt in sorted(cg.callees(cur, kinds=("call", "thread"))):
                if nxt in parent or bounded.get(nxt, False):
                    continue
                parent[nxt] = cur
                queue.append(nxt)
        if hit is None:
            continue
        leaf, op, line = hit
        chain = [leaf]
        while parent[chain[-1]]:
            chain.append(parent[chain[-1]])
        path_str = " -> ".join(_short(q) for q in reversed(chain))
        where = cg.functions[leaf]
        findings.append(
            Finding(
                entry.path,
                entry.line,
                entry.node.col_offset,
                "ADOC111",
                f"public entry point '{_short(entry.qualname)}' reaches "
                f"blocking '{op}' ({where.path}:{line}) via {path_str} with "
                "no io_timeout_s/Deadline bound anywhere on the path — one "
                "stalled peer parks the caller forever; thread a timeout "
                "through, or suppress with a justification",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# ADOC112: thread lifecycle
# ---------------------------------------------------------------------------


@dataclass
class _ThreadBindings:
    """Thread-valued names in one function."""

    #: local var name -> Thread(...) ctor line.
    locals: dict[str, int] = field(default_factory=dict)
    #: ``self.<attr>`` -> ctor line.
    self_attrs: dict[str, int] = field(default_factory=dict)
    #: names bound to *collections built from* Thread(...) ctors.
    lists: set[str] = field(default_factory=set)


def _thread_bindings(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> _ThreadBindings:
    b = _ThreadBindings()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            value = node.value
            is_ctor = isinstance(value, ast.Call) and _is_thread_ctor(value)
            contains_ctor = any(
                isinstance(sub, ast.Call) and _is_thread_ctor(sub)
                for sub in ast.walk(value)
            )
            for t in node.targets:
                if isinstance(t, ast.Name):
                    if is_ctor:
                        b.locals[t.id] = value.lineno
                    elif contains_ctor:
                        b.lists.add(t.id)
                elif (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    and is_ctor
                ):
                    b.self_attrs[t.attr] = value.lineno
        elif isinstance(node, ast.For):
            # ``for t in threads:`` — loop var over a thread collection.
            if (
                isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Name)
                and node.iter.id in b.lists
            ):
                b.locals.setdefault(node.target.id, node.lineno)
    return b


def _has_reap_evidence(node: ast.AST) -> bool:
    """Does this scope contain a ``.join(...)`` or ``reap_threads(...)``?"""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        name = _last_name(sub.func)
        if name == "reap_threads":
            return True
        if isinstance(sub.func, ast.Attribute) and sub.func.attr == "join":
            return True
    return False


def check_thread_lifecycles(cg: CallGraph) -> list[Finding]:
    """ADOC112: ``Thread.start()`` with no join/reap on any shutdown path."""
    # Reverse call edges for the caller-scope check.
    callers: dict[str, set[str]] = {}
    for fn, sites in cg.calls.items():
        for site in sites:
            for callee in site.callees:
                callers.setdefault(callee, set()).add(fn)

    evidence: dict[str, bool] = {
        qual: _has_reap_evidence(info.node) for qual, info in cg.functions.items()
    }
    class_evidence: dict[str, bool] = {}
    for cls in cg.classes.values():
        class_evidence[cls.qualname] = any(
            evidence.get(m, False) for m in cls.methods.values()
        )

    findings: list[Finding] = []
    for qual, info in sorted(cg.functions.items()):
        bindings = _thread_bindings(info.node)
        if not (bindings.locals or bindings.self_attrs or bindings.lists):
            unbound_starts = [
                node
                for node in ast.walk(info.node)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "start"
                and isinstance(node.func.value, ast.Call)
                and _is_thread_ctor(node.func.value)
            ]
            for node in unbound_starts:
                findings.append(_leak(info, node.lineno, node.col_offset, "it"))
            continue
        if evidence.get(qual, False):
            continue  # the starting function itself joins/reaps
        if info.cls is not None and class_evidence.get(info.cls, False):
            continue  # some method of the class can reap it
        if any(evidence.get(c, False) for c in callers.get(qual, ())):
            continue  # a direct caller joins/reaps
        for node in ast.walk(info.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "start"
            ):
                continue
            recv = node.func.value
            started: str | None = None
            if isinstance(recv, ast.Name) and recv.id in bindings.locals:
                started = recv.id
            elif (
                isinstance(recv, ast.Attribute)
                and isinstance(recv.value, ast.Name)
                and recv.value.id == "self"
                and recv.attr in bindings.self_attrs
            ):
                started = f"self.{recv.attr}"
            elif isinstance(recv, ast.Call) and _is_thread_ctor(recv):
                started = "it"
            if started is not None:
                findings.append(
                    _leak(info, node.lineno, node.col_offset, started)
                )
    return findings


def _leak(info: FunctionInfo, line: int, col: int, name: str) -> Finding:
    scope = f"class {_short(info.cls)}" if info.cls else "module scope"
    return Finding(
        info.path,
        line,
        col,
        "ADOC112",
        f"thread started in '{_short(info.qualname)}' is never joined or "
        f"reaped: no join()/reap_threads() in the function, {scope}, or "
        "any direct caller — the thread outlives every handle that could "
        "stop it; add a shutdown path, or suppress with a justification",
    )
