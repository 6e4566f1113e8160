"""Static lock-order analysis over the whole-program call graph.

The runtime lock-order detector (:mod:`repro.analysis.lockgraph`) only
sees orderings a test actually *executed*.  This pass computes the
orderings that are statically *possible*: it extracts every ``with
<lock>:`` acquisition, resolves the lock object to a stable identity
(preferring the ``make_lock("...")`` literal name, which is exactly
what the runtime graph reports), and propagates held-lock sets along
the call graph — a function that calls another while holding lock A
contributes an edge ``A -> B`` for every lock B the callee can acquire,
transitively.

Three outputs:

* a :class:`StaticLockGraph` whose cycles are reported as **ADOC113**
  (a statically-possible lock-order inversion, deadlock-capable even if
  no test ever interleaves that way);
* **ADOC110** findings — a blocking call (socket I/O, sleep, codec
  work, queue ops) made while a lock is held: either the call itself
  blocks, or it enters a call chain that reaches one.  Function bodies
  and module top-level statements are both walked;
* cross-validation against a runtime lockgraph export
  (``LockGraph.to_json``): static edges between runtime-named locks
  that the instrumented test run never exercised are reported as
  **ADOC114** *untested ordering* notes — coverage holes in the
  lock-ordering workload, not defects.

Locks whose object cannot be resolved to a declaration (an attribute
of an unknown receiver, a lock handed in as a parameter) still count as
*held* for ADOC110, but are kept out of the order graph: an edge that
cannot be named cannot be compared, and aliasing two unknown locks by
their expression text would fabricate cycles.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import (
    _FUNC_NODES,
    CallGraph,
    ModuleInfo,
    _dotted,
    _last_name,
    _local_var_types,
    _short,
)
from .findings import Finding
from .rules import _COND_FACTORIES, _LOCK_FACTORIES, _blocking_op

__all__ = [
    "LockDecl",
    "StaticLockGraph",
    "analyze_locks",
    "LockAnalysis",
]


@dataclass(frozen=True)
class LockDecl:
    """One statically-declared lock (or condition over a lock)."""

    #: Stable identity: ``<owner qualname>.<attr>`` or module-level name.
    static_id: str
    #: The ``make_lock("...")`` literal, when present — the name the
    #: runtime lock graph reports, enabling cross-validation.
    runtime_name: str | None
    path: str
    line: int


@dataclass(frozen=True)
class _EdgeSite:
    """Where one static ordering edge was derived."""

    path: str
    line: int
    via: str  # human-readable derivation, e.g. "f -> g"


@dataclass
class StaticLockGraph:
    """Statically-possible "held A while acquiring B" edges."""

    #: (src static_id, dst static_id) -> first derivation site.
    edges: dict[tuple[str, str], _EdgeSite] = field(default_factory=dict)
    decls: dict[str, LockDecl] = field(default_factory=dict)

    def add(self, src: str, dst: str, site: _EdgeSite) -> None:
        self.edges.setdefault((src, dst), site)

    def runtime_named_edges(self) -> dict[tuple[str, str], _EdgeSite]:
        """Edges where both endpoints carry a runtime (make_lock) name."""
        out: dict[tuple[str, str], _EdgeSite] = {}
        for (src, dst), site in self.edges.items():
            sname = self._runtime_name(src)
            dname = self._runtime_name(dst)
            if sname is not None and dname is not None:
                out.setdefault((sname, dname), site)
        return out

    def _runtime_name(self, static_id: str) -> str | None:
        decl = self.decls.get(static_id)
        return decl.runtime_name if decl is not None else None

    def find_cycles(self) -> list[list[str]]:
        """Cycles (excluding self-loops) as lists of static lock ids.

        A name-level self-edge usually means two *instances* of the same
        class lock nest — legal and common (striping, hand-over-hand) —
        so self-loops are not treated as cycles here; the instance-keyed
        runtime detector is the authority on those.
        """
        adj: dict[str, list[str]] = {}
        for (a, b) in self.edges:
            if a != b:
                adj.setdefault(a, []).append(b)
        cycles: list[list[str]] = []
        seen: set[tuple[str, ...]] = set()
        WHITE, GREY, BLACK = 0, 1, 2
        color: dict[str, int] = {}

        def dfs(node: str, path: list[str]) -> None:
            color[node] = GREY
            path.append(node)
            for nxt in sorted(adj.get(node, ())):
                state = color.get(nxt, WHITE)
                if state == GREY:
                    cycle = path[path.index(nxt):]
                    lead = cycle.index(min(cycle))
                    canon = tuple(cycle[lead:] + cycle[:lead])
                    if canon not in seen:
                        seen.add(canon)
                        cycles.append(list(canon))
                elif state == WHITE:
                    dfs(nxt, path)
            path.pop()
            color[node] = BLACK

        for start in sorted(adj):
            if color.get(start, WHITE) == WHITE:
                dfs(start, [])
        return cycles


@dataclass
class LockAnalysis:
    """Everything the lock pass produced for one analyzed set."""

    graph: StaticLockGraph
    #: ADOC110 + ADOC113 findings.
    findings: list[Finding] = field(default_factory=list)
    #: ADOC114 untested-ordering notes (informational, never fail a run).
    notes: list[Finding] = field(default_factory=list)


# ---------------------------------------------------------------------------
# lock declaration collection
# ---------------------------------------------------------------------------


def _call_factory(value: ast.AST) -> tuple[str, ast.Call] | None:
    if isinstance(value, ast.Call):
        name = _last_name(value.func)
        if name in _LOCK_FACTORIES or name in _COND_FACTORIES:
            return name or "", value
    return None


def _literal_name(call: ast.Call, factory: str) -> str | None:
    """The ``make_lock("Name")`` / ``make_condition(lock, "Name")`` literal."""
    idx = 1 if factory == "make_condition" else 0
    args = call.args
    if factory in ("Lock", "RLock", "Condition"):
        return None
    if len(args) > idx:
        arg = args[idx]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    for kw in call.keywords:
        if kw.arg == "name" and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, str):
            return kw.value.value
    return None


@dataclass
class _DeclTable:
    """Resolved lock declarations for one analyzed set."""

    #: class qualname -> attr name -> static lock id.
    class_attrs: dict[str, dict[str, str]] = field(default_factory=dict)
    #: module name -> var name -> static lock id.
    module_vars: dict[str, dict[str, str]] = field(default_factory=dict)
    decls: dict[str, LockDecl] = field(default_factory=dict)

    def declare(
        self, static_id: str, runtime_name: str | None, path: str, line: int
    ) -> None:
        self.decls.setdefault(static_id, LockDecl(static_id, runtime_name, path, line))


def _collect_decls(cg: CallGraph) -> _DeclTable:
    table = _DeclTable()
    for mod in cg.modules.values():
        # Module-level locks.
        for node in mod.tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None:
                continue
            hit = _call_factory(value)
            if hit is None:
                continue
            factory, call = hit
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    static_id = f"{mod.name}.{t.id}"
                    cond_of = _condition_lock_module(mod, call, factory, table)
                    resolved = cond_of if cond_of is not None else static_id
                    table.module_vars.setdefault(mod.name, {})[t.id] = resolved
                    if cond_of is None:
                        table.declare(
                            static_id, _literal_name(call, factory),
                            mod.path, node.lineno,
                        )
    for cls in cg.classes.values():
        mod = cg.modules.get(cls.module)
        if mod is None:
            continue
        attrs = table.class_attrs.setdefault(cls.qualname, {})
        for node in ast.walk(cls.node):
            if not isinstance(node, ast.Assign):
                continue
            hit = _call_factory(node.value)
            if hit is None:
                continue
            factory, call = hit
            for t in node.targets:
                if (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ):
                    static_id = f"{cls.qualname}.{t.attr}"
                    if factory in _COND_FACTORIES:
                        # A condition acquires its *underlying* lock.
                        under = _condition_lock_class(attrs, call)
                        attrs[t.attr] = under if under is not None else static_id
                        if under is None:
                            table.declare(
                                static_id, _literal_name(call, factory),
                                mod.path, node.lineno,
                            )
                    else:
                        attrs[t.attr] = static_id
                        table.declare(
                            static_id, _literal_name(call, factory),
                            mod.path, node.lineno,
                        )
    return table


def _condition_lock_class(attrs: dict[str, str], call: ast.Call) -> str | None:
    """For ``make_condition(self._lock, ...)``, the lock's static id."""
    if not call.args:
        return None
    arg = call.args[0]
    if (
        isinstance(arg, ast.Attribute)
        and isinstance(arg.value, ast.Name)
        and arg.value.id == "self"
    ):
        return attrs.get(arg.attr)
    return None


def _condition_lock_module(
    mod: ModuleInfo, call: ast.Call, factory: str, table: _DeclTable
) -> str | None:
    if factory not in _COND_FACTORIES or not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Name):
        return table.module_vars.get(mod.name, {}).get(arg.id)
    return None


# ---------------------------------------------------------------------------
# per-function lock behaviour
# ---------------------------------------------------------------------------


@dataclass
class _FnLockSummary:
    """What one function (or module top level) does with locks, before
    propagation."""

    path: str
    #: (lock id, line, col, held ids at acquisition) per ``with`` item.
    acquires: list[tuple[str, int, int, tuple[str, ...]]] = field(
        default_factory=list
    )
    #: (call node, its own blocking op or None, resolved callees, held
    #: ids) for calls under a lock.
    calls_under_lock: list[
        tuple[ast.Call, str | None, tuple[str, ...], tuple[str, ...]]
    ] = field(default_factory=list)
    #: Blocking operations performed directly in this function.
    blocking: list[tuple[str, int]] = field(default_factory=list)


_OPAQUE = "?"  # prefix marking unresolvable (but held) lock identities


def _looks_lockish(name: str | None) -> bool:
    if name is None:
        return False
    low = name.lower()
    return "lock" in low or "cond" in low or "mutex" in low


class _FnWalker:
    """Walk one function's (or a module's top-level) own statements
    tracking the held-lock stack."""

    def __init__(
        self,
        cg: CallGraph,
        mod: ModuleInfo,
        table: _DeclTable,
        qualname: str,
        cls: str | None,
        var_types: dict[str, str],
    ) -> None:
        self.cg = cg
        self.mod = mod
        self.cls = cls
        self.table = table
        self.var_types = var_types
        self.summary = _FnLockSummary(mod.path)
        self._resolver = {
            site.line: site for site in cg.calls.get(qualname, ())
        }

    # -- lock identity -----------------------------------------------------

    def _lock_id(self, expr: ast.AST) -> str | None:
        """Static id for a ``with <expr>:`` item, or None if not a lock."""
        text = _dotted(expr)
        name = _last_name(expr)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            recv = expr.value.id
            if recv == "self" and self.cls is not None:
                resolved = self._class_attr(self.cls, expr.attr)
                if resolved is not None:
                    return resolved
            elif recv in self.var_types:
                resolved = self._class_attr(self.var_types[recv], expr.attr)
                if resolved is not None:
                    return resolved
        if isinstance(expr, ast.Name):
            mod_vars = self.table.module_vars.get(self.mod.name, {})
            if expr.id in mod_vars:
                return mod_vars[expr.id]
        if _looks_lockish(name):
            return f"{_OPAQUE}{self.mod.name}:{text or name}"
        return None

    def _class_attr(self, cls_qual: str, attr: str) -> str | None:
        seen: set[str] = set()
        work = [cls_qual]
        while work:
            cur = work.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            attrs = self.table.class_attrs.get(cur)
            if attrs and attr in attrs:
                return attrs[attr]
            info = self.cg.classes.get(cur)
            if info is not None:
                work.extend(info.bases)
        return None

    # -- traversal ---------------------------------------------------------

    def walk(self, body: list[ast.stmt]) -> _FnLockSummary:
        self._visit_body(body, ())
        return self.summary

    def _visit_body(self, body: list[ast.stmt], held: tuple[str, ...]) -> None:
        for stmt in body:
            self._visit_stmt(stmt, held)

    def _visit_stmt(self, node: ast.stmt, held: tuple[str, ...]) -> None:
        if isinstance(node, _FUNC_NODES + (ast.ClassDef,)):
            return  # nested definitions run later, lock-free
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = list(held)
            for item in node.items:
                lock_id = self._lock_id(item.context_expr)
                self._scan_expr(item.context_expr, tuple(new_held))
                if lock_id is not None:
                    self.summary.acquires.append(
                        (
                            lock_id,
                            item.context_expr.lineno,
                            item.context_expr.col_offset,
                            tuple(new_held),
                        )
                    )
                    new_held.append(lock_id)
            self._visit_body(node.body, tuple(new_held))
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._visit_stmt(child, held)
            elif isinstance(child, ast.expr):
                self._scan_expr(child, held)

    def _scan_expr(self, node: ast.expr, held: tuple[str, ...]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Lambda,)):
                continue
            if not isinstance(sub, ast.Call):
                continue
            op = _blocking_op(sub)
            if op is not None:
                self.summary.blocking.append((op, sub.lineno))
            if held:
                site = self._resolver.get(sub.lineno)
                callees: tuple[str, ...] = ()
                if site is not None and site.kind == "call":
                    callees = site.callees
                self.summary.calls_under_lock.append((sub, op, callees, held))


# ---------------------------------------------------------------------------
# the whole-program pass
# ---------------------------------------------------------------------------


def _locks_inside_fixpoint(
    cg: CallGraph, summaries: dict[str, _FnLockSummary]
) -> dict[str, set[str]]:
    """Lock ids each function can acquire, directly or transitively."""
    inside: dict[str, set[str]] = {
        fn: {a[0] for a in s.acquires} for fn, s in summaries.items()
    }
    changed = True
    while changed:
        changed = False
        for fn in summaries:
            acc = inside[fn]
            before = len(acc)
            for callee in cg.callees(fn):
                acc |= inside.get(callee, set())
            if len(acc) != before:
                changed = True
    return inside


def _blocking_inside(
    cg: CallGraph, summaries: dict[str, _FnLockSummary]
) -> dict[str, bool]:
    """Does each function block, directly or via synchronous callees?"""
    blocks: dict[str, bool] = {
        fn: bool(s.blocking) for fn, s in summaries.items()
    }
    changed = True
    while changed:
        changed = False
        for fn in summaries:
            if blocks[fn]:
                continue
            if any(blocks.get(c, False) for c in cg.callees(fn)):
                blocks[fn] = True
                changed = True
    return blocks


def _pretty_lock(static_id: str, decls: dict[str, LockDecl]) -> str:
    decl = decls.get(static_id)
    if decl is not None and decl.runtime_name:
        return decl.runtime_name
    if static_id.startswith(_OPAQUE):
        return static_id[1:]
    return static_id


def analyze_locks(
    cg: CallGraph,
    runtime_edges: set[tuple[str, str]] | None = None,
) -> LockAnalysis:
    """Run the full static lock pass over a built call graph.

    ``runtime_edges`` is the name-level edge set from a runtime
    lockgraph export (``LockGraph.to_json()["edges"]``); when given,
    statically-possible edges between runtime-named locks that the run
    never exercised become ADOC114 notes.
    """
    table = _collect_decls(cg)
    graph = StaticLockGraph(decls=table.decls)
    summaries: dict[str, _FnLockSummary] = {}

    for fn in cg.functions.values():
        mod = cg.modules.get(fn.module)
        if mod is None:
            continue
        var_types = _local_var_types(cg, mod, fn.node)
        walker = _FnWalker(cg, mod, table, fn.qualname, fn.cls, var_types)
        summaries[fn.qualname] = walker.walk(fn.node.body)
    for mod in cg.modules.values():
        # Top-level statements run at import time; no call graph node
        # covers them, so only their direct blocking calls can be seen.
        qual = f"{mod.name}.<module>"
        walker = _FnWalker(cg, mod, table, qual, None, {})
        summaries[qual] = walker.walk(mod.tree.body)

    inside = _locks_inside_fixpoint(cg, summaries)
    blocks = _blocking_inside(cg, summaries)
    findings: list[Finding] = []

    def is_named(lock_id: str) -> bool:
        return not lock_id.startswith(_OPAQUE)

    # Intra-function nesting edges.
    for fn_name, summary in summaries.items():
        for lock_id, line, _col, held in summary.acquires:
            for h in held:
                if is_named(h) and is_named(lock_id):
                    graph.add(
                        h, lock_id, _EdgeSite(summary.path, line, f"in {fn_name}")
                    )

    # Interprocedural edges + ADOC110.
    reported_110: set[tuple[str, int]] = set()
    for fn_name, summary in summaries.items():
        for call, op, callees, held in summary.calls_under_lock:
            for callee in callees:
                for acquired in inside.get(callee, set()):
                    for h in held:
                        if is_named(h) and is_named(acquired):
                            graph.add(
                                h,
                                acquired,
                                _EdgeSite(
                                    summary.path, call.lineno,
                                    f"{fn_name} -> {callee}",
                                ),
                            )
            # ADOC110: the call blocks, or a callee (transitively) does,
            # while we hold a lock.
            blocker = next((c for c in callees if blocks.get(c, False)), None)
            if op is not None:
                reaches = f"is a blocking '{op}'"
            elif blocker is not None:
                target = _first_blocking_path(cg, summaries, blocker)
                reaches = f"reaches blocking {target}"
            else:
                continue
            key = (fn_name, call.lineno)
            if key in reported_110:
                continue
            reported_110.add(key)
            lock_names = ", ".join(
                sorted(_pretty_lock(h, table.decls) for h in held)
            )
            findings.append(
                Finding(
                    summary.path,
                    call.lineno,
                    call.col_offset,
                    "ADOC110",
                    f"call '{_dotted(call.func) or '<call>'}' while holding "
                    f"'{lock_names}' {reaches} — every other user of the "
                    "lock stalls for its full duration; move the work "
                    "outside the critical section, or suppress with a "
                    "justification",
                )
            )

    # ADOC113: statically-possible ordering cycles.
    for cycle in graph.find_cycles():
        pretty = " -> ".join(
            _pretty_lock(c, table.decls) for c in cycle + [cycle[0]]
        )
        first_edge = graph.edges.get((cycle[0], cycle[1 % len(cycle)]))
        site = first_edge if first_edge is not None else _EdgeSite("<unknown>", 1, "")
        findings.append(
            Finding(
                site.path,
                site.line,
                0,
                "ADOC113",
                f"statically-possible lock-order cycle: {pretty} "
                f"(derived {site.via}) — a deadlock needs no test to be "
                "real; fix the acquisition order",
            )
        )

    notes: list[Finding] = []
    if runtime_edges is not None:
        for (src, dst), site in sorted(graph.runtime_named_edges().items()):
            if src == dst:
                continue
            if (src, dst) not in runtime_edges:
                notes.append(
                    Finding(
                        site.path,
                        site.line,
                        0,
                        "ADOC114",
                        f"static ordering '{src}' -> '{dst}' "
                        f"({site.via}) was never exercised by the "
                        "instrumented run — untested lock ordering",
                    )
                )
    return LockAnalysis(graph=graph, findings=findings, notes=notes)


def _first_blocking_path(
    cg: CallGraph, summaries: dict[str, _FnLockSummary], start: str
) -> str:
    """Human-readable ``op at path:line (via f -> g)`` for ADOC110."""
    targets = {fn for fn, s in summaries.items() if s.blocking}
    path = cg.shortest_path(start, targets)
    if path is None:
        return "operation"
    leaf = path[-1]
    op, line = summaries[leaf].blocking[0]
    where = cg.functions[leaf]
    via = " -> ".join(_short(p) for p in path)
    return f"'{op}' at {where.path}:{line} (via {via})"
