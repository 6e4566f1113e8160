"""Whole-program call graph over a closed set of Python modules.

``adoc check``'s interprocedural passes (lock-order propagation,
ADOC110..ADOC112) all reduce to one question a per-file rule cannot
answer: *which function bodies can run downstream of this statement?*
This module builds the answer — a conservative, name-resolution-based
call graph over every module handed to it — without importing any of
the analyzed code (pure ``ast``, like the rest of the analyzer).

Resolution strategy, in decreasing order of confidence:

1. **Module-qualified names.**  ``mod.func(...)`` and bare ``func(...)``
   resolve through each module's import table (``import a.b as c``,
   ``from ..core import fifo`` — relative imports are resolved against
   the importing module's dotted name) to functions and classes defined
   in the analyzed set.  Calling a class resolves to its ``__init__``.
2. **``self`` calls.**  ``self.meth(...)`` resolves within the
   enclosing class, then through statically-known base classes.
3. **Typed receivers.**  ``v.meth(...)`` resolves when ``v``'s class is
   statically known: a local ``v = ClassName(...)`` construction, a
   parameter/variable annotation, or a ``self.attr = ClassName(...)``
   assignment recorded for the receiver's class.
4. **Unique method names.**  As a last resort an attribute call
   resolves to ``Class.meth`` iff exactly *one* class in the analyzed
   set defines ``meth`` — unambiguous by construction.  Ambiguous
   names stay unresolved rather than guessing (documented limit; see
   ``docs/ANALYSIS.md``).

``threading.Thread(target=fn)`` contributes a ``thread`` edge to
``fn``: the body *will* run, but not synchronously at the creation
site.  Passes that care about synchronous execution (lock-order,
blocking-under-lock) skip thread edges; reachability passes
(deadline-propagation) follow them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "CallGraph",
    "build_callgraph",
    "module_name_for_path",
]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Transport operations that block on a peer, whatever the receiver
#: (module-level helpers count too: ``sendall(ep, ...)``).
_TRANSPORT_OPS = frozenset(
    {
        "send",
        "sendall",
        "sendto",
        "sendmsg",
        "send_vectors",
        "sendall_vectors",
        "recv",
        "recv_into",
        "recv_exact",
        "accept",
        "connect",
    }
)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a file path.

    ``src/repro/core/fifo.py`` -> ``repro.core.fifo``; a leading
    ``src`` (or any prefix before the last ``src`` component) is
    dropped, ``__init__.py`` maps to the package name.  Paths without a
    ``src`` marker use every component, so synthetic fixture paths like
    ``pkg/a.py`` become ``pkg.a``.
    """
    parts = [p for p in str(path).replace("\\", "/").split("/") if p and p != "."]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class CallSite:
    """One call expression, with its resolved callee candidates."""

    caller: str
    #: Qualified names of the callees this site can reach (empty when
    #: unresolved).  More than one entry only for constructor+__init__.
    callees: tuple[str, ...]
    line: int
    col: int
    #: Rendered callee expression (``self.sender.send``) for messages.
    text: str
    #: ``"call"`` for synchronous calls, ``"thread"`` for
    #: ``Thread(target=...)`` hand-offs.
    kind: str = "call"


@dataclass
class FunctionInfo:
    """One function or method in the analyzed set."""

    qualname: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None  # enclosing class qualname, if a method
    line: int = 0


@dataclass
class ClassInfo:
    """One class: its methods, bases, and statically-typed attributes."""

    qualname: str
    module: str
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname
    bases: list[str] = field(default_factory=list)  # resolved base qualnames
    #: ``self.attr`` -> class qualname, from ``self.attr = ClassName(...)``.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One analyzed module: tree, import table, definitions."""

    name: str
    path: str
    tree: ast.Module
    #: local binding -> dotted target (module, module.func, module.Class).
    imports: dict[str, str] = field(default_factory=dict)
    #: names declared in ``__all__`` (empty when no ``__all__``).
    public_names: set[str] = field(default_factory=set)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _last_name(node: ast.AST) -> str | None:
    """The final identifier of a Name/Attribute chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _short(qualname: str) -> str:
    """``Class.meth`` (the last two parts) of a qualname, for messages."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


def _resolve_relative(module: str, level: int, target: str | None) -> str:
    """Absolute module name for a ``from ...x import y`` of ``level`` dots."""
    if level == 0:
        return target or ""
    base = module.split(".")
    # level 1 = current package: strip the module's own leaf name.
    base = base[: len(base) - level] if len(base) >= level else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


class CallGraph:
    """The resolved whole-program graph.  Build with :func:`build_callgraph`."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.calls: dict[str, list[CallSite]] = {}
        #: bare method name -> list of defining class qualnames.
        self.methods_by_name: dict[str, list[str]] = {}

    # -- queries -----------------------------------------------------------

    def callees(self, qualname: str, kinds: tuple[str, ...] = ("call",)) -> set[str]:
        """Direct callees of one function, filtered by edge kind."""
        out: set[str] = set()
        for site in self.calls.get(qualname, ()):
            if site.kind in kinds:
                out.update(site.callees)
        return out

    def reachable(
        self, roots: Iterable[str], kinds: tuple[str, ...] = ("call",)
    ) -> set[str]:
        """Every function reachable from ``roots`` along ``kinds`` edges."""
        seen: set[str] = set()
        work = [r for r in roots if r in self.functions]
        while work:
            fn = work.pop()
            if fn in seen:
                continue
            seen.add(fn)
            work.extend(c for c in self.callees(fn, kinds) if c not in seen)
        return seen

    def shortest_path(
        self,
        src: str,
        targets: set[str],
        kinds: tuple[str, ...] = ("call",),
    ) -> list[str] | None:
        """BFS path (list of qualnames) from ``src`` to any of ``targets``."""
        if src in targets:
            return [src]
        parent: dict[str, str] = {src: ""}
        queue = [src]
        while queue:
            cur = queue.pop(0)
            for nxt in sorted(self.callees(cur, kinds)):
                if nxt in parent:
                    continue
                parent[nxt] = cur
                if nxt in targets:
                    path = [nxt]
                    while parent[path[-1]]:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                queue.append(nxt)
        return None

    def functions_in_module(self, module: str) -> Iterator[FunctionInfo]:
        for info in self.functions.values():
            if info.module == module:
                yield info


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _collect_imports(tree: ast.Module, module: str) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(module, node.level, node.module)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _collect_public_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        return {
                            elt.value
                            for elt in node.value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        }
    return set()


@dataclass
class _Scope:
    """Lexical scope stack entry used while walking one module."""

    qualname: str
    node: ast.AST


class _ModuleWalker(ast.NodeVisitor):
    """First pass: register functions, classes, methods, attr types."""

    def __init__(self, graph: CallGraph, mod: ModuleInfo) -> None:
        self.graph = graph
        self.mod = mod
        self.stack: list[_Scope] = []
        self.current_class: list[ClassInfo] = []

    def _qual(self, name: str) -> str:
        if self.stack:
            return f"{self.stack[-1].qualname}.{name}"
        return f"{self.mod.name}.{name}"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = self._qual(node.name)
        info = ClassInfo(qual, self.mod.name, node)
        self.graph.classes[qual] = info
        self.stack.append(_Scope(qual, node))
        self.current_class.append(info)
        self.generic_visit(node)
        self.current_class.pop()
        self.stack.pop()

    def _visit_func(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        qual = self._qual(node.name)
        cls = self.current_class[-1] if self.current_class else None
        # A def nested inside a function is not a method even when the
        # chain runs through a class.
        is_method = cls is not None and isinstance(
            self.stack[-1].node if self.stack else None, ast.ClassDef
        )
        self.graph.functions[qual] = FunctionInfo(
            qual,
            self.mod.name,
            self.mod.path,
            node,
            cls=cls.qualname if is_method and cls is not None else None,
            line=node.lineno,
        )
        if is_method and cls is not None:
            cls.methods[node.name] = qual
            self.graph.methods_by_name.setdefault(node.name, []).append(
                cls.qualname
            )
        self.stack.append(_Scope(qual, node))
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func


def _infer_attr_types(graph: CallGraph, mod: ModuleInfo) -> None:
    """Record ``self.attr = ClassName(...)`` attribute types per class."""
    for cls in [c for c in graph.classes.values() if c.module == mod.name]:
        for node in ast.walk(cls.node):
            if not isinstance(node, ast.Assign):
                continue
            ctor = _constructed_class(graph, mod, node.value)
            if ctor is None:
                continue
            for t in node.targets:
                if (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ):
                    cls.attr_types.setdefault(t.attr, ctor)


def _constructed_class(
    graph: CallGraph, mod: ModuleInfo, value: ast.AST
) -> str | None:
    """Class qualname if ``value`` is ``ClassName(...)`` of a known class."""
    if not isinstance(value, ast.Call):
        return None
    target = _resolve_name(graph, mod, value.func)
    if target is not None and target in graph.classes:
        return target
    return None


def _resolve_name(graph: CallGraph, mod: ModuleInfo, expr: ast.AST) -> str | None:
    """Resolve a Name/Attribute chain to a known module-level qualname."""
    chain = _dotted(expr)
    if chain is None:
        return None
    head, _, rest = chain.partition(".")
    candidates = []
    # Local definition in this module.
    candidates.append(f"{mod.name}.{chain}")
    # Through the import table.
    if head in mod.imports:
        target = mod.imports[head]
        candidates.append(f"{target}.{rest}" if rest else target)
    for cand in candidates:
        if cand in graph.classes or cand in graph.functions:
            return cand
        # `from m import Cls` then `Cls.method` style references.
        base, _, leaf = cand.rpartition(".")
        if base in graph.classes and leaf in graph.classes[base].methods:
            return graph.classes[base].methods[leaf]
    return None


def _annotation_class(
    graph: CallGraph, mod: ModuleInfo, ann: ast.AST | None
) -> str | None:
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return None
    target = _resolve_name(graph, mod, ann)
    if target in graph.classes:
        return target
    return None


def _local_var_types(
    graph: CallGraph, mod: ModuleInfo, fn: ast.FunctionDef | ast.AsyncFunctionDef
) -> dict[str, str]:
    """var name -> class qualname, from ctor assignments and annotations."""
    types: dict[str, str] = {}
    args = list(fn.args.posonlyargs) + list(fn.args.args) + list(fn.args.kwonlyargs)
    for arg in args:
        cls = _annotation_class(graph, mod, arg.annotation)
        if cls is not None:
            types[arg.arg] = cls
    for node in ast.walk(fn):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            cls = _annotation_class(graph, mod, node.annotation)
            if cls is None and node.value is not None:
                cls = _constructed_class(graph, mod, node.value)
            if cls is not None:
                types[node.target.id] = cls
        elif isinstance(node, ast.Assign):
            cls = _constructed_class(graph, mod, node.value)
            if cls is None:
                continue
            for t in node.targets:
                if isinstance(t, ast.Name):
                    types[t.id] = cls
    return types


def _lookup_method(graph: CallGraph, cls_qual: str, meth: str) -> str | None:
    """Find ``meth`` on ``cls_qual`` or its known base classes."""
    seen: set[str] = set()
    work = [cls_qual]
    while work:
        cur = work.pop(0)
        if cur in seen or cur not in graph.classes:
            continue
        seen.add(cur)
        info = graph.classes[cur]
        if meth in info.methods:
            return info.methods[meth]
        work.extend(info.bases)
    return None


class _CallCollector:
    """Second pass: resolve every call expression in one function."""

    def __init__(self, graph: CallGraph, mod: ModuleInfo, fn: FunctionInfo) -> None:
        self.graph = graph
        self.mod = mod
        self.fn = fn
        self.var_types = _local_var_types(graph, mod, fn.node)

    def _receiver_class(self, value: ast.AST) -> str | None:
        """Statically-known class of a call receiver expression."""
        if isinstance(value, ast.Name):
            if value.id == "self" and self.fn.cls is not None:
                return self.fn.cls
            if value.id in self.var_types:
                return self.var_types[value.id]
            return None
        if isinstance(value, ast.Attribute):
            owner = self._receiver_class(value.value)
            if owner is not None and owner in self.graph.classes:
                return self.graph.classes[owner].attr_types.get(value.attr)
            return None
        if isinstance(value, ast.Subscript):
            # ``sockets[i].write`` — element types are not tracked.
            return None
        return None

    def resolve(self, call: ast.Call) -> tuple[str, ...]:
        func = call.func
        # Direct module-level resolution (functions, classes, imported names).
        target = _resolve_name(self.graph, self.mod, func)
        if target is not None:
            return self._as_callable(target)
        if isinstance(func, ast.Attribute):
            recv_cls = self._receiver_class(func.value)
            if recv_cls is not None:
                meth = _lookup_method(self.graph, recv_cls, func.attr)
                if meth is not None:
                    return (meth,)
                return ()
            # Unique-method-name fallback: unambiguous across the program.
            # Never for a transport op: one in-tree ``accept`` method
            # must not turn every bare ``sock.accept()`` into its call.
            owners = self.graph.methods_by_name.get(func.attr, [])
            if len(owners) == 1 and func.attr not in _TRANSPORT_OPS:
                return (self.graph.classes[owners[0]].methods[func.attr],)
            return ()
        if isinstance(func, ast.Name):
            # Nested function defined in an enclosing scope of this module.
            nested = self._nested_function(func.id)
            if nested is not None:
                return (nested,)
        return ()

    def _as_callable(self, target: str) -> tuple[str, ...]:
        if target in self.graph.functions:
            return (target,)
        if target in self.graph.classes:
            init = _lookup_method(self.graph, target, "__init__")
            return (init,) if init is not None else ()
        return ()

    def _nested_function(self, name: str) -> str | None:
        prefix = self.fn.qualname
        while prefix:
            cand = f"{prefix}.{name}"
            if cand in self.graph.functions:
                return cand
            prefix, _, _ = prefix.rpartition(".")
            cand = f"{prefix}.{name}" if prefix else name
            if cand in self.graph.functions:
                return cand
        return None

    def thread_target(self, call: ast.Call) -> tuple[str, ...]:
        """Resolved target function of a ``Thread(target=...)`` call."""
        for kw in call.keywords:
            if kw.arg != "target":
                continue
            value = kw.value
            # ``target=lambda: f(...)`` — resolve calls inside the lambda.
            if isinstance(value, ast.Lambda):
                out: list[str] = []
                for sub in ast.walk(value.body):
                    if isinstance(sub, ast.Call):
                        out.extend(self.resolve(sub))
                return tuple(out)
            target = _resolve_name(self.graph, self.mod, value)
            if target is not None:
                if target in self.graph.functions:
                    return (target,)
                continue
            if isinstance(value, ast.Attribute):
                recv_cls = self._receiver_class(value.value)
                if recv_cls is not None:
                    meth = _lookup_method(self.graph, recv_cls, value.attr)
                    if meth is not None:
                        return (meth,)
            elif isinstance(value, ast.Name):
                nested = self._nested_function(value.id)
                if nested is not None:
                    return (nested,)
        return ()


def _is_thread_ctor(call: ast.Call) -> bool:
    chain = _dotted(call.func)
    return chain is not None and (chain == "Thread" or chain.endswith(".Thread"))


def _own_statements(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without descending into nested defs/classes.

    Nested functions execute when *called*, not when defined — their
    calls belong to their own graph node.  Lambdas are kept: they are
    anonymous and execute in the enclosing frame when invoked, and
    treating their calls as the parent's is the conservative choice.
    """
    work: list[ast.AST] = list(fn.body)
    while work:
        node = work.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNC_NODES + (ast.ClassDef,)):
                continue
            work.append(child)


def build_callgraph(sources: Iterable[tuple[str, str | ast.Module]]) -> CallGraph:
    """Build the whole-program graph from (path, source) pairs.

    A source is the file's text or its already-parsed module (the
    checker parses each file once and shares the tree).  Text that
    fails to parse is skipped (the checker reports it separately as
    ADOC100); everything else is a closed world — calls out of the
    analyzed set stay unresolved by design.
    """
    graph = CallGraph()
    trees: list[ModuleInfo] = []
    for path, source in sources:
        if isinstance(source, ast.Module):
            tree = source
        else:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
        name = module_name_for_path(path)
        mod = ModuleInfo(
            name,
            path,
            tree,
            public_names=_collect_public_names(tree),
        )
        mod.imports = _collect_imports(tree, name)
        graph.modules[name] = mod
        trees.append(mod)

    # Pass 1: definitions.
    for mod in trees:
        _ModuleWalker(graph, mod).visit(mod.tree)

    # Pass 1.5: base classes (needs every class registered first).
    for mod in trees:
        for cls in [c for c in graph.classes.values() if c.module == mod.name]:
            for base in cls.node.bases:
                resolved = _resolve_name(graph, mod, base)
                if resolved is not None and resolved in graph.classes:
                    cls.bases.append(resolved)

    # Pass 1.75: attribute types (needs classes + imports).
    for mod in trees:
        _infer_attr_types(graph, mod)

    # Pass 2: call sites.
    for mod in trees:
        for fn in list(graph.functions.values()):
            if fn.module != mod.name or fn.path != mod.path:
                continue
            collector = _CallCollector(graph, mod, fn)
            sites: list[CallSite] = []
            for node in _own_statements(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                text = _dotted(node.func) or "<call>"
                if _is_thread_ctor(node):
                    targets = collector.thread_target(node)
                    if targets:
                        sites.append(
                            CallSite(
                                fn.qualname, targets, node.lineno,
                                node.col_offset, text, kind="thread",
                            )
                        )
                    continue
                callees = collector.resolve(node)
                sites.append(
                    CallSite(
                        fn.qualname, callees, node.lineno, node.col_offset, text
                    )
                )
            graph.calls[fn.qualname] = sites
    return graph
