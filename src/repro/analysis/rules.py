"""The blocking-operation vocabulary and the single-file rules.

The rules encode the thread discipline the AdOC pipeline depends on
(paper section 3.1: compression thread -> FIFO -> emission thread):

* condition waits re-check their predicate (ADOC102) and notifies
  happen under the owning lock (ADOC103);
* threads are nameable in stack dumps (ADOC104);
* thread bodies never swallow exceptions silently — they record them
  for re-raise on ``join()``/``close()``, the pattern the core
  sender/receiver already follow (ADOC106);
* the core hot path stays copy-free (ADOC108) and telemetry locks are
  visible to the lock-order detector (ADOC109).

The vocabulary below — which calls block, which calls build locks — is
shared by the whole-program rules: ADOC110 (:mod:`.lockorder`), ADOC111
(:mod:`.interproc`) and ADOC115 (:mod:`.reactorcheck`).

Everything here is a *heuristic* over names and shapes — that is what
makes it cheap and dependency-free (stdlib ``ast`` only).  False
positives are expected occasionally and are suppressed inline with a
``disable=<rule-id> -- justification`` comment (see
:mod:`repro.analysis.checker` for the exact syntax).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from .callgraph import _FUNC_NODES, _TRANSPORT_OPS, _dotted, _is_thread_ctor, _last_name
from .findings import Finding

__all__ = ["check_file"]

#: Sleeps and codec work: bounded, but they park whatever thread (and
#: hold whatever lock) they run under.
_CPU_OPS = frozenset({"sleep", "compress", "decompress"})

#: Queue/thread operations that block only when the receiver looks like
#: a queue/thread (``.get`` is also a dict method, ``.join`` a str one).
_QUEUE_OPS = frozenset({"put", "get", "join"})
_QUEUEISH_FRAGMENTS = ("queue", "fifo", "thread", "worker")
_QUEUEISH_NAMES = {"q", "t", "w"}

_LOCK_FACTORIES = {"Lock", "RLock", "make_lock"}
_COND_FACTORIES = {"Condition", "make_condition"}

#: Identifier fragments that mark a variable as (potentially) a message
#: payload for ADOC108.  Deliberately broad: the rule only runs on hot
#: path files, where a false positive costs one justified suppression.
_PAYLOADISH_FRAGMENTS = (
    "data",
    "payload",
    "buf",
    "chunk",
    "view",
    "body",
    "blob",
    "wire",
)

#: ADOC108 applies only to the send/receive hot path, where the
#: zero-copy discipline is load-bearing.
_HOT_PATH_PART = "core"

#: ADOC109 applies only to the observability subsystem, whose locks
#: must be registered with the lock-order detector (they are taken
#: from arbitrary instrumented call sites).
_OBS_PATH_PART = "obs"


def _queue_op(call: ast.Call) -> str | None:
    """``put``/``get``/``join`` on a queue- or thread-looking receiver."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr in _QUEUE_OPS):
        return None
    recv = _last_name(func.value)
    if recv is None:
        return None
    low = recv.lower()
    if low in _QUEUEISH_NAMES or any(frag in low for frag in _QUEUEISH_FRAGMENTS):
        return func.attr
    return None


def _blocking_op(call: ast.Call) -> str | None:
    """The blocking operation a call performs (ADOC110's vocabulary).

    ``Condition.wait`` is not in it: it releases the lock while blocked
    and is the sanctioned way to block inside a critical section.
    """
    name = _last_name(call.func)
    if name in _TRANSPORT_OPS or name in _CPU_OPS:
        return name
    return _queue_op(call)


def _annotate_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._adoc_parent = node  # type: ignore[attr-defined]


def _ancestors(node: ast.AST) -> Iterator[ast.AST]:
    cur = getattr(node, "_adoc_parent", None)
    while cur is not None:
        yield cur
        cur = getattr(cur, "_adoc_parent", None)


@dataclass
class FileContext:
    """Names-of-interest collected in a prescan of one file."""

    lock_names: set[str] = field(default_factory=set)
    cond_names: set[str] = field(default_factory=set)
    #: All function definitions by name (methods and nested included).
    functions: dict[str, list[ast.FunctionDef]] = field(default_factory=dict)
    thread_calls: list[ast.Call] = field(default_factory=list)

    def is_lockish(self, expr: ast.AST) -> bool:
        """Does ``with <expr>:`` look like it holds a lock?"""
        name = _last_name(expr)
        if name is None:
            return False
        return (
            "lock" in name.lower()
            or name in self.lock_names
            or name in self.cond_names
        )


def _target_names(target: ast.AST) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)


def _prescan(tree: ast.AST) -> FileContext:
    ctx = FileContext()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if isinstance(value, ast.Call):
                factory = _last_name(value.func)
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                if factory in _LOCK_FACTORIES:
                    for t in targets:
                        ctx.lock_names.update(_target_names(t))
                elif factory in _COND_FACTORIES:
                    for t in targets:
                        ctx.cond_names.update(_target_names(t))
        elif isinstance(node, ast.FunctionDef):
            ctx.functions.setdefault(node.name, []).append(node)
        elif isinstance(node, ast.Call) and _is_thread_ctor(node):
            ctx.thread_calls.append(node)
    return ctx


# -- ADOC102: wait() outside a while-predicate loop ------------------------


def _check_wait_in_while(tree: ast.AST, ctx: FileContext, path: str) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wait"
        ):
            continue
        if _last_name(node.func.value) not in ctx.cond_names:
            continue  # Event.wait()/thread.join-style waits are fine bare
        in_while = False
        for anc in _ancestors(node):
            if isinstance(anc, _FUNC_NODES):
                break
            if isinstance(anc, ast.While):
                in_while = True
                break
        if not in_while:
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    node.col_offset,
                    "ADOC102",
                    f"'{_dotted(node.func)}()' outside a while loop — wrap as "
                    "'while not <predicate>: cond.wait()' (wakeups can be "
                    "spurious or stolen)",
                )
            )
    return findings


# -- ADOC103: notify outside the owning lock -------------------------------


def _check_notify_under_lock(
    tree: ast.AST, ctx: FileContext, path: str
) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("notify", "notify_all")
        ):
            continue
        if _last_name(node.func.value) not in ctx.cond_names:
            continue
        under_lock = False
        for anc in _ancestors(node):
            if isinstance(anc, _FUNC_NODES):
                break
            if isinstance(anc, ast.With) and any(
                ctx.is_lockish(item.context_expr) for item in anc.items
            ):
                under_lock = True
                break
        if not under_lock:
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    node.col_offset,
                    "ADOC103",
                    f"'{_dotted(node.func)}()' outside the owning lock — "
                    "notify inside 'with <lock>:' or the waiter can miss it",
                )
            )
    return findings


# -- ADOC104: Thread construction hygiene ----------------------------------


def _check_thread_names(tree: ast.AST, ctx: FileContext, path: str) -> list[Finding]:
    return [
        Finding(
            path,
            call.lineno,
            call.col_offset,
            "ADOC104",
            "Thread created without name= — anonymous threads make "
            "stack dumps and lockgraph reports unreadable",
        )
        for call in ctx.thread_calls
        if not any(kw.arg == "name" for kw in call.keywords)
    ]


# -- ADOC106: thread bodies must record exceptions -------------------------


def _thread_target_functions(ctx: FileContext) -> list[ast.FunctionDef]:
    """FunctionDefs reachable as ``target=`` of a Thread in this file."""
    out: list[ast.FunctionDef] = []
    seen: set[int] = set()
    for call in ctx.thread_calls:
        for kw in call.keywords:
            if kw.arg != "target":
                continue
            name = _last_name(kw.value)
            for fn in ctx.functions.get(name or "", []):
                if id(fn) not in seen:
                    seen.add(id(fn))
                    out.append(fn)
    return out


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    def broad(expr: ast.AST) -> bool:
        return _last_name(expr) in ("Exception", "BaseException")

    t = handler.type
    if t is None:
        return True  # bare except
    if isinstance(t, ast.Tuple):
        return any(broad(e) for e in t.elts)
    return broad(t)


def _handler_records_error(handler: ast.ExceptHandler) -> bool:
    for node in handler.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise):
                return True
            if (
                handler.name is not None
                and isinstance(sub, ast.Name)
                and sub.id == handler.name
                and isinstance(sub.ctx, ast.Load)
            ):
                return True  # exc flows somewhere: append/assign/call
    return False


def _check_swallowed_thread_errors(
    tree: ast.AST, ctx: FileContext, path: str
) -> list[Finding]:
    findings = []
    for fn in _thread_target_functions(ctx):
        for node in ast.walk(fn):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad_handler(node):
                continue  # narrow except (QueueClosed, ...) is a decision
            if _handler_records_error(node):
                continue
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    node.col_offset,
                    "ADOC106",
                    f"thread body '{fn.name}' swallows exceptions — record "
                    "them (errors.append(exc) / self._error = exc) and "
                    "re-raise on join()/close(), as core sender/receiver do",
                )
            )
    return findings


# -- ADOC108: whole-payload copies on the zero-copy hot path ----------------


def _is_payloadish(name: str | None) -> bool:
    if not name:
        return False
    low = name.lower()
    return any(frag in low for frag in _PAYLOADISH_FRAGMENTS)


def _in_hot_path(path: str) -> bool:
    return _HOT_PATH_PART in re.split(r"[\\/]", path)


def _check_payload_copies(tree: ast.AST, ctx: FileContext, path: str) -> list[Finding]:
    """Flag O(payload) copies in ``core/``: ``bytes(<payloadish>)`` and
    ``b"".join(...)``.

    The streaming send engine's contract is that payload bytes travel
    as ``memoryview`` slices from the source to the socket; a ``bytes``
    materialisation or a join re-introduces a copy per message.  Both
    shapes are occasionally legitimate (a compat serializer, assembling
    *compressed* output) — those carry a justified suppression.
    """
    if not _in_hot_path(path):
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "bytes"
            and len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], (ast.Name, ast.Attribute))
            and _is_payloadish(_last_name(node.args[0]))
        ):
            arg = _dotted(node.args[0]) or "<payload>"
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    node.col_offset,
                    "ADOC108",
                    f"'bytes({arg})' copies a whole payload on the hot path "
                    "— pass the buffer/memoryview through, or justify with "
                    "a suppression",
                )
            )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and isinstance(func.value, ast.Constant)
            and func.value.value == b""
        ):
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    node.col_offset,
                    "ADOC108",
                    "b\"\".join(...) materialises an O(payload) buffer on "
                    "the hot path — emit the fragments individually "
                    "(vectored send), or justify with a suppression",
                )
            )
    return findings


# -- ADOC109: unregistered locks in the observability subsystem -------------


def _in_obs_path(path: str) -> bool:
    return _OBS_PATH_PART in re.split(r"[\\/]", path)


def _check_obs_locks(tree: ast.AST, ctx: FileContext, path: str) -> list[Finding]:
    """Flag bare ``threading.Lock()`` / ``RLock()`` / ``Condition()`` in
    ``obs/``.

    Telemetry locks are acquired from *inside* instrumented code — the
    FIFO, the fault injector, the RPC servers — so any obs lock that is
    invisible to the runtime lock-order detector can silently create an
    ordering cycle no test would catch.  ``analysis.lockgraph.make_lock``
    (and ``make_condition``) register the lock with the detector; direct
    ``threading`` constructors bypass it.
    """
    if not _in_obs_path(path):
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted in ("threading.Lock", "threading.RLock", "threading.Condition"):
            kind = dotted.rsplit(".", 1)[1]
            replacement = (
                "make_condition" if kind == "Condition" else "make_lock"
            )
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    node.col_offset,
                    "ADOC109",
                    f"'{dotted}()' in obs/ bypasses the lock-order detector "
                    f"— use analysis.lockgraph.{replacement}(name) so "
                    "telemetry locks participate in cycle detection",
                )
            )
    return findings


def check_file(tree: ast.AST, path: str) -> list[Finding]:
    """Run every single-file rule over a parsed module."""
    _annotate_parents(tree)
    ctx = _prescan(tree)
    findings: list[Finding] = []
    findings += _check_wait_in_while(tree, ctx, path)
    findings += _check_notify_under_lock(tree, ctx, path)
    findings += _check_thread_names(tree, ctx, path)
    findings += _check_swallowed_thread_errors(tree, ctx, path)
    findings += _check_payload_copies(tree, ctx, path)
    findings += _check_obs_locks(tree, ctx, path)
    return findings
