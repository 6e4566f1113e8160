"""Wire-framing symmetry check (ADOC107).

AdOC's framing bugs are asymmetric by nature: the sender packs a header
with one ``struct`` format and the receiver unpacks with another (or
never unpacks at all), and the failure shows up as a hung
``recv_exact`` or a corrupted payload three layers away.  This pass
collects every ``struct`` usage in the analyzed tree — direct
``struct.pack``/``struct.unpack`` calls and ``X = struct.Struct("...")``
aliases — and reports packs with no matching receive side.

Two matching regimes, by how the format is referenced:

* **Literal formats** (``struct.pack(">HH", ...)``) match any unpack of
  the same format string anywhere in the tree.  Two formats of equal
  width but different field layout are still a mismatch — exactly the
  bug class this catches.
* **Struct aliases** are keyed by their *definition site*, not their
  format string, and followed through ``from mod import NAME`` chains
  across modules.  A pack through an alias is satisfied only by an
  unpack of the *same* Struct object (role symmetry: the ``>HQ`` resume
  header in ``mover/striped.py`` is packed by the receive half and must
  be unpacked by the send half) or by a literal unpack of the same
  format.  An unpack through a *different* Struct that merely shares
  the format no longer masks a missing receive side — that was the
  double-counting bug this keying fixes.

Aliases imported from outside the analyzed set resolve to nothing and
are skipped rather than reported: the receive side may live in code we
cannot see.
"""

from __future__ import annotations

import ast
import struct
from dataclasses import dataclass, field

from .callgraph import _last_name, _resolve_relative, module_name_for_path
from .findings import Finding

__all__ = ["StructDef", "StructUsage", "collect_struct_usage", "check_struct_symmetry"]

_PACK_METHODS = {"pack", "pack_into"}
_UNPACK_METHODS = {"unpack", "unpack_from", "iter_unpack"}

#: A reference to a format at a call site: ``("fmt", "<literal>")`` for
#: direct struct.pack/unpack, ``("alias", module, name)`` for Struct
#: objects (possibly still an import link to be resolved).
_Ref = tuple[str, ...]


@dataclass(frozen=True)
class StructDef:
    """One ``NAME = struct.Struct("fmt")`` definition site."""

    module: str
    name: str
    fmt: str
    path: str
    line: int


@dataclass(frozen=True)
class _Use:
    """One pack or unpack call site."""

    path: str
    line: int
    col: int
    ref: _Ref


@dataclass
class StructUsage:
    """Struct definitions, import links, and call sites for a file set."""

    #: (module, name) -> definition.
    defs: dict[tuple[str, str], StructDef] = field(default_factory=dict)
    #: (module, local name) -> (source module, source name) import link.
    imports: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)
    packs: list[_Use] = field(default_factory=list)
    unpacks: list[_Use] = field(default_factory=list)

    def merge(self, other: "StructUsage") -> None:
        self.defs.update(other.defs)
        self.imports.update(other.imports)
        self.packs.extend(other.packs)
        self.unpacks.extend(other.unpacks)

    def resolve(self, ref: _Ref) -> StructDef | None:
        """Follow import links to the defining ``struct.Struct`` site."""
        if ref[0] != "alias":
            return None
        key = (ref[1], ref[2])
        seen: set[tuple[str, str]] = set()
        while key not in self.defs:
            if key in seen or key not in self.imports:
                return None
            seen.add(key)
            key = self.imports[key]
        return self.defs[key]


def _str_const(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def collect_struct_usage(tree: ast.AST, path: str) -> StructUsage:
    """Gather Struct definitions, imports, and call sites from one module."""
    usage = StructUsage()
    module = module_name_for_path(path)

    # Pass 1: import links and alias names bound to struct.Struct("fmt").
    local_aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            src = _resolve_relative(module, node.level, node.module)
            for alias in node.names:
                if alias.name != "*":
                    local = alias.asname or alias.name
                    usage.imports[(module, local)] = (src, alias.name)
            continue
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if not (isinstance(value, ast.Call) and _last_name(value.func) == "Struct"):
            continue
        if not value.args:
            continue
        fmt = _str_const(value.args[0])
        if fmt is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for t in targets:
            name = _last_name(t)
            if name is not None:
                local_aliases.add(name)
                usage.defs[(module, name)] = StructDef(
                    module, name, fmt, path, value.lineno
                )

    # Pass 2: pack/unpack call sites.
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        method = node.func.attr
        if method not in _PACK_METHODS and method not in _UNPACK_METHODS:
            continue
        recv = _last_name(node.func.value)
        ref: _Ref | None = None
        if recv == "struct":
            fmt = _str_const(node.args[0]) if node.args else None
            if fmt is not None:
                ref = ("fmt", fmt)
        elif recv is not None and (
            recv in local_aliases or (module, recv) in usage.imports
        ):
            ref = ("alias", module, recv)
        if ref is None:
            continue
        use = _Use(path, node.lineno, node.col_offset, ref)
        if method in _PACK_METHODS:
            usage.packs.append(use)
        else:
            usage.unpacks.append(use)
    return usage


def _width(fmt: str) -> str:
    try:
        return f"{struct.calcsize(fmt)} bytes"
    except struct.error:
        return "unknown width"


def check_struct_symmetry(usage: StructUsage) -> list[Finding]:
    """Findings for packs with no matching receive side."""
    literal_unpacked: set[str] = set()
    unpacked_defs: set[tuple[str, str]] = set()
    alias_unpacked_fmts: dict[str, StructDef] = {}
    for use in usage.unpacks:
        if use.ref[0] == "fmt":
            literal_unpacked.add(use.ref[1])
        else:
            d = usage.resolve(use.ref)
            if d is not None:
                unpacked_defs.add((d.module, d.name))
                alias_unpacked_fmts.setdefault(d.fmt, d)

    findings: list[Finding] = []
    for use in usage.packs:
        if use.ref[0] == "fmt":
            fmt = use.ref[1]
            if fmt in literal_unpacked or fmt in alias_unpacked_fmts:
                continue
            findings.append(
                Finding(
                    use.path,
                    use.line,
                    use.col,
                    "ADOC107",
                    f"struct format {fmt!r} ({_width(fmt)}) is packed here "
                    "but never unpacked in the analyzed tree — the receive "
                    "side is missing or disagrees on the format",
                )
            )
            continue
        d = usage.resolve(use.ref)
        if d is None:
            continue  # imported from outside the analyzed set
        if (d.module, d.name) in unpacked_defs or d.fmt in literal_unpacked:
            continue
        other = alias_unpacked_fmts.get(d.fmt)
        if other is not None:
            detail = (
                f"the only unpacks of format {d.fmt!r} go through a "
                f"different Struct, '{other.module}.{other.name}' "
                f"({other.path}:{other.line}) — duplicate wire definitions "
                "drift apart; share one Struct object"
            )
        else:
            detail = (
                "the receive side is missing or disagrees on the format"
            )
        findings.append(
            Finding(
                use.path,
                use.line,
                use.col,
                "ADOC107",
                f"Struct '{d.module}.{d.name}' (format {d.fmt!r}, "
                f"{_width(d.fmt)}, defined {d.path}:{d.line}) is packed "
                f"here but {detail}",
            )
        )
    return findings
