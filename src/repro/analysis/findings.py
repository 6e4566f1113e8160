"""Finding records and the ADOC rule registry.

Every rule ``adoc check`` can emit is listed here with a one-line
description; :mod:`repro.analysis.rules` implements the single-file
checks, :mod:`repro.analysis.wirecheck`, :mod:`repro.analysis.lockorder`,
:mod:`repro.analysis.interproc` and :mod:`repro.analysis.reactorcheck`
the whole-program ones, and ``docs/LINTING.md`` documents each rule
with bad/good examples.  Retired IDs (ADOC101, ADOC105) are absent, so
a suppression still naming one earns ADOC100.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "RULES"]


@dataclass(frozen=True, order=True)
class Finding:
    """One analyzer finding, pointing at a source location.

    Ordering is (path, line, col, rule) so reports are deterministic.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


#: Rule ID -> short description (the long form lives in docs/LINTING.md).
RULES: dict[str, str] = {
    "ADOC100": "suppression without an inline justification, or naming an unknown rule",
    "ADOC102": "Condition.wait() not guarded by a while-predicate loop",
    "ADOC103": "notify()/notify_all() outside the owning lock",
    "ADOC104": "threading.Thread created without name=",
    "ADOC106": "thread body swallows exceptions without recording them",
    "ADOC107": "struct format packed but never unpacked (wire asymmetry)",
    "ADOC108": "whole-payload copy (bytes()/b''.join) on the core hot path",
    "ADOC109": "direct threading lock/condition in obs/ (use lockgraph.make_lock)",
    # Whole-program rules: they need the call graph.
    "ADOC110": "blocking call made, directly or via callees, while a lock is held",
    "ADOC111": "public entry point reaches blocking I/O with no deadline bound",
    "ADOC112": "Thread.start() with no join()/reap_threads() on any shutdown path",
    "ADOC113": "statically-possible lock-order cycle",
    "ADOC114": "statically-possible lock ordering never exercised at runtime",
    "ADOC115": "blocking call reachable from a reactor callback",
}
