"""`adoc check` — the repo's concurrency & protocol analyzer.

One pass over a closed source set: each file is parsed once, the
single-file rules (:mod:`repro.analysis.rules`, ADOC102..ADOC109) run
on that tree, and the same trees feed the whole-program passes:

* the call graph (:mod:`repro.analysis.callgraph`),
* static lock-order extraction, cycle detection (ADOC113), and ADOC110
  blocking-under-lock (:mod:`repro.analysis.lockorder`),
* ADOC111 deadline-propagation and ADOC112 thread-lifecycle
  (:mod:`repro.analysis.interproc`),
* ADOC115 reactor-callback blocking (:mod:`repro.analysis.reactorcheck`),
* cross-module wire symmetry, ADOC107 (:mod:`repro.analysis.wirecheck`).

Cross-validation against a runtime ``REPRO_LOCKCHECK`` lockgraph
export (``--lockgraph``) reports statically-possible lock orderings no
instrumented test ever exercised — ADOC114 notes, informational only.

Suppressions are inline comments on the line the finding points at::

    with conn.write_lock:
        conn.sender.send(buf)  # adoclint: disable=<RULE-ID> -- <why this is safe here>

The justification after ``--`` is mandatory: a bare
``# adoclint: disable=ADOC110`` suppresses the finding but raises
ADOC100 instead, so unexplained suppressions cannot accumulate; so does
a suppression naming an unknown (or retired) rule ID.  ``disable=all``
is accepted for generated code.  An optional checked-in baseline
(:mod:`repro.analysis.baseline`) accepts known findings.  Exit codes:
0 clean, 1 findings, 2 internal error.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from . import interproc, reactorcheck
from .baseline import apply_baseline, load_baseline, write_baseline
from .callgraph import build_callgraph
from .emitters import json_document, render_document, sarif_document
from .findings import Finding, RULES
from .lockorder import analyze_locks
from .rules import check_file
from .wirecheck import StructUsage, check_struct_symmetry, collect_struct_usage

__all__ = ["CheckReport", "run_check", "iter_python_files", "main"]

TOOL_NAME = "adoc-check"

_SUPPRESS_RE = re.compile(
    r"#\s*adoclint:\s*disable=([A-Za-z0-9,\s]+?)\s*(?:--\s*(\S.*))?$"
)


@dataclass
class CheckReport:
    """Outcome of one `adoc check` run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    #: Informational findings (ADOC114 untested orderings); reported but
    #: never affect the exit code.
    notes: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    functions_resolved: int = 0
    lock_edges: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def render(self, verbose: bool = False) -> str:
        lines = []
        for f in sorted(self.findings):
            lines.append(f.render())
        if verbose:
            for f in sorted(self.suppressed):
                lines.append(f"suppressed: {f.render()}")
            for f in sorted(self.baselined):
                lines.append(f"baselined: {f.render()}")
        for f in sorted(self.notes):
            lines.append(f"note: {f.render()}")
        lines.append(
            f"adoc check: {self.files_checked} file(s), "
            f"{self.functions_resolved} function(s), "
            f"{self.lock_edges} static lock edge(s): "
            f"{len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed, "
            f"{len(self.baselined)} baselined, "
            f"{len(self.notes)} note(s)"
        )
        return "\n".join(lines)


def _parse_suppressions(
    source: str, path: str
) -> tuple[dict[int, set[str]], list[Finding]]:
    """Per-line suppressed rule IDs, plus ADOC100 findings.

    A suppression with no ``-- justification`` still suppresses (the
    author clearly meant to) but earns an ADOC100 so it cannot pass a
    clean run; so does one naming an unknown rule ID.
    """
    suppressions: dict[int, set[str]] = {}
    meta: list[Finding] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        ids = {part.strip().upper() for part in m.group(1).split(",") if part.strip()}
        justification = m.group(2)
        if "ALL" in ids:
            ids = set(RULES)
        unknown = ids - set(RULES)
        if unknown:
            meta.append(
                Finding(
                    path,
                    lineno,
                    line.index("#"),
                    "ADOC100",
                    f"suppression names unknown rule(s) {sorted(unknown)}",
                )
            )
        if not justification:
            meta.append(
                Finding(
                    path,
                    lineno,
                    line.index("#"),
                    "ADOC100",
                    "suppression without justification — append "
                    "' -- <why this is safe here>'",
                )
            )
        suppressions[lineno] = ids & set(RULES)
    return suppressions, meta


def run_check(
    sources: Iterable[tuple[str, str]],
    runtime_edges: set[tuple[str, str]] | None = None,
    baseline_fingerprints: set[str] | None = None,
) -> CheckReport:
    """Analyze (path, source-text) pairs as one closed whole program.

    The set is closed for every cross-file rule: a struct format counts
    as "unpacked" only if some *listed* source unpacks it, and calls
    out of the set stay unresolved.
    """
    report = CheckReport()
    parsed: list[tuple[str, ast.Module]] = []
    struct_usage = StructUsage()
    suppress_by_path: dict[str, dict[int, set[str]]] = {}
    raw: list[Finding] = []

    for path, text in sources:
        report.files_checked += 1
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            raw.append(
                Finding(
                    path,
                    exc.lineno or 1,
                    exc.offset or 0,
                    "ADOC100",
                    f"file does not parse: {exc.msg}",
                )
            )
            continue
        parsed.append((path, tree))
        line_suppress, meta = _parse_suppressions(text, path)
        suppress_by_path[path] = line_suppress
        raw.extend(meta)
        raw.extend(check_file(tree, path))
        struct_usage.merge(collect_struct_usage(tree, path))

    cg = build_callgraph(parsed)
    report.functions_resolved = len(cg.functions)

    lock_analysis = analyze_locks(cg, runtime_edges=runtime_edges)
    report.lock_edges = len(lock_analysis.graph.edges)
    raw.extend(lock_analysis.findings)
    raw.extend(interproc.check_deadline_propagation(cg, suppress_by_path))
    raw.extend(interproc.check_thread_lifecycles(cg))
    raw.extend(reactorcheck.check_reactor_callbacks(cg))
    raw.extend(check_struct_symmetry(struct_usage))

    live: list[Finding] = []
    for f in raw:
        if f.rule in suppress_by_path.get(f.path, {}).get(f.line, ()):
            report.suppressed.append(f)
        else:
            live.append(f)
    if baseline_fingerprints:
        live, report.baselined = apply_baseline(live, baseline_fingerprints)
    report.findings = live

    report.notes = [
        f
        for f in lock_analysis.notes
        if f.rule not in suppress_by_path.get(f.path, {}).get(f.line, ())
    ]
    return report


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.update(
                f
                for f in p.rglob("*.py")
                if "__pycache__" not in f.parts and ".egg-info" not in str(f)
            )
        elif p.suffix == ".py":
            out.add(p)
        else:
            raise FileNotFoundError(f"not a python file or directory: {p}")
    return sorted(out)


def _load_sources(paths: Sequence[str | Path]) -> list[tuple[str, str]]:
    return [(str(p), p.read_text(encoding="utf-8")) for p in iter_python_files(paths)]


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The `adoc check` options, shared by this module's CLI and ``adoc``."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze as one closed program "
        "(default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE", help="write the report here instead of stdout"
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="accepted-findings baseline (see docs/ANALYSIS.md)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline accepting every current live finding, "
        "then exit 0",
    )
    parser.add_argument(
        "--lockgraph",
        metavar="FILE",
        help="runtime lockgraph export (REPRO_LOCKCHECK_EXPORT) to "
        "cross-validate static lock orderings against",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="show suppressed/baselined too"
    )


def run(args: argparse.Namespace) -> int:
    """Execute a parsed `adoc check` command line; returns the exit code."""
    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}  {desc}")
        return 0
    if args.update_baseline and not args.baseline:
        print("adoc check: --update-baseline requires --baseline", file=sys.stderr)
        return 2
    try:
        runtime_edges: set[tuple[str, str]] | None = None
        if args.lockgraph:
            from .lockgraph import LockGraph

            with open(args.lockgraph, "r", encoding="utf-8") as fh:
                runtime_edges = LockGraph.from_export(json.load(fh))

        accepted: set[str] | None = None
        if args.baseline and not args.update_baseline:
            accepted = load_baseline(args.baseline)

        report = run_check(
            _load_sources(args.paths or [Path(__file__).resolve().parents[1]]),
            runtime_edges=runtime_edges,
            baseline_fingerprints=accepted,
        )

        if args.update_baseline:
            count = write_baseline(args.baseline, report.findings)
            print(f"adoc check: baseline updated, {count} accepted finding(s)")
            return 0

        if args.format == "text":
            _emit(report.render(verbose=args.verbose), args.output)
        elif args.format == "json":
            doc = json_document(
                TOOL_NAME,
                report.files_checked,
                report.findings,
                report.suppressed,
                report.baselined,
                report.notes,
            )
            _emit(render_document(doc), args.output)
        else:
            doc = sarif_document(
                TOOL_NAME,
                report.findings,
                report.suppressed,
                report.baselined,
                report.notes,
            )
            _emit(render_document(doc), args.output)
        return report.exit_code
    except Exception as exc:  # noqa: BLE001 - exit-code contract: 2 = internal error
        print(f"adoc check: internal error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="adoc check",
        description="concurrency & wire-protocol static analysis",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
