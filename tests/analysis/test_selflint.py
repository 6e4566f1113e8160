"""The shipped tree must pass the single-file rules of `adoc check`.

These drive the per-file layer alone (suppression parsing plus
:func:`check_file`, rules ADOC100..ADOC109), without the call graph, so
a regression there is named apart from the whole-program proofs that
``test_selfcheck`` covers.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.analysis.checker import _parse_suppressions, iter_python_files
from repro.analysis.findings import Finding
from repro.analysis.rules import check_file

PACKAGE_DIR = Path(repro.__file__).resolve().parent

#: Rules whose findings the per-file layer may leave suppressed inline.
#: ADOC103: WorkerPool._enqueue_locked notifies under the lock its
#: callers hold (the _locked-suffix contract) — invisible to the
#: per-function rule, hence the justified suppression.
_SUPPRESSIBLE = {"ADOC103", "ADOC108"}


def _lint() -> tuple[int, list[Finding], list[Finding]]:
    """(files checked, live findings, suppressed findings)."""
    files = iter_python_files([str(PACKAGE_DIR)])
    live: list[Finding] = []
    suppressed: list[Finding] = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        by_line, meta = _parse_suppressions(text, str(path))
        live.extend(meta)
        for f in check_file(ast.parse(text, filename=str(path)), str(path)):
            if f.rule in by_line.get(f.line, ()):
                suppressed.append(f)
            else:
                live.append(f)
    return len(files), live, suppressed


def test_src_tree_lints_clean():
    files_checked, live, _ = _lint()
    assert live == [], "\n".join(f.render() for f in live)
    assert files_checked > 50


def test_every_suppression_in_tree_is_justified():
    # An unjustified suppression would surface as an ADOC100 finding and
    # fail the clean-tree test above; this asserts the inverse shape —
    # the suppressions that do exist were honoured, not just absent.
    _, _, suppressed = _lint()
    assert suppressed, "expected the tree's inline suppressions to be honoured"
    assert all(s.rule in _SUPPRESSIBLE for s in suppressed), [
        s.render() for s in suppressed
    ]
