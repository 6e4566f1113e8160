"""Machine-readable output for `adoc check`.

Two formats, so CI and editors consume one shape:

* ``json_document`` — a compact report: tool, file count, findings
  (live / suppressed / baselined), and informational notes.
* ``sarif_document`` — SARIF 2.1.0, the interchange format GitHub code
  scanning and most editors ingest.  Live findings become ``warning``
  results; suppressed and baselined ones are emitted with a
  ``suppressions`` entry (``inSource`` / ``external``) so consumers see
  the full picture without failing on accepted findings; notes are
  ``note``-level results.

Every result carries ``partialFingerprints.adocFingerprint/v1`` — the
same line-independent fingerprint the baseline file uses — so findings
track across unrelated edits.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

from .baseline import fingerprint
from .findings import Finding, RULES

__all__ = ["json_document", "sarif_document", "render_document"]

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
    "master/Schemata/sarif-schema-2.1.0.json"
)


def _finding_dict(f: Finding) -> dict:
    return {
        "path": f.path,
        "line": f.line,
        "col": f.col,
        "rule": f.rule,
        "message": f.message,
        "fingerprint": fingerprint(f),
    }


def json_document(
    tool: str,
    files_checked: int,
    findings: Sequence[Finding],
    suppressed: Sequence[Finding] = (),
    baselined: Sequence[Finding] = (),
    notes: Sequence[Finding] = (),
) -> dict:
    return {
        "tool": tool,
        "files_checked": files_checked,
        "findings": [_finding_dict(f) for f in sorted(findings)],
        "suppressed": [_finding_dict(f) for f in sorted(suppressed)],
        "baselined": [_finding_dict(f) for f in sorted(baselined)],
        "notes": [_finding_dict(f) for f in sorted(notes)],
    }


def _sarif_result(
    f: Finding, level: str, suppression_kind: str | None = None
) -> dict:
    result: dict = {
        "ruleId": f.rule,
        "level": level,
        "message": {"text": f.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(f.line, 1),
                        # SARIF columns are 1-based; ast's are 0-based.
                        "startColumn": f.col + 1,
                    },
                }
            }
        ],
        "partialFingerprints": {"adocFingerprint/v1": fingerprint(f)},
    }
    if suppression_kind is not None:
        result["suppressions"] = [{"kind": suppression_kind}]
    return result


def sarif_document(
    tool: str,
    findings: Sequence[Finding],
    suppressed: Sequence[Finding] = (),
    baselined: Sequence[Finding] = (),
    notes: Sequence[Finding] = (),
    rules: Mapping[str, str] = RULES,
) -> dict:
    used = {f.rule for group in (findings, suppressed, baselined, notes) for f in group}
    results = (
        [_sarif_result(f, "warning") for f in sorted(findings)]
        + [_sarif_result(f, "warning", "inSource") for f in sorted(suppressed)]
        + [_sarif_result(f, "warning", "external") for f in sorted(baselined)]
        + [_sarif_result(f, "note") for f in sorted(notes)]
    )
    return {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool,
                        "informationUri": "docs/ANALYSIS.md",
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {"text": rules[rule]},
                            }
                            for rule in sorted(used & set(rules))
                        ],
                    }
                },
                "columnKind": "unicodeCodePoints",
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }


def render_document(doc: dict) -> str:
    """Stable serialization (sorted keys would scramble SARIF's natural
    reading order, so keys keep insertion order; indent for diffability)."""
    return json.dumps(doc, indent=2) + "\n"
