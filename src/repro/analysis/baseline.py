"""Accepted-findings baseline for `adoc check`.

A baseline lets a new rule land with the tree's existing debt recorded
instead of fixed-or-suppressed in one PR: findings whose fingerprint
appears in the checked-in baseline file are reported separately and do
not fail the build; anything *new* still does.

Fingerprints hash ``path|rule|message`` — deliberately **not** the line
number, so unrelated edits above a finding don't churn the baseline.
Messages that cite a source site (``file.py:123``) have the line part
masked before hashing for the same reason.  The message includes enough
context (lock names, call paths) that two distinct findings in one file
rarely collide; when they do, they are accepted or fixed together,
which is the conservative direction.

The file format is JSON, one entry per accepted finding with its
human-readable context alongside the fingerprint, so baseline diffs
review like code::

    {
      "version": 1,
      "entries": [
        {"fingerprint": "…", "rule": "ADOC111", "path": "…", "message": "…"}
      ]
    }
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Iterable, Sequence

from .findings import Finding

__all__ = [
    "BASELINE_VERSION",
    "fingerprint",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
]

BASELINE_VERSION = 1

# ``file.py:123`` inside a message — the line half must not feed the
# fingerprint, or edits above the cited site would churn the baseline.
_SITE_LINE = re.compile(r"(\.py):\d+")


def fingerprint(f: Finding) -> str:
    """Line-independent identity of one finding."""
    path = f.path.replace("\\", "/")
    message = _SITE_LINE.sub(r"\1", f.message)
    digest = hashlib.sha256(
        f"{path}|{f.rule}|{message}".encode("utf-8")
    ).hexdigest()
    return digest[:16]


def load_baseline(path: str | Path) -> set[str]:
    """Fingerprints accepted by the baseline file at ``path``.

    Raises ``ValueError`` on malformed content or an unsupported
    version — a stale baseline must fail loudly, not silently accept
    nothing (or everything).
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {data.get('version')!r} in {path} "
            f"(expected {BASELINE_VERSION})"
        )
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"baseline {path}: 'entries' must be a list")
    out: set[str] = set()
    for entry in entries:
        fp = entry.get("fingerprint") if isinstance(entry, dict) else None
        if not isinstance(fp, str) or not fp:
            raise ValueError(f"baseline {path}: entry without fingerprint: {entry!r}")
        out.add(fp)
    return out


def write_baseline(path: str | Path, findings: Iterable[Finding]) -> int:
    """Write a fresh baseline accepting exactly ``findings``; returns
    the entry count.  Entries are sorted for stable diffs."""
    entries = [
        {
            "fingerprint": fingerprint(f),
            "rule": f.rule,
            "path": f.path.replace("\\", "/"),
            "message": f.message,
        }
        for f in sorted(findings)
    ]
    doc = {"version": BASELINE_VERSION, "entries": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return len(entries)


def apply_baseline(
    findings: Sequence[Finding], accepted: set[str]
) -> tuple[list[Finding], list[Finding]]:
    """Split ``findings`` into (live, baselined)."""
    live: list[Finding] = []
    baselined: list[Finding] = []
    for f in findings:
        (baselined if fingerprint(f) in accepted else live).append(f)
    return live, baselined
