"""`adoc check` applied to this repository's own source tree.

The analyzer eats its own dogfood: the tree must be clean (every true
finding fixed, every accepted one suppressed inline with a written
justification), the suppression debt is pinned so it can only shrink
deliberately, and no suppression outlives the finding it was written
for.
"""

from __future__ import annotations

import functools
from pathlib import Path

from repro.analysis.checker import (
    CheckReport,
    _parse_suppressions,
    iter_python_files,
    main,
    run_check,
)
from repro.analysis.findings import RULES
from repro.cli import main as cli_main

_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Every accepted finding in the shipped tree, as (path under
#: src/repro, line, rule).  Update alongside any inline suppression so
#: debt growth is visible in review.  ADOC115's sanctioned leaves are
#: the O_NONBLOCK endpoint ops in serve/channel.py and the non-blocking
#: accept in serve/server.py; ADOC111 leaves are counted once per rule
#: that prunes through them.
_ACCEPTED = {
    ("core/api.py", 141, "ADOC111"),
    ("core/api.py", 150, "ADOC110"),
    ("core/api.py", 154, "ADOC111"),
    ("core/api.py", 169, "ADOC110"),
    ("core/api.py", 188, "ADOC110"),
    ("core/api.py", 199, "ADOC110"),
    ("core/api.py", 236, "ADOC111"),
    ("core/api.py", 239, "ADOC111"),
    ("core/api.py", 257, "ADOC108"),
    ("core/compressor.py", 138, "ADOC108"),
    ("core/packets.py", 137, "ADOC108"),
    ("middleware/communicator.py", 103, "ADOC111"),
    ("middleware/communicator.py", 117, "ADOC111"),
    ("serve/channel.py", 104, "ADOC111"),
    ("serve/channel.py", 104, "ADOC115"),
    ("serve/channel.py", 111, "ADOC111"),
    ("serve/channel.py", 111, "ADOC115"),
    ("serve/channel.py", 120, "ADOC111"),
    ("serve/channel.py", 120, "ADOC115"),
    ("serve/pool.py", 186, "ADOC103"),
    ("serve/reactor.py", 248, "ADOC111"),
    ("serve/server.py", 119, "ADOC115"),
    ("transport/faults.py", 236, "ADOC111"),
    ("transport/faults.py", 295, "ADOC111"),
}


def _sources() -> list[tuple[str, str]]:
    return [
        (str(p), p.read_text(encoding="utf-8"))
        for p in iter_python_files([str(_SRC)])
    ]


@functools.lru_cache(maxsize=1)
def _report() -> CheckReport:
    return run_check(_sources())


def _rel(path: str) -> str:
    return Path(path).relative_to(_SRC).as_posix()


def test_src_repro_is_clean_under_adoc_check():
    report = _report()
    assert report.files_checked > 50
    assert report.functions_resolved > 500
    rendered = report.render(verbose=True)
    assert report.findings == [], f"adoc check regressions:\n{rendered}"
    assert report.exit_code == 0


def test_suppression_debt_only_shrinks_deliberately():
    report = _report()
    suppressed = {(_rel(f.path), f.line, f.rule) for f in report.suppressed}
    assert len(report.suppressed) == len(_ACCEPTED)
    assert suppressed == _ACCEPTED, report.render(verbose=True)


def test_every_inline_suppression_matches_a_finding():
    # A suppression whose finding is gone (fixed code, moved line,
    # retired rule) is dead weight that would hide the next real one.
    suppressed = {(f.path, f.line, f.rule) for f in _report().suppressed}
    stale = [
        f"{_rel(path)}:{line} {rule}"
        for path, text in _sources()
        for line, rules in _parse_suppressions(text, path)[0].items()
        for rule in sorted(rules)
        if (path, line, rule) not in suppressed
    ]
    assert stale == []


def test_cli_entry_point_exits_zero(tmp_path, monkeypatch, capsys):
    # With no path the default is the installed package, not a path
    # relative to the working directory.
    monkeypatch.chdir(tmp_path)
    assert cli_main(["check"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert listed == set(RULES)
    assert not {"ADOC101", "ADOC105"} & listed
