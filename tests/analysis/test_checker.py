"""End-to-end `adoc check`: report, suppressions, baseline, CLI contract."""

from __future__ import annotations

import json

import pytest

from repro.analysis.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.analysis.checker import main, run_check

_SEEDED = (
    "pkg/seeded.py",
    """
import threading
from repro.analysis.lockgraph import make_lock

__all__ = ["fetch"]


def fetch(sock):
    return sock.recv(4096)


class Pair:
    def __init__(self):
        self._a = make_lock("Pair.A")
        self._b = make_lock("Pair.B")

    def forward(self):
        with self._a:
            with self._b:
                pass

    def backward(self):
        with self._b:
            with self._a:
                pass


class Pump:
    def start(self):
        self._worker = threading.Thread(target=print, name="pump")
        self._worker.start()
""",
)


def test_run_check_surfaces_all_three_seeded_defects():
    report = run_check([_SEEDED])
    rules = {f.rule for f in report.findings}
    assert {"ADOC111", "ADOC112", "ADOC113"} <= rules
    assert report.exit_code == 1


def test_inline_suppression_moves_finding_to_suppressed():
    path, text = _SEEDED
    text = text.replace(
        "    return sock.recv(4096)\n",
        "    return sock.recv(4096)"
        "  # adoclint: disable=ADOC111 -- caller owns the socket timeout\n",
        1,
    ).replace(
        "def fetch(sock):",
        "def fetch(sock):  # adoclint: disable=ADOC111 -- caller owns the socket timeout",
    )
    report = run_check([(path, text)])
    assert "ADOC111" not in {f.rule for f in report.findings}
    assert "ADOC111" in {f.rule for f in report.suppressed}


def test_comma_separated_suppression_list_in_check():
    # One comment carries two rule ids; the run honors the one that
    # fires here (ADOC111) and ignores the other.
    report = run_check(
        [
            (
                "pkg/a.py",
                """
__all__ = ["poll"]


def poll(sock):  # adoclint: disable=ADOC110,ADOC111 -- fixed cadence probe; socket owned by caller
    return sock.recv(1)
""",
            )
        ]
    )
    assert report.findings == []
    assert {f.rule for f in report.suppressed} == {"ADOC111"}


def test_comma_separated_suppression_list_in_lint():
    # An unnamed, never-joined Thread raises the single-file ADOC104 and
    # the whole-program ADOC112 on the same line; one comma list
    # silences both.
    src = """
import threading


def spawn(fn):
    threading.Thread(target=fn).start()  # adoclint: disable=ADOC104,ADOC112 -- short-lived probe thread, reaped by the harness
"""
    report = run_check([("pkg/a.py", src)])
    assert report.findings == []
    assert {f.rule for f in report.suppressed} == {"ADOC104", "ADOC112"}


def test_baseline_round_trip(tmp_path):
    report = run_check([_SEEDED])
    assert report.findings

    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, report.findings)
    fingerprints = load_baseline(baseline_file)
    assert fingerprints == {fingerprint(f) for f in report.findings}

    rebaselined = run_check([_SEEDED], baseline_fingerprints=fingerprints)
    assert rebaselined.findings == []
    assert len(rebaselined.baselined) == len(report.findings)
    assert rebaselined.exit_code == 0


def test_baseline_is_line_shift_stable():
    report = run_check([_SEEDED])
    fingerprints = {fingerprint(f) for f in report.findings}

    path, text = _SEEDED
    shifted = run_check(
        [(path, "# a new leading comment\n# shifts every line down\n" + text)],
        baseline_fingerprints=fingerprints,
    )
    assert shifted.findings == []


def test_new_finding_is_not_masked_by_stale_baseline():
    live, baselined = apply_baseline(run_check([_SEEDED]).findings, {"feedcafe" * 2})
    assert baselined == []
    assert live


def test_load_baseline_rejects_unknown_version(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(ValueError):
        load_baseline(bad)


def _write_tree(tmp_path, text):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "seeded.py").write_text(text)
    return str(src)


def test_main_exit_one_on_findings_and_zero_when_clean(tmp_path, capsys):
    root = _write_tree(tmp_path, _SEEDED[1])
    assert main([root]) == 1
    out = capsys.readouterr().out
    assert "ADOC113" in out

    clean = _write_tree(tmp_path / "clean", "def ok():\n    return 1\n")
    assert main([clean]) == 0


def test_main_internal_error_is_exit_two(tmp_path, capsys):
    bad_graph = tmp_path / "lockgraph.json"
    bad_graph.write_text(json.dumps({"version": 99, "edges": []}))
    clean = _write_tree(tmp_path, "def ok():\n    return 1\n")
    assert main([clean, "--lockgraph", str(bad_graph)]) == 2
    assert "internal error" in capsys.readouterr().err


def test_main_json_format_document(tmp_path, capsys):
    root = _write_tree(tmp_path, _SEEDED[1])
    assert main([root, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "adoc-check"
    assert {f["rule"] for f in doc["findings"]} >= {"ADOC111", "ADOC113"}


def test_main_sarif_format_is_valid_2_1_0(tmp_path):
    root = _write_tree(tmp_path, _SEEDED[1])
    out = tmp_path / "check.sarif"
    assert main([root, "--format", "sarif", "--output", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "adoc-check"
    results = run["results"]
    assert results, "expected SARIF results for the seeded defects"
    for r in results:
        assert r["partialFingerprints"]["adocFingerprint/v1"]
        loc = r["locations"][0]["physicalLocation"]
        assert loc["region"]["startLine"] >= 1
        assert loc["region"]["startColumn"] >= 1


def test_main_update_baseline_then_clean(tmp_path, capsys):
    root = _write_tree(tmp_path, _SEEDED[1])
    baseline = tmp_path / "baseline.json"
    assert main([root, "--baseline", str(baseline), "--update-baseline"]) == 0
    capsys.readouterr()
    assert main([root, "--baseline", str(baseline)]) == 0
    assert "baselined" in capsys.readouterr().out


def test_notes_never_affect_the_exit_code():
    # An empty runtime export makes every static edge an ADOC114 note;
    # with no live findings the run must still pass.
    report = run_check(
        [
            (
                "pkg/a.py",
                """
from repro.analysis.lockgraph import make_lock

class Pair:
    def __init__(self):
        self._a = make_lock("Pair.A")
        self._b = make_lock("Pair.B")

    def nest(self):
        with self._a:
            with self._b:
                pass
""",
            )
        ],
        runtime_edges=set(),
    )
    assert report.findings == []
    assert [n.rule for n in report.notes] == ["ADOC114"]
    assert report.exit_code == 0
