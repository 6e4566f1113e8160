"""Cross-module struct.Struct symmetry (ADOC107 and friends)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.checker import run_check

_SRC = Path(__file__).resolve().parents[2] / "src"


def _wire(report):
    return [f for f in (report.findings + report.suppressed) if f.rule == "ADOC107"]


def test_pack_without_any_unpack_still_fires():
    report = run_check(
        [
            (
                "pkg/a.py",
                """
import struct

_HDR = struct.Struct(">HQ")

def send(ep, idx, k):
    ep.sendall(_HDR.pack(idx, k))
""",
            )
        ]
    )
    [f] = _wire(report)
    assert ">HQ" in f.message


def test_alias_packed_here_unpacked_in_importing_module_is_clean():
    report = run_check(
        [
            (
                "pkg/wire.py",
                """
import struct

HDR = struct.Struct(">HQ")

def send(ep, idx, k):
    ep.sendall(HDR.pack(idx, k))
""",
            ),
            (
                "pkg/reader.py",
                """
from pkg.wire import HDR

def read(raw):
    return HDR.unpack(raw)
""",
            ),
        ]
    )
    assert _wire(report) == []


def test_import_chain_re_export_resolves():
    report = run_check(
        [
            (
                "pkg/wire.py",
                "import struct\n\nHDR = struct.Struct(\">HQ\")\n\n"
                "def send(ep, i, k):\n    ep.sendall(HDR.pack(i, k))\n",
            ),
            ("pkg/api.py", "from pkg.wire import HDR\n"),
            (
                "pkg/reader.py",
                "from pkg.api import HDR\n\ndef read(raw):\n    return HDR.unpack(raw)\n",
            ),
        ]
    )
    assert _wire(report) == []


def test_duplicate_wire_definitions_same_format_are_flagged():
    # Two independently-defined Structs with the same format string are
    # a drift hazard: editing one silently desynchronises the wire.
    report = run_check(
        [
            (
                "pkg/sender.py",
                "import struct\n\n_HDR = struct.Struct(\">HQ\")\n\n"
                "def send(ep, i, k):\n    ep.sendall(_HDR.pack(i, k))\n",
            ),
            (
                "pkg/reader.py",
                "import struct\n\n_HDR = struct.Struct(\">HQ\")\n\n"
                "def read(raw):\n    return _HDR.unpack(raw)\n",
            ),
        ]
    )
    [f] = _wire(report)
    assert "duplicate wire definitions" in f.message


def test_alias_from_unlisted_external_module_is_skipped():
    # The import target is outside the analyzed set; symmetric-or-not is
    # unknowable, so the checker stays quiet rather than guessing.
    report = run_check(
        [
            (
                "pkg/a.py",
                """
from elsewhere.wire import HDR

def send(ep, i, k):
    ep.sendall(HDR.pack(i, k))
""",
            )
        ]
    )
    assert _wire(report) == []


def test_literal_format_pack_matches_alias_unpack():
    report = run_check(
        [
            (
                "pkg/a.py",
                """
import struct

HDR = struct.Struct(">HQ")

def send(ep, i, k):
    ep.sendall(struct.pack(">HQ", i, k))

def read(raw):
    return HDR.unpack(raw)
""",
            )
        ]
    )
    assert _wire(report) == []


def test_striped_resume_header_regression():
    # `mover/striped.py` packs the `>HQ` _RESUME header in one function
    # and unpacks it in another; the check must follow the module-level
    # Struct alias rather than report a pack-only asymmetry.
    path = _SRC / "repro" / "mover" / "striped.py"
    report = run_check([(str(path), path.read_text(encoding="utf-8"))])
    resume = [f for f in report.findings if ">HQ" in f.message]
    assert resume == []
