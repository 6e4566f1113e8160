"""Compare live-benchmark runs of a parent commit and a change.

Usage (from the repository root)::

    python3 benchmarks/live/compare.py --parent P1.json P2.json --change C1.json C2.json

Inputs are ``run.py --out`` records, or a file holding a list of them
under ``"sets"`` (as ``baseline.json`` does).  Make the parent's and the
change's runs alternately, in one period: a shared host's speed drifts
over minutes to hours, and runs made at different speeds are not
comparable.  For every workload and end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles and one
verdict, using the metric's direction and bound:

* ``unresolved`` — the parent's own spread (quartile distance over
  median) is wider than the bound, so a move inside it proves nothing;
  unless every change run reads better than every parent run;
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``improved`` — the change's median is better by more than the
  parent's quartile distance and the change wins at least nine in ten
  of all (change, parent) run pairs;
* ``unchanged`` — anything else.

It also compares failed ops over attempted ops per workload.

Each record carries the host's ``cpu_reference_s``, the time of a fixed
Python loop.  When the two sides' medians differ by more than
``HOST_TOLERANCE``, the host ran at different speeds for the two sides:
every metric row is ``unresolved`` and only failed ops are compared.

The exit status is 1 on any regression or any rise in failed ops; 2 when
the host speeds differ and nothing regressed; else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

VERDICTS = ("improved", "unchanged", "regressed", "unresolved")

#: Largest difference of the two sides' median ``cpu_reference_s``, as a
#: share of the parent's, at which their runs are still compared.
HOST_TOLERANCE = 0.1


def load_runs(paths: list[Path]) -> list[dict]:
    """Every run record in ``paths`` (a file may hold several as ``sets``)."""
    runs: list[dict] = []
    for path in paths:
        doc = json.loads(path.read_text())
        runs.extend(doc["sets"] if "sets" in doc else [doc])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One verdict from the two sides' runs of one metric."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    sign = 1.0 if better == "lower" else -1.0

    def gain(c: float, p: float) -> float:
        """Positive when ``c`` is better than ``p``."""
        return sign * (p - c)

    wins = sum(1 for c in change for p in parent if gain(c, p) > 0)
    pairs = len(change) * len(parent)
    if p_q3 - p_q1 > bound * abs(p_med) and wins < pairs:
        return "unresolved"
    if -gain(c_med, p_med) > bound * abs(p_med):
        return "regressed"
    if gain(c_med, p_med) > p_q3 - p_q1 and wins >= 0.9 * pairs:
        return "improved"
    return "unchanged"


def host_drift(parent: list[dict], change: list[dict]) -> float | None:
    """Change's median ``cpu_reference_s`` over the parent's, less 1; None if unknown.

    Positive means the change's runs saw a slower host.
    """
    refs = [[r.get("host", {}).get("cpu_reference_s") for r in side] for side in (parent, change)]
    if any(not side or None in side for side in refs):
        return None
    return statistics.median(refs[1]) / statistics.median(refs[0]) - 1.0


def _failed_ratio(runs: list[dict], workload: str) -> float | None:
    rows = [r["workloads"][workload] for r in runs if workload in r["workloads"]]
    attempted = sum(row["attempted"] for row in rows)
    return sum(row["failed"] for row in rows) / attempted if attempted else None


def compare(
    parent: list[dict], change: list[dict], spec: dict, same_host: bool = True
) -> tuple[list[dict], bool]:
    """Rows of (workload, metric, quartiles, verdict) and whether to fail.

    With ``same_host`` false every metric row is ``unresolved``.
    """
    rows: list[dict] = []
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["workloads"][workload]["metrics"][name] for r in parent
                 if name in r["workloads"].get(workload, {}).get("metrics", {})]
            c = [r["workloads"][workload]["metrics"][name] for r in change
                 if name in r["workloads"].get(workload, {}).get("metrics", {})]
            if not p or not c:
                continue
            verdict = judge(p, c, metric["better"], metric["bound"]) if same_host else "unresolved"
            bad |= verdict == "regressed"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": quartiles(p), "change": quartiles(c), "verdict": verdict,
            })
        p_fail = _failed_ratio(parent, workload)
        c_fail = _failed_ratio(change, workload)
        if p_fail is not None and c_fail is not None:
            rose = c_fail > p_fail
            bad |= rose
            rows.append({
                "workload": workload, "metric": "failed_ops_ratio", "unit": "fraction",
                "parent": (p_fail,) * 3, "change": (c_fail,) * 3,
                "verdict": "regressed" if rose else "unchanged",
            })
    return rows, bad


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':20s} {'metric':16s} {'parent median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s}  verdict"
    ]
    for row in rows:
        cells = []
        for side in ("parent", "change"):
            q1, med, q3 = row[side]
            cells.append(f"{med:12.5g} [{q1:.5g}, {q3:.5g}]")
        lines.append(
            f"{row['workload']:20s} {row['metric']:16s} {cells[0]:>34s} "
            f"{cells[1]:>34s}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Compare live-benchmark runs of two commits.")
    p.add_argument("--parent", type=Path, nargs="+", required=True)
    p.add_argument("--change", type=Path, nargs="+", required=True)
    args = p.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    drift = host_drift(parent, change)
    same_host = drift is None or abs(drift) <= HOST_TOLERANCE
    rows, bad = compare(parent, change, spec, same_host)
    print(render(rows))
    if drift is None:
        print("host speed: unknown (records without cpu_reference_s)")
    else:
        print(f"host speed: change cpu_reference_s {100 * drift:+.1f}% against the parent's")
    if not same_host:
        print(
            f"host speeds differ by more than {100 * HOST_TOLERANCE:.0f}%: metrics unresolved; "
            "rerun parent and change alternately in one period"
        )
    if bad:
        return 1
    return 0 if same_host else 2


if __name__ == "__main__":
    sys.exit(main())
