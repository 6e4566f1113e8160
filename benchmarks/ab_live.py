"""Alternated live-benchmark pairs: a parent revision against this checkout.

Usage (from the repository root)::

    python3 benchmarks/ab_live.py --parent HEAD~1 --workload rpc_dgemm --pairs 10 --seed 31

Checks the parent revision out into a temporary ``git worktree`` (removed
at exit; ``--parent-dir`` names an existing checkout instead, such as a
``git archive`` copy), then runs
``benchmarks/live/run.py --workload W --seed S --out FILE`` once from each
tree per pair, each for the run length ``BENCHMARK.json`` sets: pair ``i`` (1-based) uses seed ``--seed + i - 1`` and runs
the parent first when ``i`` is odd, the change first when it is even, so
a host whose speed drifts during the runs favours neither side.  Each
tree's ``run.py`` builds from that tree's own sources.  Last it prints
``benchmarks/live/compare.py``'s table over all records and exits with
its status (a run that fails exits 1 before that).  Records are kept in
``--out-dir`` as ``parent-<seed>.json`` and ``change-<seed>.json``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "live" / "run.py"
COMPARE = ROOT / "benchmarks" / "live" / "compare.py"


def run_live(tree: Path, workload: str | None, seed: int, out: Path) -> None:
    """One ``run.py`` run from ``tree``; raises on a failed run."""
    cmd = [sys.executable, str(tree / RUN), "--seed", str(seed), "--out", str(out)]
    if workload is not None:
        cmd += ["--workload", workload]
    print(f"[{out.stem}] {' '.join(cmd[1:])}", flush=True)
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)


def alternate(parent: Path, change: Path, args: argparse.Namespace, out_dir: Path) -> list[list[Path]]:
    """Run the pairs; returns the ``[parent records, change records]``."""
    records: list[list[Path]] = [[], []]
    for pair in range(1, args.pairs + 1):
        seed = args.seed + pair - 1
        sides = [(0, "parent", parent), (1, "change", change)]
        if pair % 2 == 0:
            sides.reverse()
        for index, name, tree in sides:
            out = out_dir / f"{name}-{seed}.json"
            run_live(tree, args.workload, seed, out)
            records[index].append(out)
    return records


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    side = p.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", help="git revision to compare against")
    side.add_argument("--parent-dir", type=Path, help="an existing checkout of the parent")
    p.add_argument("--workload", help="one workload (default: all of BENCHMARK.json)")
    p.add_argument("--pairs", type=int, default=10, help="alternated pairs (default 10)")
    p.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    p.add_argument("--out-dir", type=Path, help="keep the run records here")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab-live-") as tmp:
        out_dir = args.out_dir or Path(tmp) / "records"
        out_dir.mkdir(parents=True, exist_ok=True)
        parent = args.parent_dir
        if parent is None:
            parent = Path(tmp) / "parent"
            subprocess.run(
                ["git", "worktree", "add", "--detach", str(parent), args.parent],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            )
        try:
            records = alternate(parent.resolve(), ROOT, args, out_dir)
        except subprocess.CalledProcessError as exc:
            print(f"ab_live.py: a run failed: {exc}", file=sys.stderr)
            return 1
        finally:
            if args.parent_dir is None:
                subprocess.run(
                    ["git", "worktree", "remove", "--force", str(parent)], cwd=ROOT, check=False
                )
        compare = [sys.executable, str(COMPARE), "--parent", *map(str, records[0]),
                   "--change", *map(str, records[1])]
        return subprocess.run(compare, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
