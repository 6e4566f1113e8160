"""Live end-to-end AdOC benchmark: one command, four workloads.

Run from the repository root::

    python3 benchmarks/live/run.py --workload lan_ascii --seed 0 --seconds 20 --trace 0
    python3 benchmarks/live/run.py --seed 0 --out results/live-seed0.json
    python3 benchmarks/live/run.py --seed 0 --traced --out results/live-traced.json

Each workload runs in its own fresh child process, one after another.
With ``--trace 0`` (the default) a run measures the end-to-end metrics
that ``BENCHMARK.json`` declares, plus ``setup_s``: the median of several
cold starts, each its own process, timed from ``import repro`` until the
workload's fixtures are ready.  With ``--trace 1`` (or ``--traced``) it
reports the declared per-layer metrics instead.  The last line of
standard output is one JSON object per the contract in ``BENCHMARK.json``
(with several workloads, one such line each); ``--out`` writes the full
record, host details included, for ``compare.py``.

The child processes import ``repro`` from the repository's ``src``
directory; nothing needs installing.  The harness exits non-zero, and
prints no result, when the sources are missing.  A workload with no
verified op still prints its line, with ``"correct": false``, and the
harness exits non-zero after the remaining workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: Cold starts before, and again after, the measuring child; ``setup_s``
#: is the median of all of them, so a short slow spell of the host
#: moves it less.
SETUP_RUNS = 3
#: One BLAS thread in every child.  By default OpenBLAS starts a thread
#: per core, and after each ``dgemm`` those threads spin for a while,
#: taking one of two cores from the reactor and the pool: call times
#: then split into two modes ~60 ms apart.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Each workload's processes must finish inside this many seconds.
WORKLOAD_BUDGET_S = 175.0


class BenchError(Exception):
    """The benchmark could not produce a valid result."""


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC.name}: {exc}") from exc


def _child(args: list[str], deadline: float) -> dict:
    """Run this script in child mode; return its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before the child could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", *args],
            cwd=ROOT,
            env={**os.environ, **CHILD_ENV},
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} exceeded its {timeout:.0f}s budget") from exc
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool, trace_out: Path | None
) -> dict:
    """Cold starts (untraced runs only), then the measuring child."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    common = ["--workload", name, "--seed", str(seed)]
    setup: list[float] = []

    def cold_starts(n: int) -> None:
        for _ in range(n):
            setup.append(_child([*common, "--setup-only"], deadline)["setup_s"])

    if not traced:
        cold_starts(1 if smoke else SETUP_RUNS)
    args = [*common, "--seconds", repr(seconds), "--trace", "1" if traced else "0"]
    if smoke:
        args.append("--smoke")
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    result = _child(args, deadline)
    if not traced and not smoke:
        cold_starts(SETUP_RUNS)
    if setup:
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["setup_samples_s"] = setup
    return result


def contract_line(result: dict, spec: dict, traced: bool) -> dict:
    """The contract's result object: exactly the declared metrics, with units.

    A workload with no verified op has no end-to-end numbers; its line
    says ``"correct": false`` and carries what metrics it has.
    """
    declared = spec["per_layer" if traced else "end_to_end"]
    metrics = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in declared})
    if result["correct"] and (missing or extra):
        raise BenchError(f"metric names differ from {SPEC.name}: missing {missing}, extra {extra}")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
            if m["name"] in metrics
        },
    }


def cpu_reference_samples(n: int = 5) -> list[float]:
    """Times of a fixed pure-Python loop: this host's speed right now.

    Shared hosts drift; two runs whose reference times differ were not
    measured at the same host speed, whatever the hostname says.
    """
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append(time.perf_counter() - t0)
    return samples


def host_info(reference: list[float]) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "transport": "in-memory shaped pipes (bulk); loopback TCP, paced (rpc_dgemm)",
        "cpu_reference_s": statistics.median(reference),
    }


def child_main(args: argparse.Namespace) -> int:
    """One workload in this process (``--setup-only``: one cold start)."""
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = time.perf_counter()
    import workloads  # imports repro: the cold start begins here

    if args.setup_only:
        ready = workloads.setup_only(args.workload, args.seed)
        print(json.dumps({"setup_s": ready - t0}))
        return 0
    result = workloads.run(
        args.workload,
        args.seed,
        args.seconds,
        traced=args.trace == 1,
        smoke=args.smoke,
        want_trace=args.trace_out is not None,
    )
    trace = result.pop("trace")
    if args.trace_out is not None and trace is not None:
        Path(args.trace_out).write_text(json.dumps(trace) + "\n")
    print(json.dumps(result))
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload name (default: all, in order)")
    p.add_argument("--seed", type=int, default=0, help="input and link seed")
    p.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = per-layer run")
    p.add_argument("--traced", action="store_true", help="same as --trace 1")
    p.add_argument("--smoke", action="store_true", help="two ops per workload, untimed")
    p.add_argument("--out", type=Path, help="write the full record here")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.traced:
        args.trace = 1
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    try:
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no sources at {SRC}: run from a full checkout")
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; expected one of {names}")
        selected = [args.workload] if args.workload else names
        seconds = float(args.seconds if args.seconds is not None else spec["run_seconds"])
        traced = args.trace == 1
        # The host's speed before and after the workloads (see compare.py).
        reference = cpu_reference_samples()
        record: dict = {
            "seed": args.seed,
            "seconds": seconds,
            "traced": traced,
            "smoke": args.smoke,
            "workloads": {},
        }
        lines = []
        for name in selected:
            trace_out = None
            if args.out is not None and traced:
                trace_out = args.out.resolve().with_name(f"{args.out.stem}.{name}.trace.json")
            result = run_workload(name, args.seed, seconds, traced, args.smoke, trace_out)
            lines.append(contract_line(result, spec, traced))
            record["workloads"][name] = result
        record["host"] = host_info(reference + cpu_reference_samples())
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in lines:
        print(json.dumps(line))
    failed = [name for name, line in zip(selected, lines) if not line["correct"]]
    if failed:
        print(f"run.py: no correct result for {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
