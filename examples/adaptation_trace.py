#!/usr/bin/env python3
"""Watch the Figure-2 controller adapt, decision by decision.

Simulates one 16 MB ASCII transfer over Renater and prints every level
update: queue length, its variation, the raw Figure-2 proposal, and the
level actually used after the guards — an ASCII rendering of what the
paper's Figure 2 does at runtime.

Usage::

    python examples/adaptation_trace.py [--network renater] [--data ascii]
"""

from __future__ import annotations

import argparse

from repro import ALL_PROFILES
from repro.simulator import profile_by_name, simulate_adoc_message, simulate_posix_message

MB = 1024 * 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--network", choices=sorted(ALL_PROFILES), default="renater")
    parser.add_argument(
        "--data", choices=("ascii", "binary", "incompressible", "sparse", "dense"),
        default="ascii",
    )
    parser.add_argument("--size-mb", type=int, default=16)
    args = parser.parse_args()

    profile = ALL_PROFILES[args.network]
    data = profile_by_name(args.data)
    result = simulate_adoc_message(args.size_mb * MB, data, profile, seed=7)
    base = simulate_posix_message(args.size_mb * MB, profile, seed=7)

    print(f"{args.size_mb} MB of {args.data} data over {args.network}:")
    if not result.decisions:
        print("  (pipeline never started: small message or fast network)")
    else:
        print(f"  {'buf':>4} {'queue':>5} {'delta':>5} {'fig2':>4} {'used':>4}  bar")
        for i, t in enumerate(result.decisions):
            flags = "D" if t.forbidden else ("G" if t.holdoff else " ")
            bar = "#" * t.level
            print(
                f"  {i:>4} {t.queue_size:>5} {t.delta:>+5} {t.raw_level:>4} "
                f"{t.level:>4} {flags} {bar}"
            )
    print(
        f"\nwire: {result.wire_bytes / MB:.2f} MB "
        f"(ratio {result.compression_ratio:.2f}), "
        f"time {result.elapsed_s:.2f}s vs POSIX {base.elapsed_s:.2f}s "
        f"-> speedup x{base.elapsed_s / result.elapsed_s:.2f}"
    )
    print("flags: D = divergence guard vetoed, G = incompressible-guard holdoff")


if __name__ == "__main__":
    main()
