#!/usr/bin/env python3
"""The paper's NetSolve experiment, live and in miniature.

Builds the mini-GridRPC middleware (agent + server + client), runs
dgemm requests over a shaped 100 Mbit LAN with the plain communicator
and the AdOC communicator, for a dense and a sparse (all-zero) matrix —
the live, reduced-size version of Figures 8-9.

Usage::

    python examples/netsolve_dgemm.py [--n 144] [--profile lan100]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import ALL_PROFILES
from repro.data import dense_matrix, sparse_matrix
from repro.middleware import AdocCommunicator, Agent, Client, PlainCommunicator, ReactorRpcServer


def run_once(profile, mode: str, comm_factory, label: str, n: int) -> None:
    agent = Agent()
    server = ReactorRpcServer("compute-1", mode=mode)
    agent.register(server, lambda: profile.make_pair(seed=17))
    client = Client(agent, communicator_factory=comm_factory)

    try:
        for kind, make in (("dense", lambda: dense_matrix(n, seed=4)), ("sparse", lambda: sparse_matrix(n))):
            a = make()
            b = make()
            c, info = client.call_timed("dgemm", a, b)
            assert np.allclose(c, a @ b), "wrong dgemm result!"
            print(
                f"  {label:<8} {kind:<7} n={n}: {info.elapsed_s:6.2f}s, "
                f"request ratio {info.compression_ratio:5.2f}"
            )
    finally:
        server.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=144, help="matrix dimension")
    parser.add_argument("--profile", choices=sorted(ALL_PROFILES), default="lan100")
    args = parser.parse_args()
    profile = ALL_PROFILES[args.profile]
    if profile.bandwidth_bps < 50e6:
        profile = profile.scaled(10)
    print(f"dgemm over shaped {args.profile} ({profile.bandwidth_bps / 1e6:.0f} Mbit/s):")
    run_once(profile, "plain", PlainCommunicator, "NetSolve", args.n)
    run_once(profile, "adoc", AdocCommunicator, "+AdOC", args.n)


if __name__ == "__main__":
    main()
