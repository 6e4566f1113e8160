"""Figure 8: NetSolve dgemm timings on a 100 Mbit LAN.

Paper claims asserted: AdOC never degrades a request; dense-matrix
gains are marginal (paper: ~5% at 2048; the CPU can barely out-compress
a fast LAN), sparse-matrix gains are large (paper: ~5.6x).  A live
mini-NetSolve round trip over the shaped LAN validates the actual
middleware data path at a reduced size.
"""

from __future__ import annotations

import numpy as np

from repro.bench import render_netsolve_figure, run_netsolve_figure
from repro.data import sparse_matrix
from repro.middleware import AdocCommunicator, Agent, Client, PlainCommunicator, ReactorRpcServer
from repro.transport import LAN100

from conftest import emit


def test_fig8(benchmark):
    cells = benchmark.pedantic(run_netsolve_figure, args=(8,), rounds=1, iterations=1)
    emit(render_netsolve_figure(cells, "Figure 8: dgemm timings on a 100 Mbit LAN"))
    by = {(c.n, c.kind, c.adoc): c for c in cells}

    for n in (256, 512, 1024, 2048):
        for kind in ("dense", "sparse"):
            # AdOC never loses (within 2% model noise).
            assert by[(n, kind, True)].total_s <= by[(n, kind, False)].total_s * 1.02

    dense_x = by[(2048, "dense", False)].total_s / by[(2048, "dense", True)].total_s
    sparse_x = by[(2048, "sparse", False)].total_s / by[(2048, "sparse", True)].total_s
    assert 1.0 <= dense_x < 1.8, f"dense gain {dense_x:.2f} (paper: ~1.05, marginal)"
    assert 3.0 < sparse_x < 7.0, f"sparse gain {sparse_x:.2f} (paper: ~5.6)"
    assert sparse_x > dense_x * 2.5


def test_fig8_live_middleware(benchmark):
    """Reduced-size live round trip: sparse dgemm with AdOC over the
    shaped LAN must beat the plain communicator.  The reactor server
    hosts the shaped link through a splice."""

    def run_once(mode, comm_factory):
        agent = Agent()
        server = ReactorRpcServer("s1", mode=mode)
        agent.register(server, lambda: LAN100.make_pair(seed=21))
        try:
            client = Client(agent, communicator_factory=comm_factory)
            s = sparse_matrix(180)  # ~650 KB marshalled
            result, info = client.call_timed("dgemm", s, s)
        finally:
            server.close()
        assert not result.any()
        return info.elapsed_s

    def run():
        return run_once("plain", PlainCommunicator), run_once("adoc", AdocCommunicator)

    plain_s, adoc_s = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"live dgemm(180) sparse over LAN100: plain {plain_s:.2f}s, AdOC {adoc_s:.2f}s")
    assert adoc_s < plain_s, "AdOC middleware must win on sparse matrices"
