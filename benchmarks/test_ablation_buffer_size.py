"""Ablation: the 200 KB buffer size (paper section 3.2).

The paper argues 200 KB balances compression ratio (< 6% loss vs whole-
file compression) against adaptation reactivity.  This bench sweeps the
buffer size on two axes:

* *ratio axis* (live codecs): per-buffer zlib compression of the HB
  bench file — smaller buffers lose ratio, and 200 KB loses < 6%;
* *reactivity axis* (simulator): time to climb to the top compression
  level on a slow WAN — huge buffers adapt visibly more slowly.
"""

from __future__ import annotations

import dataclasses
import zlib

import pytest

from repro.core import AdocConfig
from repro.data import synthetic_hb_bytes
from repro.simulator import profile_by_name, simulate_adoc_message
from repro.transport import RENATER

from conftest import emit

KB = 1024
MB = 1024 * 1024


def per_buffer_ratio(data: bytes, buffer_size: int) -> float:
    comp = 0
    for off in range(0, len(data), buffer_size):
        comp += len(zlib.compress(data[off : off + buffer_size], 6))
    return len(data) / comp


def test_buffer_size_ratio_loss(benchmark):
    data = synthetic_hb_bytes(n=5000, band=7, seed=11)

    def run():
        whole = per_buffer_ratio(data, len(data))
        return {
            size: per_buffer_ratio(data, size)
            for size in (8 * KB, 50 * KB, 200 * KB, 1 * MB)
        }, whole

    ratios, whole = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"whole-file gzip-6 ratio: {whole:.2f}"]
    for size, r in ratios.items():
        lines.append(f"buffer {size // KB:>5} KB: ratio {r:.2f} ({(1 - r / whole) * 100:.1f}% loss)")
    emit("Ablation: per-buffer compression ratio\n" + "\n".join(lines))

    # Paper claim: at 200 KB, less than 6% ratio degradation.
    assert 1 - ratios[200 * KB] / whole < 0.06
    # Smaller buffers monotonically lose more ratio.
    assert ratios[8 * KB] < ratios[50 * KB] < ratios[200 * KB] <= ratios[1 * MB] * 1.01


def test_buffer_size_reactivity(benchmark):
    """Bytes committed before the controller first reaches a high level
    on a slow WAN, by buffer size.

    The level is re-evaluated once per buffer, so the climb from 0 costs
    a fixed number of *buffers* — oversized buffers turn that into many
    megabytes of under-compressed data.  The adapter's decision trace
    gives the exact climb length.
    """
    data = profile_by_name("ascii")

    def climb_bytes(buffer_size: int) -> int:
        cfg = AdocConfig(buffer_size=buffer_size)
        history = simulate_adoc_message(32 * MB, data, RENATER, cfg, seed=3).decisions
        for i, t in enumerate(history):
            if t.level >= 8:
                return i * buffer_size
        return len(history) * buffer_size

    def run():
        return {size: climb_bytes(size) for size in (50 * KB, 200 * KB, 2 * MB)}

    climb = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: bytes committed before first reaching level >= 8\n"
        + "\n".join(f"buffer {s // KB:>5} KB: {c / KB:8.0f} KB" for s, c in climb.items())
    )
    # Oversized buffers commit far more data before adapting; the
    # paper's 200 KB keeps the climb cost under ~1.5 MB.
    assert climb[2 * MB] > climb[200 * KB]
    assert climb[200 * KB] <= 8 * 200 * KB
