"""Ablation: the Figure-2 controller vs alternative control laws.

Races the paper's controller against the policy zoo in
``repro.core.policies`` — naive ±1 stepping, TCP-style AIMD, a
memoryless occupancy→level map, and fixed levels — on the slow-WAN
scenario where adaptation speed decides the achieved ratio.
"""

from __future__ import annotations

from repro.core.policies import make_policy
from repro.simulator import profile_by_name, simulate_adoc_message
from repro.transport import RENATER

from conftest import emit

MB = 1024 * 1024

POLICY_SETUPS = [
    ("paper", {}),
    ("naive", {}),
    ("aimd", {}),
    ("threshold", {}),
    ("fixed", {"fixed_level": 7}),
]


def mean_level(result) -> float:
    total = sum(result.levels_used.values())
    return sum(k * v for k, v in result.levels_used.items()) / total


def test_adaptation_policy_tournament(benchmark):
    data = profile_by_name("ascii")

    def run():
        out = {}
        for name, kwargs in POLICY_SETUPS:
            out[name] = simulate_adoc_message(
                16 * MB, data, RENATER, seed=5,
                policy=make_policy(name, **kwargs),
            )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = []
    for name, r in results.items():
        lines.append(
            f"{name:<10} {r.elapsed_s:6.2f}s  ratio {r.compression_ratio:5.2f}  "
            f"mean level {mean_level(r):5.2f}"
        )
    emit("Ablation: control-law tournament, 16 MB ascii on Renater\n" + "\n".join(lines))

    paper = results["paper"]
    # The paper's asymmetric moves dominate the naive single-stepper.
    assert mean_level(paper) >= mean_level(results["naive"])
    assert paper.elapsed_s <= results["naive"].elapsed_s * 1.05
    # AIMD's multiplicative backoff under-compresses on a stable WAN.
    assert paper.compression_ratio >= results["aimd"].compression_ratio * 0.95
    # The paper controller is within 10% of the best policy overall —
    # no alternative dominates it on its home turf.
    best = min(r.elapsed_s for r in results.values())
    assert paper.elapsed_s <= best * 1.10
