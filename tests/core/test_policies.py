"""Alternative control laws, applied by the one ``LevelAdapter``."""

from __future__ import annotations

import pytest

from repro.core import AdocConfig, IncompressibleGuard
from repro.core.adaptation import AdaptationTrace, LevelAdapter, figure2
from repro.core.divergence import DivergenceGuard
from repro.core.packets import Record
from repro.core.planner import SendPlanner
from repro.core.policies import POLICIES, aimd, make_policy, naive
from repro.obs import Telemetry, extract_timeline

CFG = AdocConfig()


def adapter(name: str, config: AdocConfig = CFG, guard=None, **kwargs) -> LevelAdapter:
    return LevelAdapter(config, None, guard, policy=make_policy(name, **kwargs))


class TestNaive:
    def test_steps_up_and_down(self):
        a = adapter("naive")
        assert a.next_level(10, 0.0) == 0  # first call: delta 0
        assert a.next_level(15, 0.1) == 1
        assert a.next_level(20, 0.2) == 2
        assert a.next_level(18, 0.3) == 1

    def test_reset_on_empty(self):
        a = adapter("naive")
        a.level = 7
        assert a.next_level(0, 0.0) == 0


class TestAimd:
    def test_multiplicative_decrease(self):
        a = adapter("aimd")
        a.level = 8
        a.next_level(20, 0.0)        # first call, delta 0: hold
        assert a.level == 8
        assert a.next_level(15, 0.1) == 4   # shrink: halve
        assert a.next_level(18, 0.2) == 5   # growth: +1


class TestFixed:
    def test_constant(self):
        a = adapter("fixed", fixed_level=6)
        for n in (0, 5, 40, 200):
            assert a.next_level(n, 0.0) == 6

    def test_clamped_to_config(self):
        a = adapter("fixed", AdocConfig(max_level=4), fixed_level=9)
        assert a.next_level(10, 0.0) == 4
        (trace,) = a.history
        assert (trace.raw_level, trace.level) == (9, 4)


class TestThreshold:
    def test_monotone_in_queue(self):
        a = adapter("threshold")
        levels = [a.next_level(n, 0.0) for n in (0, 5, 15, 25, 30, 60)]
        assert levels == sorted(levels)
        assert levels[0] == 0
        assert levels[-1] == 10


class TestGuardsApply:
    def test_incompressible_holdoff_pins_all_policies(self):
        for name in POLICIES:
            guard = IncompressibleGuard(holdoff_packets=5)
            a = adapter(name, guard=guard)
            a.level = 8
            guard.check_packet(100, 100)
            assert a.next_level(40, 0.0) == 0, name
            assert a.history[-1].holdoff, name


class TestFactory:
    def test_make_policy(self):
        assert make_policy("aimd") is aimd
        assert make_policy("paper") is figure2
        assert make_policy("naive")(12, 1, 3, CFG) == naive(12, 1, 3, CFG) == 4

    def test_make_policy_kwargs(self):
        law = make_policy("fixed", fixed_level=3)
        assert law(10, 0, 0, CFG) == 3
        assert adapter("fixed", fixed_level=3).next_level(10, 0.0) == 3

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("pid")


class TestInSimulator:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_every_policy_completes_a_transfer(self, name):
        from repro.simulator import profile_by_name, simulate_adoc_message
        from repro.transport import RENATER

        kwargs = {"fixed_level": 5} if name == "fixed" else {}
        r = simulate_adoc_message(
            2 * 1024 * 1024,
            profile_by_name("ascii"),
            RENATER,
            seed=1,
            policy=make_policy(name, **kwargs),
        )
        assert r.payload_bytes == 2 * 1024 * 1024
        assert r.wire_bytes > 0
        assert r.decisions


class TestThroughThePlanner:
    """Every law takes the send planner's one decision path."""

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_records_each_decision_and_is_pinned_after_a_codec_failure(self, name):
        tele = Telemetry(enabled=True)
        plan = SendPlanner(CFG, DivergenceGuard(), tele, policy=POLICIES[name])
        buf = bytes(CFG.buffer_size)
        levels = []
        queued = (0, 12, 24, 36, 48, 60)
        for i, n in enumerate(queued):
            levels.append(plan.decide(n, 0.1 * i))
            plan.submit(buf, levels[-1])
            if i == 2:  # the third buffer's codec job raises
                outcome, error = None, RuntimeError("injected codec failure")
            else:
                outcome, error = ([Record(levels[-1], len(buf), b"c" * 1000)], False, 0.0), None
            list(plan.complete(outcome, error))

        history = plan.adapter.history
        assert len(history) == len(queued)
        assert all(isinstance(t, AdaptationTrace) for t in history)
        assert [t.level for t in history] == levels
        assert plan.degraded
        # The queue keeps growing, so every law proposes a compressed
        # level; the codec-failure pin overrides each one.
        after = history[3:]
        assert all(t.raw_level > 0 and t.level == 0 for t in after), after
        assert extract_timeline(tele.tracer) == history
