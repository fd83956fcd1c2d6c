"""Each output check of the benchmark fails on perturbed outputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from spans import Span, self_times  # noqa: E402


def test_port_bound_matches_the_model_on_a_real_block():
    from repro.backends import get_backend
    from repro.lowering import lower

    block = lower("vfmadd231pd %zmm1, %zmm2, %zmm0\nvaddpd %zmm3, %zmm4, %zmm5\n"
                  "vmovupd (%rax), %zmm6\n", "spr")
    uops = [(u.ports, u.cycles) for r in block.resolved for u in r.uops]
    ana = get_backend("model").predict(block).detail
    assert checks.check_port_bound("b", uops, ana.block_throughput) == []
    assert checks.check_port_bound("b", uops, ana.block_throughput + 1.0)


def test_port_bound_off_by_one_uop_cycle_fails():
    uops = [(("0", "1"), 1.0)] * 4 + [(("5",), 1.0)]
    assert checks.port_pressure_bound(uops) == 2.0
    assert checks.check_port_bound("b", uops, 2.0) == []
    perturbed = uops[:3] + [(("0", "1"), 2.0)] + uops[4:]
    assert checks.check_port_bound("b", perturbed, 2.0)


def test_port_bound_takes_the_best_union_of_port_sets():
    # 3 cycles confined to {0}, 1 more on {0,1}: {0} alone gives 3
    uops = [(("0",), 3.0), (("0", "1"), 1.0)]
    assert checks.port_pressure_bound(uops) == 3.0
    uops = [(("0",), 1.0), (("1",), 1.0), (("0", "1"), 2.0)]
    assert checks.port_pressure_bound(uops) == 2.0


def _answers(value=3.5, cached=False):
    key = ("vaddpd %zmm1, %zmm2, %zmm3\n", "golden_cove", "model")
    return [{"key": key, "value": value, "cached": cached, "expect_cached": False}], {key: 3.5}


def test_served_value_changed_fails():
    assert checks.check_served(*_answers()) == []
    assert checks.check_served(*_answers(value=3.5000001))
    assert checks.check_served(*_answers(cached=True))


def test_fastpath_off_by_six_percent_fails():
    assert checks.check_fastpath("b", "stable", 1.04, 1.0) == []
    assert checks.check_fastpath("b", "stable", 1.06, 1.0)
    assert checks.check_fastpath("b", "certified", 1.0 + 1e-6, 1.0)
    assert checks.check_fastpath("b", "fallback", 1.0, 1.0) == []


def test_values_must_be_finite_and_positive():
    good = [("u", {"m": 1.5})]
    assert checks.check_values(good, ["m"]) == []
    for bad in (0.0, -1.0, math.nan, math.inf, None):
        assert checks.check_values([("u", {"m": bad})], ["m"])


def test_identical_inputs_must_give_identical_results():
    assert checks.check_identical([(("a",), {"m": 1.0}), (("a",), {"m": 1.0})]) == []
    assert checks.check_identical([(("a",), {"m": 1.0}), (("a",), {"m": 1.0000001})])


def test_right_side_share():
    assert checks.check_right_side(0.96) == []
    assert checks.check_right_side(0.94)


def test_self_times_sum_to_the_wall_and_catch_double_counting():
    spans = [Span("engine", 10, 90), Span("lower", 20, 30, parent=0),
             Span("model", 30, 60, parent=0)]
    acct = self_times(spans, (0, 100))
    assert acct["faults"] == []
    assert acct["self_ns"] == {"engine": 40, "lower": 10, "model": 30}
    assert sum(acct["self_ns"].values()) + acct["uncovered_ns"] == 100

    overlapping = spans + [Span("mca", 50, 70, parent=0)]
    assert self_times(overlapping, (0, 100))["faults"]
    outside = [Span("engine", 10, 90), Span("lower", 80, 95, parent=0)]
    assert self_times(outside, (0, 100))["faults"]
