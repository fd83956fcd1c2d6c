"""Output checks computed apart from the program under test.

Every check returns a list of human-readable faults; an empty list
means the outputs passed.  They take plain data so ``test_checks.py``
can feed them perturbed outputs and see each one fail.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Any, Iterable, Sequence

#: relative error each fastpath confidence tier may show against the
#: cycle engine (docs/architecture.md, "When the analytical bound is
#: trusted"); "fallback" is the cycle engine itself
TIER_BOUND = {"certified": 1e-9, "simulated": 1e-12, "fallback": 1e-12, "stable": 0.05}
#: no tier may exceed this, whatever its bound
FASTPATH_CEILING = 0.05

PORT_BOUND_TOL = 1e-9
#: the share of Fig. 3 tests the lower-bound model must put on the
#: right side (model <= measurement); the paper reports 96%
RIGHT_SIDE_MIN = 0.95


def port_pressure_bound(uops: Iterable[tuple[Sequence[str], float]]) -> float:
    """max over port sets S of (µop cycles confined to S) / |S|.

    ``uops`` is ``(candidate ports, cycles)`` per µop.  The maximum is
    reached at a union of candidate sets, so only unions of the
    block's distinct candidate sets are tried.
    """
    groups: dict[frozenset, float] = {}
    for ports, cycles in uops:
        key = frozenset(ports)
        groups[key] = groups.get(key, 0.0) + cycles
    sets = list(groups)
    best = 0.0
    for r in range(1, len(sets) + 1):
        for combo in combinations(sets, r):
            s = frozenset().union(*combo)
            confined = sum(c for g, c in groups.items() if g <= s)
            best = max(best, confined / len(s))
    return best


def check_port_bound(label: str, uops, block_throughput: float) -> list[str]:
    own = port_pressure_bound(uops)
    if abs(own - block_throughput) > PORT_BOUND_TOL * max(1.0, abs(own)):
        return [f"{label}: port bound {own!r} != model block_throughput "
                f"{block_throughput!r}"]
    return []


def check_values(outputs: Sequence[tuple[str, dict[str, Any]]],
                 fields: Sequence[str]) -> list[str]:
    """Every listed field of every unit is a finite number > 0."""
    faults = []
    for label, out in outputs:
        for f in fields:
            v = out.get(f)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
                faults.append(f"{label}: {f} = {v!r}")
    return faults


def check_identical(outputs: Sequence[tuple[tuple, dict[str, Any]]]) -> list[str]:
    """Units with the same input key got bit-identical results."""
    first: dict[tuple, dict[str, Any]] = {}
    faults = []
    for key, out in outputs:
        if key in first and first[key] != out:
            faults.append(f"{key[0]}: identical inputs, different results")
        first.setdefault(key, out)
    return faults


def check_fastpath(label: str, tier: str, fastpath: float, sim: float) -> list[str]:
    """A fastpath measurement against the cycle engine on the same block."""
    if tier not in TIER_BOUND:
        return [f"{label}: fastpath tier {tier!r} has no documented bound"]
    err = abs(fastpath - sim) / abs(sim)
    bound = min(TIER_BOUND[tier], FASTPATH_CEILING)
    if err > bound:
        return [f"{label}: fastpath {fastpath!r} vs sim {sim!r} "
                f"({err:.3%}) beyond the {tier} bound {bound:g}"]
    return []


def check_right_side(fraction: float) -> list[str]:
    if fraction < RIGHT_SIDE_MIN:
        return [f"only {fraction:.1%} of Fig. 3 tests on the right side "
                f"(need {RIGHT_SIDE_MIN:.0%})"]
    return []


def check_served(answers: Sequence[dict[str, Any]],
                 expected: dict[tuple, float]) -> list[str]:
    """Each 200 answer equals the in-process prediction and carries the
    ``cached`` flag the request plan implies."""
    faults = []
    for a in answers:
        where = "/".join(a["key"][1:])
        want = expected[a["key"]]
        if a["value"] != want:
            faults.append(f"{where}: served {a['value']!r}, in-process {want!r}")
        if a["cached"] != a["expect_cached"]:
            faults.append(f"{where}: cached={a['cached']}, plan says {a['expect_cached']}")
    return faults
