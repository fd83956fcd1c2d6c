"""Seeded inputs: fuzzed kernels with a fixed machine and length mix.

Host time per fuzzed kernel grows by about 10% per instruction around
the typical length of 11, and long kernels (up to 450 instructions) are
rare but cost up to a second, so both the median unit time and the
total of a plain ``generate_fuzz_corpus(seed, n)`` swing by 10-20%
from seed to seed.  The benchmark therefore fills a fixed quota per
(machine model, instruction count) cell, scanning the seed's fuzz
corpus in index order: every seed gives different kernels in the same
mix.  The quotas follow the mix of a fixed reference sample.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from typing import Any

REFERENCE_SEED = 0
REFERENCE_KERNELS = 4000
#: upper instruction-count edge of each length bin (the last bin is
#: open): one bin per count up to 24, wider ones above
BIN_EDGES = tuple(range(1, 25)) + (32, 48, 64, 96, 128, 192, 256)

#: fuzz_sweep size; serve_mixed draws this many new blocks per client
FUZZ_KERNELS = 250
SERVE_CLIENTS = 2
SERVE_NEW_PER_CLIENT = 25
#: one request in this many is a new block (a miss); the rest repeat
SERVE_MISS_EVERY = 6
SERVE_BACKENDS = ("model", "fastpath", "mca")
#: the documented request defaults, sent explicitly so the in-process
#: reference prediction uses the same measurement window
SERVE_WINDOW = {"iterations": 100, "warmup": 33}


def instruction_count(assembly: str) -> int:
    """Lines that are neither labels, directives nor comments."""
    return sum(
        1 for line in assembly.splitlines()
        if (s := line.strip()) and not s.endswith(":") and not s.startswith((".", "#", "//"))
    )


def cell(kernel) -> tuple[str, int]:
    return kernel.uarch, bisect.bisect_left(BIN_EDGES, instruction_count(kernel.assembly))


def quotas(count: int) -> dict[tuple[str, int], int]:
    """Largest-remainder split of *count* kernels over the reference mix."""
    from repro.fuzz.generator import generate_fuzz_corpus

    ref = Counter(cell(k) for k in generate_fuzz_corpus(REFERENCE_SEED, REFERENCE_KERNELS))
    raw = {c: n * count / REFERENCE_KERNELS for c, n in ref.items()}
    out = {c: int(r) for c, r in raw.items()}
    for c in sorted(raw, key=lambda c: (out[c] - raw[c], c))[: count - sum(out.values())]:
        out[c] += 1
    return out


def fuzz_kernels(seed: int, count: int = FUZZ_KERNELS, distinct: bool = False) -> list:
    """The first kernels of seed's fuzz corpus that fill the quotas.

    With ``distinct`` a kernel whose (machine model, canonical assembly)
    repeats an earlier pick is skipped.
    """
    from repro.fuzz.generator import generate_fuzz_corpus
    from repro.lowering import canonicalize_assembly

    left = quotas(count)
    picked, seen = [], set()
    scan, start = 8 * count, 0
    while any(left.values()):
        for k in generate_fuzz_corpus(seed, scan)[start:]:
            c = cell(k)
            key = (k.uarch, canonicalize_assembly(k.assembly))
            if left.get(c) and not (distinct and key in seen):
                left[c] -= 1
                picked.append(k)
                seen.add(key)
        start, scan = scan, 2 * scan
    return picked


def serve_plan(seed: int) -> list[list[dict[str, Any]]]:
    """Per-client request lists for the closed serving loop.

    Each client owns its own new blocks, so whether a request hits the
    daemon's cache does not depend on how the two clients interleave:
    request ``i`` of a client is the client's next new block when
    ``i % SERVE_MISS_EVERY == 0`` (a miss) and otherwise repeats one of
    its earlier blocks, already answered and cached (a hit).
    """
    blocks = fuzz_kernels(seed, SERVE_CLIENTS * SERVE_NEW_PER_CLIENT, distinct=True)
    rng = random.Random(f"serve_mixed:{seed}")
    plan = []
    for c in range(SERVE_CLIENTS):
        mine = [
            {"assembly": k.assembly, "arch": k.uarch,
             "backend": SERVE_BACKENDS[i % len(SERVE_BACKENDS)], **SERVE_WINDOW}
            for i, k in enumerate(blocks[c::SERVE_CLIENTS])
        ]
        reqs = []
        for i in range(SERVE_NEW_PER_CLIENT * SERVE_MISS_EVERY):
            new = i % SERVE_MISS_EVERY == 0
            j = i // SERVE_MISS_EVERY if new else rng.randrange(i // SERVE_MISS_EVERY + 1)
            reqs.append({"body": mine[j], "expect_cached": not new})
        plan.append(reqs)
    return plan
