"""One sweep round in a fresh interpreter (started by ``run.py``).

Usage: ``python sweep.py <json args>`` with keys ``workload``
(``fig3_sweep`` | ``fuzz_sweep`` | ``setup``), ``seed``, ``trace``,
``check``, ``spawned`` (the parent's ``time.monotonic()`` just before
the spawn) and, for ``fuzz_sweep``, ``indices`` (which kernels of the
seed's fuzz corpus to sweep, see ``inputs.fuzz_kernels``).
Prints one JSON object on its last stdout line.

``setup_s`` runs from the spawn until ``repro`` is imported and the
three machine models are built.  The sweep itself is timed with no
wrapper installed unless ``trace`` is set; with ``check`` every output
check runs after the timed sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

#: the Fig. 3 corpus measurement window (fig3.run's default iterations
#: and the corpus evaluator's warmup of max(10, iterations // 3))
FIG3_WINDOW = {"iterations": 100, "warmup": 33}
#: distinct Fig. 3 blocks whose fastpath answer is re-measured on the
#: cycle engine
FASTPATH_SAMPLE = 16
OUTPUT_FIELDS = ("measurement", "prediction_osaca", "prediction_mca")


def setup() -> float:
    import repro  # noqa: F401
    from repro.machine import get_machine_model

    for chip in ("spr", "genoa", "gcs"):
        get_machine_model(chip)
    return time.monotonic()


def check_outputs(workload: str, seed: int, eng, fig3_result) -> list[str]:
    import random

    from repro.backends import get_backend
    from repro.lowering import lower

    import checks

    outcomes = eng.last_outcomes
    labelled = [(o.unit.label, o.result) for o in outcomes]
    faults = checks.check_values(labelled, OUTPUT_FIELDS)
    keyed = [((o.unit.params["uarch"], o.unit.params["assembly"]), o.result) for o in outcomes]
    faults += checks.check_identical(keyed)

    distinct = {}
    for key, out in keyed:
        distinct.setdefault(key, out)
    model = get_backend("model")
    for uarch, asm in distinct:
        block = lower(asm, uarch)
        uops = [(u.ports, u.cycles) for r in block.resolved for u in r.uops]
        ana = model.predict(block).detail
        faults += checks.check_port_bound(f"{uarch}:{block.asm_digest[:12]}", uops,
                                          ana.block_throughput)

    if workload == "fig3_sweep":
        faults += checks.check_right_side(fig3_result.summary("osaca")["right_side_fraction"])
        sample = random.Random(f"fig3_sweep:{seed}").sample(sorted(distinct), FASTPATH_SAMPLE)
        sim = get_backend("sim")
        for uarch, asm in sample:
            out = distinct[(uarch, asm)]
            tier = out["engine_reason"] if out["engine"] == "fastpath" else "fallback"
            ref = sim.predict(lower(asm, uarch), **FIG3_WINDOW).cycles_per_iteration
            faults += checks.check_fastpath(f"{uarch}:{asm[:40]!r}", tier,
                                            out["measurement"], ref)
    return faults


def layer_metrics(rec, wall: tuple[int, int]) -> tuple[dict[str, float], list[str]]:
    from spans import self_times

    acct = self_times(rec.spans, wall)
    by: dict[str, list] = {}
    for s in rec.spans:
        by.setdefault(s.name, []).append(s)
    s_of = {k: v / 1e9 for k, v in acct["self_ns"].items()}

    def calls(name):
        return len(by.get(name, []))

    def ratio(name, flag):
        n = calls(name)
        return sum(1 for s in by.get(name, []) if s.info.get(flag)) / n if n else 0.0

    sim_cycles = sum(s.info.get("cycles", 0.0) for s in by.get("sim", []))
    out = {
        "lower.calls": calls("lower"),
        "lower.s": s_of.get("lower", 0.0),
        "lower.memo_hit_ratio": ratio("lower", "memo_hit"),
        "model.calls": calls("model"),
        "model.s": s_of.get("model", 0.0),
        "mca.calls": calls("mca"),
        "mca.s": s_of.get("mca", 0.0),
        "fastpath.calls": calls("fastpath"),
        "fastpath.s": s_of.get("fastpath", 0.0),
        "fastpath.analytical_ratio": ratio("fastpath", "analytical"),
        "sim.calls": calls("sim"),
        "sim.s": s_of.get("sim", 0.0),
        "sim.us_per_cycle": s_of.get("sim", 0.0) * 1e6 / sim_cycles if sim_cycles else 0.0,
        "engine.units": sum(s.info["units"] for s in by.get("engine", [])),
        "engine.evaluated": sum(s.info["evaluated"] for s in by.get("engine", [])),
        "engine.self_s": s_of.get("engine", 0.0),
        "trace.uncovered_s": acct["uncovered_ns"] / 1e9,
    }
    # the identity holds in integer nanoseconds; 1 us allows for nothing
    # but a fault in the accounting
    gap = sum(acct["self_ns"].values()) + acct["uncovered_ns"] - (wall[1] - wall[0])
    faults = list(acct["faults"])
    if abs(gap) > 1000:
        faults.append(f"self times + uncovered differ from the wall by {gap} ns")
    return out, faults


def main(args: dict) -> dict:
    ready = setup()
    result = {"setup_s": ready - args["spawned"]}
    if args["workload"] == "setup":
        return result

    workload, seed = args["workload"], args["seed"]
    from repro.engine import CorpusEngine

    eng = CorpusEngine(jobs=1)
    if workload == "fig3_sweep":
        from repro.bench import fig3

        def sweep():
            return fig3.run(measurement_engine="fastpath", engine=eng)
    else:
        from repro.fuzz.generator import generate_fuzz_corpus
        from repro.fuzz.harness import run_differential

        indices = args["indices"]
        generated = generate_fuzz_corpus(seed, max(indices) + 1)
        corpus = [generated[i] for i in indices]

        def sweep():
            return run_differential(corpus, seed=seed, engine=eng)

    rec = None
    if args["trace"]:
        from spans import SpanRecorder

        rec = SpanRecorder()
        rec.install()
    t0 = time.perf_counter_ns()
    out = sweep()
    t1 = time.perf_counter_ns()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    faults = []
    if rec is not None:
        rec.uninstall()
        result["layers"], faults = layer_metrics(rec, (t0, t1))

    c2 = time.perf_counter_ns()
    if args["check"]:
        faults += check_outputs(workload, seed, eng, out if workload == "fig3_sweep" else None)
    result["check_s"] = (time.perf_counter_ns() - c2) / 1e9
    m = eng.metrics
    result.update(
        wall_s=(t1 - t0) / 1e9,
        units=m.total_units,
        failed=m.failed,
        unit_seconds=m.unit_seconds,
        peak_rss_mb=rss_mb,
        faults=faults,
        digest=hashlib.sha256(json.dumps(
            [o.result for o in eng.last_outcomes], sort_keys=True).encode()).hexdigest(),
    )
    if workload == "fig3_sweep":
        result["fig3"] = {w: dict(out.summary(w), per_arch_global_rpe={
            arch: v["global_rpe"] for arch, v in out.per_arch_summary(w).items()})
            for w in ("osaca", "mca")}
        result["fig3"]["fastpath"] = out.fastpath_stats()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
