"""The repository benchmark: metrics with units, then one JSON result line.

    python3 perfbench/run.py --workload fig3_sweep --seed 1809 --seconds 35 --trace 0

``--workload all`` runs every workload in turn and ends with one JSON
line whose metric names carry the workload as a prefix.

Workloads (README.md says why each one exists):

* ``fig3_sweep`` -- the 416-unit Fig. 3 corpus, serial, fastpath
  measurement plus the model and MCA predictions, no result cache;
* ``fuzz_sweep`` -- 250 seeded fuzz kernels through the differential
  harness, serial, cycle-engine measurement, no result cache;
* ``serve_mixed`` -- a ``repro-serve`` process under two closed-loop
  clients, one new block in six requests, the rest cache hits.

A run repeats whole rounds until ``--seconds`` is used up; a sweep round
is a fresh interpreter, so memos start cold as in every CLI call, and a
serving round is a fresh daemon with an empty cache.  Each metric is
the median over the run's rounds.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced round.  The last
stdout line is the JSON result; the exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))

WORKLOADS = ("fig3_sweep", "fuzz_sweep", "serve_mixed")
#: README.md records this seed and the held-out one
DEFAULT_SEED = 1809
#: set-up is timed in each round, and in set-up-only interpreters
#: until the run's time is used up and it holds at least this many
MIN_SETUPS = 3
CHILD_TIMEOUT_S = 150.0


def tail(values: list[float]) -> float:
    """The highest order statistic with at least ten samples beyond it."""
    return sorted(values)[-11]


def medians(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


class Rounds:
    """Whole rounds until the run's time is used up (at least one).

    A round may report seconds that a further round would not repeat
    (the output checks of the first one) through :meth:`once`.
    """

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds
        self.longest = 0.0
        self._once = 0.0

    def once(self, seconds: float) -> None:
        self._once += seconds

    def __iter__(self):
        i = 0
        while i == 0 or time.monotonic() + self.longest <= self.end:
            t0, self._once = time.monotonic(), 0.0
            yield i
            self.longest = max(self.longest, time.monotonic() - t0 - self._once)
            i += 1


def child(args: dict) -> dict:
    args = dict(args, spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sweep.py"), json.dumps(args)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"sweep round exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_sweep(opts) -> tuple[dict, dict]:
    base = {"workload": opts.workload, "seed": opts.seed}
    if opts.workload == "fuzz_sweep":
        sys.path.insert(0, SRC)
        from inputs import fuzz_kernels

        base["indices"] = [k.index for k in fuzz_kernels(opts.seed)]
    done = []
    if opts.trace:
        # an untraced and a traced round of the same sweep: the layers
        # come from the second, the tracing overhead from the pair
        done.append(child(dict(base, trace=False, check=True)))
        done.append(child(dict(base, trace=True, check=False)))
    else:
        rounds = Rounds(opts.seconds)
        for i in rounds:
            done.append(child(dict(base, trace=False, check=i == 0)))
            rounds.once(done[-1]["check_s"])
        setups = [r["setup_s"] for r in done]
        # set-up-only interpreters fill what is left of the run
        while len(setups) < MIN_SETUPS or time.monotonic() < rounds.end:
            setups.append(child({"workload": "setup"})["setup_s"])

    faults = [f for r in done for f in r["faults"]]
    if len({r["digest"] for r in done}) != 1:
        faults.append("rounds of the same inputs gave different outputs")
    per_round = [
        {"units_per_s": r["units"] / r["wall_s"], "peak_rss_mb": r["peak_rss_mb"],
         "unit_p50_ms": statistics.median(r["unit_seconds"]) * 1e3,
         "unit_tail_ms": tail(r["unit_seconds"]) * 1e3}
        for r in done
    ]
    report = {
        "attempted": sum(r["units"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "faults": faults,
        "rounds": len(done),
        "samples": f"{len(done[0]['unit_seconds'])} units a round",
    }
    if opts.trace:
        layers = dict(done[1]["layers"])
        layers["trace.overhead_ratio"] = done[1]["wall_s"] / done[0]["wall_s"] - 1
        return layers, report
    if "fig3" in done[0]:
        report["fig3"] = done[0]["fig3"]
    return dict(medians(per_round), setup_s=statistics.median(setups)), report


def run_serve(opts) -> tuple[dict, dict]:
    sys.path.insert(0, SRC)
    from repro.backends import predict

    import checks
    from inputs import serve_plan
    from serve_load import serve_round

    plan = serve_plan(opts.seed)
    expected = {}
    for req in (r for client in plan for r in client):
        b = req["body"]
        key = (b["assembly"], b["arch"], b["backend"])
        if key not in expected:
            expected[key] = predict(
                b["assembly"], b["arch"], backend=b["backend"],
                iterations=b["iterations"], warmup=b["warmup"],
            ).cycles_per_iteration

    done, faults = [], []
    for i in Rounds(opts.seconds):
        r = serve_round(plan, SRC, os.path.join(SCRATCH, f"serve-{i}"))
        ok = [a for a in r["answers"] if a["status"] == 200]
        faults += checks.check_served(ok, expected)
        if r["exit_code"] != 0:
            faults.append(f"repro-serve drained with exit code {r['exit_code']}")
        r["failed"] = len(r["answers"]) - len(ok)
        done.append(r)

    def layer(r):
        s = r["stats"]
        out = {
            "serve.batches": s["batches"],
            "serve.units_per_batch": s["engine"]["total_units"] / s["batches"],
            "serve.evaluated": s["engine"]["evaluated"],
            "serve.cache_hits": s["engine"]["cache_hits"],
        }
        for name, flag in (("hit", True), ("miss", False)):
            seconds = [a["seconds"] for a in r["answers"]
                       if a["status"] == 200 and a["cached"] == flag]
            out[f"serve.{name}_p50_ms"] = statistics.median(seconds) * 1e3
            out[f"serve.{name}_tail_ms"] = tail(seconds) * 1e3
        return out

    n = len(done[0]["answers"])
    report = {
        "attempted": sum(len(r["answers"]) for r in done),
        "failed": sum(r["failed"] for r in done),
        "faults": faults,
        "rounds": len(done),
        "samples": f"{n} requests a round",
    }
    if opts.trace:
        return medians([layer(r) for r in done]), report
    per_round = []
    for r in done:
        seconds = [a["seconds"] for a in r["answers"]]
        per_round.append({
            "setup_s": r["setup_s"], "units_per_s": len(seconds) / r["loop_s"],
            "peak_rss_mb": r["peak_rss_mb"], "unit_p50_ms": statistics.median(seconds) * 1e3,
            "unit_tail_ms": tail(seconds) * 1e3,
        })
    return medians(per_round), report


def run_workload(opts, declared: list[dict]) -> tuple[bool, dict, dict]:
    """One workload: print its metrics, return (correct, report, metrics)."""
    os.makedirs(SCRATCH)
    try:
        run = run_serve if opts.workload == "serve_mixed" else run_sweep
        values, report = run(opts)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(SCRATCH))
        except OSError:  # another run still uses it
            pass

    # a layer the workload does not run, or cannot see into, reads 0
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    for k, m in metrics.items():
        print(f"{opts.workload} {k} = {m['value']:.6g} {m['unit']}")
    if "unit_tail_ms" in values:  # shown, not gated: README.md says why
        print(f"{opts.workload} unit_tail_ms = {values['unit_tail_ms']:.6g} ms "
              "(11th largest of a round)")
    print(f"{opts.workload}: {report['rounds']} round(s), {report['samples']}, "
          f"{report['attempted']} attempted, {report['failed']} failed")
    if "fig3" in report:
        print("fig3 summary:", json.dumps(report["fig3"], sort_keys=True))
    for f in report["faults"]:
        print("CHECK FAILED:", f)
    return not report["faults"], report, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0, help="per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if opts.trace else "end_to_end"]

    workloads = WORKLOADS if opts.workload == "all" else (opts.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        ok, report, metrics = run_workload(
            argparse.Namespace(**dict(vars(opts), workload=w)), declared)
        result["correct"] &= ok
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        if len(workloads) > 1:  # one result line for all: name metrics by workload
            metrics = {f"{w}.{k}": m for k, m in metrics.items()}
        result["metrics"].update(metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
