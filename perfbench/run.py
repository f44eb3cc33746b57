"""codanorm benchmark: one command, three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 25 --trace 0

Workloads (each a closed loop with one client, one process at a time):

* ``cli-small`` -- short CLI jobs, each a fresh ``python -m codanorm.cli``;
  process start and import dominate.
* ``cli-bulk`` -- the same CLI on 2e5-row inputs and outputs; CSV
  ingest and emit, row kernels and the GOF battery dominate.
* ``lib-mix`` -- in-process library calls in a worker process, after a
  warm-up pass; the law, simplex, sampling, grid and inference kernels.

A run executes a whole number of cycles (each one seeded shuffle of the
workload's full operation list), ``max(1, round(seconds / CYCLE_S))``, so
every run of a workload does the same work.  Inputs are
generated from ``--seed`` with numpy alone, outside every timed interval,
and every output is checked outside the timed intervals against a numpy
reference or the same-law promise.  A failed check counts as a failed
operation; it never aborts the run.

Valid inputs far from the centre (coordinates near +-800, tails beyond
1e10, values spanning 1e+-300) run as probes after the timed cycles.  Their
outcomes are printed by kind; the failures listed in ``KNOWN_DEFECTS`` are
open defects and do not make the run incorrect, any other failure does.

End-to-end metrics (``--trace 0``), over the timed cycles:

* ``setup_s`` -- median wall time of fresh interpreters running
  ``import codanorm`` (three per run);
* ``ops_per_s`` -- operations (CLI jobs or library calls) per second of
  busy time, the sum of the operations' timed intervals;
* ``latency_p50_s``, ``latency_tail_s`` -- median time per operation and
  the highest percentile (0.1 grid, nearest rank) with at least ten samples
  beyond it; the sample count and the percentile are printed;
* ``rows_per_s`` -- CSV data rows read plus written per busy second on the
  CLI workloads; rows drawn or fitted per busy second on ``lib-mix``;
* ``ok_ratio`` -- operations that passed their checks over those attempted;
* ``peak_rss_mb`` -- largest resident set of any CLI child, or of the
  ``lib-mix`` worker.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of untraced and traced cycles (see ``spans.py``) plus the import
profile.  The last line of standard output is the JSON result.
Only this process and its children are measured: no system-wide tracing,
no cache drops.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np

import cli_workloads
import importprof
import spans
import stats

WORKLOADS = ("cli-small", "cli-bulk", "lib-mix")

# seconds of --seconds given to one cycle: a run makes round(seconds /
# CYCLE_S) whole cycles.  On a 2-core Intel Xeon (Python 3.11, numpy 2.4,
# scipy 1.17) a cycle takes about 18 s, 13 s and 1.0 s.
CYCLE_S = {"cli-small": 15.0, "cli-bulk": 15.0, "lib-mix": 1.5}
SETUP_REPEATS = 3
IMPORT_PROFILE_REPEATS = 3

# failures of valid far-from-centre inputs that are open defects
KNOWN_DEFECTS = {
    "ilr_inv_far": "ilr_inv near +-800 raises NonPositivePartError",
    "sample_nsd_far": "sample_nsd with a mean near +-800 raises NonPositivePartError",
    "rplus_upper_tail": "probability_of_interval(NormalOnRPlus(0, 1), >1e10, inf) returns 0.0",
    "cli_fit_rplus_extreme": "fit --space rplus on values spanning 1e+-300 exits 1 (OverflowError)",
}

LIB_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lib_workload.py")

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
    "rows_per_s": "1/s", "ok_ratio": "1", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in importprof.IMPORT_METRICS},
    **{name: ("s" if name.endswith("_s") else "count") for name in spans.SPAN_METRICS},
    "simplex.bytes_computed": "B",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    "trace.overhead_ratio": "1",
    "trace.coverage": "1",
}


def child_env(root):
    env = dict(os.environ)
    env.pop("CODANORM_SEED", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Result:
    """What a workload run hands back for reporting."""

    def __init__(self):
        self.attempted = 0
        self.latencies = []
        self.failures = {}
        self.errors = {}
        self.busy_s = 0.0
        self.rows = 0
        self.peak_rss_mb = 0.0
        self.probes = {}
        self.layers = {}
        self.cycles = 0
        self.fixtures = {}

    def fail(self, kind, message):
        self.failures[kind] = self.failures.get(kind, 0) + 1
        self.errors.setdefault(kind, message)


def cycles_for(workload, seconds, trace):
    """Whole cycles per run; a traced run splits them into an untraced and
    a traced half."""
    cycles = max(1, round(seconds / CYCLE_S[workload]))
    return max(1, cycles // 2) if trace else cycles


def run_cli(workload, seed, seconds, trace, workdir, env):
    res = Result()
    jobs, pair_checks, probes, res.fixtures = cli_workloads.build(
        workload, np.random.default_rng([seed, 3]), workdir
    )
    order_rng = np.random.default_rng([seed, 5])
    res.cycles = cycles_for(workload, seconds, trace)

    def tally(outcomes):
        written = cli_workloads.check_cycle(outcomes, pair_checks, workdir)
        for oc in outcomes:
            if oc.error:
                res.fail(oc.job.kind, oc.error)
            elif oc.code == 0:
                res.rows += oc.job.rows_read
        res.rows += written
        res.attempted += len(outcomes)
        res.latencies += [oc.wall for oc in outcomes]
        res.peak_rss_mb = max([res.peak_rss_mb] + [oc.maxrss_kb / 1024.0 for oc in outcomes])
        return sum(oc.wall for oc in outcomes)

    for cycle in range(res.cycles):
        outcomes = cli_workloads.run_cycle(jobs, order_rng.permutation(len(jobs)), workdir, env, cycle)
        res.busy_s += tally(outcomes)

    for k, job in enumerate(probes):
        oc = cli_workloads.run_job(job, workdir, env, f"probe{k}")
        cli_workloads.check_outcome(oc)
        _probe(res, job.kind, oc.error)

    if trace:
        outcomes, traced_s = [], 0.0
        for cycle in range(res.cycles):
            ocs = cli_workloads.run_cycle(
                jobs, order_rng.permutation(len(jobs)), workdir, env, f"t{cycle}", traced=True
            )
            traced_s += tally(ocs)
            outcomes += ocs
        acc, covered = {}, 0.0
        for oc in outcomes:
            with open(oc.spans_path, encoding="utf-8") as fh:
                job_spans = json.load(fh)
            spans.accumulate(job_spans, acc)
            covered += spans.covered(job_spans)
        res.layers = {
            **acc,
            "trace.overhead_ratio": traced_s / res.busy_s,
            "trace.coverage": covered / traced_s,
        }
    return res


def _probe(res, kind, error):
    entry = res.probes.setdefault(kind, {"attempted": 0, "failed": 0, "error": None})
    entry["attempted"] += 1
    if error:
        entry["failed"] += 1
        entry["error"] = entry["error"] or error


def run_lib(seed, seconds, trace, workdir, env):
    res = Result()
    res.cycles = cycles_for("lib-mix", seconds, trace)
    config = os.path.join(workdir, "lib_config.json")
    out = os.path.join(workdir, "lib_result.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "cycles": res.cycles, "trace": bool(trace)}, fh)
    proc = subprocess.run([sys.executable, LIB_PY, config, out], env=env,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"lib-mix worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    res.attempted = data["attempted"]
    res.latencies = data["latencies"]
    res.busy_s = data["busy_s"]
    res.rows = data["rows"]
    res.peak_rss_mb = data["peak_rss_mb"]
    res.failures, res.errors = data["failures"], data["errors"]
    res.probes = data["probes"]
    res.fixtures = data["fixtures"]
    if trace:
        tr = data["trace"]
        for kind, count in tr["failures"].items():
            res.failures[kind] = res.failures.get(kind, 0) + count
            res.errors.setdefault(kind, tr["errors"][kind])
        res.attempted += tr["attempted"]
        res.layers = {
            **tr["span_metrics"],
            "trace.overhead_ratio": tr["traced_s"] / tr["untraced_s"],
            "trace.coverage": tr["covered_s"] / tr["traced_s"],
        }
    return res


def measure(workload, seed, seconds, trace, root):
    env = child_env(root)
    workdir = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_s = None
        if not trace:
            setup_s = statistics.median(
                importprof.fresh_import_s(env) for _ in range(SETUP_REPEATS)
            )
        if workload == "lib-mix":
            res = run_lib(seed, seconds, trace, workdir, env)
        else:
            res = run_cli(workload, seed, seconds, trace, workdir, env)
        if trace:
            res.layers.update(importprof.import_profile(env, IMPORT_PROFILE_REPEATS))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return setup_s, res


def report(workload, seed, trace, setup_s, res):
    attempted = res.attempted
    failed = sum(res.failures.values())
    unexpected = {k: v for k, v in res.probes.items() if v["failed"] and k not in KNOWN_DEFECTS}
    n, p50, tail_q, tail = stats.latency_summary(res.latencies)
    print(f"# {workload} seed={seed} cycles={res.cycles} ops={attempted} busy_s={res.busy_s:.3f}")
    if not trace:
        print(f"# latency n={n} p50={p50:.6g} s tail=p{tail_q:g} ({tail:.6g} s)")
    print(f"# failures by kind: {json.dumps(res.failures, sort_keys=True)}")
    for kind, msg in sorted(res.errors.items()):
        print(f"#   {kind}: {msg}")
    for kind, entry in sorted(res.probes.items()):
        status = "known defect" if kind in KNOWN_DEFECTS else "probe"
        print(f"# probe {kind}: {entry['failed']}/{entry['attempted']} failed ({status})"
              + (f": {entry['error']}" if entry["error"] else ""))
    if res.fixtures:
        print(f"# fixtures sha256: {json.dumps(res.fixtures, sort_keys=True)}")
    if trace:
        metrics = {name: {"value": res.layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": attempted / res.busy_s,
            "latency_p50_s": p50,
            "latency_tail_s": tail,
            "rows_per_s": res.rows / res.busy_s,
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": res.peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": failed == 0 and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "codanorm", "__init__.py")):
        print("error: run from the root of a codanorm checkout (src/codanorm not found)",
              file=sys.stderr)
        return 2
    setup_s, res = measure(args.workload, args.seed, args.seconds, args.trace, root)
    report(args.workload, args.seed, args.trace, setup_s, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
