"""The two CLI workloads: seeded job lists, the job runner and the checks.

Each job is a fresh ``python -m codanorm.cli`` process, run one at a time
(a closed loop with one client).  A cycle is one seeded shuffle of the whole
job list; checks run after the cycle, outside every timed interval.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import inputs

SPANS_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spans.py")
REL_TOL = 1e-9

# input and output sizes (module constants so the self-tests can shrink them)
SMALL_ROWS, SMALL_DRAWS, SMALL_GRID = 200, 10_000, 400
BULK_ROWS, BULK_DRAWS, BULK_GRID = 200_000, 200_000, 1000


class Job:
    """One CLI invocation and what its output must satisfy."""

    def __init__(self, kind, argv, check, rows_read=0, outputs=()):
        self.kind = kind
        self.argv = list(argv)
        self.check = check  # fn(stdout_text) -> error message or None
        self.rows_read = rows_read
        self.outputs = list(outputs)  # (csv path, lines before the data rows)


class Outcome:
    def __init__(self, job, wall, code, maxrss_kb, stdout, stderr, spans_path=None):
        self.job = job
        self.wall = wall
        self.code = code
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout
        self.stderr = stderr
        self.spans_path = spans_path
        self.error = None


# --------------------------------------------------------------------------
# checks (numpy references only)
# --------------------------------------------------------------------------

def _close(got, want, tol=REL_TOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= tol * scale


def _report(stdout):
    return json.loads(stdout)


def check_fit_simplex(rows, kappa=1.0):
    mu, sigma = inputs.fit_simplex_reference(rows, kappa)

    def check(stdout):
        rep = _report(stdout)
        if rep["n"] != rows.shape[0]:
            return f"n={rep['n']}, file has {rows.shape[0]} rows"
        if not (_close(rep["law"]["mu"], mu) and _close(rep["law"]["sigma"], sigma)):
            return "fitted mu/sigma differ from the numpy reference"
        if abs(sum(rep["aln_classical_mean"]) - 1.0) > 1e-12:
            return "aln_classical_mean does not sum to 1"
        return None

    return check


def check_fit_rplus(values):
    mu, sigma2 = inputs.fit_rplus_reference(values)

    def check(stdout):
        rep = _report(stdout)
        if rep["n"] != values.size:
            return f"n={rep['n']}, file has {values.size} values"
        if not (_close(rep["law"]["mu"], mu) and _close(rep["law"]["sigma2"], sigma2)):
            return "fitted mu/sigma2 differ from the numpy reference"
        return None

    return check


def check_hist(n):
    def check(stdout):
        rep = _report(stdout)
        if rep["counts_sum"] != n or rep["n"] != n:
            return f"counts_sum={rep['counts_sum']}, n={rep['n']}, expected {n}"
        return None

    return check


def check_grid(stdout):
    rep = _report(stdout)
    return None if len(rep["files"]) == 2 else "grid artifact files missing"


def check_version(stdout):
    return None if stdout.startswith("codanorm ") else f"unexpected version line {stdout!r}"


def check_printed_path(stdout):
    return None if stdout.strip() else "sample printed no path"


def sample_rows(path, n, closed):
    """Check a sample file: ``n`` data rows, positive, closed if simplex."""
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    if data.shape[0] != n:
        return f"{path}: {data.shape[0]} rows, expected {n}"
    if not np.all(data > 0.0):
        return f"{path}: non-positive values"
    if closed and float(np.max(np.abs(data.sum(axis=1) - 1.0))) > 1e-12:
        return f"{path}: rows not closed"
    return None


def same_bytes(path_a, path_b):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return None if fa.read() == fb.read() else f"{path_a} and {path_b} differ"


def grid_ratio(nsd_csv, aln_csv, resolution):
    """The ALN and NSD grids are one law: their ratio is 1/(sqrt(3) x y z)."""
    nsd = np.loadtxt(nsd_csv, delimiter=",")
    aln = np.loadtxt(aln_csv, delimiter=",")
    i, j = np.meshgrid(np.arange(resolution + 1), np.arange(resolution + 1), indexing="ij")
    x, y = i / resolution, j / resolution
    z = (resolution - i - j) / resolution
    on = ~np.isnan(nsd) & (nsd > 0)
    want = 1.0 / (math.sqrt(3.0) * x[on] * y[on] * z[on])
    got = aln[on] / nsd[on]
    if not on.any() or float(np.max(np.abs(got / want - 1.0))) > REL_TOL:
        return "ALN/NSD grid ratio differs from 1/(sqrt(3) x y z)"
    return None


def count_data_rows(path, skip):
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - skip


# --------------------------------------------------------------------------
# job lists
# --------------------------------------------------------------------------

def _law_args(rng):
    mu, sigma = inputs.simplex_law(rng, 2)
    # "=" keeps argparse from reading a leading minus sign as an option
    return [f"--mu={inputs.format_vector(mu)}", f"--sigma={inputs.format_vector(sigma)}"]


def _fixture(workdir, name, header, rows, shas):
    inputs.write_csv(os.path.join(workdir, name), header, rows)
    shas[name] = inputs.sha256(os.path.join(workdir, name))
    return name


def _simplex_fixture(rng, workdir, n, D, shas):
    rows = inputs.simplex_rows(rng, n, D)
    name = _fixture(workdir, f"simplex_D{D}.csv", [f"part{k + 1}" for k in range(D)], rows, shas)
    return name, rows


def _fit_simplex_job(rng, workdir, n, D, shas):
    name, rows = _simplex_fixture(rng, workdir, n, D, shas)
    return Job(f"fit_simplex_D{D}", ["fit", "--space", "simplex", "--input", name],
               check_fit_simplex(rows), rows_read=n)


def _sample_jobs(labels, law_args, n, seed):
    jobs = []
    for label in labels:
        out = f"sample_{label}.csv"
        jobs.append(Job(f"sample_{label}", ["sample", "--law", label, *law_args, "-n", str(n),
                                            "--seed", str(seed), "-o", out],
                        check_printed_path, outputs=[(out, 2)]))
    return jobs


def _grid_jobs(labels, law_args, resolution):
    return [
        Job(f"density_grid_{label}_r{resolution}",
            ["density-grid", "--law", label, *law_args, "--resolution", str(resolution),
             "-o", f"grid_{label}"],
            check_grid, outputs=[(f"grid_{label}.csv", 0)])
        for label in labels
    ]


def build(workload, rng, workdir):
    """Return ``(jobs, pair_checks, probes, fixture_shas)`` for a workload.

    ``pair_checks`` are ``(kind, fn)`` run after each cycle; ``probes`` are
    the far-from-centre jobs run once, after the timed cycles.
    """
    shas = {}
    seed = str(int(rng.integers(1, 2**31 - 1)))

    def at(name):
        return os.path.join(workdir, name)

    if workload == "cli-small":
        skye = os.path.abspath(inputs.SKYE_PATH)
        skye_rows = inputs.read_table(skye)
        shas["skye_lavas_afm.csv"] = inputs.sha256(skye)
        values = inputs.positive_values(rng, SMALL_ROWS)
        rplus = _fixture(workdir, "rplus_small.csv", ["value"], values, shas)
        extreme_values = inputs.extreme_values(rng, 50)
        extreme = _fixture(workdir, "rplus_extreme.csv", ["value"], extreme_values, shas)
        simplex_args, rplus_mu, rplus_s2 = _law_args(rng), rng.uniform(-1, 1), rng.uniform(0.2, 1.0)
        rplus_args = [f"--mu={float(rplus_mu)!r}", f"--sigma2={float(rplus_s2)!r}"]
        jobs = [
            Job("version", ["--version"], check_version),
            Job("fit_simplex_skye", ["fit", "--space", "simplex", "--kappa", "100", "--input", skye],
                check_fit_simplex(skye_rows, 100.0), rows_read=skye_rows.shape[0]),
            *[_fit_simplex_job(rng, workdir, SMALL_ROWS, D, shas) for D in (3, 5, 8)],
            Job("fit_rplus", ["fit", "--space", "rplus", "--input", rplus],
                check_fit_rplus(values), rows_read=values.size),
            Job("hist", ["hist", "--input", rplus, "--metric", "logratio", "-o", "hist"],
                check_hist(values.size), rows_read=values.size, outputs=[("hist.csv", 1)]),
            *_grid_jobs(("nsd", "aln"), simplex_args, SMALL_GRID),
            *_sample_jobs(("nrp", "lognormal"), rplus_args, SMALL_DRAWS, seed),
            *_sample_jobs(("nsd", "aln"), simplex_args, SMALL_DRAWS, seed),
        ]
        pair_checks = [
            ("sample_lognormal", lambda: same_bytes(at("sample_nrp.csv"), at("sample_lognormal.csv"))),
            ("sample_aln", lambda: same_bytes(at("sample_nsd.csv"), at("sample_aln.csv"))),
            ("sample_nrp", lambda: sample_rows(at("sample_nrp.csv"), SMALL_DRAWS, closed=False)),
            ("sample_nsd", lambda: sample_rows(at("sample_nsd.csv"), SMALL_DRAWS, closed=True)),
            (f"density_grid_aln_r{SMALL_GRID}",
             lambda: grid_ratio(at("grid_nsd.csv"), at("grid_aln.csv"), SMALL_GRID)),
        ]
        probes = [
            Job("cli_fit_rplus_extreme", ["fit", "--space", "rplus", "--input", extreme],
                check_fit_rplus(extreme_values), rows_read=extreme_values.size),
        ]
    elif workload == "cli-bulk":
        values = inputs.positive_values(rng, BULK_ROWS)
        rplus = _fixture(workdir, "rplus_bulk.csv", ["value"], values, shas)
        simplex_args = _law_args(rng)
        rplus_args = [f"--mu={float(rng.uniform(-1, 1))!r}", f"--sigma2={float(rng.uniform(0.2, 1.0))!r}"]
        n_draws = BULK_DRAWS
        jobs = [
            *[_fit_simplex_job(rng, workdir, BULK_ROWS, D, shas) for D in (3, 4)],
            Job("fit_rplus", ["fit", "--space", "rplus", "--input", rplus],
                check_fit_rplus(values), rows_read=values.size),
            Job("hist", ["hist", "--input", rplus, "--metric", "euclidean", "-o", "hist"],
                check_hist(values.size), rows_read=values.size, outputs=[("hist.csv", 1)]),
            *_grid_jobs(("aln",), simplex_args, BULK_GRID),
            *_sample_jobs(("lognormal",), rplus_args, n_draws, seed),
            *_sample_jobs(("nsd",), simplex_args, n_draws, seed),
        ]
        pair_checks = [
            ("sample_lognormal", lambda: sample_rows(at("sample_lognormal.csv"), n_draws, closed=False)),
            ("sample_nsd", lambda: sample_rows(at("sample_nsd.csv"), n_draws, closed=True)),
        ]
        probes = []
    else:
        raise ValueError(workload)
    return jobs, pair_checks, probes, shas


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------

def run_job(job, workdir, env, tag, traced=False):
    out_path = os.path.join(workdir, f"{tag}.stdout")
    err_path = os.path.join(workdir, f"{tag}.stderr")
    spans_path = os.path.join(workdir, f"{tag}.spans.json") if traced else None
    if traced:
        cmd = [sys.executable, SPANS_PY, spans_path, "--", *job.argv]
    else:
        cmd = [sys.executable, "-m", "codanorm.cli", *job.argv]
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=fo, stderr=fe)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fo, \
            open(err_path, encoding="utf-8", errors="replace") as fe:
        return Outcome(job, wall, proc.returncode, usage.ru_maxrss, fo.read(), fe.read(), spans_path)


def check_outcome(outcome):
    """Fill ``outcome.error``; a failed check is recorded, never raised."""
    if outcome.code != 0:
        last = outcome.stderr.strip().splitlines()[-1:] or [""]
        outcome.error = f"exit {outcome.code}: {last[0][:200]}"
        return
    try:
        outcome.error = outcome.job.check(outcome.stdout)
    except Exception as exc:  # a malformed report is a failed check
        outcome.error = f"check raised {type(exc).__name__}: {exc}"


def run_cycle(jobs, order, workdir, env, cycle, traced=False):
    """Run the jobs in ``order``; return the outcomes, unchecked."""
    return [run_job(jobs[k], workdir, env, f"c{cycle}_{k}", traced) for k in order]


def check_cycle(outcomes, pair_checks, workdir):
    """Check every outcome and pair; return rows written by the cycle."""
    for oc in outcomes:
        check_outcome(oc)
    by_kind = {oc.job.kind: oc for oc in outcomes}
    for kind, fn in pair_checks:
        oc = by_kind[kind]
        if oc.error is None:
            try:
                oc.error = fn()
            except Exception as exc:  # a malformed output is a failed check
                oc.error = f"check raised {type(exc).__name__}: {exc}"
    written = 0
    for oc in outcomes:
        for name, skip in oc.job.outputs:
            path = os.path.join(workdir, name)
            if oc.code == 0 and os.path.exists(path):
                written += count_data_rows(path, skip)
    return written
