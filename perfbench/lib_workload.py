"""The ``lib-mix`` workload: a seeded stream of in-process library calls.

Run as a worker process by ``run.py``::

    python perfbench/lib_workload.py CONFIG.json RESULT.json

CONFIG holds ``seed``, ``cycles`` and ``trace``.  The worker imports
codanorm, builds every input with numpy, makes one untimed warm-up pass over
the whole operation list, then runs the timed cycles (each a seeded shuffle
of the same list) in a closed loop with one client.  Every output is checked
right after its timed interval closes.  The far-from-centre probes run after
the timed cycles.  With ``trace`` it then instruments codanorm (see
``spans.py``) and runs as many traced cycles again.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time

import numpy as np

import inputs
import spans

N_DRAWS = 100_000
GRID_RESOLUTION = 1000
SCALAR_CALLS = 100  # per scalar function per cycle
PROBE_SHARE = 0.02


class Op:
    def __init__(self, kind, call, check, rows=0):
        self.kind = kind
        self.call = call  # fn(cycle) -> output
        self.check = check  # fn(output) -> error message or None
        self.rows = rows


def _rel_close(got, want, tol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= tol * scale


class Pairs:
    """Outputs of the two labels of one law, matched within a cycle."""

    def __init__(self):
        self.seen = {}

    def reset(self):
        self.seen.clear()

    def match(self, key, value, compare):
        """Store the first of a pair; compare the second against it."""
        if key not in self.seen:
            self.seen[key] = value
            return None
        return compare(self.seen.pop(key), value)


def build_ops(cn, seed, digests=None):
    """The operation list of one cycle; ``digests`` (if given) receives the
    sha256 of each generated input array."""
    rng = np.random.default_rng([seed, 7])
    pairs = Pairs()
    ops = []
    digests = {} if digests is None else digests
    stream_seed = int(rng.integers(1, 2**31 - 1))

    def stream(cycle):
        return cn.SeededStream(stream_seed, cycle)

    # sampling: both labels of one law draw identical rows
    for D in (3, 5):
        mu, sigma = inputs.simplex_law(rng, D - 1)
        for cls, label in ((cn.NormalOnSimplex, "nsd"), (cn.AlnLaw, "aln")):
            law = cls(mu, sigma)
            fname = "sample_nsd" if label == "nsd" else "sample_aln"

            def check(out, D=D):
                rows = out.rows
                if rows.shape != (N_DRAWS, D):
                    return f"shape {rows.shape}"
                if float(np.max(np.abs(rows.sum(axis=1) - 1.0))) > 1e-12:
                    return "rows not closed"
                return pairs.match(("sample", D), rows.copy(),
                                   lambda a, b: None if np.array_equal(a, b) else "labels drew different rows")

            ops.append(Op(f"sample_{label}_D{D}",
                          lambda c, f=fname, law=law: getattr(cn, f)(law, N_DRAWS, stream(c)),
                          check, N_DRAWS))

    # fit + goodness of fit on numpy-generated rows
    for D in (3, 5):
        rows = inputs.simplex_rows(rng, N_DRAWS, D)
        digests[f"fit_rows_D{D}"] = hashlib.sha256(rows.tobytes()).hexdigest()
        mu_ref, sigma_ref = inputs.fit_simplex_reference(rows)

        def fit_gof(c, rows=rows):
            sample = cn.SimplexSample.from_rows(rows)
            law = cn.fit_nsd(sample)
            return law, cn.gof_battery(sample, law)

        def check(out, mu_ref=mu_ref, sigma_ref=sigma_ref):
            law, report = out
            if not (_rel_close(law.mu, mu_ref, 1e-9) and _rel_close(law.sigma, sigma_ref, 1e-9)):
                return "fitted mu/sigma differ from the numpy reference"
            if len(report) == 0 or not all(math.isfinite(e.statistic) for e in report):
                return "goodness-of-fit battery incomplete"
            return None

        ops.append(Op(f"fit_gof_D{D}", fit_gof, check, N_DRAWS))

    # classical ALN mean: tensor quadrature at d = 2, 3; Monte Carlo at d = 7
    for dim in (2, 3, 7):
        law = cn.AlnLaw(*inputs.simplex_law(rng, dim))

        def check(out):
            if abs(float(np.sum(out)) - 1.0) > 1e-12 or not np.all(out > 0):
                return "classical mean is not a composition summing to 1"
            return None

        ops.append(Op(f"aln_classical_mean_d{dim}", lambda c, law=law: cn.aln_classical_mean(law), check))

    # probabilities: identical (interval) or within the integrator's 1e-5 (box)
    for dim in (1, 2, 3, 4):
        mu, sigma = inputs.simplex_law(rng, dim)
        sd = np.sqrt(np.diag(sigma))
        lower = mu - rng.uniform(0.5, 1.5, dim) * sd
        upper = mu + rng.uniform(0.5, 1.5, dim) * sd
        for cls in (cn.NormalOnSimplex, cn.AlnLaw):
            law = cls(mu, sigma)

            def check(out, dim=dim):
                if not 0.0 <= out <= 1.0:
                    return f"probability {out!r}"
                return pairs.match(("box", dim), out,
                                   lambda a, b: None if abs(a - b) <= 1e-5 else f"labels differ: {a!r} vs {b!r}")

            ops.append(Op(f"probability_of_box_d{dim}_{cls.__name__}",
                          lambda c, law=law, lo=lower, hi=upper: cn.probability_of_box(law, lo, hi), check))
    m, s2 = rng.uniform(-1, 1), rng.uniform(0.2, 1.0)
    a = math.exp(m - rng.uniform(0.2, 1.0))
    b = math.exp(m + rng.uniform(0.2, 1.0))
    for cls in (cn.NormalOnRPlus, cn.LognormalLaw):
        law = cls(m, s2)
        ops.append(Op(f"probability_of_interval_{cls.__name__}",
                      lambda c, law=law: cn.probability_of_interval(law, a, b),
                      lambda out: pairs.match("interval", out,
                                              lambda x, y: None if x == y else f"labels differ: {x!r} vs {y!r}")))

    # grids: the two labels' ternary grids differ by 1/(sqrt(3) x y z)
    mu3, sigma3 = inputs.simplex_law(rng, 2)
    nsd3, aln3 = cn.NormalOnSimplex(mu3, sigma3), cn.AlnLaw(mu3, sigma3)
    for law in (nsd3, aln3):
        def check(out, label=type(law).__name__):
            values = out.values.copy()
            return pairs.match("ternary", (label, out.points, values), _ternary_ratio)

        ops.append(Op(f"ternary_density_grid_{type(law).__name__}",
                      lambda c, law=law: cn.ternary_density_grid(law, GRID_RESOLUTION), check))

    def check_coord(out):
        v = out.values
        return None if v.shape == (200, 200) and np.all(np.isfinite(v)) and np.all(v > 0) else "bad grid"

    ops.append(Op("coordinate_density_grid", lambda c: cn.coordinate_density_grid(nsd3), check_coord))

    values = inputs.positive_values(rng, N_DRAWS)
    digests["histogram_values"] = hashlib.sha256(values.tobytes()).hexdigest()
    rsample = cn.RPlusSample(values)
    ops.append(Op("histogram_artifact", lambda c: cn.histogram_artifact(rsample, "logratio"),
                  lambda out: None if int(out.counts.sum()) == N_DRAWS else "counts do not sum to n",
                  N_DRAWS))

    def check_mc(out):
        ok = out.n == N_DRAWS and math.isfinite(out.estimate) and out.standard_error > 0.0
        return None if ok else f"bad estimate {out!r}"

    rlaw = cn.NormalOnRPlus(rng.uniform(-1, 1), rng.uniform(0.2, 1.0))
    for label, law, f in (("simplex", nsd3, _first_part), ("rplus", rlaw, np.log)):
        ops.append(Op(f"mc_expectation_{label}",
                      lambda c, law=law, f=f: cn.mc_expectation(f, law, N_DRAWS, stream(c), vectorized=True),
                      check_mc, N_DRAWS))

    ops.extend(_scalar_ops(cn, rng, nsd3, aln3, pairs))
    return ops, pairs


def _first_part(rows):
    return rows[:, 0]


def _ternary_ratio(first, second):
    by_label = dict([(first[0], first[1:]), (second[0], second[1:])])
    points, nsd = by_label["NormalOnSimplex"]
    _, aln = by_label["AlnLaw"]
    want = 1.0 / (math.sqrt(3.0) * np.prod(points, axis=1))
    ok = nsd > 0
    if not ok.any() or float(np.max(np.abs(aln[ok] / nsd[ok] / want[ok] - 1.0))) > 1e-9:
        return "ALN/NSD grid ratio differs from 1/(sqrt(3) x y z)"
    return None


def _scalar_ops(cn, rng, nsd3, aln3, pairs):
    ops = []
    raw = np.exp(rng.normal(0.0, 1.0, (SCALAR_CALLS, 3)))
    comps = [cn.closure(r) for r in raw]
    others = [cn.closure(r) for r in np.exp(rng.normal(0.0, 1.0, (SCALAR_CALLS, 3)))]
    coords = rng.normal(0.0, 1.0, (SCALAR_CALLS, 2))
    rlaw = cn.NormalOnRPlus(rng.uniform(-1, 1), rng.uniform(0.2, 1.0))
    points = np.exp(rng.normal(rlaw.mu, 1.0, SCALAR_CALLS))
    for i in range(SCALAR_CALLS):
        x, y, c, v = comps[i], others[i], coords[i], float(points[i])
        xp, yp = raw[i] / raw[i].sum(), others[i].parts

        def ratio(kind, out, i=i, xp=xp):
            want = 1.0 / (math.sqrt(3.0) * float(np.prod(xp)))

            def compare(first, second):
                nsd, aln = (first[1], second[1]) if first[0] == "nsd" else (second[1], first[1])
                return None if abs(aln / nsd / want - 1.0) <= 1e-9 else "ALN/NSD density ratio"

            return pairs.match(("pdf", i), (kind, out), compare)

        z = (math.log(v) - rlaw.mu) / rlaw.sigma
        nrp_ref = math.exp(-0.5 * z * z) / (rlaw.sigma * math.sqrt(2.0 * math.pi))
        prod = xp * yp / np.sum(xp * yp)
        ops += [
            Op("closure", lambda k, r=raw[i]: cn.closure(r),
               lambda out, xp=xp: None if _rel_close(out.parts, xp, 1e-12) else "closure"),
            Op("perturb", lambda k, x=x, y=y: cn.perturb(x, y),
               lambda out, prod=prod: None if _rel_close(out.parts, prod, 1e-12) else "perturb"),
            Op("ilr", lambda k, x=x: cn.ilr(x),
               lambda out, xp=xp: None if _rel_close(out, inputs.ilr_reference(xp[None])[0], 1e-9) else "ilr"),
            Op("ilr_inv", lambda k, c=c: cn.ilr_inv(c),
               lambda out, c=c: None if _rel_close(inputs.ilr_reference(out.parts[None])[0], c, 1e-9) else "ilr_inv"),
            Op("nsd_pdf", lambda k, x=x: cn.nsd_pdf(nsd3, x), lambda out, r=ratio: r("nsd", out)),
            Op("aln_pdf", lambda k, x=x: cn.aln_pdf(aln3, x), lambda out, r=ratio: r("aln", out)),
            Op("nrp_pdf", lambda k, v=v: cn.nrp_pdf(rlaw, v),
               lambda out, ref=nrp_ref: None if abs(out - ref) <= 1e-12 * ref else "nrp_pdf"),
        ]
    return ops


# --------------------------------------------------------------------------
# far-from-centre probes
# --------------------------------------------------------------------------

def _phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def build_probes(cn, seed, count):
    """``count`` calls on valid inputs far from the centre, round-robin over
    the probe kinds.  Each is ``(kind, call, check)``."""
    rng = np.random.default_rng([seed, 11])
    kinds = []

    def ilr_inv_far():
        c = np.array([rng.choice([-1.0, 1.0]) * rng.uniform(790, 810), rng.uniform(-5, 5)])
        return ("ilr_inv_far", lambda: cn.ilr_inv(c),
                lambda out: None if _rel_close(cn.ilr(out), c, 1e-9) else "coordinates not recovered")

    def sample_nsd_far():
        mu = np.array([rng.choice([-1.0, 1.0]) * rng.uniform(790, 810), rng.uniform(-5, 5)])
        law = cn.NormalOnSimplex(mu, 0.1 * np.eye(2))
        st = cn.SeededStream(int(rng.integers(1, 2**31 - 1)))
        return ("sample_nsd_far", lambda: cn.sample_nsd(law, 1000, st),
                lambda out: None if out.n == 1000 and np.allclose(out.coords.mean(axis=0), mu, atol=0.1)
                else "draws not centred on mu")

    def rplus_upper_tail():
        a = 10.0 ** rng.uniform(10, 12)
        ref = 0.5 * math.erfc(math.log(a) / math.sqrt(2.0))
        return ("rplus_upper_tail",
                lambda: cn.probability_of_interval(cn.NormalOnRPlus(0.0, 1.0), a, math.inf),
                lambda out: None if abs(out - ref) <= 1e-6 * ref else f"{out!r}, expected {ref!r}")

    def rplus_lower_tail():
        b = 10.0 ** -rng.uniform(10, 12)
        ref = _phi(math.log(b)) - _phi(math.log(1e-300))
        return ("rplus_lower_tail",
                lambda: cn.probability_of_interval(cn.NormalOnRPlus(0.0, 1.0), 1e-300, b),
                lambda out: None if abs(out - ref) <= 1e-6 * ref else f"{out!r}, expected {ref!r}")

    def box_far():
        mu = np.array([rng.choice([-1.0, 1.0]) * rng.uniform(790, 810), rng.uniform(-5, 5)])
        lo, hi = mu - rng.uniform(0.5, 1.5, 2), mu + rng.uniform(0.5, 1.5, 2)
        ref = math.prod(_phi(h - m) - _phi(l - m) for l, h, m in zip(lo, hi, mu))
        law = cn.NormalOnSimplex(mu, np.eye(2))
        return ("box_far", lambda: cn.probability_of_box(law, lo, hi),
                lambda out: None if abs(out - ref) <= 1e-5 else f"{out!r}, expected {ref!r}")

    makers = (ilr_inv_far, sample_nsd_far, rplus_upper_tail, rplus_lower_tail, box_far)
    for i in range(max(count, len(makers))):
        kinds.append(makers[i % len(makers)]())
    return kinds


# --------------------------------------------------------------------------
# the loop
# --------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.latencies = []
        self.failures = {}
        self.errors = {}
        self.rows = 0

    def fail(self, kind, message):
        self.failures[kind] = self.failures.get(kind, 0) + 1
        self.errors.setdefault(kind, message)


def run_cycle(ops, pairs, order, cycle, tally):
    pairs.reset()
    clock = time.perf_counter
    for k in order:
        op = ops[k]
        t0 = clock()
        try:
            out = op.call(cycle)
        except Exception as exc:  # a raised error is a failed operation
            tally.latencies.append(clock() - t0)
            tally.fail(op.kind, f"{type(exc).__name__}: {exc}")
            continue
        tally.latencies.append(clock() - t0)
        tally.rows += op.rows
        try:
            error = op.check(out)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            tally.fail(op.kind, error)


def run_probes(probes):
    out = {}
    for kind, call, check in probes:
        entry = out.setdefault(kind, {"attempted": 0, "failed": 0, "error": None})
        entry["attempted"] += 1
        try:
            error = check(call())
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error:
            entry["failed"] += 1
            entry["error"] = entry["error"] or error
    return out


def main(config_path, result_path):
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    seed, cycles, trace = config["seed"], config["cycles"], config["trace"]
    import codanorm as cn

    digests = {}
    ops, pairs = build_ops(cn, seed, digests)
    order_rng = np.random.default_rng([seed, 13])
    run_cycle(ops, pairs, range(len(ops)), -1, Tally())  # warm-up
    tally = Tally()
    for cycle in range(cycles):
        run_cycle(ops, pairs, order_rng.permutation(len(ops)), cycle, tally)
    result = {
        "attempted": len(tally.latencies),
        "latencies": tally.latencies,
        "busy_s": sum(tally.latencies),
        "rows": tally.rows,
        "failures": tally.failures,
        "errors": tally.errors,
        "probes": run_probes(build_probes(cn, seed, round(PROBE_SHARE * len(tally.latencies)))),
        "fixtures": digests,
    }
    if trace:
        rec = spans.Recorder()
        spans.instrument(rec)
        traced = Tally()
        for cycle in range(cycles, 2 * cycles):
            run_cycle(ops, pairs, order_rng.permutation(len(ops)), cycle, traced)
        result["trace"] = {
            "untraced_s": result["busy_s"],
            "traced_s": sum(traced.latencies),
            "covered_s": spans.covered(rec.spans),
            "span_metrics": spans.accumulate(rec.spans, {}),
            "failures": traced.failures,
            "errors": traced.errors,
            "attempted": len(traced.latencies),
        }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: lib_workload.py CONFIG.json RESULT.json")
    main(sys.argv[1], sys.argv[2])
