"""The numpy-only smoke: the library and the CLI on numpy, their one runtime dependency.

Run it after a plain install (no extras), which must leave scipy out::

    python tests/smoke_numpy_only.py

It calls the ``codanorm`` console script; a command given after the file name stands in
for it, as in ``python tests/smoke_numpy_only.py python -m codanorm.cli``.  pytest does not
collect this file; ``tests/test_io_cli.py`` runs it with scipy refused.  Its files go to
one directory under ``TMPDIR``, removed when it exits, a failed check included.

It runs every subcommand (sample on both spaces, fit on both spaces, hist, density-grid at
resolution 400), fits a 5-value positive file at --alpha 1e-12 to finite t-interval bounds
about its geometric mean (the t quantile's remainder series at nu = 4) and exits 3 with
nothing on stdout at --alpha 5e-324, computes a d = 3 box probability and d = 2 boxes from
the d = 1 mass (an orthant at rho = 0.999999 within 1e-13 of Sheppard's acos(rho) / 2 pi, a
tail box as its mirror image, a box with one side R as the d = 1 box bit for bit), builds
the NSD and ALN ternary grids of one law and the ALN grid of a second law in one process,
which share one read-only lattice and equal nsd_pdf_rows / aln_pdf_rows of its points bit
for bit, gives the NSD and ALN labels of one fit the same goodness-of-fit statistics, and
refuses to fit equal data: eight equal part rows and a 3-part table whose first two parts
keep one ratio exit 3 ("covariance is singular") and a constant column exits 2, each with
nothing on stdout.  Each row of a 4-row closure_rows
call at D = 5, one of whose rows has a total past the largest float, has the bits of a
one-row call (every row is summed part by part, and only that row is scaled down),
closure([1e308] * 3) is uniform(3), and one composition's ALN density is its NSD density
times sd_measure_ratio within 1e-13 at D = 3 and D = 9 (the two labels of one law, each
run on the 1-d clr).  sample --law nsd of a 5-part law writes the same bytes with
OPENBLAS_NUM_THREADS=1 as with the default, and a 1e5-row sample of a 3-part law and a
resolution-1000 ALN grid, large tables that a peer process helps format, have the bytes
they have under taskset -c 0, where one CPU leaves the whole table to one process; a
5-part fit of a file above the battery's thread threshold, whose layers a second thread
scores on two CPUs, writes the report bytes it writes under taskset -c 0, where the
battery runs inline.  The 2-part classical mean of AlnLaw([0.5], [[9.0]]) is within 4e-16
relative of its 50-digit value, and a 2-part fit whose first part runs from 1e-300 to 0.5
exits 0 with a classical mean, not null.
"""
import atexit, importlib.util, json, math, os, shutil, subprocess, sys, tempfile
import numpy as np
assert importlib.util.find_spec("scipy") is None, "scipy was installed"
from codanorm import (AlnLaw, NormalOnSimplex, SeededStream, aln_classical_mean,
                      aln_pdf, closure,
                      fit_nsd, gof_battery, nsd_pdf, probability_of_box, sample_nsd,
                      sd_measure_ratio, ternary_density_grid, uniform,
                      with_lebesgue_reference)
from codanorm.datasets import skye_lavas_path
from codanorm.laws import aln_pdf_rows, nsd_pdf_rows
from codanorm.simplex import closure_rows

CODANORM = sys.argv[1:] or ["codanorm"]  # the console script, or a stand-in

def run(*argv, env=None):
    return subprocess.run([*CODANORM, *argv], capture_output=True, text=True,
                          check=True, env=env).stdout

tmp = tempfile.mkdtemp()
atexit.register(shutil.rmtree, tmp, ignore_errors=True)  # on every exit, a failed assert too
line, parts = os.path.join(tmp, "line.csv"), os.path.join(tmp, "parts.csv")
law3 = ["--mu", "0.2,-0.1", "--sigma", "0.5,0.1,0.1,0.3"]
report = json.loads(run("fit", "--space", "simplex", "--kappa", "100",
                        "--input", skye_lavas_path()))
run("sample", "--law", "nrp", "--mu", "1", "--sigma2", "0.5", "-n", "500", "-o", line)
run("sample", "--law", "nsd", *law3, "-n", "500", "-o", parts)
rplus = json.loads(run("fit", "--space", "rplus", "--input", line))
assert rplus["ci_mean"]["lower"] < rplus["geometric_mean"] < rplus["ci_mean"]["upper"]
five = os.path.join(tmp, "five.csv")
with open(five, "w") as fh:
    fh.write("x\n1.5\n2.25\n0.8\n3.1\n1.9\n")
wide = json.loads(run("fit", "--space", "rplus", "--input", five, "--alpha", "1e-12"))
lo, hi = wide["ci_mean"]["lower"], wide["ci_mean"]["upper"]
assert 0.0 < lo < wide["geometric_mean"] < hi < math.inf, wide
past = subprocess.run([*CODANORM, "fit", "--space", "rplus", "--input", five,
                       "--alpha", "5e-324"], capture_output=True, text=True)
assert past.returncode == 3 and past.stdout == "", past
fit = json.loads(run("fit", "--space", "simplex", "--input", parts))
assert len(fit["gof"]["entries"]) == 12, fit
hist = json.loads(run("hist", "--input", line, "--metric", "logratio",
                      "-o", os.path.join(tmp, "hist")))
assert hist["counts_sum"] == 500, hist
grid = json.loads(run("density-grid", "--law", "aln", *law3, "--resolution", "400",
                      "-o", os.path.join(tmp, "grid")))
assert grid["n_maxima"] >= 1, grid
law = NormalOnSimplex(np.zeros(3), np.eye(3) + 0.5)
p = probability_of_box(law, -np.ones(3), np.ones(3))
assert 0.0 < p < 1.0, p
rho = 0.999999
orthant = probability_of_box(NormalOnSimplex([0.0, 0.0], [[1.0, rho], [rho, 1.0]]),
                             [-np.inf, 0.0], [0.0, np.inf])
assert abs(orthant / (math.acos(rho) / (2.0 * math.pi)) - 1.0) <= 1e-13, orthant
tail = probability_of_box(NormalOnSimplex([0.0, 0.0], [[1.0, -0.5], [-0.5, 1.0]]),
                          [6.0, 6.0], [7.0, 7.0])
mirror = probability_of_box(NormalOnSimplex([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]]),
                            [6.0, -7.0], [7.0, -6.0])
assert abs(tail - mirror) <= 1e-13 * tail, (tail, mirror)
line = probability_of_box(NormalOnSimplex([0.0, 0.0], [[1.0, 0.3], [0.3, 2.0]]),
                          [-np.inf, -np.inf], [np.inf, -8.0])
assert line == probability_of_box(NormalOnSimplex([0.0], [[2.0]]), [-np.inf], [-8.0])
nsd = NormalOnSimplex([0.2, -0.1], [[0.5, 0.1], [0.1, 0.3]])
g_nsd = ternary_density_grid(nsd, resolution=400)
g_aln = ternary_density_grid(with_lebesgue_reference(nsd), resolution=400)
assert g_aln.points is g_nsd.points and not g_nsd.points.flags.writeable
ratio = g_aln.values / g_nsd.values * np.sqrt(3.0) * np.prod(g_nsd.points, axis=1)
assert np.max(np.abs(ratio - 1.0)) <= 1e-9, np.max(np.abs(ratio - 1.0))
aln2 = AlnLaw([-0.4, 0.3], [[0.2, -0.05], [-0.05, 0.6]])
g_aln2 = ternary_density_grid(aln2, resolution=400)
assert g_aln2.points is g_nsd.points
for g, pdf_rows in ((g_nsd, nsd_pdf_rows), (g_aln, aln_pdf_rows), (g_aln2, aln_pdf_rows)):
    want = pdf_rows(g.law, g.points)
    assert g.values.tobytes() == want.tobytes(), type(g.law).__name__
drawn = sample_nsd(nsd, 40_000, SeededStream(7))
fitted = fit_nsd(drawn)
gof_nsd = [e.statistic for e in gof_battery(drawn, fitted)]
gof_aln = [e.statistic for e in gof_battery(drawn, with_lebesgue_reference(fitted))]
assert len(gof_nsd) == 12 and gof_nsd == gof_aln, (gof_nsd, gof_aln)
flat, const = os.path.join(tmp, "flat.csv"), os.path.join(tmp, "const.csv")
with open(flat, "w") as fh:
    fh.write("a,b,c\n" + "0.47619047619047616,0.047619047619047616,0.47619047619047616\n" * 8)
with open(const, "w") as fh:
    fh.write("x\n" + "887504.3769954721\n" * 7)
ratio = os.path.join(tmp, "ratio.csv")
with open(ratio, "w") as fh:
    fh.write("a,b,c\n" + "".join(f"{2 / (3 + x)!r},{1 / (3 + x)!r},{x / (3 + x)!r}\n"
                                 for x in np.linspace(0.1, 5.0, 20).tolist()))
for space, data, code, message in (("simplex", flat, 3, "covariance is singular"),
                                   ("simplex", ratio, 3, "covariance is singular"),
                                   ("rplus", const, 2, "all observations are identical")):
    refused = subprocess.run([*CODANORM, "fit", "--space", space, "--input", data],
                             capture_output=True, text=True)
    assert refused.returncode == code and message in refused.stderr, refused
    assert refused.stdout == "", refused
raw = np.exp(np.random.default_rng(2).normal(0.0, 1.5, (4, 5)))
raw[2] = [1e308, 1.5e308, 0.5e308, 1.7e308, 1e307]
closed = closure_rows(raw, 2.0)
for i in range(4):
    assert closed[i].tobytes() == closure_rows(raw[i:i + 1], 2.0)[0].tobytes(), i
assert abs(closed[2, 1] / 2.0 - 1.5 / 4.8) <= 1e-15, closed[2]
assert closure([1e308] * 3) == uniform(3)
for D in (3, 9):
    gen = np.random.default_rng(D)
    a = gen.normal(size=(D - 1, D - 1))
    nsd = NormalOnSimplex(gen.normal(0.0, 0.5, D - 1), a @ a.T / D + 0.3 * np.eye(D - 1))
    aln = with_lebesgue_reference(nsd)
    for x in (closure(r) for r in np.exp(gen.normal(0.0, 1.0, (20, D)))):
        ratio = aln_pdf(aln, x) / (nsd_pdf(nsd, x) * sd_measure_ratio(x))
        assert abs(ratio - 1.0) <= 1e-13, (D, ratio)
law5 = ["--mu", "0.2,-0.1,0.3,0.1", "--sigma", ",".join(map(str, np.eye(4).ravel() + 0.2))]
env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
written = []
for extra in (env, {**env, "OPENBLAS_NUM_THREADS": "1"}):
    out = os.path.join(tmp, f"parts5_{len(written)}.csv")
    run("sample", "--law", "nsd", *law5, "-n", "40000", "-o", out, env=extra)
    with open(out, "rb") as fh:
        written.append(fh.read())
assert written[0] == written[1], "sample bytes depend on the BLAS thread count"
large = {"sample": (["sample", "--law", "nsd", *law3, "-n", "100000"], ""),
         "grid": (["density-grid", "--law", "aln", *law3, "--resolution", "1000"], ".csv")}
for name, (argv, suffix) in large.items():
    written = []
    for pin in ([], ["taskset", "-c", "0"]):
        out = os.path.join(tmp, f"{name}_{len(pin)}")
        subprocess.run([*pin, *CODANORM, *argv, "-o", out], capture_output=True,
                       check=True)
        with open(out + suffix, "rb") as fh:
            written.append(fh.read())
    assert written[0] == written[1], f"{name} bytes depend on the CPUs the writer has"
from codanorm.inference import _THREAD_ROWS
big5 = os.path.join(tmp, "big5.csv")
run("sample", "--law", "nsd", *law5, "-n", str(_THREAD_ROWS + 10_000), "--seed", "3",
    "-o", big5)
written = []
for pin in ([], ["taskset", "-c", "0"]):
    out = os.path.join(tmp, f"fit5_{len(pin)}.json")
    subprocess.run([*pin, *CODANORM, "fit", "--space", "simplex", "--input", big5,
                    "-o", out], capture_output=True, check=True)
    with open(out, "rb") as fh:
        written.append(fh.read())
assert written[0] == written[1], "fit report bytes depend on the CPUs the battery has"
two = aln_classical_mean(AlnLaw([0.5], [[9.0]]))
for got, want in zip(two, (0.56109126826776153283, 0.43890873173223846717)):
    assert abs(got - want) <= 4e-16 * want, two
spanning = os.path.join(tmp, "spanning.csv")
with open(spanning, "w") as fh:
    fh.write("a,b\n" + "".join(f"{x!r},{1.0 - x!r}\n"
                               for x in np.logspace(-300.0, math.log10(0.5), 10).tolist()))
mean = json.loads(run("fit", "--space", "simplex", "--input", spanning))["aln_classical_mean"]
assert mean is not None and abs(sum(mean) - 1.0) <= 1e-15, mean
print("fit keys:", sorted(report), "box:", p, "grid maxima:", grid["n_maxima"])
