"""Batch command line front end.

Four subcommands, all non-interactive, all deterministic given their flags:

* ``fit`` — estimate a law from a CSV dataset and emit a JSON report
  (parameters, native moments, exact CI on the line, goodness-of-fit battery
  and the Lebesgue-referred comparison baselines).
* ``sample`` — draw from a law given on the command line and write a CSV
  whose header comment records the law, parameters and seed.  Only the
  probability law matters for drawing, so the two density labels of the same
  law (``nrp``/``lognormal``, ``nsd``/``aln``) emit byte-identical files
  under the same seed.
* ``hist`` — histogram artifact of a positive dataset in either the
  Euclidean or the log-ratio metric, with both fitted density curves.
* ``density-grid`` — ternary (or coordinate-space) density grid of a
  three-part law, with detected local maxima.

Exit codes: 0 on success, 2 for validation problems (bad flags, bad or
unreadable files, degenerate data), 3 for numerical failures (singular
covariance, a NaN or infinity reaching a report, a ``sample`` draw or part
outside the normal float range, found before any file is written).  A
classical moment too large for a float, or a classical simplex mean whose
quadrature does not settle within its node budget, is written as ``null``
with a ``null_reason``.  The default seed comes from ``CODANORM_SEED`` when set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import NumericalError, QuadratureUnstableError, ValidationError
from .grids import coordinate_density_grid, histogram_artifact, ternary_density_grid
from .inference import ci_mean_nrp, fit_nsd, fit_nrp, geometric_mean, gof_battery, naive_lognormal_mean
from .io import (
    _write_grid,
    dumps_report,
    law_to_dict,
    read_rplus_csv,
    read_simplex_csv,
    write_grid_artifact,
    write_report,
    write_samples_csv,
)
from .laws import (
    AlnLaw,
    LognormalLaw,
    NormalOnRPlus,
    NormalOnSimplex,
    aln_classical_mean,
    lognormal_moments,
    lognormal_naive_interval,
    nrp_moments,
    nsd_moments,
)
from .sampling import SeededStream, _draws

_DEFAULT_SEED_ENV = "CODANORM_SEED"


def _default_seed():
    raw = os.environ.get(_DEFAULT_SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"environment variable {_DEFAULT_SEED_ENV}={raw!r} is not an integer"
        ) from None


def _parse_vector(text, what):
    try:
        return np.array([float(f) for f in text.split(",")], dtype=float)
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated numbers, got {text!r}") from None


def _parse_matrix(text, d, what):
    flat = _parse_vector(text, what)
    if flat.size != d * d:
        raise ValidationError(
            f"{what} must have {d * d} row-major entries for dimension {d}, got {flat.size}"
        )
    return flat.reshape(d, d)


def _nulls_for_overflow(fields):
    """``fields`` with each infinite number (a value past the largest float)
    as ``None``, and a one-line ``null_reason`` naming them, if any."""
    inf = sorted(k for k, v in fields.items() if isinstance(v, float) and math.isinf(v))
    if not inf:
        return fields
    reason = f"{', '.join(inf)}: beyond the float range (about +-1.8e308)"
    return {**{k: None if k in inf else v for k, v in fields.items()}, "null_reason": reason}


def _emit(payload, out_path):
    if out_path:
        write_report(payload, out_path)
        print(out_path)
    else:
        print(dumps_report(payload))


# --------------------------------------------------------------------------
# fit
# --------------------------------------------------------------------------

def _fit_rplus_report(args):
    sample, column = read_rplus_csv(args.input)
    law = fit_nrp(sample)
    lo, hi = ci_mean_nrp(sample, args.alpha)
    moments = nrp_moments(law)
    ln_law = LognormalLaw(law.mu, law.sigma2)
    return {
        "command": "fit",
        "space": "rplus",
        "input": args.input,
        "column": column,
        "n": sample.n,
        "seed": args.seed,
        "law": law_to_dict(law),
        "moments": {
            "mean": moments.mean.value,
            "median": moments.median.value,
            "mode": moments.mode.value,
            "metric_variance": moments.metric_variance,
        },
        "geometric_mean": geometric_mean(sample).value,
        "ci_mean": _nulls_for_overflow({"alpha": args.alpha, "lower": lo.value, "upper": hi.value}),
        "lognormal_baseline": _nulls_for_overflow({
            "law": law_to_dict(ln_law),
            "moments": _nulls_for_overflow(asdict(lognormal_moments(ln_law))),
            "naive_mean": naive_lognormal_mean(sample),
            "naive_interval_1sd": _nulls_for_overflow(asdict(lognormal_naive_interval(ln_law, 1.0))),
        }),
    }


def _fit_simplex_report(args):
    sample, columns = read_simplex_csv(
        args.input, kappa=args.kappa, auto_close=not args.no_auto_close
    )
    law = fit_nsd(sample)
    moments = nsd_moments(law)
    center = sample.center()
    report = {
        "command": "fit",
        "space": "simplex",
        "input": args.input,
        "columns": columns,
        "n": sample.n,
        "kappa": sample.kappa,
        "seed": args.seed,
        "law": law_to_dict(law),
        "moments": {
            "center": center.parts.tolist(),
            "metric_variance": moments.metric_variance,
        },
        "aln_classical_mean": None,
    }
    try:
        report["aln_classical_mean"] = aln_classical_mean(law).tolist()
    except QuadratureUnstableError as exc:  # a law too wide for the node budget
        report["null_reason"] = f"aln_classical_mean: {exc}"
    if args.no_gof:
        report["gof"] = None
    elif sample.n < 8:
        report["gof"] = {"skipped": f"needs at least 8 rows, file has {sample.n}"}
    else:
        gof = gof_battery(sample, law)
        report["gof"] = {
            "entries": [
                {
                    "layer": e.layer,
                    "target": e.target,
                    "test": e.test_name,
                    "statistic": e.statistic,
                    "critical_1pct": e.critical_1pct,
                    "passed_at_1pct": e.passed_at_1pct,
                }
                for e in gof
            ],
            "rejections_at_1pct": len(gof.rejections_at_1pct()),
        }
    if args.emit_coords:
        report["coords"] = sample.coords.tolist()
    return report


def _cmd_fit(args):
    report = _fit_rplus_report if args.space == "rplus" else _fit_simplex_report
    _emit(report(args), args.output)
    return 0


# --------------------------------------------------------------------------
# sample
# --------------------------------------------------------------------------

def _cmd_sample(args):
    stream = SeededStream(args.seed, args.stream)
    mu = _parse_vector(args.mu, "--mu")
    if args.law in ("nrp", "lognormal"):
        if args.sigma2 is None:
            raise ValidationError("--sigma2 is required for laws on the positive line")
        if mu.size != 1:
            raise ValidationError("--mu must be a single number for laws on the positive line")
        law = NormalOnRPlus(mu[0], args.sigma2)
        columns = ["value"]
        meta = {"law_family": "rplus_normal", "mu": law.mu, "sigma2": law.sigma2}
    else:
        if args.sigma is None:
            raise ValidationError("--sigma is required for simplex laws")
        sigma = _parse_matrix(args.sigma, mu.size, "--sigma")
        law = NormalOnSimplex(mu, sigma)
        meta = {"law_family": "simplex_normal", "mu": law.mu.tolist(),
                "sigma": law.sigma.tolist(), "kappa": args.kappa}
        columns = [f"part{i + 1}" for i in range(law.D)]
    draws = _draws(law, args.n, stream, args.kappa)
    meta.update(n=args.n, seed=args.seed, stream=args.stream)
    write_samples_csv(args.output, meta, columns, draws)
    print(args.output)
    return 0


# --------------------------------------------------------------------------
# hist
# --------------------------------------------------------------------------

def _cmd_hist(args):
    sample, _ = read_rplus_csv(args.input)
    artifact = histogram_artifact(sample, args.metric, args.bins)
    files = write_grid_artifact(artifact, args.output)
    print(dumps_report({
        "command": "hist",
        "metric": artifact.metric,
        "n": artifact.n,
        "bins": int(artifact.counts.size),
        "counts_sum": int(artifact.counts.sum()),
        "files": files,
    }))
    return 0


# --------------------------------------------------------------------------
# density-grid
# --------------------------------------------------------------------------

def _cmd_density_grid(args):
    mu = _parse_vector(args.mu, "--mu")
    sigma = _parse_matrix(args.sigma, mu.size, "--sigma")
    law = (AlnLaw if args.law == "aln" else NormalOnSimplex)(mu, sigma)
    summary = {"command": "density-grid", "grid_space": args.grid_space, "law": law_to_dict(law)}
    if args.grid_space == "coords":
        artifact = coordinate_density_grid(law, resolution=args.resolution)
    else:
        artifact = ternary_density_grid(law, resolution=args.resolution, margin=args.margin)
    summary["files"], meta = _write_grid(artifact, args.output)
    if "maxima" in meta:
        summary.update(n_maxima=len(meta["maxima"]), maxima=meta["maxima"])
    print(dumps_report(summary))
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codanorm",
        description="Normal models on the positive line and the simplex: "
        "fit, sample, and emit figure-equivalent artifacts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", help="estimate a law from a CSV dataset")
    p_fit.add_argument("--input", required=True, help="CSV dataset path")
    p_fit.add_argument("--space", required=True, choices=["rplus", "simplex"])
    p_fit.add_argument("--kappa", type=float, default=1.0, help="closure constant (simplex)")
    p_fit.add_argument("--alpha", type=float, default=0.05, help="CI miss probability (rplus)")
    p_fit.add_argument("--seed", type=int, default=None, help="seed recorded in the report")
    p_fit.add_argument(
        "--no-auto-close", action="store_true",
        help="reject rows whose sum misses kappa by more than 1e-12 relative "
        "(default tolerates 1e-6 and re-normalizes)",
    )
    p_fit.add_argument("--no-gof", action="store_true", help="skip the goodness-of-fit battery")
    p_fit.add_argument(
        "--emit-coords", action="store_true",
        help="include the orthonormal coordinates of the rows in the report",
    )
    p_fit.add_argument("-o", "--output", help="write the JSON report here instead of stdout")
    p_fit.set_defaults(func=_cmd_fit)

    p_sample = sub.add_parser("sample", help="draw from a law and write CSV")
    p_sample.add_argument("--law", required=True, choices=["nrp", "lognormal", "nsd", "aln"])
    p_sample.add_argument("--mu", required=True, help="number, or comma-separated vector")
    p_sample.add_argument("--sigma2", type=float, help="variance (positive-line laws)")
    p_sample.add_argument("--sigma", help="row-major covariance entries (simplex laws)")
    p_sample.add_argument("--kappa", type=float, default=1.0, help="closure constant of draws")
    p_sample.add_argument("-n", type=int, required=True, help="number of draws")
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--stream", type=int, default=0)
    p_sample.add_argument("-o", "--output", required=True, help="CSV output path")
    p_sample.set_defaults(func=_cmd_sample)

    p_hist = sub.add_parser("hist", help="histogram artifact of a positive dataset")
    p_hist.add_argument("--input", required=True)
    p_hist.add_argument("--metric", required=True, choices=["euclidean", "logratio"])
    p_hist.add_argument("--bins", type=int, default=20)
    p_hist.add_argument("-o", "--output", required=True, help="artifact path prefix")
    p_hist.set_defaults(func=_cmd_hist)

    p_grid = sub.add_parser("density-grid", help="density grid of a 3-part law")
    p_grid.add_argument("--law", required=True, choices=["nsd", "aln"])
    p_grid.add_argument("--mu", required=True, help="comma-separated coordinate mean")
    p_grid.add_argument("--sigma", required=True, help="row-major covariance entries")
    p_grid.add_argument("--resolution", type=int, default=400)
    p_grid.add_argument("--margin", type=float, default=1e-4)
    p_grid.add_argument("--grid-space", choices=["ternary", "coords"], default="ternary")
    p_grid.add_argument("-o", "--output", required=True, help="artifact path prefix")
    p_grid.set_defaults(func=_cmd_density_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.func(args)
    except (ValidationError, OSError) as exc:
        problems = getattr(exc, "problems", None)
        if problems:
            print(f"error: {len(problems)} problem(s) in dataset", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
