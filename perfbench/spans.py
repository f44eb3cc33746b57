"""Spans around the public functions of codanorm's modules.

``instrument(recorder)`` wraps every public function defined in the layer
modules below and rebinds each reference to it across ``codanorm.*``, so
calls between modules (``laws`` calling ``simplex.ilr_inv_rows``, the CLI
calling ``io``) are recorded too.  Each span is ``[name, start, end,
parent, info]``; spans stay in memory and are written out at the end.

Run as a program it is the child process of a traced CLI job::

    python perfbench/spans.py SPANS_OUT.json -- fit --space rplus --input x.csv

It imports codanorm inside an ``import`` span, instruments it, calls
``codanorm.cli.main(argv)``, writes the spans and exits with main's code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import stats

LAYERS = ("cli", "io", "inference", "laws", "sampling", "simplex", "grids")

ROW_KERNELS = ("simplex.closure_rows", "simplex.clr_rows", "simplex.ilr_rows", "simplex.ilr_inv_rows")
DENSITY_ROWS = ("laws.nsd_logpdf_coords", "laws.nsd_pdf_rows", "laws.aln_pdf_rows")
SCALAR_PDFS = ("laws.nrp_pdf", "laws.lognormal_pdf", "laws.nsd_pdf", "laws.aln_pdf")

# metric -> span names whose self time it sums
SELF_GROUPS = {
    "cli.main.self_s": ("cli.main",),
    "io.read_simplex_csv.self_s": ("io.read_simplex_csv",),
    "io.read_rplus_csv.self_s": ("io.read_rplus_csv",),
    "io.write_samples_csv.self_s": ("io.write_samples_csv",),
    "io.write_grid_artifact.self_s": ("io.write_grid_artifact",),
    "io.dumps_report.self_s": ("io.dumps_report",),
    "simplex.closure_rows.self_s": ("simplex.closure_rows",),
    "simplex.ilr_rows.self_s": ("simplex.ilr_rows",),
    "simplex.ilr_inv_rows.self_s": ("simplex.ilr_inv_rows",),
    "laws.aln_classical_mean.self_s": ("laws.aln_classical_mean",),
    "laws.probability_of_box.self_s": ("laws.probability_of_box",),
    "laws.density_rows.self_s": DENSITY_ROWS,
    "laws.scalar.self_s": SCALAR_PDFS,
    "inference.fit_nsd.self_s": ("inference.fit_nsd",),
    "inference.fit_nrp.self_s": (
        "inference.fit_nrp", "inference.ci_mean_nrp", "inference.naive_lognormal_mean",
    ),
    "inference.gof_battery.self_s": ("inference.gof_battery",),
    # the two labels of one law draw through one function; count both
    "sampling.sample_nsd.self_s": ("sampling.sample_nsd", "sampling.sample_aln"),
    "sampling.sample_nrp.self_s": ("sampling.sample_nrp", "sampling.sample_lognormal"),
    "sampling.mc_expectation.self_s": ("sampling.mc_expectation",),
    "grids.ternary_density_grid.self_s": ("grids.ternary_density_grid",),
    "grids.coordinate_density_grid.self_s": ("grids.coordinate_density_grid",),
    "grids.histogram_artifact.self_s": ("grids.histogram_artifact",),
}

COUNTS = (
    "cli.main.calls", "io.rows_read", "io.rows_written", "io.bytes_read",
    "io.bytes_written", "simplex.rows", "simplex.bytes_computed",
    "simplex.scalar.calls", "laws.aln_classical_mean.nodes",
    "laws.probability_of_box.calls", "sampling.draws", "grids.points",
)

SPAN_METRICS = tuple(SELF_GROUPS) + ("simplex.scalar.self_s",) + COUNTS


def _row_kernel_info(args, kwargs, result):
    """Rows and part count D: the wider of input and output is the part
    matrix (``ilr`` drops a column, ``ilr_inv`` adds one)."""
    rows_in = getattr(args[0], "shape", (0, 0))
    return {"rows": int(result.shape[0]), "D": int(max(result.shape[1], rows_in[-1]))}


def _grid_rows(artifact):
    kind = type(artifact).__name__
    if kind == "HistogramArtifact":
        return int(artifact.counts.size)
    if kind == "TernaryDensityGrid":
        return int(artifact.resolution) + 1
    return int(artifact.values.shape[0])


# span name -> function of (args, kwargs, result) returning small facts
CAPTURE = {
    **{name: _row_kernel_info for name in ROW_KERNELS},
    "io.read_simplex_csv": lambda a, k, r: {"path": os.fspath(a[0]), "rows": r[0].n},
    "io.read_rplus_csv": lambda a, k, r: {"path": os.fspath(a[0]), "rows": r[0].n},
    "io.write_samples_csv": lambda a, k, r: {"paths": [os.fspath(a[0])], "rows": len(a[3])},
    "io.write_grid_artifact": lambda a, k, r: {"paths": list(r), "rows": _grid_rows(a[0])},
    "sampling.sample_nsd": lambda a, k, r: {"draws": r.n},
    "sampling.sample_nrp": lambda a, k, r: {"draws": r.n},
    "grids.ternary_density_grid": lambda a, k, r: {"points": int(r.values.size)},
    "grids.coordinate_density_grid": lambda a, k, r: {"points": int(r.values.size)},
}


class Recorder:
    """In-memory span store with the stack of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()


def _wrap(fn, name, rec):
    capture = CAPTURE.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if capture is not None:
            rec.spans[idx][4] = capture(args, kwargs, result)
        return result

    return wrapper


def instrument(rec):
    """Wrap every public function of the layer modules.

    Returns ``(module, attribute, original)`` for every rebinding made, so a
    caller can undo them."""
    wrapped, undo = {}, []
    for layer in LAYERS:
        mod = importlib.import_module(f"codanorm.{layer}")
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapped[id(obj)] = (obj, _wrap(obj, f"{layer}.{attr}", rec))
    for modname, mod in list(sys.modules.items()):
        if modname == "codanorm" or modname.startswith("codanorm."):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    undo.append((mod, attr, obj))
    return undo


def resolve_files(spans):
    """Turn recorded paths into byte counts once the program is done."""
    for span in spans:
        info = span[4]
        if not info:
            continue
        if "path" in info:
            info["bytes_read"] = os.path.getsize(info.pop("path"))
        if "paths" in info:
            info["bytes_written"] = sum(os.path.getsize(p) for p in info.pop("paths"))


def accumulate(spans, acc):
    """Add the span-derived metrics of one span set into ``acc``."""
    for key in SPAN_METRICS:
        acc.setdefault(key, 0)
    selfs = stats.self_times([(s[1], s[2], s[3]) for s in spans])
    by_name = {}
    for span, self_s in zip(spans, selfs):
        by_name[span[0]] = by_name.get(span[0], 0.0) + self_s
    for metric, names in SELF_GROUPS.items():
        acc[metric] += sum(by_name.get(n, 0.0) for n in names)
    for span, self_s in zip(spans, selfs):
        name, info = span[0], span[4] or {}
        parent = spans[span[3]][0] if span[3] >= 0 else ""
        if name.startswith("simplex.") and not name.endswith("_rows"):
            acc["simplex.scalar.self_s"] += self_s
            acc["simplex.scalar.calls"] += 1
        elif name in ROW_KERNELS and parent not in ROW_KERNELS:
            acc["simplex.rows"] += info.get("rows", 0)
            acc["simplex.bytes_computed"] += info.get("rows", 0) * (2 * info.get("D", 0) - 1) * 8
        if name == "simplex.ilr_inv_rows" and _has_ancestor(spans, span, "laws.aln_classical_mean"):
            acc["laws.aln_classical_mean.nodes"] += info.get("rows", 0)
        if name == "cli.main":
            acc["cli.main.calls"] += 1
        elif name == "laws.probability_of_box":
            acc["laws.probability_of_box.calls"] += 1
        if name.startswith("io.read_"):
            acc["io.rows_read"] += info.get("rows", 0)
            acc["io.bytes_read"] += info.get("bytes_read", 0)
        elif name.startswith("io.write_"):
            acc["io.rows_written"] += info.get("rows", 0)
            acc["io.bytes_written"] += info.get("bytes_written", 0)
        acc["sampling.draws"] += info.get("draws", 0)
        acc["grids.points"] += info.get("points", 0)
    return acc


def _has_ancestor(spans, span, name):
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def covered(spans):
    """Wall time inside root spans."""
    return stats.union_length([(s[1], s[2]) for s in spans if s[3] < 0])


def _traced_cli(out_path, argv):
    rec = Recorder()
    idx = rec.open("import")
    import codanorm.cli

    rec.close(idx)
    instrument(rec)
    try:
        return codanorm.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and bad flags
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    finally:
        sys.stdout.flush()
        resolve_files(rec.spans)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: spans.py SPANS_OUT.json -- CLI_ARGS...")
    sys.exit(_traced_cli(sys.argv[1], sys.argv[3:]))
