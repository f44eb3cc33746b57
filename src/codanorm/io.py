"""File formats: CSV ingestion with diagnostics, JSON reports, artifacts.

Conventions shared by everything below:

* CSV files are UTF-8 with a header row and '.' decimals; lines starting
  with ``#`` are comments (the sample writer uses one to carry metadata) and
  blank lines are ignored.  One parser, ``_read_table``, reads every table;
  each public reader adds only its own checks, vectorized.  numpy's C reader
  takes a clean table; any other goes line by line through ``csv`` and
  ``float``, which give every diagnostic and the same values.
* Problems are collected per line and raised together, in line order, as a
  :class:`~codanorm.errors.DatasetValidationError`; so are a file that is
  not UTF-8 and JSON that is malformed, not an object or of another
  ``schema_version``.  ``OSError`` (missing file, directory) propagates.
* One formatter, ``_write_rows``, writes every float row as its shortest
  round-trip ``repr``, so output is byte-stable.  Grid artifacts are a
  numeric CSV payload plus a ``.meta.json`` sidecar.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

from .errors import DatasetValidationError, DimensionMismatchError, NumericalError
from .grids import CoordinateDensityGrid, HistogramArtifact, TernaryDensityGrid
from .inference import RPlusSample, SimplexSample
from .laws import _ScalarLogGaussian, _SimplexGaussian

__all__ = [
    "SCHEMA_VERSION",
    "read_rplus_csv",
    "read_simplex_csv",
    "write_samples_csv",
    "read_samples_csv",
    "dumps_report",
    "write_report",
    "read_report",
    "law_to_dict",
    "write_grid_artifact",
    "read_grid_artifact",
]

SCHEMA_VERSION = 1

#: Relative closure slack accepted at ingestion when auto-close is on.
INGEST_CLOSURE_TOL = 1e-6

_SAMPLES_TAG = "# codanorm-samples "


def _read_text(path):
    """Whole file as text; a file that is not UTF-8 is a dataset problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DatasetValidationError(
            [f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"]
        ) from None


def _read_table(text_lines, path):
    """The one CSV parser of ``path``'s lines: ``(columns, line_numbers, values, problems)``.

    Comment and blank lines are skipped but counted, and the first kept line
    is the header.  A clean table (every data line ``width`` plain numbers)
    parses in numpy's C reader, which gives ``float``'s values bit for bit;
    any other table, and every problem, is left to :func:`_parse_lines`.
    """
    numbers, lines = [], []
    for lineno, line in enumerate(text_lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            numbers.append(lineno)
            lines.append(line)
    if not lines:
        raise DatasetValidationError([f"{path}: file has no header row"])
    try:
        columns = [h.strip() for h in next(csv.reader(lines[:1]))]
    except csv.Error as exc:
        raise DatasetValidationError([f"line {numbers[0]}: {exc}"]) from None
    width = len(columns)
    data = lines[1:]
    joined = "".join(data)
    # loadtxt warns on no lines; a field past csv's size limit is a problem, and
    # numpy strips the separators \x1c-\x1f as whitespace where float refuses them
    if (data and max(map(len, data)) <= csv.field_size_limit()
            and not any(c in joined for c in "\x1c\x1d\x1e\x1f")):
        try:
            values = np.loadtxt(data, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(data), width):
                return columns, numbers[1:], values, {}
    return (columns, *_parse_lines(lines, numbers, width))


def _parse_lines(lines, numbers, width):
    """The line-by-line parser behind :func:`_read_table`:
    ``(line_numbers, values, problems)`` of the data records in ``lines[1:]``.

    One ``csv.reader`` splits the data records.  A wrong field count, a field
    ``float`` rejects, a quote left open at the end of a line or a field
    ``csv`` refuses (over its size limit) is a problem of that line
    (``problems`` maps line to message); the reader restarts after such a
    line, so every other problem keeps its own line.  The rows of ``values``
    belong to ``line_numbers``.
    """
    kept, rows, problems = [], [], {}
    start, end = 1, len(lines)
    while start < end:
        # an empty sentinel line lets a quote left open on the last line run past it
        reader = csv.reader(itertools.chain(itertools.islice(lines, start, None), [""]))
        at = start - 1
        try:
            for fields in reader:
                at += 1
                if start + reader.line_num > at + 1:  # the record ran past line ``at``
                    problems[numbers[at]] = "quote left open at end of line"
                    break
                if at == end:
                    break
                if len(fields) != width:
                    problems[numbers[at]] = f"expected {width} fields, got {len(fields)}"
                    continue
                try:
                    rows.append(list(map(float, fields)))
                    kept.append(numbers[at])
                except ValueError:
                    problems[numbers[at]] = f"non-numeric field among {fields!r}"
        except csv.Error as exc:  # a field past csv's size limit, maybe from an open quote
            at += 1
            problems[numbers[at]] = (
                "quote left open at end of line" if start + reader.line_num > at + 1 else str(exc)
            )
        start = at + 1
    return kept, np.array(rows, dtype=float).reshape(len(rows), width), problems


def _raise_problems(problems):
    """Raise a table's ``{line: message}`` problems in line order, if any."""
    if problems:
        raise DatasetValidationError([f"line {n}: {problems[n]}" for n in sorted(problems)])


def read_rplus_csv(path):
    """Read a one-column CSV of positive values.

    Returns ``(sample, column_name)``.  Raises
    :class:`DatasetValidationError` carrying line-numbered diagnostics.
    """
    columns, lines, values, problems = _read_table(_read_text(path).split("\n"), path)
    if len(columns) != 1:
        raise DatasetValidationError(
            [f"{path}: expected exactly one column, header has {len(columns)}"]
        )
    values = values[:, 0]
    for i in np.flatnonzero(~(np.isfinite(values) & (values > 0.0))):
        problems[lines[i]] = f"value {values[i].item()!r} is not strictly positive"
    _raise_problems(problems)
    if not len(values):
        raise DatasetValidationError([f"{path}: no data rows"])
    return RPlusSample.from_logs(np.log(values)), columns[0]


def read_simplex_csv(path, kappa=1.0, auto_close=True):
    """Read a multi-column CSV of compositional rows.

    Rows must be strictly positive; each row's sum is checked against
    ``kappa``.  With ``auto_close`` (the default) sums within a relative
    1e-6 are re-normalized, which tolerates published rounded tables; beyond
    that — or beyond 1e-12 with ``auto_close=False`` — the row is reported.

    Returns ``(sample, column_names)``.
    """
    kappa = float(kappa)
    if not math.isfinite(kappa) or kappa <= 0.0:
        raise DatasetValidationError([f"kappa must be strictly positive, got {kappa!r}"])
    columns, lines, values, problems = _read_table(_read_text(path).split("\n"), path)
    if len(columns) < 2:
        raise DatasetValidationError(
            [f"{path}: a compositional file needs at least 2 columns, header has {len(columns)}"]
        )
    tol = INGEST_CLOSURE_TOL if auto_close else 1e-12
    positive = np.isfinite(values) & (values > 0.0)
    all_positive = positive.all(axis=1)
    # cumsum adds left to right like sum(); ndarray.sum pairs terms from 8 parts on
    with np.errstate(over="ignore", invalid="ignore"):
        totals = np.cumsum(values, axis=1)[:, -1]
    for i in np.flatnonzero(~all_positive):
        bad = ", ".join(c for c, ok in zip(columns, positive[i]) if not ok)
        problems[lines[i]] = f"non-positive part(s) in column(s) {bad}"
    for i in np.flatnonzero(all_positive & (np.abs(totals - kappa) > tol * kappa)):
        total = totals[i].item()
        problems[lines[i]] = (
            f"row sums to {total!r}, not kappa={kappa!r} "
            f"(relative error {abs(total - kappa) / kappa:.3g})"
        )
    _raise_problems(problems)
    if not len(values):
        raise DatasetValidationError([f"{path}: no data rows"])
    return SimplexSample.from_rows(values, kappa), columns


# --------------------------------------------------------------------------
# sample emission
# --------------------------------------------------------------------------

def _write_rows(fh, rows):
    """The one float-row formatter: each cell as its shortest round-trip
    ``repr``, so output is byte-stable and re-parses to the same floats."""
    for row in np.atleast_2d(np.asarray(rows, dtype=float)).tolist():
        fh.write(",".join(map(repr, row)) + "\n")


def write_samples_csv(path, meta, columns, rows):
    """Write drawn samples with a metadata comment line.

    ``meta`` is recorded as JSON on the first line after a ``#``; ``rows``
    may be 1-d (one column) or 2-d.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    if rows.shape[1] != len(columns):
        raise DimensionMismatchError(
            f"{len(columns)} column names for {rows.shape[1]} columns"
        )
    meta = {"schema_version": SCHEMA_VERSION, **meta}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_SAMPLES_TAG + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(",".join(columns) + "\n")
        _write_rows(fh, rows)


def read_samples_csv(path):
    """Read a file written by :func:`write_samples_csv`.

    Returns ``(meta, columns, rows)``; ``meta`` is ``{}`` for a plain CSV.
    """
    text_lines = _read_text(path).split("\n")
    columns, _, values, problems = _read_table(text_lines, path)
    first = text_lines[0]
    meta = _load_meta(first[len(_SAMPLES_TAG):], path) if first.startswith(_SAMPLES_TAG) else {}
    _raise_problems(problems)
    return meta, columns, values


# --------------------------------------------------------------------------
# JSON reports
# --------------------------------------------------------------------------

def law_to_dict(law):
    """JSON-ready description of any of the four laws."""
    if isinstance(law, _ScalarLogGaussian):
        body = {"family": "rplus_normal", "mu": law.mu, "sigma2": law.sigma2}
    elif isinstance(law, _SimplexGaussian):
        body = {"family": "simplex_normal", "mu": law.mu.tolist(), "sigma": law.sigma.tolist(),
                "basis": law.basis.matrix.tolist()}
    else:
        raise TypeError(f"not a law: {type(law).__name__}")
    return {**body, "reference_measure": "lebesgue" if law._lebesgue else "natural"}


def dumps_report(payload) -> str:
    """Serialize a report dict with the schema version stamped in.

    Strict JSON: a NaN or infinite value raises :class:`NumericalError`
    instead of being written as the non-JSON ``NaN`` or ``Infinity``.
    """
    body = {"schema_version": SCHEMA_VERSION, "tool": "codanorm", **payload}
    try:
        return json.dumps(body, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite number ({exc})") from None


def write_report(payload, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_report(payload) + "\n")


def _load_meta(text, where):
    """The one JSON metadata loader: a JSON object stamped with this
    module's ``schema_version``, or a :class:`DatasetValidationError`."""
    try:
        body = json.loads(text)
    except ValueError as exc:
        raise DatasetValidationError([f"{where}: not valid JSON ({exc})"]) from None
    if not isinstance(body, dict):
        raise DatasetValidationError([f"{where}: not a JSON object but {type(body).__name__}"])
    version = body.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DatasetValidationError([f"{where}: unsupported schema_version {version!r}"])
    return body


def read_report(path):
    return _load_meta(_read_text(path), path)


# --------------------------------------------------------------------------
# grid artifacts
# --------------------------------------------------------------------------

def write_grid_artifact(artifact, prefix) -> list[str]:
    """Write an artifact as ``<prefix>.csv`` plus ``<prefix>.meta.json``.

    Returns the list of paths written.
    """
    csv_path = f"{prefix}.csv"
    meta_path = f"{prefix}.meta.json"
    header = ""
    if isinstance(artifact, HistogramArtifact):
        meta = {
            "kind": "histogram",
            "metric": artifact.metric,
            "n": int(artifact.n),
            "law": law_to_dict(artifact.law),
            "columns": [
                "bin_lo", "bin_hi", "midpoint", "count", "bin_measure",
                "empirical_density", "nrp_density", "lognormal_density",
            ],
        }
        header = ",".join(meta["columns"]) + "\n"
        payload = np.column_stack([
            artifact.edges[:-1], artifact.edges[1:], artifact.midpoints,
            artifact.counts, artifact.bin_measure, artifact.empirical_density,
            artifact.nrp_density, artifact.lognormal_density,
        ])
    elif isinstance(artifact, TernaryDensityGrid):
        meta = {
            "kind": "ternary_density",
            "resolution": int(artifact.resolution),
            "margin": artifact.margin,
            "law": law_to_dict(artifact.law),
            "maxima": [
                {"parts": c.parts.tolist(), "density": v} for c, v in artifact.maxima
            ],
            "axes": "matrix[i, j] is density at parts (i/r, j/r, 1 - i/r - j/r)",
        }
        payload = artifact.matrix()
    elif isinstance(artifact, CoordinateDensityGrid):
        meta = {
            "kind": "coordinate_density",
            "x_axis": artifact.x_axis.tolist(),
            "y_axis": artifact.y_axis.tolist(),
            "law": law_to_dict(artifact.law),
            "axes": "matrix[i, j] is density at (x_axis[i], y_axis[j])",
        }
        payload = artifact.values
    else:
        raise TypeError(f"not a grid artifact: {type(artifact).__name__}")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        _write_rows(fh, payload)
    meta = {"schema_version": SCHEMA_VERSION, **meta}
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return [csv_path, meta_path]


def read_grid_artifact(prefix):
    """Read back ``(meta, payload)`` written by :func:`write_grid_artifact`."""
    where = f"{prefix}.meta.json"
    meta = _load_meta(_read_text(where), where)
    if meta.get("kind") not in ("histogram", "ternary_density", "coordinate_density"):
        raise DatasetValidationError([f"{where}: unknown grid kind {meta.get('kind')!r}"])
    skip = 1 if meta["kind"] == "histogram" else 0
    payload = np.genfromtxt(f"{prefix}.csv", delimiter=",", skip_header=skip)
    return meta, np.atleast_2d(payload)
