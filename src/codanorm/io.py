"""File formats: CSV ingestion with diagnostics, JSON reports, artifacts.

Conventions shared by everything below:

* Text files are UTF-8, a leading byte-order mark dropped.  CSV files have
  a header row (a grid payload has none) and '.' decimals; lines starting
  with ``#`` are comments (the sample writer uses one to carry metadata) and
  blank lines are ignored.  One parser, ``_read_table``, reads every table;
  each public reader adds only its own checks, vectorized.  numpy's C reader
  takes a clean table; any other goes line by line, one ``csv`` reader per
  line and ``float`` per field, which give every diagnostic and the same
  values.
* Problems are collected per line and raised together, in line order, as a
  :class:`~codanorm.errors.DatasetValidationError`; so are a file that is
  not UTF-8 and JSON that is malformed, not an object or of another
  ``schema_version``.  ``OSError`` (missing file, directory) propagates.
* One serializer, ``_json``, makes every JSON document written (report,
  sample header, sidecar): stamped, sorted and strict.  One writer,
  ``_write_file``, writes every file from finished text and float rows, each
  cell its shortest round-trip ``repr`` (byte-stable output); so a failed
  serialization writes nothing.  A large table is formatted in two processes
  on two CPUs: a stdlib-only peer (``_peer.py``) formats its back rows with the
  same ``format_rows`` while this process formats the front, so the bytes are
  those of one process.  Grid artifacts are a numeric CSV payload plus a
  ``.meta.json`` sidecar.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import sys

import numpy as np

from ._peer import format_rows
from ._special import _cpus
from .errors import DatasetValidationError, DimensionMismatchError, NumericalError
from .grids import CoordinateDensityGrid, HistogramArtifact, TernaryDensityGrid
from .inference import RPlusSample, SimplexSample
from .laws import _ScalarLogGaussian, _SimplexGaussian
from .simplex import CLOSURE_TOL

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
    """Whole file as text, a leading byte-order mark dropped (spreadsheets write one);
    a file that is not UTF-8 is a dataset problem."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DatasetValidationError(
            [f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"]
        ) from None


def _read_table(text_lines, path, width=None):
    """The one CSV parser of ``path``'s lines: ``(columns, line_numbers, values, problems)``.

    Comment and blank lines are skipped but counted, and the first kept line
    is the header; given a ``width``, the table has no header (``columns`` is
    ``None``) and every kept line is data.  A clean table (every data line
    ``width`` plain numbers) parses in numpy's C reader, which gives
    ``float``'s values bit for bit; any other table, and every problem, is
    left to :func:`_parse_lines`.
    """
    numbers, lines = [], []
    for lineno, line in enumerate(text_lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            numbers.append(lineno)
            lines.append(line)
    if width is not None:  # an empty header slot, which the parsers skip
        columns, numbers, lines = None, [0, *numbers], ["", *lines]
    elif not lines:
        raise DatasetValidationError([f"{path}: file has no header row"])
    else:
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

    Each data line gets a ``csv.reader`` of its own, so no record runs past
    its line.  A wrong field count, a field ``float`` rejects, a quote left
    open at the end of the line or a field ``csv`` refuses (over its size
    limit) is a problem of that line (``problems`` maps line to message).
    The rows of ``values`` belong to ``line_numbers``.
    """
    kept, rows, problems = [], [], {}
    for number, line in zip(numbers[1:], lines[1:]):
        # a quote left open runs on into the empty second line, past line_num 1
        reader = csv.reader([line, ""])
        try:
            fields = next(reader)
        except csv.Error as exc:  # a field past csv's size limit, maybe from an open quote
            problems[number] = "quote left open at end of line" if reader.line_num > 1 else str(exc)
            continue
        if reader.line_num > 1:
            problems[number] = "quote left open at end of line"
        elif len(fields) != width:
            problems[number] = f"expected {width} fields, got {len(fields)}"
        else:
            try:
                rows.append(list(map(float, fields)))
                kept.append(number)
            except ValueError:
                problems[number] = f"non-numeric field among {fields!r}"
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
    that — or beyond ``simplex.CLOSURE_TOL`` (1e-12) with ``auto_close=False`` — the
    row is reported.

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
    tol = INGEST_CLOSURE_TOL if auto_close else CLOSURE_TOL
    positive = np.isfinite(values) & (values > 0.0)
    all_positive = positive.all(axis=1)
    # each row summed part by part, left to right, as the closure sums it
    with np.errstate(over="ignore", invalid="ignore"):
        totals = functools.reduce(np.add, values.T)
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
# writing
# --------------------------------------------------------------------------

def _json(body, indent=None) -> str:
    """The one JSON serializer: ``body`` stamped with ``schema_version``, keys
    sorted; a NaN or infinity raises :class:`NumericalError`, never non-JSON."""
    try:
        return json.dumps({"schema_version": SCHEMA_VERSION, **body}, indent=indent,
                          sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite number ({exc})") from None


def _write_file(path, text, rows=None):
    """The one file writer: finished ``text``, then each float row of ``rows``
    as shortest round-trip ``repr`` cells, which re-parse to the same floats."""
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
        if rows is not None:
            _write_rows(fh, np.atleast_2d(np.ascontiguousarray(rows, dtype=float)))


# Cells from which a table's back part is formatted by a peer process.  On a 2-core Xeon
# the peer cost 14-38 ms (median about 20 ms: the spawn, its ~10 ms start, the transfer
# and the wait for its rows) and saved half the formatting, which takes 0.6-0.7 us a
# finite cell on one core, so the two cross near 40 ms of formatting, about 60,000 finite
# cells.  A 10,000 x 3 sample stays in one process; a resolution-400 grid (160,801
# cells, half of them NaN) takes the peer.
_PEER_CELLS = 65_536
_PEER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_peer.py")


def _rows_text(rows):
    """The CSV bytes of a C-contiguous 2-d float array (no columns: empty rows)."""
    n, m = rows.shape
    return format_rows(rows.ravel().tolist(), m).encode() if m else b"\n" * n


def _front_rows(rows):
    """How many leading rows carry about half of the table's formatting cost: a finite
    cell costs about six NaN or infinite ones (570-590 ns against about 100 ns a cell in
    the rows of a ternary grid)."""
    m = rows.shape[1]
    cost = np.cumsum(np.isfinite(rows) @ np.full(m, 5) + m)  # an integer product, not BLAS
    return int(np.searchsorted(cost, cost[-1] / 2))


def _write_rows(fh, rows):
    """Write ``rows`` as :func:`_rows_text` to the binary file ``fh``.  A table of at least
    ``_PEER_CELLS`` cells, on a process with two CPUs or more, is cut at
    :func:`_front_rows`; its back part goes as raw float64 bytes to the peer,
    ``_peer.py``, which formats it with the same :func:`format_rows` while this process
    formats the front.  A peer that cannot start, exits non-zero or returns the wrong
    number of lines leaves its part to this process, so the bytes never change; the peer
    is always waited for, and killed if this process raises."""
    peer = None
    if rows.size >= _PEER_CELLS and sys.executable and _cpus() > 1:
        import subprocess

        try:
            peer = subprocess.Popen([sys.executable, "-I", "-S", _PEER, str(rows.shape[1])],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL)
        except OSError:
            pass
    if peer is None:
        fh.write(_rows_text(rows))
        return
    with peer:
        try:
            cut = _front_rows(rows)
            try:
                with peer.stdin:
                    peer.stdin.write(rows[cut:])
            except BrokenPipeError:  # the peer has gone: its part is formatted below
                pass
            fh.write(_rows_text(rows[:cut]))
            back = peer.stdout.read()
        except BaseException:
            peer.kill()
            raise
    if peer.returncode or back.count(b"\n") != len(rows) - cut:
        back = _rows_text(rows[cut:])
    fh.write(back)


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
    _write_file(path, f"{_SAMPLES_TAG}{_json(meta)}\n{','.join(columns)}\n", rows)


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
    return _json({"tool": "codanorm", **payload}, indent=2)


def write_report(payload, path) -> None:
    _write_file(path, dumps_report(payload) + "\n")


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
    """Write an artifact as ``<prefix>.csv`` plus ``<prefix>.meta.json``; returns the paths."""
    return _write_grid(artifact, prefix)[0]


def _write_grid(artifact, prefix):
    """:func:`write_grid_artifact`, returning ``(paths, meta)``; a grid job prints its maxima."""
    header = ""
    if isinstance(artifact, HistogramArtifact):
        columns = {
            "bin_lo": artifact.edges[:-1], "bin_hi": artifact.edges[1:],
            "midpoint": artifact.midpoints, "count": artifact.counts,
            "bin_measure": artifact.bin_measure, "empirical_density": artifact.empirical_density,
            "nrp_density": artifact.nrp_density, "lognormal_density": artifact.lognormal_density,
        }
        meta = {"kind": "histogram", "metric": artifact.metric, "n": int(artifact.n),
                "columns": list(columns)}
        header = ",".join(columns) + "\n"
        payload = np.column_stack(list(columns.values()))
    elif isinstance(artifact, TernaryDensityGrid):
        meta = {"kind": "ternary_density", "resolution": int(artifact.resolution),
                "margin": artifact.margin,
                "maxima": [{"parts": c.parts.tolist(), "density": v} for c, v in artifact.maxima],
                "axes": "matrix[i, j] is density at parts (i/r, j/r, 1 - i/r - j/r)"}
        payload = artifact.matrix()
    elif isinstance(artifact, CoordinateDensityGrid):
        meta = {"kind": "coordinate_density", "x_axis": artifact.x_axis.tolist(),
                "y_axis": artifact.y_axis.tolist(),
                "axes": "matrix[i, j] is density at (x_axis[i], y_axis[j])"}
        payload = artifact.values
    else:
        raise TypeError(f"not a grid artifact: {type(artifact).__name__}")
    sidecar = _json({**meta, "law": law_to_dict(artifact.law)}, indent=2) + "\n"
    paths = [f"{prefix}.csv", f"{prefix}.meta.json"]
    _write_file(paths[0], header, payload)
    _write_file(paths[1], sidecar)
    return paths, meta


# the payload's (rows, columns) that each kind's sidecar records (rows None: one or more)
_GRID_SHAPES = {
    "histogram": lambda meta: (None, len(meta["columns"])),
    "ternary_density": lambda meta: (int(meta["resolution"]) + 1,) * 2,
    "coordinate_density": lambda meta: (len(meta["x_axis"]), len(meta["y_axis"])),
}


def read_grid_artifact(prefix):
    """Read back ``(meta, payload)`` written by :func:`write_grid_artifact`.  A payload
    that is ragged, non-numeric, empty or of another shape than its sidecar records
    raises :class:`DatasetValidationError`, with line numbers where a line is at fault."""
    where, path = f"{prefix}.meta.json", f"{prefix}.csv"
    meta = _load_meta(_read_text(where), where)
    kind = meta.get("kind")
    if kind not in _GRID_SHAPES:
        raise DatasetValidationError([f"{where}: unknown grid kind {kind!r}"])
    try:
        rows, width = _GRID_SHAPES[kind](meta)
    except (KeyError, TypeError, ValueError):
        raise DatasetValidationError([f"{where}: no payload shape for a {kind} grid"]) from None
    text_lines = _read_text(path).split("\n")
    # the histogram's header names its columns; the grids have none
    columns, _, payload, problems = _read_table(text_lines, path, None if rows is None else width)
    if columns is not None and len(columns) != width:
        raise DatasetValidationError(
            [f"{path}: header has {len(columns)} columns, the sidecar records {width}"])
    _raise_problems(problems)
    if (len(payload) != rows) if rows is not None else not len(payload):
        want = "at least 1" if rows is None else rows
        raise DatasetValidationError(
            [f"{path}: {len(payload)} rows of {width} values, the sidecar records {want}"])
    return meta, payload
