"""The shared CSV reader, the row writer, the JSON metadata loader and the
CLI's exit code for unreadable files."""

import functools
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codanorm import DatasetValidationError, NormalOnRPlus, NormalOnSimplex, SeededStream
from codanorm import io as codanorm_io
from codanorm.cli import main
from codanorm.grids import (
    CoordinateDensityGrid,
    histogram_artifact,
    ternary_density_grid,
)
from codanorm.inference import RPlusSample, fit_nrp
from codanorm.io import (
    read_grid_artifact,
    read_report,
    read_rplus_csv,
    read_samples_csv,
    read_simplex_csv,
    write_grid_artifact,
    write_report,
    write_samples_csv,
)
from codanorm.sampling import sample_nrp


def reference_row(row):
    """The writer's format, spelled out cell by cell."""
    return ",".join(repr(float(v)) for v in row) + "\n"


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

_KINDS = ["good", "comment", "blank", "short", "long", "nonnum", "nonpos", "offsum", "oddnum"]


@st.composite
def malformed_tables(draw):
    """A compositional CSV mixing every kind of line, with the problems that
    ``read_simplex_csv`` must report, those every table reader reports, and
    the rows every table reader parses."""
    D = draw(st.integers(2, 5))
    columns = [f"c{i}" for i in range(D)]
    lines = [draw(st.sampled_from(["# lead", "", "  "])) for _ in range(draw(st.integers(0, 2)))]
    lines.append(",".join(columns))
    kinds = draw(st.lists(st.sampled_from(_KINDS), max_size=25))
    for _ in range(draw(st.integers(0, 2))):  # up to two quotes left open, maybe consecutive
        kinds.insert(draw(st.integers(0, len(kinds))), "quote")
    expected, shared, parsed = [], [], []
    for kind in kinds:
        weights = draw(st.lists(st.integers(1, 1000), min_size=D, max_size=D))
        vals = [w / sum(weights) for w in weights]
        fields = [repr(v) for v in vals]
        lineno = len(lines) + 1
        problem = None
        if kind == "comment":
            fields = None
            lines.append("# a comment, with commas")
        elif kind == "blank":
            fields = None
            lines.append(draw(st.sampled_from(["", "   "])))
        elif kind in ("short", "long"):
            fields = fields[:-1] if kind == "short" else fields + ["0.5"]
            problem = f"expected {D} fields, got {len(fields)}"
        elif kind == "nonnum":
            fields[draw(st.integers(0, D - 1))] = "abc"
            problem = f"non-numeric field among {fields!r}"
        elif kind == "quote":
            k = draw(st.integers(0, D - 1))
            fields[k] = '"' + fields[k]
            problem = "quote left open at end of line"
        elif kind == "nonpos":
            bad = sorted(draw(st.sets(st.integers(0, D - 1), min_size=1)))
            for k in bad:
                fields[k] = draw(st.sampled_from(["0", "-0.5", "nan", "inf", "-0.0"]))
            problem = "non-positive part(s) in column(s) " + ", ".join(columns[k] for k in bad)
        elif kind == "offsum":
            vals = [1.5 * v for v in vals]
            fields = [repr(v) for v in vals]
            total = sum(vals)
            problem = (f"row sums to {total!r}, not kappa=1.0 "
                       f"(relative error {abs(total - 1.0):.3g})")
        elif kind == "oddnum":
            # numbers that float reads and numpy's C reader refuses
            k = draw(st.integers(0, D - 1))
            head, _, tail = fields[k].partition(".")
            if draw(st.booleans()) or len(tail) < 2:
                fields[k] = f'"{fields[k]}"'
            else:
                fields[k] = f"{head}.{tail[0]}_{tail[1:]}"
        if fields is not None:
            lines.append(",".join(fields))
            if kind in ("good", "nonpos", "offsum", "oddnum"):
                parsed.append([float(f.strip('"')) for f in fields])
        if problem is not None:
            expected.append(f"line {lineno}: {problem}")
            if kind in ("short", "long", "nonnum", "quote"):
                shared.append(f"line {lineno}: {problem}")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    n_good = kinds.count("good") + kinds.count("oddnum")
    return eol.join(lines) + eol, expected, shared, n_good, parsed


class TestSharedReader:
    @given(malformed_tables())
    @settings(max_examples=150, deadline=None)
    def test_problems_in_line_order(self, tmp_path_factory, table):
        text, expected, shared, n_good, parsed = table
        path = tmp_path_factory.mktemp("table") / "t.csv"
        path.write_bytes(text.encode())
        if expected:
            with pytest.raises(DatasetValidationError) as exc:
                read_simplex_csv(path)
            assert exc.value.problems == expected
        elif n_good:
            sample, _ = read_simplex_csv(path)
            assert sample.n == n_good
        else:
            with pytest.raises(DatasetValidationError, match="no data rows"):
                read_simplex_csv(path)
        if shared:
            with pytest.raises(DatasetValidationError) as exc:
                read_samples_csv(path)
            assert exc.value.problems == shared
        else:
            values = read_samples_csv(path)[2]
            assert values.shape[0] == len(parsed)
            if parsed:
                assert np.array_equal(values.view(np.int64), np.array(parsed).view(np.int64))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_clean_tables_parse_as_the_line_parser_does(self, data):
        width = data.draw(st.integers(1, 4))
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        spell = st.sampled_from([repr, "%.25g".__mod__, "%.3e".__mod__])
        pad = st.sampled_from(["", " ", "  "])
        text_lines = ["# lead", ",".join(f"c{i}" for i in range(width))]
        for _ in range(data.draw(st.integers(1, 30))):
            if data.draw(st.integers(0, 4)) == 0:
                text_lines.append(data.draw(st.sampled_from(["", "# a, comment", "  "])))
            text_lines.append(",".join(
                data.draw(pad) + data.draw(spell)(data.draw(positive)) + data.draw(pad)
                for _ in range(width)))
        eol = data.draw(st.sampled_from(["", "\r"]))
        text_lines = [line + eol for line in text_lines]
        numbers = [n for n, line in enumerate(text_lines, start=1)
                   if line.strip() and not line.strip().startswith("#")]
        kept = [text_lines[n - 1] for n in numbers]
        # numpy's reader takes every such table: the line parser must not run
        with mock.patch.object(codanorm_io, "_parse_lines", side_effect=AssertionError("not clean")):
            columns, lines, values, problems = codanorm_io._read_table(text_lines, "t.csv")
        ref_lines, ref_values, ref_problems = codanorm_io._parse_lines(kept, numbers, width)
        assert columns == [f"c{i}" for i in range(width)]
        assert (lines, problems) == (ref_lines, ref_problems) == (numbers[1:], {})
        assert values.shape == ref_values.shape
        assert np.array_equal(values.view(np.int64), ref_values.view(np.int64))

    def test_eight_part_total_is_summed_left_to_right(self, tmp_path):
        gen = np.random.default_rng(4)
        while True:
            row = (1.5 * gen.dirichlet(np.ones(8))).tolist()
            if float(np.sum(row)) != sum(row):
                break
        p = tmp_path / "eight.csv"
        p.write_text(",".join(f"p{i}" for i in range(8)) + "\n" + ",".join(map(repr, row)) + "\n")
        with pytest.raises(DatasetValidationError) as exc:
            read_simplex_csv(p)
        assert exc.value.problems[0].startswith(f"line 2: row sums to {sum(row)!r}, not")

    def test_rplus_wordings(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("flow\n1.5\nx\n2,3\n-0.0\n")
        with pytest.raises(DatasetValidationError) as exc:
            read_rplus_csv(p)
        assert exc.value.problems == [
            "line 3: non-numeric field among ['x']",
            "line 4: expected 1 fields, got 2",
            "line 5: value -0.0 is not strictly positive",
        ]

    def test_rplus_fit_matches_scalar_logs(self, tmp_path):
        gen = np.random.default_rng(11)
        values = np.exp(gen.normal(2.0, 3.0, size=5000)).tolist()
        p = tmp_path / "vals.csv"
        p.write_text("v\n" + "".join(f"{v!r}\n" for v in values))
        law = fit_nrp(read_rplus_csv(p)[0])
        ref = fit_nrp(RPlusSample.from_logs([math.log(v) for v in values]))
        assert law.mu == pytest.approx(ref.mu, rel=1e-14, abs=0.0)
        assert law.sigma2 == pytest.approx(ref.sigma2, rel=1e-14, abs=0.0)

    def test_stray_quote_before_a_long_tail(self, tmp_path):
        # the open quote runs on past csv's 131,072-character field limit
        p = tmp_path / "vals.csv"
        p.write_text('flow\n1.5\n"2.5\n' + "1.25\n" * 40_000 + "x\n3.0\n")
        with pytest.raises(DatasetValidationError) as exc:
            read_rplus_csv(p)
        assert exc.value.problems == [
            "line 3: quote left open at end of line",
            "line 40004: non-numeric field among ['x']",
        ]

    def test_over_long_field(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("a,b\n0.5,0.5\n0." + "1" * 200_000 + ",0.5\n# c\n0.5,x\n")
        with pytest.raises(DatasetValidationError) as exc:
            read_samples_csv(p)
        assert exc.value.problems == [
            "line 3: field larger than field limit (131072)",
            "line 5: non-numeric field among ['0.5', 'x']",
        ]
        p.write_text("# c\n" + "a" * 200_000 + "\n1.0\n")
        with pytest.raises(DatasetValidationError) as exc:
            read_rplus_csv(p)
        assert exc.value.problems == ["line 2: field larger than field limit (131072)"]
        # a number csv refuses for its length, in a table numpy would read
        p.write_text("a\n0." + "1" * 200_000 + "\n0.5\n")
        with pytest.raises(DatasetValidationError) as exc:
            read_rplus_csv(p)
        assert exc.value.problems == ["line 2: field larger than field limit (131072)"]

    @pytest.mark.parametrize("field", ["\x1c1.5", "1.5\x1d", "\x1e1.5\x1f"])
    def test_separators_float_refuses(self, tmp_path, field):
        # numpy strips \x1c-\x1f as whitespace; float, and so the reader, does not
        p = tmp_path / "vals.csv"
        p.write_text(f"flow\n1.5\n{field}\n")
        with pytest.raises(DatasetValidationError) as exc:
            read_rplus_csv(p)
        assert exc.value.problems == [f"line 3: non-numeric field among {[field]!r}"]

    @pytest.mark.parametrize("text", ["flow\n", "# c\nflow\n\n# d\n", "a,b\r\n"])
    def test_header_only_file_has_no_data_rows_and_no_warning(self, tmp_path, text):
        p = tmp_path / "empty.csv"
        p.write_text(text)
        reader = read_rplus_csv if "," not in text else read_simplex_csv
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetValidationError, match="no data rows"):
                reader(p)

    def test_not_utf8_names_the_path(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("flow\n1.5\n# caf\xe9\n".encode("latin-1"))
        with pytest.raises(DatasetValidationError) as exc:
            read_rplus_csv(p)
        assert str(p) in exc.value.problems[0] and "UTF-8" in exc.value.problems[0]

    @pytest.mark.parametrize("reader", ["rplus", "samples", "report"])
    def test_byte_order_mark_is_dropped(self, tmp_path, reader):
        # spreadsheets' "CSV UTF-8" starts the file with U+FEFF
        p = tmp_path / "f"
        if reader == "rplus":
            p.write_text("flow\n1.5\n")
        elif reader == "samples":
            write_samples_csv(p, {"seed": 4}, ["a", "b"], [[1.0, 2.0]])
        else:
            write_report({"command": "fit", "n": 3}, p)
        p.write_text("\ufeff" + p.read_text(encoding="utf-8"), encoding="utf-8")
        if reader == "rplus":
            assert read_rplus_csv(p)[1] == "flow"
        elif reader == "samples":
            meta, columns, rows = read_samples_csv(p)
            assert meta["seed"] == 4 and columns == ["a", "b"] and rows.tolist() == [[1.0, 2.0]]
        else:
            assert read_report(p)["n"] == 3


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


class TestRowWriter:
    def test_samples_bytes(self, tmp_path):
        rows = np.array([
            [5e-324, -0.0, 1e308],
            [2.2250738585072014e-308, 0.1, 1.0 / 3.0],
            [1e-300, 123456789.0, 7.0],
        ])
        p = tmp_path / "s.csv"
        write_samples_csv(p, {"law_family": "x"}, ["a", "b", "c"], rows)
        head = '# codanorm-samples {"law_family": "x", "schema_version": 1}\na,b,c\n'
        assert p.read_text() == head + "".join(reference_row(r) for r in rows)

    def test_rows_without_columns_are_empty_lines(self, tmp_path):
        p = tmp_path / "s.csv"
        write_samples_csv(p, {}, [], np.empty((3, 0)))
        assert p.read_text().split("\n", 1)[1] == "\n" * 4

    def test_histogram_bytes_with_integer_counts(self, tmp_path):
        sample = sample_nrp(NormalOnRPlus(0.5, 1.0), 200, SeededStream(3, 0))
        art = histogram_artifact(sample, "euclidean", bins=7)
        assert art.counts.dtype.kind == "i"
        write_grid_artifact(art, tmp_path / "h")
        meta = json.loads((tmp_path / "h.meta.json").read_text())
        want = ",".join(meta["columns"]) + "\n" + "".join(
            reference_row([
                art.edges[k], art.edges[k + 1], art.midpoints[k], art.counts[k],
                art.bin_measure[k], art.empirical_density[k], art.nrp_density[k],
                art.lognormal_density[k],
            ])
            for k in range(art.counts.size)
        )
        assert (tmp_path / "h.csv").read_text() == want

    def test_ternary_bytes_with_nan_cells(self, tmp_path):
        grid = ternary_density_grid(NormalOnSimplex([0.3, -1.0], [[1.0, 0.2], [0.2, 0.5]]),
                                    resolution=12)
        dense = grid.matrix()
        assert np.isnan(dense).any()
        write_grid_artifact(grid, tmp_path / "t")
        assert (tmp_path / "t.csv").read_text() == "".join(reference_row(r) for r in dense)

    def test_coordinate_bytes_with_integer_values(self, tmp_path):
        values = np.array([[1, 0], [-3, 2**60]])
        grid = CoordinateDensityGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]), values,
                                     NormalOnSimplex([0.0, 0.0], np.eye(2)))
        write_grid_artifact(grid, tmp_path / "c")
        assert (tmp_path / "c.csv").read_text() == "".join(reference_row(r) for r in values)

    def test_coordinate_bytes_with_extreme_values(self, tmp_path):
        values = np.array([[5e-324, -0.0], [1e308, np.nan]])
        grid = CoordinateDensityGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]), values,
                                     NormalOnSimplex([0.0, 0.0], np.eye(2)))
        write_grid_artifact(grid, tmp_path / "c")
        assert (tmp_path / "c.csv").read_text() == "".join(reference_row(r) for r in values)


# Cells that stress repr: NaN, both infinities, both zeros, the smallest subnormal, another
# subnormal, the smallest normal, and both sides of repr's switches to exponent form at
# 1e16 and 1e-4.
_EDGE_CELLS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
               1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e22, -1.5e300]


@functools.lru_cache(maxsize=None)
def _peer_table(n, m):
    """A read-only ``(n, m)`` table of mixed magnitudes with every edge cell in it, and its
    rows as ``reference_row`` text; a 1001-column table carries the NaN triangle of a
    ternary grid."""
    rng = np.random.default_rng(n * 1009 + m)
    table = rng.lognormal(0.0, 8.0, (n, m)) * rng.choice([-1.0, 1.0], (n, m))
    cells = rng.choice(table.size, 4 * len(_EDGE_CELLS), replace=False)
    table.flat[cells] = np.resize(_EDGE_CELLS, cells.size)
    if m == 1001:
        i, j = np.indices(table.shape)
        table[i + j > 1000] = np.nan
    table.flags.writeable = False
    return table, "".join(map(reference_row, table))


def _peer_tables():
    """Each shape below, at and above the peer threshold, by cells."""
    cells = codanorm_io._PEER_CELLS
    for m in (1, 3, 1001):
        below = -(-cells // m) - 1
        for n in (below, below + 1, 3 * below):
            yield pytest.param(n, m, id=f"{n}x{m}")


def _replaced_peer(code):
    """A ``subprocess.Popen`` that starts ``python -c code M`` in place of the peer."""
    popen = subprocess.Popen

    def start(args, **kwargs):
        return popen([sys.executable, "-c", code, args[-1]], **kwargs)

    return start


_FAILING_PEERS = {
    "exits at once": "import sys; sys.exit(3)",
    "exits non-zero after its lines": (
        "import sys; n = len(sys.stdin.buffer.read()) // 8 // int(sys.argv[1]);"
        " sys.stdout.write('0.0\\n' * n); sys.exit(1)"),
    "one line short": (
        "import sys; n = len(sys.stdin.buffer.read()) // 8 // int(sys.argv[1]);"
        " sys.stdout.write('0.0\\n' * (n - 1))"),
}


def _first_difference(got, want):
    """The first line where two texts differ, ``(index, got, want)``, or None: a cheap
    failure message for texts of megabytes."""
    if got == want:
        return None
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    k = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
             min(len(got), len(want)))
    return k, got[k:k + 1], want[k:k + 1]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTwoProcessWriter:
    """A table of ``_PEER_CELLS`` cells or more is formatted by this process and a peer;
    whatever becomes of the peer, the bytes are those of ``reference_row``, and no child
    process is left."""

    def _check(self, tmp_path, n, m):
        table, want = _peer_table(n, m)
        path = tmp_path / "t.csv"
        write_samples_csv(path, {}, [f"c{k}" for k in range(m)], table)
        _no_child_left()
        assert _first_difference(path.read_text().split("\n", 2)[2], want) is None

    @pytest.mark.parametrize("n, m", _peer_tables())
    def test_bytes(self, tmp_path, n, m):
        with mock.patch("subprocess.Popen", wraps=subprocess.Popen) as spawn:
            self._check(tmp_path, n, m)
        assert spawn.call_count == (n * m >= codanorm_io._PEER_CELLS and codanorm_io._cpus() > 1)

    @pytest.mark.parametrize("n, m", _peer_tables())
    def test_bytes_when_the_peer_cannot_start(self, tmp_path, n, m):
        with mock.patch("subprocess.Popen", side_effect=OSError("no process")):
            self._check(tmp_path, n, m)

    @pytest.mark.parametrize("peer", list(_FAILING_PEERS))
    @pytest.mark.parametrize("n, m", _peer_tables())
    def test_bytes_when_the_peer_fails(self, tmp_path, n, m, peer):
        with mock.patch("subprocess.Popen", side_effect=_replaced_peer(_FAILING_PEERS[peer])):
            self._check(tmp_path, n, m)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    @pytest.mark.parametrize("n, m", _peer_tables())
    def test_one_cpu_starts_no_peer(self, tmp_path, n, m):
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            with mock.patch("subprocess.Popen", wraps=subprocess.Popen) as spawn:
                self._check(tmp_path, n, m)
        finally:
            os.sched_setaffinity(0, cpus)
        assert spawn.call_count == 0

    def test_a_raising_parent_kills_and_waits_for_the_peer(self, tmp_path):
        table = np.ones((2 * codanorm_io._PEER_CELLS, 1))
        with mock.patch.object(codanorm_io, "format_rows", side_effect=MemoryError):
            with pytest.raises(MemoryError):
                write_samples_csv(tmp_path / "t.csv", {}, ["c"], table)
        _no_child_left()

    def test_samples_round_trip_through_two_processes(self, tmp_path):
        table = _peer_table(codanorm_io._PEER_CELLS, 3)[0]
        path = tmp_path / "s.csv"
        write_samples_csv(path, {"n": len(table)}, ["a", "b", "c"], table)
        meta, columns, values = read_samples_csv(path)
        assert meta["n"] == len(table) and columns == ["a", "b", "c"]
        assert values.tobytes() == table.tobytes()


# ---------------------------------------------------------------------------
# JSON metadata
# ---------------------------------------------------------------------------

_BAD_JSON = {
    "malformed": "{not json",
    "not an object": "[1, 2]",
    "other version": '{"schema_version": 999}',
    "no version": '{"kind": "histogram"}',
}


def _write_meta(tmp_path, where, text):
    """Put ``text`` where reader ``where`` looks for JSON; return its reader."""
    if where == "report":
        (tmp_path / "r.json").write_text(text)
        return lambda: read_report(tmp_path / "r.json")
    if where == "grid":
        (tmp_path / "g.meta.json").write_text(text)
        (tmp_path / "g.csv").write_text("1.0,2.0\n")
        return lambda: read_grid_artifact(tmp_path / "g")
    (tmp_path / "s.csv").write_text(f"# codanorm-samples {text}\nx\n1.0\n")
    return lambda: read_samples_csv(tmp_path / "s.csv")


class TestMetadataLoader:
    @pytest.mark.parametrize("where", ["report", "grid", "samples"])
    @pytest.mark.parametrize("case", sorted(_BAD_JSON))
    def test_bad_metadata_is_a_dataset_error(self, tmp_path, where, case):
        read = _write_meta(tmp_path, where, _BAD_JSON[case])
        with pytest.raises(DatasetValidationError):
            read()

    @pytest.mark.parametrize("text", ['{"schema_version": 1}',
                                      '{"schema_version": 1, "kind": "scatter"}'])
    def test_grid_kind_must_be_written_one(self, tmp_path, text):
        # a valid report, but not grid metadata: no kind, or one never written
        read = _write_meta(tmp_path, "grid", text)
        with pytest.raises(DatasetValidationError, match=r"g\.meta\.json: unknown grid kind"):
            read()

    def test_round_trips(self, tmp_path):
        write_report({"command": "fit", "n": 3}, tmp_path / "r.json")
        assert read_report(tmp_path / "r.json")["n"] == 3
        grid = CoordinateDensityGrid(np.array([0.0]), np.array([1.0]), np.array([[0.5]]),
                                     NormalOnSimplex([0.0, 0.0], np.eye(2)))
        write_grid_artifact(grid, tmp_path / "g")
        meta, payload = read_grid_artifact(tmp_path / "g")
        assert meta["y_axis"] == [1.0] and payload.tolist() == [[0.5]]
        write_samples_csv(tmp_path / "s.csv", {"seed": 4}, ["v"], [2.5])
        meta, columns, rows = read_samples_csv(tmp_path / "s.csv")
        assert meta["seed"] == 4 and columns == ["v"] and rows.tolist() == [[2.5]]


def _grid_files(tmp_path, kind):
    """Write a small artifact of ``kind``; return its prefix and its payload's lines."""
    law = NormalOnSimplex([0.3, -1.0], [[1.0, 0.2], [0.2, 0.5]])
    artifact = {
        "histogram": lambda: histogram_artifact(
            sample_nrp(NormalOnRPlus(0.5, 1.0), 200, SeededStream(3, 0)), "euclidean", bins=7),
        "ternary_density": lambda: ternary_density_grid(law, resolution=10),
        "coordinate_density": lambda: CoordinateDensityGrid(
            np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]), np.arange(6.0).reshape(2, 3), law),
    }[kind]()
    write_grid_artifact(artifact, tmp_path / "g")
    return tmp_path / "g", (tmp_path / "g.csv").read_text().splitlines()


def _grid_problems(prefix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetValidationError) as exc:
            read_grid_artifact(prefix)
    return exc.value.problems


_GRID_KINDS = ["histogram", "ternary_density", "coordinate_density"]


class TestGridPayload:
    @pytest.mark.parametrize("kind", _GRID_KINDS)
    def test_ragged_line(self, tmp_path, kind):
        prefix, lines = _grid_files(tmp_path, kind)
        (tmp_path / "g.csv").write_text("\n".join(lines) + "\n1,2\n")
        width = len(lines[-1].split(","))
        assert _grid_problems(prefix) == [f"line {len(lines) + 1}: expected {width} fields, got 2"]

    @pytest.mark.parametrize("kind", _GRID_KINDS)
    def test_non_numeric_cell(self, tmp_path, kind):
        prefix, lines = _grid_files(tmp_path, kind)
        fields = lines[1].split(",")
        lines[1] = ",".join(["oops", *fields[1:]])
        (tmp_path / "g.csv").write_text("\n".join(lines) + "\n")
        assert _grid_problems(prefix) == [
            f"line 2: non-numeric field among {['oops', *fields[1:]]!r}"]

    @pytest.mark.parametrize("kind", _GRID_KINDS)
    def test_empty_payload(self, tmp_path, kind):
        prefix, lines = _grid_files(tmp_path, kind)
        (tmp_path / "g.csv").write_text(lines[0] + "\n" if kind == "histogram" else "")
        want = ("at least 1" if kind == "histogram" else
                "11" if kind == "ternary_density" else "2")
        assert _grid_problems(prefix) == [
            f"{prefix}.csv: 0 rows of {len(lines[-1].split(','))} values, the sidecar records {want}"]

    @pytest.mark.parametrize("kind", ["ternary_density", "coordinate_density"])
    def test_row_count_disagrees_with_the_sidecar(self, tmp_path, kind):
        prefix, lines = _grid_files(tmp_path, kind)
        (tmp_path / "g.csv").write_text("\n".join(lines[:-1]) + "\n")
        assert _grid_problems(prefix) == [
            f"{prefix}.csv: {len(lines) - 1} rows of {len(lines[0].split(','))} values, "
            f"the sidecar records {len(lines)}"]

    def test_width_disagrees_with_the_sidecar(self, tmp_path):
        prefix, lines = _grid_files(tmp_path, "coordinate_density")
        (tmp_path / "g.csv").write_text("".join(reference_row(r) for r in np.ones((3, 2))))
        assert _grid_problems(prefix) == [f"line {n}: expected 3 fields, got 2" for n in (1, 2, 3)]
        prefix, lines = _grid_files(tmp_path, "histogram")
        (tmp_path / "g.csv").write_text("\n".join(line.rsplit(",", 1)[0] for line in lines))
        assert _grid_problems(prefix) == [f"{prefix}.csv: header has 7 columns, the sidecar records 8"]

    def test_sidecar_without_a_shape(self, tmp_path):
        prefix, _ = _grid_files(tmp_path, "ternary_density")
        meta = json.loads((tmp_path / "g.meta.json").read_text())
        del meta["resolution"]
        (tmp_path / "g.meta.json").write_text(json.dumps(meta))
        assert _grid_problems(prefix) == [f"{prefix}.meta.json: no payload shape for a "
                                          "ternary_density grid"]

    @pytest.mark.parametrize("kind", _GRID_KINDS)
    def test_payload_round_trips(self, tmp_path, kind):
        prefix, lines = _grid_files(tmp_path, kind)
        meta, payload = read_grid_artifact(prefix)
        assert "".join(reference_row(r) for r in payload) == "\n".join(lines[kind == "histogram":]) + "\n"


# ---------------------------------------------------------------------------
# command line: unreadable files exit 2
# ---------------------------------------------------------------------------


def test_stray_quote_in_a_large_file_exits_2(capsys, tmp_path):
    p = tmp_path / "flow.csv"
    p.write_text('flow\n1.5\n"2.5\n' + "1.25\n" * 40_000)
    code = main(["fit", "--input", str(p), "--space", "rplus"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3: quote left open at end of line" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["missing", "not utf-8", "directory", "output dir missing"])
def test_unreadable_files_exit_2(capsys, tmp_path, case):
    good = tmp_path / "flow.csv"
    good.write_text("flow\n1.5\n2.5\n4.0\n")
    latin = tmp_path / "latin1.csv"
    latin.write_bytes("flow\n1.5\n# caf\xe9\n2.5\n".encode("latin-1"))
    argv = {
        "missing": ["fit", "--input", str(tmp_path / "absent.csv"), "--space", "rplus"],
        "not utf-8": ["fit", "--input", str(latin), "--space", "rplus"],
        "directory": ["hist", "--input", str(tmp_path), "--metric", "logratio",
                      "-o", str(tmp_path / "h")],
        "output dir missing": ["fit", "--input", str(good), "--space", "rplus",
                               "-o", str(tmp_path / "no" / "such" / "r.json")],
    }[case]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
