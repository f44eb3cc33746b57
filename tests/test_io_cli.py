"""Tests for CSV/JSON input-output and the command line front end."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codanorm import (
    AlnLaw,
    DatasetValidationError,
    DimensionMismatchError,
    LognormalLaw,
    NormalOnRPlus,
    NormalOnSimplex,
    SeededStream,
    ci_mean_nrp,
    fit_nrp,
    fit_nsd,
    gof_battery,
    sample_nrp,
    sample_nsd,
)
from codanorm.cli import main
from codanorm.grids import (
    coordinate_density_grid,
    histogram_artifact,
    ternary_density_grid,
)
from codanorm.io import (
    SCHEMA_VERSION,
    dumps_report,
    law_to_dict,
    read_grid_artifact,
    read_report,
    read_rplus_csv,
    read_samples_csv,
    read_simplex_csv,
    write_grid_artifact,
    write_report,
    write_samples_csv,
)
from codanorm.simplex import ilr_rows


class TestRPlusReader:
    def test_happy_path(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("flow\n1.5\n2.5\n\n# a comment\n10\n")
        sample, column = read_rplus_csv(p)
        assert column == "flow"
        assert np.allclose(np.exp(sample.logs), [1.5, 2.5, 10.0])

    def test_line_numbered_diagnostics(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("flow\n1.5\noops\n-3\n2.0\n")
        with pytest.raises(DatasetValidationError) as exc:
            read_rplus_csv(p)
        problems = exc.value.problems
        assert any(pb.startswith("line 3:") and "oops" in pb for pb in problems)
        assert any(pb.startswith("line 4:") and "positive" in pb for pb in problems)
        assert len(problems) == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("")
        with pytest.raises(DatasetValidationError):
            read_rplus_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("flow\n")
        with pytest.raises(DatasetValidationError):
            read_rplus_csv(p)


class TestSimplexReader:
    def test_auto_close_tolerates_rounded_rows(self, tmp_path):
        p = tmp_path / "comp.csv"
        # rows off closure by ~1e-7 relative: accepted and re-normalized
        p.write_text("a,b,c\n0.2000001,0.3,0.5\n0.25,0.25,0.5\n")
        sample, columns = read_simplex_csv(p)
        assert columns == ["a", "b", "c"]
        assert np.allclose(sample.rows.sum(axis=1), 1.0, atol=1e-15)

    def test_auto_close_still_rejects_big_misses(self, tmp_path):
        p = tmp_path / "comp.csv"
        p.write_text("a,b,c\n0.3,0.3,0.5\n")
        with pytest.raises(DatasetValidationError) as exc:
            read_simplex_csv(p)
        assert "line 2" in exc.value.problems[0]
        assert "kappa" in exc.value.problems[0]

    def test_no_auto_close_is_strict(self, tmp_path):
        p = tmp_path / "comp.csv"
        p.write_text("a,b,c\n0.2000001,0.2999999,0.5000002\n")
        read_simplex_csv(p)  # fine with the default tolerance
        with pytest.raises(DatasetValidationError):
            read_simplex_csv(p, auto_close=False)

    def test_zero_part_names_column_and_line(self, tmp_path):
        p = tmp_path / "comp.csv"
        p.write_text("a,b,c\n0.5,0.0,0.5\n0.2,0.3,0.5\n")
        with pytest.raises(DatasetValidationError) as exc:
            read_simplex_csv(p)
        msg = exc.value.problems[0]
        assert "line 2" in msg and "b" in msg

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
    def test_kappa_must_be_positive_and_finite(self, tmp_path, kappa):
        p = tmp_path / "comp.csv"
        p.write_text("a,b\n0.5,0.5\n")
        with pytest.raises(DatasetValidationError, match="kappa must be strictly positive"):
            read_simplex_csv(p, kappa=kappa)

    def test_kappa_100(self, tmp_path):
        p = tmp_path / "comp.csv"
        p.write_text("a,b,c\n20,30,50\n10,70,20\n25,25,50\n")
        sample, _ = read_simplex_csv(p, kappa=100.0)
        assert sample.kappa == 100.0
        assert np.allclose(sample.rows.sum(axis=1), 100.0, atol=1e-12)


class TestSamplesRoundTrip:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "draws.csv"
        rows = np.array([[0.1, 0.9], [0.4, 0.6]])
        write_samples_csv(p, {"law_family": "simplex_normal"}, ["p1", "p2"], rows)
        meta, columns, back = read_samples_csv(p)
        assert meta["schema_version"] == SCHEMA_VERSION
        assert meta["law_family"] == "simplex_normal"
        assert columns == ["p1", "p2"]
        assert np.array_equal(back, rows)

    @pytest.mark.parametrize("columns", [["p1"], ["p1", "p2", "p3"]])
    def test_column_count_mismatch_writes_nothing(self, tmp_path, columns):
        p = tmp_path / "draws.csv"
        with pytest.raises(DimensionMismatchError, match=f"{len(columns)} column names for 2"):
            write_samples_csv(p, {}, columns, np.array([[0.1, 0.9], [0.4, 0.6]]))
        assert not p.exists()

    def test_plain_csv_reads_with_empty_meta(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("x\n1.0\n2.0\n")
        meta, columns, rows = read_samples_csv(p)
        assert meta == {}
        assert columns == ["x"]
        assert rows.shape == (2, 1)


class TestReports:
    def test_round_trip_and_version_stamp(self, tmp_path):
        p = tmp_path / "report.json"
        write_report({"command": "fit", "value": 1.25}, p)
        body = read_report(p)
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["tool"] == "codanorm"
        assert body["value"] == 1.25

    def test_rejects_other_versions(self, tmp_path):
        p = tmp_path / "report.json"
        p.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(DatasetValidationError):
            read_report(p)

    def test_law_to_dict_families(self):
        d1 = law_to_dict(NormalOnRPlus(1.0, 2.0))
        d2 = law_to_dict(LognormalLaw(1.0, 2.0))
        assert d1["family"] == d2["family"] == "rplus_normal"
        assert d1["reference_measure"] == "natural"
        assert d2["reference_measure"] == "lebesgue"
        d3 = law_to_dict(NormalOnSimplex([0.0, 0.0], np.eye(2)))
        d4 = law_to_dict(AlnLaw([0.0, 0.0], np.eye(2)))
        assert d3["family"] == d4["family"] == "simplex_normal"
        assert d3["reference_measure"] == "natural"
        assert d4["reference_measure"] == "lebesgue"
        # identical parameters either way: same probability law
        assert d3["mu"] == d4["mu"] and d3["sigma"] == d4["sigma"]


class TestGridArtifactFiles:
    def test_histogram_round_trip(self, tmp_path):
        sample = sample_nrp(NormalOnRPlus(0.5, 1.0), 300, SeededStream(3, 0))
        art = histogram_artifact(sample, "logratio", bins=11)
        files = write_grid_artifact(art, tmp_path / "hist")
        assert [str(tmp_path / "hist.csv"), str(tmp_path / "hist.meta.json")] == files
        meta, payload = read_grid_artifact(tmp_path / "hist")
        assert meta["kind"] == "histogram"
        assert meta["metric"] == "logratio"
        assert payload.shape == (11, 8)
        assert np.allclose(payload[:, 3], art.counts, atol=0)
        assert np.allclose(payload[:, 6], art.nrp_density, atol=0)

    def test_ternary_round_trip(self, tmp_path):
        grid = ternary_density_grid(AlnLaw([0.0, 0.0], np.eye(2)), resolution=40)
        write_grid_artifact(grid, tmp_path / "tern")
        meta, payload = read_grid_artifact(tmp_path / "tern")
        assert meta["kind"] == "ternary_density"
        assert meta["resolution"] == 40
        assert len(meta["maxima"]) == len(grid.maxima)
        dense = grid.matrix()
        assert payload.shape == dense.shape
        both = np.isfinite(dense) & np.isfinite(payload)
        assert np.array_equal(np.isfinite(dense), np.isfinite(payload))
        assert np.allclose(payload[both], dense[both], atol=0)

    def test_coordinate_round_trip(self, tmp_path):
        grid = coordinate_density_grid(
            NormalOnSimplex([0.0, 0.0], np.eye(2)), resolution=15
        )
        write_grid_artifact(grid, tmp_path / "coords")
        meta, payload = read_grid_artifact(tmp_path / "coords")
        assert meta["kind"] == "coordinate_density"
        assert payload.shape == (15, 15)
        assert np.allclose(payload, grid.values, atol=0)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def rplus_csv(tmp_path):
    p = tmp_path / "flow.csv"
    gen = np.random.default_rng(7)
    values = np.exp(gen.normal(1.0, 0.7, size=40))
    p.write_text("flow\n" + "\n".join(repr(float(v)) for v in values) + "\n")
    return p


@pytest.fixture
def simplex_csv(tmp_path):
    p = tmp_path / "parts.csv"
    gen = np.random.default_rng(8)
    raw = np.exp(gen.normal(0.0, 0.8, size=(30, 3)))
    rows = raw / raw.sum(axis=1, keepdims=True)
    lines = ["a,b,c"] + [",".join(repr(float(v)) for v in row) for row in rows]
    p.write_text("\n".join(lines) + "\n")
    return p


class TestCliFit:
    def test_rplus_report(self, capsys, rplus_csv):
        code, out, err = run_cli(capsys, "fit", "--input", str(rplus_csv),
                                 "--space", "rplus", "--alpha", "0.10")
        assert code == 0, err
        body = json.loads(out)
        assert body["space"] == "rplus"
        assert body["n"] == 40
        assert body["law"]["family"] == "rplus_normal"
        # the geometric mean is the fitted native mean
        assert body["geometric_mean"] == pytest.approx(
            math.exp(body["law"]["mu"]), rel=1e-12
        )
        assert body["ci_mean"]["lower"] < body["geometric_mean"] < body["ci_mean"]["upper"]
        assert body["lognormal_baseline"]["naive_mean"] > body["geometric_mean"]

    @pytest.mark.parametrize("alpha", ["1e-17", "1e-300"])
    def test_rplus_report_at_tiny_alpha(self, capsys, tmp_path, alpha):
        p = tmp_path / "flow.csv"
        values = np.exp(np.random.default_rng(7).normal(1.0, 0.7, size=300))
        p.write_text("flow\n" + "\n".join(repr(float(v)) for v in values) + "\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(p), "--space", "rplus",
                                 "--alpha", alpha)
        assert code == 0, err
        body = json.loads(out)
        assert body["ci_mean"]["lower"] < body["geometric_mean"] < body["ci_mean"]["upper"]

    def test_rplus_interval_past_the_float_range_exits_3(self, capsys, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text("x\n1.0\n2.0\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(p), "--space", "rplus",
                                 "--alpha", "1e-309")
        assert code == 3 and out == ""
        assert "alpha" in err and "n=2" in err

    @pytest.mark.parametrize("n", [2, 4])
    def test_rplus_alpha_whose_half_rounds_to_zero_exits_3(self, capsys, tmp_path, n):
        # alpha / 2 = 0.0: the t quantile is -inf, not a ZeroDivisionError or a math
        # domain error with exit 1
        p, report = tmp_path / "few.csv", tmp_path / "report.json"
        p.write_text("x\n" + "\n".join(repr(v) for v in [1.0, 2.0, 3.5, 0.7][:n]) + "\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(p), "--space", "rplus",
                                 "--alpha", "5e-324", "-o", str(report))
        assert code == 3 and out == "" and not report.exists()
        assert "numerical failure" in err and f"n={n}" in err

    def test_simplex_report_with_gof(self, capsys, simplex_csv):
        code, out, err = run_cli(capsys, "fit", "--input", str(simplex_csv),
                                 "--space", "simplex")
        assert code == 0, err
        body = json.loads(out)
        assert body["space"] == "simplex"
        assert len(body["gof"]["entries"]) == 12
        assert body["moments"]["metric_variance"] > 0
        assert len(body["aln_classical_mean"]) == 3
        assert sum(body["aln_classical_mean"]) == pytest.approx(1.0, abs=1e-6)

    def test_emit_coords(self, capsys, simplex_csv):
        code, out, err = run_cli(capsys, "fit", "--input", str(simplex_csv), "--space", "simplex",
                                 "--no-gof", "--emit-coords")
        assert code == 0, err
        body = json.loads(out)
        sample, _ = read_simplex_csv(simplex_csv)
        assert np.array_equal(body["coords"], sample.coords)
        assert np.allclose(body["coords"], ilr_rows(sample.rows), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 7])
    def test_gof_is_skipped_below_eight_rows(self, capsys, tmp_path, n):
        p = tmp_path / "few.csv"
        raw = np.exp(np.random.default_rng(5).normal(0.0, 1.0, size=(n, 3)))
        rows = raw / raw.sum(axis=1, keepdims=True)
        p.write_text("a,b,c\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
        code, out, err = run_cli(capsys, "fit", "--input", str(p), "--space", "simplex")
        assert code == 0, err
        assert json.loads(out)["gof"] == {"skipped": f"needs at least 8 rows, file has {n}"}

    def test_constant_column_exits_2(self, capsys, tmp_path):
        p = tmp_path / "const.csv"
        p.write_text("x\n5.0\n5.0\n5.0\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(p), "--space", "rplus")
        assert code == 2
        assert "identical" in err.lower()

    def test_zero_part_exits_2_naming_line(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n0.5,0.0,0.5\n0.2,0.3,0.5\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(p), "--space", "simplex")
        assert code == 2
        assert "line 2" in err and "b" in err

    def test_repeated_rows_exit_3(self, capsys, tmp_path):
        p = tmp_path / "flat.csv"
        p.write_text("a,b,c\n" + "0.2,0.3,0.5\n" * 10)
        code, out, err = run_cli(capsys, "fit", "--input", str(p), "--space", "simplex")
        assert code == 3
        assert "singular" in err.lower()

    def test_eight_part_fit_too_wide_for_the_quadrature_exits_0(self, capsys, tmp_path):
        # the coordinate covariance is about 6 I: too wide for the classical
        # mean's node budget, so that mean is null with its reason
        p = tmp_path / "wide.csv"
        raw = np.exp(np.random.default_rng(88).normal(0.0, 2.5, size=(200, 8)))
        rows = raw / raw.sum(axis=1, keepdims=True)
        lines = ["a,b,c,d,e,f,g,h"] + [",".join(repr(float(v)) for v in row) for row in rows]
        p.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(p), "--space", "simplex",
                                 "--no-gof")
        assert code == 0, err
        body = _strict_json(out)
        assert body["aln_classical_mean"] is None
        assert body["null_reason"].startswith("aln_classical_mean: ")
        assert len(body["moments"]["center"]) == 8

    def test_two_part_fit_spanning_1e_300_has_a_classical_mean(self, capsys, tmp_path):
        # the fitted law (mu = -219, sigma2 = 26,832) ran the sparse grid's 150 levels for a
        # null; at D = 2 the mean is one adaptive Gauss-Legendre estimate per part
        p = tmp_path / "two.csv"
        first = np.logspace(-300.0, math.log10(0.5), 10).tolist()
        p.write_text("a,b\n" + "".join(f"{x!r},{1.0 - x!r}\n" for x in first))
        code, out, err = run_cli(capsys, "fit", "--input", str(p), "--space", "simplex")
        assert code == 0, err
        mean = _strict_json(out)["aln_classical_mean"]
        assert mean is not None and abs(sum(mean) - 1.0) <= 1e-15, mean

    def test_report_to_file(self, capsys, rplus_csv, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "fit", "--input", str(rplus_csv),
                               "--space", "rplus", "-o", str(out_path))
        assert code == 0
        assert out.strip() == str(out_path)
        assert read_report(out_path)["command"] == "fit"


# --mu= and --sigma2= texts: finite numbers, the ends of the float range, and
# words that are no number at all
_number_texts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e308", "-1e308", "nan", "-nan", "inf", "abc", "", "1,2", "0x1p3"]),
    st.text(max_size=8),
)


class TestCliSample:
    def test_same_law_same_bytes_on_the_line(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for law, path in (("nrp", a), ("lognormal", b)):
            code, _, err = run_cli(capsys, "sample", "--law", law, "--mu", "0.5",
                                   "--sigma2", "1.2", "-n", "64", "--seed", "7",
                                   "-o", str(path))
            assert code == 0, err
        assert a.read_bytes() == b.read_bytes()

    def test_same_law_same_bytes_on_the_simplex(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for law, path in (("nsd", a), ("aln", b)):
            code, _, err = run_cli(capsys, "sample", "--law", law,
                                   "--mu", "0.2,-0.1", "--sigma", "1,0.3,0.3,0.8",
                                   "-n", "32", "--seed", "11", "-o", str(path))
            assert code == 0, err
        assert a.read_bytes() == b.read_bytes()

    def test_identical_seed_identical_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "sample", "--law", "nrp", "--mu", "0", "--sigma2", "1",
                    "-n", "100", "--seed", "3", "-o", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_default(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("CODANORM_SEED", "42")
        run_cli(capsys, "sample", "--law", "nrp", "--mu", "0", "--sigma2", "1",
                "-n", "50", "-o", str(a))
        monkeypatch.delenv("CODANORM_SEED")
        run_cli(capsys, "sample", "--law", "nrp", "--mu", "0", "--sigma2", "1",
                "-n", "50", "--seed", "42", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_seed_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CODANORM_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "sample", "--law", "nrp", "--mu", "0",
                               "--sigma2", "1", "-n", "10",
                               "-o", str(tmp_path / "x.csv"))
        assert code == 2
        assert "CODANORM_SEED" in err

    def test_sample_fit_round_trip(self, capsys, tmp_path):
        path = tmp_path / "draws.csv"
        run_cli(capsys, "sample", "--law", "nrp", "--mu", "1.5", "--sigma2", "0.49",
                "-n", "10000", "--seed", "19", "-o", str(path))
        code, out, _ = run_cli(capsys, "fit", "--input", str(path), "--space", "rplus")
        assert code == 0
        body = json.loads(out)
        assert abs(body["law"]["mu"] - 1.5) < 3 * math.sqrt(0.49 / 10000)
        meta, _, _ = read_samples_csv(path)
        assert meta["law_family"] == "rplus_normal"
        assert meta["seed"] == 19

    @pytest.mark.parametrize("mu", ["abc", "0.5,1", ""])
    def test_bad_mu_on_the_line_exits_2(self, capsys, tmp_path, mu):
        code, _, err = run_cli(capsys, "sample", "--law", "nrp", f"--mu={mu}", "--sigma2", "1",
                               "-n", "5", "-o", str(tmp_path / "x.csv"))
        assert code == 2
        assert "--mu" in err

    @pytest.mark.parametrize("mu, sigma2", [("1e308", "1e300"), ("-1e308", "1"), ("0", "1e6")])
    def test_draws_past_the_float_range_exit_3_and_write_nothing(self, capsys, tmp_path,
                                                                 mu, sigma2):
        path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sample", "--law", "lognormal", f"--mu={mu}",
                                 f"--sigma2={sigma2}", "-n", "50", "-o", str(path))
        assert code == 3 and out == ""
        assert "draws lie outside the float range" in err
        assert not path.exists()

    @pytest.mark.parametrize("law", ["nsd", "aln"])
    @pytest.mark.parametrize("mu", ["800,0", "1e308,1e308"])
    def test_simplex_draws_past_the_float_range_exit_3_and_write_nothing(
        self, capsys, tmp_path, law, mu
    ):
        # a part of e^-1131 reads as 0.0, an overflowing clr as NaN
        path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sample", "--law", law, f"--mu={mu}",
                                 "--sigma", "0.1,0,0,0.1", "-n", "50", "-o", str(path))
        assert code == 3 and out == ""
        assert "50 of 50 draws lie outside the float range" in err
        assert not path.exists()

    @given(
        law=st.sampled_from(["nrp", "lognormal"]),
        mu=_number_texts,
        sigma2=_number_texts,
    )
    @settings(max_examples=150, deadline=None)
    def test_exit_contract_and_readable_output(self, law, mu, sigma2):
        # hypothesis refuses function-scoped fixtures, hence no tmp_path
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.csv")
            try:
                code = main(["sample", "--law", law, f"--mu={mu}", f"--sigma2={sigma2}",
                             "-n", "5", "-o", path])
            except SystemExit as exc:  # argparse rejected the flag itself
                code = exc.code
            assert code in (0, 2, 3)
            if code == 0:
                sample, _ = read_rplus_csv(path)
                assert sample.n == 5
            else:
                assert not os.path.exists(path)

    # a value or part below the smallest normal float keeps few digits: the
    # simplex file at kappa=1e-320 would fail its own `fit --kappa 1e-320`
    @pytest.mark.parametrize("argv", [
        ["--law", "nrp", "--mu=-742", "--sigma2", "1e-4"],
        ["--law", "lognormal", "--mu=-720", "--sigma2", "1e-4"],
        ["--law", "nsd", "--mu", "0,0", "--sigma", "1,0,0,1", "--kappa=1e-320"],
        ["--law", "aln", "--mu", "0,0", "--sigma", "1,0,0,1", "--kappa=1e-310"],
    ])
    def test_subnormal_draws_exit_3_and_write_nothing(self, capsys, tmp_path, argv):
        path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sample", *argv, "-n", "50", "-o", str(path))
        assert code == 3 and out == ""
        assert "50 of 50 draws lie outside the float range" in err
        assert not path.exists()

    def test_draws_at_a_small_normal_kappa_refit(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "sample", "--law", "nsd", "--mu", "0,0", "--sigma",
                               "1,0,0,1", "--kappa=1e-300", "-n", "20", "-o", str(path))
        assert code == 0, err
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--space", "simplex",
                                 "--kappa=1e-300", "--no-auto-close")
        assert code == 0, err
        assert json.loads(out)["n"] == 20

    def test_missing_sigma2_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sample", "--law", "nrp", "--mu", "0",
                               "-n", "10", "-o", str(tmp_path / "x.csv"))
        assert code == 2
        assert "sigma2" in err


# input checks of the CLI that exit 2: the arguments ({two}: a 2-column file, {one}:
# a 1-column file, {out}: an output path) and the stderr line that names the problem
_EXIT_2 = {
    "fit rplus on 2 columns": (["fit", "--space", "rplus", "--input", "{two}"],
                               "expected exactly one column, header has 2"),
    "fit simplex on 1 column": (["fit", "--space", "simplex", "--input", "{one}"],
                                "a compositional file needs at least 2 columns, header has 1"),
    "fit simplex at kappa 0": (["fit", "--space", "simplex", "--input", "{two}", "--kappa", "0"],
                               "kappa must be strictly positive, got 0.0"),
    "sample nsd without sigma": (["sample", "--law", "nsd", "--mu", "0,0", "-n", "5",
                                  "-o", "{out}"], "--sigma is required for simplex laws"),
    "sample aln with 3 sigma entries": (["sample", "--law", "aln", "--mu", "0,0", "--sigma",
                                         "1,0,1", "-n", "5", "-o", "{out}"],
                                        "--sigma must have 4 row-major entries for dimension 2, "
                                        "got 3"),
    "density-grid with 9 sigma entries": (["density-grid", "--law", "nsd", "--mu", "0,0",
                                           "--sigma", "1,0,0,0,1,0,0,0,1", "-o", "{out}"],
                                          "--sigma must have 4 row-major entries for dimension "
                                          "2, got 9"),
    # every part at least ceil(0.3 * 4) = 2 steps of 4 leaves no lattice point
    "density-grid with an empty lattice": (["density-grid", "--law", "nsd", "--mu", "0,0",
                                            "--sigma", "1,0,0,1", "--resolution", "4",
                                            "--margin", "0.3", "-o", "{out}"],
                                           "no lattice point at resolution 4 has every part "
                                           ">= margin 0.3"),
}


@pytest.mark.parametrize("case", sorted(_EXIT_2))
def test_cli_input_checks_exit_2(capsys, tmp_path, case):
    argv, message = _EXIT_2[case]
    (tmp_path / "two.csv").write_text("a,b\n0.5,0.5\n0.4,0.6\n")
    (tmp_path / "one.csv").write_text("x\n1.0\n2.0\n")
    paths = {"two": tmp_path / "two.csv", "one": tmp_path / "one.csv", "out": tmp_path / "o"}
    code, out, err = run_cli(capsys, *[a.format(**paths) for a in argv])
    assert code == 2 and out == ""
    assert any(line.endswith(message) for line in err.splitlines()), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv", "two.csv"]


class TestCliHistAndGrid:
    def test_hist_writes_artifact(self, capsys, rplus_csv, tmp_path):
        prefix = tmp_path / "arte"
        code, out, err = run_cli(capsys, "hist", "--input", str(rplus_csv),
                                 "--metric", "logratio", "--bins", "9",
                                 "-o", str(prefix))
        assert code == 0, err
        body = json.loads(out)
        assert body["counts_sum"] == 40
        meta, payload = read_grid_artifact(prefix)
        assert meta["kind"] == "histogram"
        assert payload.shape == (9, 8)

    @pytest.mark.parametrize("values, metric", [
        ("1e-200,1,1e200", "logratio"),
        ("1e-320,1e-310,1e-300", "logratio"),
        # geomspace's last power rounds past the largest float before it is pinned
        ("1e300,1e308,1.7976931348623157e308", "logratio"),
        # the Euclidean midpoints of values near the largest float
        ("1e308,1.7e308,1.2e308", "euclidean"),
    ])
    def test_hist_on_values_spanning_the_float_range(self, capsys, tmp_path, values, metric):
        p = tmp_path / "extreme.csv"
        p.write_text("x\n" + values.replace(",", "\n") + "\n")
        prefix = tmp_path / "arte"
        code, out, err = run_cli(capsys, "hist", "--input", str(p), "--metric", metric,
                                 "--bins", "6", "-o", str(prefix))
        assert code == 0, err
        body = _strict_json(out)
        assert body["counts_sum"] == body["n"] == 3
        _, payload = read_grid_artifact(prefix)
        lo, hi, mid, nrp_density = payload[:, 0], payload[:, 1], payload[:, 2], payload[:, 6]
        assert np.all((lo <= mid) & (mid <= hi) & (mid > 0.0) & np.isfinite(mid))
        assert np.all(np.isfinite(nrp_density))

    @pytest.mark.parametrize("values, metric", [
        ("1.0,1.0000000000000002", "euclidean"),
        ("5e-324,1e-323,1.5e-323", "euclidean"),
        ("5e-324,1e-323,1.5e-323", "logratio"),
    ])
    def test_hist_on_a_range_too_narrow_for_the_bins_exits_2(self, capsys, tmp_path,
                                                              values, metric):
        p = tmp_path / "narrow.csv"
        p.write_text("x\n" + values.replace(",", "\n") + "\n")
        code, out, err = run_cli(capsys, "hist", "--input", str(p), "--metric", metric,
                                 "-o", str(tmp_path / "arte"))
        assert code == 2 and out == ""
        assert "too narrow a range for 20 bins" in err
        assert not list(tmp_path.glob("arte*"))

    def test_density_grid_reports_trimodality(self, capsys, tmp_path):
        prefix = tmp_path / "tern"
        code, out, err = run_cli(capsys, "density-grid", "--law", "aln",
                                 "--mu", "0,0", "--sigma", "1,0,0,1",
                                 "--resolution", "150", "-o", str(prefix))
        assert code == 0, err
        body = json.loads(out)
        assert body["n_maxima"] == 3
        meta, payload = read_grid_artifact(prefix)
        assert meta["kind"] == "ternary_density"
        assert payload.shape == (151, 151)

    def test_density_grid_of_a_narrow_law_has_one_maximum(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "density-grid", "--law", "nsd",
                                 "--mu", "0,0", "--sigma", "0.01,0,0,0.01",
                                 "--resolution", "400", "-o", str(tmp_path / "narrow"))
        assert code == 0, err
        assert json.loads(out)["n_maxima"] == 1

    def test_density_grid_non_spd_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "density-grid", "--law", "nsd",
                               "--mu", "0,0", "--sigma", "1,2,2,1",
                               "-o", str(tmp_path / "x"))
        assert code == 2
        assert "positive definite" in err or "SPD" in err or "factoriz" in err

    def test_coords_grid(self, capsys, tmp_path):
        prefix = tmp_path / "coords"
        code, out, err = run_cli(capsys, "density-grid", "--law", "nsd",
                                 "--mu", "0.5,-0.5", "--sigma", "1,0,0,1",
                                 "--grid-space", "coords", "--resolution", "21",
                                 "-o", str(prefix))
        assert code == 0, err
        meta, payload = read_grid_artifact(prefix)
        assert meta["kind"] == "coordinate_density"
        assert payload.shape == (21, 21)


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        # the installed console script is the same main()
        result = subprocess.run(
            [sys.executable, "-m", "codanorm.cli", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "codanorm" in result.stdout


# the two calls that read scipy.special, the t interval and the GOF battery,
# with their results bit for bit
_SCIPY_SPECIAL_RESULTS = """
from codanorm import (NormalOnRPlus, NormalOnSimplex, SeededStream, ci_mean_nrp, fit_nsd,
                      gof_battery, sample_nrp, sample_nsd)

def results():
    rp = sample_nrp(NormalOnRPlus(0.5, 0.8), 50, SeededStream(7, 0))
    sigma = [[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 0.7]]
    sd = sample_nsd(NormalOnSimplex([0.3, -0.2, 0.1], sigma), 60, SeededStream(7, 1))
    lo, hi = ci_mean_nrp(rp, 0.05)
    report = gof_battery(sd, fit_nsd(sd))
    return [lo.log.hex(), hi.log.hex()] + [e.statistic.hex() for e in report.entries]
"""


class TestImportPath:
    def test_cli_path_leaves_scipy_stats_unloaded(self):
        # scipy.special takes about 0.3 s to import and scipy.stats about a
        # second; both load on first use, so a CLI job that runs no GOF
        # battery and no t interval pays for no scipy module at all
        code = ("import sys, codanorm, codanorm.cli, codanorm.io, codanorm.datasets; "
                "print([m for m in sys.modules if m.startswith('scipy')])")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_loads_no_scipy_fft_or_random_module(self):
        # every workload's setup pays for what `import codanorm` loads; with
        # PYTHONDONTWRITEBYTECODE set, a fresh interpreter also compiles each of
        # its modules from source, which is why the box integrator loads on first use
        code = ("import sys, codanorm; print([m for m in sys.modules "
                "if m.split('.')[0] == 'scipy' or m == 'codanorm._box' "
                "or m.startswith(('numpy.fft', 'numpy.random'))])")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_box_probabilities_load_no_scipy_module(self):
        code = ("import sys\n"
                "import numpy as np\n"
                "from codanorm import NormalOnSimplex, probability_of_box\n"
                "ps = [probability_of_box(NormalOnSimplex(np.zeros(d), np.eye(d) + 0.3),\n"
                "                         -np.ones(d), np.ones(d)) for d in (2, 3, 4)]\n"
                "print(all(0.0 < p < 1.0 for p in ps), "
                "[m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "True []"

    def test_first_call_in_a_fresh_interpreter_equals_later_calls(self):
        code = _SCIPY_SPECIAL_RESULTS + (
            "import json, sys\n"
            "loaded = 'scipy.special' in sys.modules\n"
            "print(json.dumps([loaded, results(), results()]))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        loaded, first, second = json.loads(result.stdout)
        assert not loaded
        scope = {}
        exec(_SCIPY_SPECIAL_RESULTS, scope)
        assert first == second == scope["results"]()

    def test_fit_jobs_on_both_spaces_load_no_scipy_module(self, rplus_csv, simplex_csv):
        # the simplex fit runs the GOF battery (30 rows), the rplus fit the t interval
        code = (
            "import sys\n"
            "from codanorm.cli import main\n"
            f"codes = [main(['fit', '--space', 'simplex', '--input', {str(simplex_csv)!r}]),\n"
            f"         main(['fit', '--space', 'rplus', '--input', {str(rplus_csv)!r}])]\n"
            "print(codes, [m for m in sys.modules if m.startswith('scipy')])\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert '"gof": {' in result.stdout and '"ci_mean": {' in result.stdout
        assert result.stdout.strip().splitlines()[-1] == "[0, 0] []"


_LINE_LAW = (0.4, 0.8)
_SIMPLEX_LAW = ([0.3, -0.2], [[1.0, 0.2], [0.2, 0.5]])


def _numbers_as_hex(body):
    """Every float of a parsed report as its exact bits, everything else as it is."""
    if isinstance(body, dict):
        return {k: _numbers_as_hex(v) for k, v in body.items()}
    if isinstance(body, list):
        return [_numbers_as_hex(v) for v in body]
    return body.hex() if isinstance(body, float) else body


class TestCliRoundTrip:
    """What the CLI writes reads back through its own readers to the numbers it
    computed: draws refit to the in-memory draws' coordinates and fit, and a
    report file holds the printed report bit for bit."""

    @pytest.mark.parametrize("law", ["nrp", "lognormal"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_sample_then_fit_on_the_line(self, capsys, tmp_path, law, seed):
        path = tmp_path / "draws.csv"
        mu, sigma2 = _LINE_LAW
        code, _, err = run_cli(capsys, "sample", "--law", law, "--mu", repr(mu), "--sigma2",
                               repr(sigma2), "-n", "300", "--seed", str(seed), "-o", str(path))
        assert code == 0, err
        code, out, err = run_cli(capsys, "fit", "--space", "rplus", "--input", str(path),
                                 "--alpha", "0.01")
        assert code == 0, err
        body = json.loads(out)
        drawn = sample_nrp(NormalOnRPlus(mu, sigma2), 300, SeededStream(seed, 0))
        assert read_rplus_csv(path)[0].logs == pytest.approx(drawn.logs, rel=0, abs=1e-12)
        fitted = fit_nrp(drawn)
        lo, hi = ci_mean_nrp(drawn, 0.01)
        assert [body["law"]["mu"], body["law"]["sigma2"]] == pytest.approx(
            [fitted.mu, fitted.sigma2], rel=1e-12, abs=1e-12)
        assert [body["ci_mean"]["lower"], body["ci_mean"]["upper"]] == pytest.approx(
            [lo.value, hi.value], rel=1e-12)

    @pytest.mark.parametrize("law", ["nsd", "aln"])
    @pytest.mark.parametrize("kappa", ["1", "1e-300"])
    def test_sample_then_fit_on_the_simplex(self, capsys, tmp_path, law, kappa):
        path = tmp_path / "draws.csv"
        mu, sigma = _SIMPLEX_LAW
        code, _, err = run_cli(capsys, "sample", "--law", law, "--mu", "0.3,-0.2",
                               "--sigma", "1,0.2,0.2,0.5", "--kappa", kappa, "-n", "300",
                               "--seed", "9", "-o", str(path))
        assert code == 0, err
        code, out, err = run_cli(capsys, "fit", "--space", "simplex", "--kappa", kappa,
                                 "--input", str(path), "--emit-coords")
        assert code == 0, err
        body = json.loads(out)
        drawn = sample_nsd(NormalOnSimplex(mu, sigma), 300, SeededStream(9, 0), kappa=float(kappa))
        # parts near 1e-300 carry logs near -690, whose last bit is 1.1e-13
        assert np.array(body["coords"]) == pytest.approx(drawn.coords, rel=0, abs=1e-12)
        fitted = fit_nsd(drawn)
        assert np.array(body["law"]["mu"]) == pytest.approx(fitted.mu, rel=0, abs=1e-12)
        assert np.array(body["law"]["sigma"]) == pytest.approx(fitted.sigma, rel=0, abs=1e-12)
        # the battery on coordinates 1e-13 apart: its logs near u = 0 and 1 amplify that
        assert [e["statistic"] for e in body["gof"]["entries"]] == pytest.approx(
            [e.statistic for e in gof_battery(drawn, fitted)], rel=1e-10)

    @pytest.mark.parametrize("space", ["rplus", "simplex"])
    def test_report_file_reads_back_bit_for_bit(self, capsys, tmp_path, rplus_csv, simplex_csv,
                                                space):
        data = rplus_csv if space == "rplus" else simplex_csv
        code, printed, err = run_cli(capsys, "fit", "--space", space, "--input", str(data))
        assert code == 0, err
        path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "fit", "--space", space, "--input", str(data),
                               "-o", str(path))
        assert code == 0, err
        body = read_report(path)
        assert _numbers_as_hex(body) == _numbers_as_hex(json.loads(printed))
        if space == "rplus":
            sample, _ = read_rplus_csv(data)
            law = fit_nrp(sample)
            lo, hi = ci_mean_nrp(sample, 0.05)
            computed = [law.mu, law.sigma2, lo.value, hi.value]
            read = [body["law"]["mu"], body["law"]["sigma2"], body["ci_mean"]["lower"],
                    body["ci_mean"]["upper"]]
        else:
            sample, _ = read_simplex_csv(data)
            law = fit_nsd(sample)
            computed = [*law.mu, *law.sigma.ravel(), *(e.statistic for e in gof_battery(sample, law))]
            read = [*body["law"]["mu"], *np.ravel(body["law"]["sigma"]),
                    *(e["statistic"] for e in body["gof"]["entries"])]
        assert [float(v).hex() for v in read] == [float(v).hex() for v in computed]

    @pytest.mark.parametrize("law_name", ["nsd", "aln"])
    def test_ternary_grid_reads_back_bit_for_bit(self, capsys, tmp_path, law_name):
        prefix = tmp_path / "tern"
        mu, sigma = _SIMPLEX_LAW
        code, _, err = run_cli(capsys, "density-grid", "--law", law_name, "--mu", "0.3,-0.2",
                               "--sigma", "1,0.2,0.2,0.5", "--resolution", "150",
                               "-o", str(prefix))
        assert code == 0, err
        law = (AlnLaw if law_name == "aln" else NormalOnSimplex)(mu, sigma)
        grid = ternary_density_grid(law, resolution=150)
        meta, payload = read_grid_artifact(prefix)
        assert_same_bits(payload, grid.matrix())
        assert meta["maxima"] == [{"parts": c.parts.tolist(), "density": v}
                                  for c, v in grid.maxima]

    def test_coordinate_grid_reads_back_bit_for_bit(self, capsys, tmp_path):
        prefix = tmp_path / "coords"
        mu, sigma = _SIMPLEX_LAW
        code, _, err = run_cli(capsys, "density-grid", "--law", "nsd", "--mu", "0.3,-0.2",
                               "--sigma", "1,0.2,0.2,0.5", "--grid-space", "coords",
                               "--resolution", "31", "-o", str(prefix))
        assert code == 0, err
        grid = coordinate_density_grid(NormalOnSimplex(mu, sigma), resolution=31)
        meta, payload = read_grid_artifact(prefix)
        assert_same_bits(payload, grid.values)
        assert meta["x_axis"] == grid.x_axis.tolist() and meta["y_axis"] == grid.y_axis.tolist()

    @pytest.mark.parametrize("metric", ["euclidean", "logratio"])
    def test_histogram_reads_back_bit_for_bit(self, capsys, tmp_path, rplus_csv, metric):
        prefix = tmp_path / "hist"
        code, _, err = run_cli(capsys, "hist", "--input", str(rplus_csv), "--metric", metric,
                               "--bins", "9", "-o", str(prefix))
        assert code == 0, err
        art = histogram_artifact(read_rplus_csv(rplus_csv)[0], metric, bins=9)
        meta, payload = read_grid_artifact(prefix)
        assert_same_bits(payload, np.column_stack([
            art.edges[:-1], art.edges[1:], art.midpoints, art.counts, art.bin_measure,
            art.empirical_density, art.nrp_density, art.lognormal_density,
        ]))
        assert meta["metric"] == metric and meta["n"] == art.n


def assert_same_bits(read, computed):
    """Equal shapes and floats bit for bit, NaN (off the lattice) in the same cells."""
    assert read.shape == computed.shape
    assert read.tobytes() == np.asarray(computed, dtype=float).tobytes()


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    def test_dumps_report_refuses_non_finite_numbers(self):
        from codanorm import NumericalError

        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NumericalError):
                dumps_report({"value": bad})

    def test_non_finite_report_value_exits_3(self, capsys, rplus_csv, monkeypatch):
        import codanorm.cli

        monkeypatch.setattr(codanorm.cli, "naive_lognormal_mean", lambda sample: math.nan)
        code, out, err = run_cli(capsys, "fit", "--input", str(rplus_csv), "--space", "rplus")
        assert code == 3
        assert out == ""
        assert "numerical failure" in err and "non-finite" in err

    def test_non_finite_report_value_writes_no_report_file(self, capsys, rplus_csv,
                                                           monkeypatch, tmp_path):
        import codanorm.cli

        monkeypatch.setattr(codanorm.cli, "naive_lognormal_mean", lambda sample: math.nan)
        path = tmp_path / "rep.json"
        code, out, err = run_cli(capsys, "fit", "--input", str(rplus_csv), "--space", "rplus",
                                 "-o", str(path))
        assert code == 3 and out == ""
        assert "non-finite" in err
        assert not path.exists()

    def test_non_finite_grid_density_exits_3_and_writes_nothing(self, capsys, tmp_path):
        # the centre's density passes the largest float, so the sidecar cannot be JSON
        code, out, err = run_cli(capsys, "density-grid", "--law", "nsd", "--mu", "0,0",
                                 "--sigma", "1e-310,0,0,1e-310", "--resolution", "6",
                                 "-o", str(tmp_path / "g"))
        assert code == 3 and out == ""
        assert "non-finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("write", [
        lambda path: write_report({"value": math.nan}, path),
        lambda path: write_samples_csv(path, {"mu": math.inf}, ["x"], [1.0]),
        lambda path: write_grid_artifact(
            ternary_density_grid(NormalOnSimplex([0.0, 0.0], 1e-310 * np.eye(2)), resolution=6),
            path),
    ], ids=["report", "samples", "grid"])
    def test_writers_refuse_non_finite_json_and_write_nothing(self, tmp_path, write):
        from codanorm import NumericalError

        with pytest.raises(NumericalError, match="non-finite"):
            write(tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    def test_every_json_document_the_cli_writes_is_strict(self, capsys, rplus_csv,
                                                         simplex_csv, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        jobs = [
            ["fit", "--input", str(rplus_csv), "--space", "rplus"],
            ["fit", "--input", str(simplex_csv), "--space", "simplex"],
            ["fit", "--input", str(rplus_csv), "--space", "rplus", "-o", str(out_dir / "r.json")],
            ["fit", "--input", str(simplex_csv), "--space", "simplex",
             "-o", str(out_dir / "s.json")],
            ["sample", "--law", "aln", "--mu", "0.2,-0.1", "--sigma", "1,0.3,0.3,0.8",
             "-n", "5", "-o", str(out_dir / "d.csv")],
            ["hist", "--input", str(rplus_csv), "--metric", "logratio", "-o", str(out_dir / "h")],
            ["density-grid", "--law", "aln", "--mu", "0,0", "--sigma", "1,0,0,1",
             "--resolution", "20", "-o", str(out_dir / "t")],
            ["density-grid", "--law", "nsd", "--mu", "0,0", "--sigma", "1,0,0,1",
             "--grid-space", "coords", "--resolution", "5", "-o", str(out_dir / "c")],
        ]
        for argv in jobs:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            if argv[0] == "sample" or argv[0] == "fit" and "-o" in argv:
                assert out.strip() == argv[-1]  # the path written
            else:
                _strict_json(out)
        files = sorted(p.name for p in out_dir.glob("*.json"))
        assert files == ["c.meta.json", "h.meta.json", "r.json", "s.json", "t.meta.json"]
        for name in files:
            _strict_json((out_dir / name).read_text())
        header = (out_dir / "d.csv").read_text().split("\n")[0]
        assert header.startswith("# codanorm-samples ")
        assert _strict_json(header.removeprefix("# codanorm-samples "))["law_family"]

    def test_extreme_rplus_fit_writes_overflow_as_null(self, capsys, tmp_path):
        p = tmp_path / "extreme.csv"
        p.write_text("value\n1e150\n1e-150\n1e100\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(p), "--space", "rplus")
        assert code == 0, err
        body = _strict_json(out)
        mu = body["law"]["mu"]
        # natural-geometry moments are finite and unchanged
        assert body["moments"]["mean"] == math.exp(mu) == body["geometric_mean"]
        baseline = body["lognormal_baseline"]
        assert baseline["moments"]["mean"] is None and baseline["moments"]["variance"] is None
        assert baseline["moments"]["median"] == math.exp(mu)
        assert "mean" in baseline["moments"]["null_reason"]
        assert baseline["naive_mean"] is None and "naive_mean" in baseline["null_reason"]
        naive = baseline["naive_interval_1sd"]
        assert naive["lower"] is None and naive["upper"] is None and naive["null_reason"]
        assert body["ci_mean"]["upper"] is None and body["ci_mean"]["null_reason"]


# the documented rules that may refuse valid rows, by subcommand and exit code
_DOCUMENTED_REFUSALS = {
    "fit": {2: ("need at least", "all observations are identical"),
            3: ("covariance is singular", "t interval past the float range")},
    "hist": {2: ("need at least", "all observations are identical", "too narrow a range")},
    "sample": {3: ("draws lie outside the float range",)},
    "density-grid": {3: ("non-finite",)},  # a density past the largest float in the sidecar
}


def _significand_and_exponent(draw, lowest, highest):
    return draw(st.floats(1.0, 9.99)) * 10.0 ** draw(st.integers(lowest, highest))


@st.composite
def positive_columns(draw):
    """One column of values from 1e-300 to 1e300: spread, constant, or a single row."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return [_significand_and_exponent(draw, -300, 299)] * n
    return [_significand_and_exponent(draw, -300, 299) for _ in range(n)]


@st.composite
def part_tables(draw):
    """D-part rows with parts down to 1e-300 of their total, each row's sum within
    1e-7 of 1 (re-closed by the reader): spread, all rows equal, or a single row."""
    d_parts, n = draw(st.integers(2, 4)), draw(st.integers(1, 12))

    def row():
        raw = np.array([_significand_and_exponent(draw, -300, 0) for _ in range(d_parts)])
        return raw / raw.sum() * (1.0 + draw(st.floats(-1e-7, 1e-7)))

    if draw(st.booleans()):
        return [row()] * n
    return [row() for _ in range(n)]


def _write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in np.atleast_1d(r)) for r in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fuzz_job(tmp, *argv):
    """Run one job in-process and hold it to the exit contract: exit 0, or 2 or 3 by a
    documented rule with no file left behind; every JSON document printed or written
    is strict.  Returns the exit code and stdout."""
    before = set(os.listdir(tmp))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if code != 0:
        rules = _DOCUMENTED_REFUSALS[argv[0]].get(code, ())
        assert any(rule in err.getvalue() for rule in rules), (argv, code, err.getvalue())
        assert set(os.listdir(tmp)) == before
        return code, ""
    printed = out.getvalue().strip()
    if printed != argv[-1]:  # a job with -o prints the path written
        _strict_json(printed)
    for name in set(os.listdir(tmp)) - before:
        with open(os.path.join(tmp, name)) as fh:
            text = fh.read()
        if name.endswith(".json"):
            _strict_json(text)
        elif text.startswith("# codanorm-samples "):
            _strict_json(text.split("\n")[0].removeprefix("# codanorm-samples "))
    return code, printed


def _joined(values):
    return ",".join(repr(float(v)) for v in np.ravel(values))


class TestCliFuzz:
    """Every subcommand on extreme but valid CSV files, and on the laws fitted to them."""

    @given(positive_columns(), st.sampled_from(["euclidean", "logratio"]))
    @settings(max_examples=60, deadline=None)
    def test_one_column_files(self, values, metric):
        with tempfile.TemporaryDirectory() as tmp:
            data = os.path.join(tmp, "data.csv")
            _write_csv(data, ["value"], values)
            code, out = _fuzz_job(tmp, "fit", "--input", data, "--space", "rplus")
            _fuzz_job(tmp, "fit", "--input", data, "--space", "rplus", "-o",
                      os.path.join(tmp, "fit.json"))
            _fuzz_job(tmp, "hist", "--input", data, "--metric", metric, "-o",
                      os.path.join(tmp, "hist"))
            if code == 0:
                law = _strict_json(out)["law"]
                _fuzz_job(tmp, "sample", "--law", "nrp", f"--mu={law['mu']!r}",
                          f"--sigma2={law['sigma2']!r}", "-n", "20", "-o",
                          os.path.join(tmp, "draws.csv"))

    # a wide fitted law spends up to about 2 s in the classical ALN mean's quadrature
    @given(part_tables(), st.sampled_from(["nsd", "aln"]))
    # eight equal rows: rounding once left a covariance of about 1e-32 that fitted
    @example([np.array([10.0, 1.0, 10.0]) / 21.0] * 8, "nsd")
    @settings(max_examples=12, deadline=None)
    def test_part_files(self, rows, law_name):
        with tempfile.TemporaryDirectory() as tmp:
            data = os.path.join(tmp, "data.csv")
            _write_csv(data, [f"p{k}" for k in range(len(rows[0]))], rows)
            report = os.path.join(tmp, "fit.json")
            code, _ = _fuzz_job(tmp, "fit", "--input", data, "--space", "simplex", "-o", report)
            if code != 0:
                return
            with open(report) as fh:
                law = _strict_json(fh.read())["law"]
            mu, sigma = f"--mu={_joined(law['mu'])}", f"--sigma={_joined(law['sigma'])}"
            _fuzz_job(tmp, "sample", "--law", law_name, mu, sigma, "-n", "20", "-o",
                      os.path.join(tmp, "draws.csv"))
            if len(law["mu"]) == 2:
                _fuzz_job(tmp, "density-grid", "--law", law_name, mu, sigma, "--resolution",
                          "12", "-o", os.path.join(tmp, "grid"))
