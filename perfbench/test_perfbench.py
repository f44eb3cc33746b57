"""Self-tests of the benchmark's own arithmetic, checks and workloads.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import cli_workloads
import importprof
import lib_workload
import run
import spans
import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


# --------------------------------------------------------------------------
# interval arithmetic and self time
# --------------------------------------------------------------------------

def test_union_counts_overlaps_once():
    assert stats.union_length([(1, 4), (3, 6), (8, 9)]) == 6
    assert stats.union_length([(0, 10), (2, 3)]) == 10
    assert stats.union_length([]) == 0


def test_self_time_subtracts_union_of_overlapping_children():
    # parent 0..10; children overlap on 3..4; a grandchild does not count
    spans_ = [(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0), (8.0, 9.0, 0), (1.5, 2.0, 1)]
    selfs = stats.self_times(spans_)
    assert selfs[0] == pytest.approx(10 - 6)
    assert selfs[1] == pytest.approx(3 - 0.5)
    assert selfs[4] == pytest.approx(0.5)


def test_self_time_clips_children_to_the_parent():
    assert stats.self_times([(0.0, 4.0, -1), (3.0, 7.0, 0)])[0] == pytest.approx(3.0)


# --------------------------------------------------------------------------
# tail percentile
# --------------------------------------------------------------------------

def _beyond(n, q):
    return n - max(1, math.ceil(q / 100.0 * n - 1e-9))


@pytest.mark.parametrize("n", [11, 12, 13, 14, 20, 99, 100, 101, 1000, 14_480, 99_999])
def test_tail_percentile_leaves_ten_samples_beyond_and_is_highest(n):
    q = stats.tail_percentile(n)
    assert _beyond(n, q) >= 10
    assert q >= 99.9 or _beyond(n, round(q + 0.1, 1)) < 10


def test_tail_needs_more_than_ten_samples():
    assert stats.tail_percentile(10) is None
    n, p50, q, tail = stats.latency_summary([3.0, 1.0, 2.0])
    assert (n, p50, q, tail) == (3, 2.0, 100.0, 3.0)


def test_latency_summary_on_a_known_sample():
    values = list(range(1, 101))
    n, p50, q, tail = stats.latency_summary(values)
    assert (n, p50, q, tail) == (100, 50.5, 90.0, 90)


# --------------------------------------------------------------------------
# failed checks are counted, never raised
# --------------------------------------------------------------------------

def test_lib_failed_check_and_raised_error_are_counted():
    def boom(cycle):
        raise ValueError("bad input")

    def bad_check(out):
        raise KeyError("missing")

    ops = [
        lib_workload.Op("ok", lambda c: 1, lambda out: None),
        lib_workload.Op("wrong", lambda c: 1, lambda out: "wrong value"),
        lib_workload.Op("raises", boom, lambda out: None),
        lib_workload.Op("check_raises", lambda c: 1, bad_check),
    ]
    tally = lib_workload.Tally()
    lib_workload.run_cycle(ops, lib_workload.Pairs(), range(4), 0, tally)
    assert len(tally.latencies) == 4
    assert tally.failures == {"wrong": 1, "raises": 1, "check_raises": 1}


def test_cli_bad_report_is_a_failed_check():
    job = cli_workloads.Job("fit", [], cli_workloads.check_hist(5))
    oc = cli_workloads.Outcome(job, 1.0, 0, 0, "not json", "")
    cli_workloads.check_outcome(oc)
    assert oc.error.startswith("check raised")
    crashed = cli_workloads.Outcome(job, 1.0, 1, 0, "", "Traceback\nOverflowError: x\n")
    cli_workloads.check_outcome(crashed)
    assert crashed.error == "exit 1: OverflowError: x"


# --------------------------------------------------------------------------
# parsers and span accounting
# --------------------------------------------------------------------------

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:      1000 |       1000 |   codanorm.errors
import time:      2000 |     160000 |     numpy
import time:      6000 |     166000 |   codanorm.simplex
import time:       900 |     330000 |     scipy.linalg
import time:      1400 |     750000 |     scipy.stats
import time:      1300 |    1250000 | codanorm
"""


def test_parse_importtime():
    got = importprof.parse_importtime(IMPORTTIME)
    assert got["import.codanorm_s"] == pytest.approx(1.25)
    assert got["import.codanorm_self_s"] == pytest.approx(0.0083)
    assert got["import.scipy_stats_s"] == pytest.approx(0.75)
    assert got["import.scipy_linalg_s"] == pytest.approx(0.33)
    assert got["import.numpy_s"] == pytest.approx(0.16)


def test_accumulate_counts_quadrature_nodes_and_rows():
    recorded = [
        ["laws.aln_classical_mean", 0.0, 10.0, -1, None],
        ["simplex.ilr_inv_rows", 1.0, 3.0, 0, {"rows": 64, "D": 5}],
        ["simplex.ilr_inv_rows", 4.0, 6.0, 0, {"rows": 36, "D": 5}],
        ["simplex.ilr_rows", 11.0, 12.0, -1, {"rows": 10, "D": 3}],
        ["simplex.clr_rows", 11.2, 11.5, 3, {"rows": 10, "D": 3}],
    ]
    acc = spans.accumulate(recorded, {})
    assert acc["laws.aln_classical_mean.nodes"] == 100
    assert acc["laws.aln_classical_mean.self_s"] == pytest.approx(6.0)
    assert acc["simplex.rows"] == 110  # clr_rows inside ilr_rows is not counted twice
    assert acc["simplex.bytes_computed"] == 100 * 9 * 8 + 10 * 5 * 8
    assert acc["simplex.ilr_rows.self_s"] == pytest.approx(0.7)
    assert spans.covered(recorded) == pytest.approx(11.0)


def test_instrument_records_cross_module_calls():
    import codanorm

    rec = spans.Recorder()
    undo = spans.instrument(rec)
    try:
        law = codanorm.AlnLaw([0.1, 0.2], [[0.03, 0.01], [0.01, 0.04]])
        codanorm.aln_classical_mean(law, order=20)
    finally:
        for mod, attr, original in undo:
            setattr(mod, attr, original)
    names = [s[0] for s in rec.spans]
    assert names[0] == "laws.aln_classical_mean"
    nodes = spans.accumulate(rec.spans, {})["laws.aln_classical_mean.nodes"]
    assert nodes == 20**2 + 30**2


# --------------------------------------------------------------------------
# tiny smoke runs of each workload
# --------------------------------------------------------------------------

def test_lib_mix_tiny(monkeypatch):
    import codanorm

    monkeypatch.setattr(lib_workload, "N_DRAWS", 2_000)
    monkeypatch.setattr(lib_workload, "GRID_RESOLUTION", 40)
    monkeypatch.setattr(lib_workload, "SCALAR_CALLS", 3)
    ops, pairs = lib_workload.build_ops(codanorm, 5)
    tally = lib_workload.Tally()
    lib_workload.run_cycle(ops, pairs, np.random.default_rng(0).permutation(len(ops)), 0, tally)
    assert tally.failures == {}, tally.errors
    probes = lib_workload.run_probes(lib_workload.build_probes(codanorm, 5, 10))
    assert set(probes) >= {"box_far", "rplus_lower_tail"}
    assert probes["box_far"]["failed"] == 0 and probes["rplus_lower_tail"]["failed"] == 0


@pytest.mark.parametrize("workload", ["cli-small", "cli-bulk"])
def test_cli_workload_tiny_traced(monkeypatch, tmp_path, workload):
    for name, value in [("SMALL_ROWS", 30), ("SMALL_DRAWS", 50), ("SMALL_GRID", 20),
                        ("BULK_ROWS", 500), ("BULK_DRAWS", 500), ("BULK_GRID", 20)]:
        monkeypatch.setattr(cli_workloads, name, value)
    res = run.run_cli(workload, 9, 1, 1, str(tmp_path), run.child_env(ROOT))
    assert res.failures == {}, res.errors
    for name in spans.SPAN_METRICS:
        assert name in res.layers
    assert res.layers["cli.main.calls"] == res.attempted // 2
    assert 0.5 < res.layers["trace.coverage"] <= 1.0
    if workload == "cli-small":
        assert res.probes["cli_fit_rplus_extreme"]["attempted"] == 1
        # one 5-part fit per traced cycle: 40**4 + 60**4 quadrature nodes
        assert res.layers["laws.aln_classical_mean.nodes"] >= 40**4 + 60**4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lib-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_shape(capsys):
    res = run.Result()
    res.attempted, res.latencies, res.busy_s, res.rows = 3, [1.0, 2.0, 3.0], 6.0, 30
    run.report("cli-small", 1, 0, 1.5, res)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(run.END_TO_END_UNITS)
    assert last["correct"] is True and last["metrics"]["rows_per_s"]["value"] == 5.0
