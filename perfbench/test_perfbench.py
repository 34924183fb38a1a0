"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from whilecc.codes import prog_rat_decode  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run_first(wl, seed, count):
    """Outcomes and fuel (level runs included) of a seed's first jobs, in a
    fresh context."""
    ctx = workloads.Ctx()
    ctx.load(*wl.programs)
    ledger = tracer.FuelLedger()
    rows = []
    with ledger.installed():
        for job in workloads.first_jobs(wl, seed, count):
            out, fuel = wl.execute(job, ctx)
            rows.append((out, fuel + ledger.take_used()))
    return rows


def test_same_seed_same_inputs_different_seed_different_inputs():
    for wl in workloads.WORKLOADS.values():
        a = workloads.first_jobs(wl, 5, 40)
        assert a == workloads.first_jobs(wl, 5, 40)
        assert a != workloads.first_jobs(wl, 6, 40)


def test_same_seed_same_fuel_and_outputs():
    for wl in workloads.WORKLOADS.values():
        first = _run_first(wl, 3, 2)
        assert first == _run_first(wl, 3, 2)
        assert all(fuel > 0 for _, fuel in first)
        jobs = workloads.first_jobs(wl, 3, 2)
        assert all(wl.check(job, out) for job, (out, _) in zip(jobs, first))


def test_checks_reject_wrong_verdicts():
    wrong = workloads.Outcome((Fraction(123, 7),), False)
    for wl in workloads.WORKLOADS.values():
        for job in workloads.first_jobs(wl, 1, 20):
            assert not wl.check(job, wrong), job
    # an out-of-domain job is ok only with no value and divergence possible
    zero = workloads.Job("pivot", ((Fraction(0),) * 3, 2048))
    enum = workloads.WORKLOADS["enum_outcomes"]
    assert enum.check(zero, workloads.Outcome((), True))
    assert not enum.check(zero, workloads.Outcome((), False))


def test_rational_enumeration_oracle_matches_the_documented_order():
    assert all(workloads.rat_index_value(k) == prog_rat_decode(k) for k in range(6000))


def test_trace_run_agrees_with_untraced_run(capsys):
    assert run.main(["--workload", "enum_outcomes", "--seed", "2",
                     "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in run.SPEC["per_layer"]}
    assert result["metrics"]["interp.fuel_steps"]["value"] > 0


def test_tracer_restores_the_library():
    from whilecc import codes, interp
    before = (interp.eval_proc, codes.ECode.approx)
    with tracer.Tracer().installed():
        assert interp.eval_proc is not before[0]
    assert (interp.eval_proc, codes.ECode.approx) == before


def test_metric_names_and_workloads_agree_with_benchmark_json():
    layer = {m["name"] for m in run.SPEC["per_layer"]}
    assert set(run.MOVES) == layer
    assert {w["name"] for w in run.SPEC["workloads"]} == set(workloads.WORKLOADS)
    for name in run.UNITS:
        assert NAME.fullmatch(name), name


def test_measured_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "enum_outcomes", "--seed", "4",
                     "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= run.MIN_JOBS
    assert set(result["metrics"]) == {m["name"] for m in run.SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_library_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exp_lift",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
