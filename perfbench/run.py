#!/usr/bin/env python3
"""whilecc benchmark: one seeded, closed-loop, single-threaded client.

    python3 perfbench/run.py --workload bisect_sweep --seed 1 --seconds 24 --trace 0

Run from a checkout of the repository; the library is imported from its
``src`` directory. With ``--trace 0`` the jobs of the workload's seeded stream
run back to back, each through the public library API, and every verdict is
checked against an independent oracle after the timed loop; the end-to-end
metrics are printed. Times are reported at a nominal machine speed: after
each job a fixed pure-Python reference task is timed, and the job's wall time
is scaled by the reference task's nominal duration over its measured one,
which cancels the speed changes of a shared machine; the unscaled figures are
printed as well. The loop ends when the jobs' library time at nominal speed
reaches ``--seconds``, so that a slow spell of the machine does not shorten
the run, or at the latest after 1.5 times ``--seconds`` of wall time.

With ``--trace 1`` a fixed prefix of the same job stream runs twice, once
with the layer wrappers of ``tracer.py`` installed and once without; the
per-layer metrics and the tracing overhead are printed, and per-job fuel and
outputs must agree between the two passes.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 5      # fresh-process set-ups per run; setup_s is their median
REF_SECONDS = 1e-3     # the reference task's duration at the nominal speed
MIN_JOBS = 20          # a timed run always has a tail with 10 jobs beyond it
WALL_CAP = 1.5         # a timed run ends after this many times --seconds of wall time
TAIL_BEYOND = 10

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# per-layer metric -> the end-to-end metrics it should move, as metric@workload
MOVES = {
    "lang.parse_s": "setup_s@all",
    "lang.ast_nodes": "setup_s@all jobs_per_s@bisect_sweep",
    "algebra.build_s": "setup_s@all",
    "interp.self_s": "jobs_per_s,job_p50_ms@bisect_sweep jobs_per_s,job_p50_ms@enum_outcomes",
    "interp.fuel_steps": "jobs_per_s@all",
    "interp.steps_per_s": "jobs_per_s@all",
    "interp.choose_guard_evals": "jobs_per_s,job_tail_ms@bisect_sweep",
    "interp.choose_stages": "jobs_per_s,job_tail_ms@bisect_sweep",
    "interp.choose_yield": "jobs_per_s,job_tail_ms@bisect_sweep",
    "algebra.rule_calls": "jobs_per_s@all",
    "algebra.rule_self_s": "jobs_per_s@all",
    "algebra.compare_calls": "jobs_per_s@bisect_sweep",
    "algebra.compare_s": "jobs_per_s@bisect_sweep",
    "codes.arith_calls": "jobs_per_s,job_tail_ms@exp_lift",
    "codes.arith_s": "jobs_per_s,job_tail_ms@exp_lift",
    "codes.approx_calls": "jobs_per_s,job_tail_ms@exp_lift",
    "codes.approx_s": "jobs_per_s,job_tail_ms@exp_lift",
    "codes.approx_cache_hit_ratio": "jobs_per_s,job_tail_ms@exp_lift",
    "codes.rat_bits_max": "job_tail_ms,peak_rss_mb@exp_lift",
    "codes.registry_codes": "peak_rss_mb@exp_lift",
    "reals.ecode_eval_calls": "job_p50_ms@exp_lift",
    "reals.ecode_eval_s": "job_p50_ms@exp_lift",
    "tracking.lift_s": "jobs_per_s@exp_lift",
    "tracking.level_runs": "jobs_per_s@exp_lift",
    "tracking.level_s": "jobs_per_s@exp_lift",
    "trace.overhead_ratio": "none (traced over untraced jobs_per_s)",
}


def reference_task() -> int:
    """Fixed pure-Python work that does not touch whilecc: exact rational
    sums, small allocations and tuple-keyed dict stores, the kind of work the
    library spends its time on."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 350):
        acc += Fraction(i, i + 1)
        table[(i, "k")] = [acc, i]
    return len(table)


def time_reference() -> float:
    """Wall time of one reference task. The collector is off meanwhile, so a
    collection that the library's garbage is due is not charged to it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_task()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def import_library():
    """Put the checkout's sources first on the path and import the library
    from there, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import whilecc
    if Path(whilecc.__file__).resolve().parent != SRC / "whilecc":
        raise SystemExit(f"perfbench: imported whilecc from {whilecc.__file__}")
    import workloads
    return workloads


def prepare(wl, ctx, workloads):
    """Load the workload's programs and algebras and run its warm-up jobs,
    which fill the decode and code caches that steady-state jobs find full.
    Warm-up inputs come from a fixed stream, so set-up does the same work on
    every seed. Returns the warm-up (job, outcome) pairs for checking."""
    ctx.load(*wl.programs)
    warm = workloads.first_jobs(wl, 0, wl.warmup_jobs, stream="warmup")
    return [(job, wl.execute(job, ctx)[0]) for job in warm]


def timed_setup(args):
    """One set-up (import, programs, algebras, warm-up). Returns its time in
    nominal seconds, scaled by reference tasks timed before and after it, and
    what it built."""
    refs = [time_reference() for _ in range(5)]
    t0 = time.perf_counter()
    workloads = import_library()
    wl = workloads.WORKLOADS[args.workload]
    ctx = workloads.Ctx()
    warm = prepare(wl, ctx, workloads)
    dt = time.perf_counter() - t0
    refs += [time_reference() for _ in range(5)]
    return dt * REF_SECONDS / statistics.median(refs), workloads, wl, ctx, warm


def probe_in_children(args, count: int) -> list[float]:
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed\n{proc.stderr[-4000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_measure(args) -> int:
    probe_times = probe_in_children(args, SETUP_SAMPLES - 1)
    setup_s, workloads, wl, ctx, warm = timed_setup(args)
    setup_times = probe_times + [setup_s]

    gc.collect()
    stream = wl.jobs(args.seed)
    records = []
    clock = time.perf_counter
    start = clock()
    nominal = 0.0
    while True:
        job = next(stream)
        t = clock()
        out, _ = wl.execute(job, ctx)
        dt = clock() - t
        ref = time_reference()
        records.append((job, out, dt, ref))
        nominal += dt * REF_SECONDS / ref
        elapsed = clock() - start
        if len(records) >= MIN_JOBS and (nominal >= args.seconds
                                         or elapsed >= WALL_CAP * args.seconds):
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    warm_bad = [job for job, out in warm if not wl.check(job, out)]
    bad = [job for job, out, _, _ in records if not wl.check(job, out)]
    n = len(records)
    raw = sorted(dt for _, _, dt, _ in records)
    refs = [ref for *_, ref in records]
    # each job is scaled by the median reference time around it, which a
    # single disturbed reference task does not move
    ref_near = [statistics.median(refs[max(0, i - 2):i + 3]) for i in range(n)]
    lat = sorted(dt * REF_SECONDS / ref for (_, _, dt, _), ref in zip(records, ref_near))
    metrics = {
        "jobs_per_s": n / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_tail_ms": lat[n - TAIL_BEYOND - 1] * 1e3,
        "ok_ratio": (n - len(bad)) / n,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_kib / 1024,
    }
    kinds = Counter(job.kind for job, _, _, _ in records)
    print(f"workload {args.workload} seed {args.seed}: {n} jobs, {nominal:.3f} s of library "
          f"time at nominal speed in {elapsed:.3f} s of wall time "
          f"({', '.join(f'{k} {v}' for k, v in sorted(kinds.items()))})")
    for m in SPEC["end_to_end"]:
        print(f"  {m['name']:<14} {metrics[m['name']]:>14.6f} {m['unit']:<8} "
              f"({m['better']} is better)")
    print(f"  job_tail_ms is the p{100 * (n - TAIL_BEYOND) / n:.1f} latency: "
          f"{TAIL_BEYOND} of {n} jobs were slower")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setup_times)}")
    print(f"  wall clock, not normalized: jobs_per_s {n / sum(raw):.4f}, job_p50_ms "
          f"{statistics.median(raw) * 1e3:.3f}, job_tail_ms {raw[n - TAIL_BEYOND - 1] * 1e3:.3f}, "
          f"median reference task {statistics.median(refs) * 1e3:.4f} ms")
    for job in warm_bad + bad:
        print(f"  WRONG VERDICT: {job}", file=sys.stderr)
    return emit(not bad and not warm_bad, n, len(bad), metrics)


def run_pass(wl, ctx, jobs, ledger, tracer=None):
    """Run jobs once; per job: outcome, fuel used (level runs included),
    nominal seconds in the library call."""
    rows = []
    for job in jobs:
        span = tracer.span(f"job.{job.kind}") if tracer else nullcontext()
        t0 = time.perf_counter()
        with span:
            out, fuel = wl.execute(job, ctx)
        dt = time.perf_counter() - t0
        rows.append((out, fuel + ledger.take_used(), dt * REF_SECONDS / time_reference()))
    return rows


def run_trace(args) -> int:
    workloads = import_library()
    import tracer as tr

    wl = workloads.WORKLOADS[args.workload]
    jobs = workloads.first_jobs(wl, args.seed, wl.trace_jobs)
    ledger = tr.FuelLedger()
    tracer = tr.Tracer()
    with ledger.installed():
        # traced pass first, so that the stdlib is parsed under the tracer
        with tracer.installed():
            ctx_t = workloads.Ctx()
            ctx_t.make_fuel = lambda steps: tr.CountingFuel(steps, tracer.counters)
            ctx_t.make_dovetail = lambda seed: tr.CountingDovetail(seed, tracer.counters)
            with tracer.span("setup"):
                warm = prepare(wl, ctx_t, workloads)
            ledger.take_used()
            ctx_t.registry_sizes.clear()
            setup = tracer.snapshot()
            tracer.reset()
            traced = run_pass(wl, ctx_t, jobs, ledger, tracer)
            agg = tracer.snapshot()
        ctx_u = workloads.Ctx()
        prepare(wl, ctx_u, workloads)
        ledger.take_used()
        ctx_u.registry_sizes.clear()
        plain = run_pass(wl, ctx_u, jobs, ledger)

    failed = 0
    for job, (out_t, fuel_t, _), (out_u, fuel_u, _) in zip(jobs, traced, plain):
        if out_t != out_u or fuel_t != fuel_u:
            print(f"  TRACING CHANGED A RESULT: {job}: fuel {fuel_t} vs {fuel_u}",
                  file=sys.stderr)
            failed += 1
        elif not wl.check(job, out_u):
            print(f"  WRONG VERDICT: {job}", file=sys.stderr)
            failed += 1
    failed += sum(not wl.check(job, out) for job, out in warm)
    if ctx_t.registry_sizes != ctx_u.registry_sizes:
        print("  TRACING CHANGED REGISTRY SIZES", file=sys.stderr)
        failed += 1

    calls, total, self_t, counters = (agg["calls"], agg["total"], agg["self"],
                                      agg["counters"])
    get = lambda d, k: d.get(k, 0)  # noqa: E731
    fuel = sum(f for _, f, _ in plain)
    plain_s = sum(dt for _, _, dt in plain)
    traced_s = sum(dt for _, _, dt in traced)
    guard_evals = get(counters, "choose_guard_evals")
    approx_calls = get(calls, "codes.approx")
    metrics = {
        "lang.parse_s": get(setup["total"], "lang.parse"),
        "lang.ast_nodes": get(setup["counters"], "ast_nodes"),
        "algebra.build_s": get(setup["self"], "algebra.build") + get(self_t, "algebra.build"),
        "interp.self_s": get(self_t, "interp.eval_proc") + get(self_t, "tracking.level"),
        "interp.fuel_steps": fuel,
        "interp.steps_per_s": fuel / plain_s,
        "interp.choose_guard_evals": guard_evals,
        "interp.choose_stages": get(counters, "choose_stages"),
        "interp.choose_yield": (get(counters, "choose_resolutions") / guard_evals
                                if guard_evals else 0.0),
        "algebra.rule_calls": get(calls, "algebra.rule") + get(calls, "algebra.compare"),
        "algebra.rule_self_s": get(self_t, "algebra.rule") + get(self_t, "algebra.compare"),
        "algebra.compare_calls": get(calls, "algebra.compare"),
        "algebra.compare_s": get(total, "algebra.compare"),
        "codes.arith_calls": get(calls, "codes.arith"),
        "codes.arith_s": get(total, "codes.arith"),
        "codes.approx_calls": approx_calls,
        "codes.approx_s": get(self_t, "codes.approx"),
        "codes.approx_cache_hit_ratio": (get(counters, "approx_cache_hits") / approx_calls
                                         if approx_calls else 0.0),
        "codes.rat_bits_max": agg["rat_bits_max"],
        "codes.registry_codes": sum(ctx_u.registry_sizes),
        "reals.ecode_eval_calls": get(calls, "reals.ecode_eval"),
        "reals.ecode_eval_s": get(total, "reals.ecode_eval"),
        "tracking.lift_s": get(total, "job.lift"),
        "tracking.level_runs": get(calls, "tracking.level"),
        "tracking.level_s": get(total, "tracking.level"),
        "trace.overhead_ratio": plain_s / traced_s,
    }
    tracer.write(TRACE_DIR / f"trace-{args.workload}-{args.seed}.jsonl",
                 {"workload": args.workload, "seed": args.seed, "metrics": metrics})

    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs traced; "
          f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s, tracing overhead "
          f"(traced/untraced jobs_per_s) {plain_s / traced_s:.3f}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {UNITS[name]:<6} moves {MOVES[name]}")
    return emit(failed == 0, len(jobs), failed, metrics)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "whilecc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no whilecc sources under {SRC}")
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(args)[0]}))
        return 0
    return run_trace(args) if args.trace else run_measure(args)


if __name__ == "__main__":
    sys.exit(main())
