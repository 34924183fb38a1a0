"""Seeded job generators, library calls and oracle checks for the three
benchmark workloads.

A job is one call into the public ``whilecc`` API. Every workload is built
from a fixed *cycle* of job slots: the slot structure (kinds, precisions,
enumeration bounds, search orders) is the same for every seed, and the seed
draws the concrete inputs and the order of the slots inside each cycle.
Slots fix what sets a job's cost, so runs with different seeds measure
comparable work; the seed changes every input the library sees.

Checks never use the interpreter's own output as the reference: they use
``whilecc.programs.oracles`` or set comprehensions computed here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator

from whilecc import algebra, codes, interp, programs, reals, tracking
from whilecc.programs import oracles


@dataclass(frozen=True)
class Job:
    kind: str
    params: tuple


@dataclass(frozen=True)
class Outcome:
    """What a job produced, in exact and hashable form."""

    values: tuple
    maybe_divergent: bool


class Ctx:
    """Loaded programs and algebras for one process, plus the hooks the traced
    run swaps in (fuel and search-order factories)."""

    def __init__(self):
        self.procs = {}
        self.make_fuel = codes.Fuel
        self.make_dovetail = interp.Dovetail
        self.registry_sizes: list[int] = []

    def load(self, *names: str) -> None:
        for name in names:
            self.procs[name] = programs.load(name)


def _fuel_used(fuel, start: int) -> int:
    return start - fuel.remaining


def _decode_values(res) -> tuple:
    out = []
    for v in res.values:
        if isinstance(v, algebra.NatV):
            out.append(v.n)
        else:
            out.append(v.code.value)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# independent decoder of the program-facing rational enumeration (`rat`):
# even indices list the dyadics of [-8, 8] level by level, odd indices the
# canonical (sign, numerator, denominator - 1) enumeration of Q


_WINDOW = 8


def _unpair(n: int) -> tuple[int, int]:
    w = (isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def rat_index_value(k: int) -> Fraction:
    if k % 2:
        s, pq = _unpair(k // 2)
        p, q0 = _unpair(pq)
        r = Fraction(p, q0 + 1)
        return -r if s % 2 else r
    m = k // 2
    if m <= 2 * _WINDOW:
        return Fraction(m - _WINDOW)
    m -= 2 * _WINDOW + 1
    level = 1
    while m >= _WINDOW << level:
        m -= _WINDOW << level
        level += 1
    num = 2 * (m >> 1) + 1
    return Fraction(-num if m & 1 else num, 1 << level)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    programs: tuple = ()
    warmup_jobs = 0
    trace_jobs = 0

    def jobs(self, seed: int, stream: str = "measure") -> Iterator[Job]:
        rng = random.Random(f"{self.name}/{seed}/{stream}")
        while True:
            cycle = self.cycle(rng)
            rng.shuffle(cycle)
            yield from cycle

    def cycle(self, rng: random.Random) -> list[Job]:
        raise NotImplementedError

    def execute(self, job: Job, ctx: Ctx) -> tuple[Outcome, int]:
        """Run the job's library call; return its outcome and fuel used."""
        raise NotImplementedError

    def check(self, job: Job, out: Outcome) -> bool:
        raise NotImplementedError


def _poly_from_roots(roots, lead) -> tuple:
    """Little-endian coefficients of lead * prod (X - r)."""
    c = [Fraction(lead)]
    for r in roots:
        nxt = [Fraction(0)] * (len(c) + 1)
        for i, a in enumerate(c):
            nxt[i + 1] += a
            nxt[i] -= a * r
        c = nxt
    return tuple(c)


FAR_DENOMS = (11, 13)        # simple roots the rational search never tries
CANDIDATE_DENOMS = (1, 2, 3, 4)  # roots the search tries early: comparisons tie
ROOT_GRID = 4  # oracle grid; the roots a polynomial gets are at least 1 apart


def _roots(rng: random.Random, count: int, denoms, whole: bool) -> list[Fraction]:
    """`count` roots in (-8, 8) with denominators from `denoms`, pairwise at
    least 1 apart; integer roots are allowed only if `whole`."""
    while True:
        roots = []
        for _ in range(count):
            q = rng.choice(denoms)
            k = rng.choice([k for k in range(-8 * q + 1, 8 * q) if whole or k % q])
            roots.append(Fraction(k, q))
        roots.sort()
        if all(b - a >= 1 for a, b in zip(roots, roots[1:])):
            return roots


class BisectSweep(Workload):
    """root_bisect / root_bisect_fa under seeded dovetailed choice.

    A Dovetail order sets the cost of every bisection round (the stage at
    which a division point is found), so each cycle deals the rows of a fixed
    (precision, Dovetail seed) table to its jobs in a seeded order: every run
    weighs each search order and precision alike. Each job class draws from
    rows of its own, so the share of every class in a cycle's cost is fixed.
    Polynomials of the "far" class have roots the rational search never tries;
    those of the "candidate" class have roots it tries early, so their sign
    tests tie at the roots, diverge, and the search retries them with backoff.
    """

    name = "bisect_sweep"
    programs = ("root_bisect", "root_bisect_fa")
    warmup_jobs = 6
    trace_jobs = 18
    FAR_ROWS = tuple((6 + i % 4, i) for i in range(12))
    FA_ROWS = tuple((6 + i % 4, i) for i in range(12, 15))
    DOUBLE_ROW = (4, 15)
    CANDIDATE_ROWS = ((3, 16), (3, 17))  # low precision: mostly bracket search
    FUEL = 40_000_000
    DOUBLE_FUEL = 50_000

    def cycle(self, rng):
        jobs = []
        for rows, denoms, kind in ((self.FAR_ROWS, FAR_DENOMS, "poly"),
                                   (self.CANDIDATE_ROWS, CANDIDATE_DENOMS, "poly_tie")):
            rows = list(rows)
            rng.shuffle(rows)
            for i, (n, order) in enumerate(rows):
                degree = 3 + i % 2 if kind == "poly_tie" else 2 + i % 3
                roots = _roots(rng, degree, denoms, kind == "poly_tie")
                coeffs = _poly_from_roots(roots, rng.choice((-2, -1, 1, 2)))
                jobs.append(Job(kind, (n, coeffs, order)))
        fa_rows = list(self.FA_ROWS)
        rng.shuffle(fa_rows)
        for n, order in fa_rows:
            c = Fraction(rng.choice([k for k in range(-36, 37) if k % 13]), 13)
            jobs.append(Job("fa", (n, c, order)))
        roots = _roots(rng, rng.choice((1, 2)), CANDIDATE_DENOMS, True)
        coeffs = _poly_from_roots(roots + roots, rng.choice((-1, 1)))
        jobs.append(Job("double", (self.DOUBLE_ROW[0], coeffs, self.DOUBLE_ROW[1])))
        return jobs

    def execute(self, job, ctx):
        n, arg, order = job.params
        if job.kind == "fa":
            proc, alg = ctx.procs["root_bisect_fa"]
            args = (interp.nat_value(n), algebra.rat_value(arg))
        else:
            proc, alg = ctx.procs["root_bisect"]
            args = (interp.nat_value(n), programs.real_array(arg))
        budget = self.DOUBLE_FUEL if job.kind == "double" else self.FUEL
        fuel = ctx.make_fuel(budget)
        res = interp.eval_proc(proc, args, alg, ctx.make_dovetail(order), fuel)
        return (Outcome(_decode_values(res), res.maybe_divergent),
                _fuel_used(fuel, budget))

    def check(self, job, out):
        n, arg, _ = job.params
        if job.kind == "double":
            # out of domain: no simple root, so no value and divergence possible
            return (not oracles.poly_simple_roots(arg, grid_denom=ROOT_GRID)
                    and not out.values and out.maybe_divergent)
        if out.maybe_divergent or len(out.values) != 1:
            return False
        (x,) = out.values
        tol = Fraction(1, 1 << n)
        if job.kind == "fa":
            return any(abs(x - r) < tol for r in oracles.fa_roots(arg))
        enclosures = oracles.poly_simple_roots(arg, prec_bits=n + 8,
                                               grid_denom=ROOT_GRID)
        return any(lo - tol < x < hi + tol for lo, hi in enclosures)


def _unit_rational(rng: random.Random) -> Fraction:
    q = rng.choice((37, 41, 43, 47, 53, 59, 61))
    return Fraction(rng.randrange(q // 4, q), q)


class ExpLift(Workload):
    """exp_approx on IN and its soundness lift over the code algebra."""

    name = "exp_lift"
    programs = ("exp_approx",)
    warmup_jobs = 2
    trace_jobs = 6
    EXP_N = 9
    LIFT_N = 7
    FUEL = 40_000_000
    LEVEL_FUEL = 2_000_000

    def cycle(self, rng):
        return [Job("exp", (self.EXP_N, _unit_rational(rng))),
                Job("lift", (self.LIFT_N, _unit_rational(rng)))]

    def execute(self, job, ctx):
        n, x = job.params
        proc, alg = ctx.procs["exp_approx"]
        fuel = ctx.make_fuel(self.FUEL)
        if job.kind == "exp":
            res = interp.eval_proc(
                proc, (interp.nat_value(n), algebra.interval_value(codes.ConstCode(x))),
                alg, ctx.make_dovetail(None), fuel)
            return (Outcome(_decode_values(res), res.maybe_divergent),
                    _fuel_used(fuel, self.FUEL))
        registry = codes.CodeRegistry()
        code_alg = tracking.code_algebra(alg, registry)
        x_code = algebra.NatV(registry.mint(codes.ConstCode(x)))
        lifted = tracking.soundness_lift(proc, code_alg, registry, (x_code,),
                                         fuel_per_level=self.LEVEL_FUEL,
                                         strat=ctx.make_dovetail(None))
        try:
            values = (reals.ecode_eval(lifted, n, fuel),)
        except codes.CodeProducerError:  # a level run did not converge
            values = ()
        ctx.registry_sizes.append(len(registry))
        return Outcome(values, not values), _fuel_used(fuel, self.FUEL)

    def check(self, job, out):
        n, x = job.params
        if out.maybe_divergent or len(out.values) != 1:
            return False
        (v,) = out.values
        lo, hi = oracles.exp_enclosure(x)
        if job.kind == "exp":
            exact = oracles.exp_partial_sums_at(x, [2 ** (n + 1)])[2 ** (n + 1)]
            tol = Fraction(1, 1 << n)
            return v == exact and max(abs(v - lo), abs(v - hi)) < tol
        tol = Fraction(2, 1 << n)  # the 2^-n+1 bound of the lift
        return lo - tol < v < hi + tol


def _maybe_zero(rng: random.Random, p_zero: float) -> Fraction:
    if rng.random() < p_zero:
        return Fraction(0)
    return Fraction(rng.randrange(1, 40) * rng.choice((-1, 1)), rng.randrange(1, 10))


class EnumOutcomes(Workload):
    """Full outcome sets under the Enumerate strategy.

    The enumeration bounds give every kind about the same cost, so the
    median and the tail fall inside one cost band rather than between two.
    """

    name = "enum_outcomes"
    programs = ("pivot3", "choose_near", "scaled_sum")
    warmup_jobs = 6
    trace_jobs = 20
    SLOTS = ("near",) * 6 + ("pivot",) * 2 + ("pivot_zero", "ssum")
    NEAR_MAX_NAT = 2048
    PIVOT_MAX_NAT = 2048
    SSUM_MAX_NAT = 2560
    FUEL = 4_000_000

    def cycle(self, rng):
        jobs = []
        for kind in self.SLOTS:
            if kind == "near":
                q = rng.choice((3, 5, 7, 9, 11, 13))
                a = Fraction(rng.randrange(-8 * q + 1, 8 * q), q)
                jobs.append(Job("near", (a, rng.randrange(1, 9), self.NEAR_MAX_NAT)))
            elif kind == "pivot":
                xs = tuple(_maybe_zero(rng, 1 / 3) for _ in range(3))
                jobs.append(Job("pivot", (xs, self.PIVOT_MAX_NAT)))
            elif kind == "pivot_zero":
                jobs.append(Job("pivot", ((Fraction(0),) * 3, self.PIVOT_MAX_NAT)))
            else:
                xs = tuple(_maybe_zero(rng, 1 / 4) for _ in range(2))
                jobs.append(Job("ssum", (xs, self.SSUM_MAX_NAT)))
        return jobs

    def execute(self, job, ctx):
        if job.kind == "near":
            a, n, max_nat = job.params
            proc, alg = ctx.procs["choose_near"]
            args = (algebra.rat_value(a), interp.nat_value(n))
        else:
            xs, max_nat = job.params
            proc, alg = ctx.procs["pivot3" if job.kind == "pivot" else "scaled_sum"]
            args = tuple(algebra.rat_value(x) for x in xs)
        fuel = ctx.make_fuel(self.FUEL)
        res = interp.eval_proc(proc, args, alg, interp.Enumerate(max_nat), fuel)
        return (Outcome(_decode_values(res), res.maybe_divergent),
                _fuel_used(fuel, self.FUEL))

    def check(self, job, out):
        if job.kind == "near":
            a, n, max_nat = job.params
            h = Fraction(1, 1 << n)
            want = {r for r in map(rat_index_value, range(max_nat + 1))
                    if abs(a - r) < h}
        elif job.kind == "pivot":
            xs, max_nat = job.params
            want = {k for k in oracles.piv_omega(xs) if k <= max_nat}
        else:
            xs, _ = job.params
            want = {xs[0] + xs[1]} if any(xs) else set()
        # with no clean witness divergence stays possible, else it is excluded
        return set(out.values) == want and len(out.values) == len(want) \
            and out.maybe_divergent == (not want)


WORKLOADS = {w.name: w for w in (BisectSweep(), ExpLift(), EnumOutcomes())}


def first_jobs(workload: Workload, seed: int, count: int,
               stream: str = "measure") -> list[Job]:
    it = workload.jobs(seed, stream)
    return [next(it) for _ in range(count)]
