"""Acceptance criteria, each at its stated tolerance and budget.

Every check here is a sampled or oracle-backed verification, standing in by
design for theorem statements that are not reproducible as universal claims.
One PASS/FAIL line per criterion is printed.
"""

import math
import random
import time
from fractions import Fraction

from whilecc.algebra import (get_algebra, rat_value, interval_value, NatV,
                             RealV, apply, DIV, FUEL_OUT)
from whilecc.codes import (Fuel, ConstCode, CodeRegistry, SumCode, sqrt_code,
                           mul_codes, rat_encode, rat_dist,
                           check_fast_cauchy_prefix)
from whilecc.interp import (Dovetail, Enumerate, Oracle, eval_proc, nat_value,
                            choose_eliminate, comp_tree_stage, tree_is_prefix,
                            State)
from whilecc.lang import parse
from whilecc.programs import load, real_array, continuity_probe
from whilecc.programs.oracles import (exp_partial_sums_at, exp_enclosure,
                                      poly_simple_roots, fa_roots,
                                      least_divisor_oracle, piv_omega)
from whilecc.reals import alpha_rat, ecode_eval
from whilecc.tracking import (code_algebra, soundness_lift,
                              a0_square_check, LUCModulus,
                              adequacy_g)


def criterion(name, ok, budget, elapsed, detail=""):
    line = (f"{'PASS' if ok else 'FAIL'} {name} "
            f"[{elapsed:.2f}s/{budget:.0f}s] {detail}")
    print(line)
    assert ok, line
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeds {budget}s budget"


def test_criterion_1_exp_approximation():
    t0 = time.time()
    p, alg = load("exp_approx")
    ok = True
    for x in (Fraction(0), Fraction(1, 4), Fraction(1, 2),
              Fraction(3, 4), Fraction(1)):
        sums = exp_partial_sums_at(x, [2 ** (n + 1) for n in range(1, 11)])
        lo, hi = exp_enclosure(x)
        for n in range(1, 11):
            res = eval_proc(p, (nat_value(n), interval_value(ConstCode(x))),
                            alg, Dovetail(), Fuel(3_000_000))
            ok &= bool(res.values) and not res.maybe_divergent
            v = res.values[0].code.value
            ok &= v == sums[2 ** (n + 1)]  # exact rational identity
            dev = max(rat_dist(v, lo), rat_dist(v, hi))
            ok &= dev < Fraction(1, 1 << n)
    criterion("criterion-1 exp-approximation", ok, 5.0, time.time() - t0,
              "exact stage sums; within 2^-n of the 64-digit e^x oracle")


def test_criterion_2_pivot_outcome_sets():
    t0 = time.time()
    p, alg = load("pivot3")
    ok = True
    vals = (Fraction(-1), Fraction(0), Fraction(1))
    for x1 in vals:
        for x2 in vals:
            for x3 in vals:
                xs = (x1, x2, x3)
                res = eval_proc(p, tuple(rat_value(v) for v in xs), alg,
                                Enumerate(8), Fuel(60_000))
                got = {v.n for v in res.values}
                ok &= got == piv_omega(xs)  # brute-force set comprehension
                if xs == (0, 0, 0):
                    ok &= not res.values and res.maybe_divergent
                else:
                    ok &= not res.maybe_divergent
    criterion("criterion-2 pivot-outcome-sets", ok, 1.0, time.time() - t0,
              "all 27 tuples in {-1,0,1}^3")


def test_criterion_3_bisection():
    t0 = time.time()
    p, alg = load("root_bisect")
    pfa, algfa = load("root_bisect_fa")
    ok = True

    def near_some_root(v, enclosures, n):
        tol = Fraction(1, 1 << n)
        for lo, hi in enclosures:
            if lo - tol < v < hi + tol:
                return True
        return False

    for coeffs in ([-2, 0, 1], [0, -1, 0, 1]):
        roots = poly_simple_roots(coeffs, prec_bits=16)
        for n in range(1, 9):
            res = eval_proc(p, (nat_value(n), real_array(coeffs)), alg,
                            Dovetail(), Fuel(6_000_000))
            ok &= bool(res.values) and not res.maybe_divergent
            ok &= near_some_root(res.values[0].code.value, roots, n)
    for a in (Fraction(-2), Fraction(0), Fraction(2)):
        roots = [(r, r) for r in fa_roots(a)]
        for n in range(1, 9):
            res = eval_proc(pfa, (nat_value(n), rat_value(a)), algfa,
                            Dovetail(), Fuel(6_000_000))
            ok &= bool(res.values) and not res.maybe_divergent
            ok &= near_some_root(res.values[0].code.value, roots, n)
    # 50 dovetail seeds at a = 0: at least 2 distinct roots
    hit = set()
    for seed in range(50):
        res = eval_proc(pfa, (nat_value(3), rat_value(0)), algfa,
                        Dovetail(seed), Fuel(4_000_000))
        if res.values:
            v = res.values[0].code.value
            hit.add(min(fa_roots(0), key=lambda r: abs(v - r)))
    ok &= len(hit) >= 2
    # X^2 has no simple roots: still possibly-divergent at fuel 1e5
    res = eval_proc(p, (nat_value(3), real_array([0, 0, 1])), alg,
                    Dovetail(), Fuel(100_000))
    ok &= not res.values and res.maybe_divergent
    criterion("criterion-3 bisection", ok, 60.0, time.time() - t0,
              f"n<=8 within 2^-n of oracle roots; distinct roots {sorted(map(str, hit))}")


def test_criterion_4_choose_elimination():
    t0 = time.time()
    alg = get_algebra("N*")
    ok = True
    cases = {
        "least_divisor": least_divisor_oracle,
        "isqrt_search": math.isqrt,
        "log2_search": lambda n: n.bit_length() - 1 if n else 0,
    }
    for name, oracle in cases.items():
        prog, _ = load(name)
        elim = choose_eliminate(prog, alg)
        for n in range(101):
            a = eval_proc(prog, (NatV(n),), alg, Dovetail(), Fuel(1_500_000))
            b = eval_proc(elim, (NatV(n),), alg, Dovetail(), Fuel(1_500_000))
            ok &= bool(a.values) and bool(b.values)
            ok &= a.values[0].n == b.values[0].n == oracle(n)
    criterion("criterion-4 choose-elimination", ok, 10.0, time.time() - t0,
              "three deterministic programs agree with rewrites on 0..100")


def test_criterion_5_a0_square():
    t0 = time.time()
    rn = get_algebra("RN")
    reg = CodeRegistry()
    calg = code_algebra(rn, reg)
    sources = [
        "func p1 in a: real out b: real begin b := a * a + 1 end",
        "func p2 in a: real out b: real begin b := a + a + 1/2 end",
        "func p3 in a: real, c: real out b: real begin b := a * c - c end",
        "func p4 in a: real out b: real aux k: nat begin "
        "  k := 0; while k < 4 do b := b + a; k := succ(k) od end",
        "func p5 in a: real out b: real begin "
        "  if a < 1/2 orelse 1/2 < a then b := a * 2 else b := a fi end",
    ]
    random.seed(11)
    ok = True
    for src in sources:
        p = parse("algebra RN\n" + src)
        samples = []
        while len(samples) < 20:
            q = Fraction(random.randrange(-40, 41), random.randrange(1, 9))
            if "p5" in src and q == Fraction(1, 2):
                continue  # the comparison diverges exactly at the split point
            samples.append(tuple(rat_value(q) for _ in p.in_vars))
        rep = a0_square_check(p, rn, calg, reg, samples)
        ok &= rep.ok
    criterion("criterion-5 a0-square", ok, 5.0, time.time() - t0,
              "alpha(run-on-codes) = run-on-values exactly, 5 programs x 20 inputs")


def test_criterion_6_theorem_a_lift():
    t0 = time.time()
    inn = get_algebra("IN")
    reg = CodeRegistry()
    calg = code_algebra(inn, reg)
    p, _ = load("exp_approx")
    ok = True
    for x in (Fraction(0), Fraction(1, 3), Fraction(1)):
        idx = reg.mint(ConstCode(x))
        lifted = soundness_lift(p, calg, reg, (NatV(idx),))
        lo, hi = exp_enclosure(x)
        for n in range(0, 9):
            v = ecode_eval(lifted, n, Fuel(10**7))
            tol = Fraction(2, 1 << n)  # the 2^-n+1 bound
            ok &= lo - tol < v < hi + tol
    criterion("criterion-6 theorem-a-lift", ok, 10.0, time.time() - t0,
              "lifted exp codes within 2^-n+1 of the 64-digit oracle, n<=8")


def test_criterion_7_theorem_b_construction():
    t0 = time.time()
    alpha = alpha_rat()
    reg = CodeRegistry()
    centers = [Fraction(i, 2) for i in range(-3, 4)]
    pairs = [(rat_encode(c), 0) for c in centers]
    cover = LUCModulus(cover=lambda i: pairs[i % len(pairs)],
                       lu=lambda i, n: n + 4, cover_size_hint=len(pairs))

    def sq(fuel, a):
        fuel.take()
        c = reg.code(a.n)
        return NatV(reg.mint(mul_codes(c, c)))

    rationals = [Fraction(n, d) for d in (1, 2, 3, 4, 8)
                 for n in (-7, -3, -1, 0, 1, 2, 5)
                 if abs(Fraction(n, d)) < 2][:14]
    # the remaining six samples arrive as codes (constant and derived)
    code_samples = [RealV(ConstCode(q)) for q in
                    (Fraction(-5, 4), Fraction(1, 8), Fraction(9, 8))]
    code_samples += [RealV(SumCode(ConstCode(q / 2), ConstCode(q / 2)))
                     for q in (Fraction(3, 4), Fraction(-3, 2), Fraction(0))]
    samples = [rat_value(q) for q in rationals] + code_samples
    assert len(samples) == 20
    ok = True
    for i, x in enumerate(samples):
        # derived rational codes: exact at depth
        xq = (x.code.value if x.code.is_const
              else x.code.approx(40, Fuel(10**6)))
        for n in ((10,) if i % 3 else (4, 10)):
            out = adequacy_g(sq, cover, alpha, reg, x, n, Dovetail(),
                             fuel=Fuel(2_000_000))
            ok &= out is not DIV and out is not FUEL_OUT
            if out is not DIV and out is not FUEL_OUT:
                ok &= abs(out.code.value - xq * xq) < Fraction(1, 1 << n)
    criterion("criterion-7 theorem-b", ok, 10.0, time.time() - t0,
              "G_n(x) within 2^-n of x^2 at 20 rational/code samples, n<=10")


def test_criterion_8_property_suites():
    t0 = time.time()
    ok = True
    detail = []

    # fast Cauchy prefix on emitted codes; the exp lift gets a shorter
    # prefix because its level m costs 2^m interpreter steps by design
    reg = CodeRegistry()
    emitted = [ConstCode(Fraction(3, 7)), sqrt_code(2),
               SumCode(sqrt_code(2), ConstCode(Fraction(-1, 3))),
               mul_codes(sqrt_code(2), sqrt_code(3))]
    ok &= all(check_fast_cauchy_prefix(c, Fuel(10**6)) == [] for c in emitted)
    inn = get_algebra("IN")
    calg = code_algebra(inn, reg)
    pexp, _ = load("exp_approx")
    lift = soundness_lift(pexp, calg, reg,
                          (NatV(reg.mint(ConstCode(Fraction(1, 2)))),))
    ok &= check_fast_cauchy_prefix(lift, Fuel(10**7), upto=8) == []
    detail.append("fast-Cauchy")

    # fuel monotonicity of apply
    rn = get_algebra("RN")
    random.seed(5)
    pool = [rat_value(Fraction(random.randrange(-9, 10), random.randrange(1, 9)))
            for _ in range(10)]
    for op in ("add", "inv", "eq_real", "less_real"):
        sym = rn.signature.symbol(op)
        for _ in range(25):
            args = tuple(random.choice(pool) for _ in range(sym.arity))
            small = apply(rn, op, args, Fuel(random.randrange(1, 6)))
            if small is not FUEL_OUT:
                big = apply(rn, op, args, Fuel(50_000))
                ok &= big is not FUEL_OUT and (big is DIV) == (small is DIV)
    detail.append("apply-fuel-monotone")

    # fuel monotonicity of eval_stmt leaf sets
    p, alg = load("pivot3")
    args = (rat_value(1), rat_value(0), rat_value(1))
    prev = set()
    for steps in (10, 100, 1000, 20_000):
        got = {v.n for v in eval_proc(p, args, alg, Enumerate(6),
                                      Fuel(steps)).values}
        ok &= prev <= got
        prev = got
    ok &= prev == {1, 3}
    detail.append("leafset-fuel-monotone")

    # stage-prefix monotonicity of computation trees
    sigma = State({"x1": rat_value(1), "x2": rat_value(1), "x3": rat_value(0),
                   "i": NatV(0)})
    for n in range(4):
        ok &= tree_is_prefix(
            comp_tree_stage(p.body, sigma, n, alg, Enumerate(6),
                            fuel=Fuel(1_000_000)),
            comp_tree_stage(p.body, sigma, n + 1, alg, Enumerate(6),
                            fuel=Fuel(1_000_000)))
    detail.append("stage-prefix")

    # initialisation independence
    pe, ie = load("exp_approx")
    eargs = (nat_value(2), interval_value(ConstCode(Fraction(1, 2))))
    clean = eval_proc(pe, eargs, ie, Dovetail(), Fuel(200_000))
    junk = {"s": rat_value(9), "y": rat_value(-1), "k": NatV(3),
            "bound": NatV(7), "i": NatV(1), "t": NatV(4), "j": NatV(6)}
    dirty = eval_proc(pe, eargs, ie, Dovetail(), Fuel(200_000), junk=junk)
    ok &= clean.values[0].code.value == dirty.values[0].code.value
    detail.append("init-independence")

    # strategy soundness: oracle/dovetail outputs inside the enumerate set
    enum = eval_proc(p, args, alg, Enumerate(8), Fuel(60_000))
    enum_keys = {v.n for v in enum.values}
    for seed in range(8):
        for strat in (Dovetail(seed), Oracle(seed)):
            out = eval_proc(p, args, alg, strat, Fuel(60_000))
            ok &= all(v.n in enum_keys for v in out.values)
    detail.append("strategy-soundness")

    # continuity sampling: the delta-search must succeed on approximating
    # programs (exp everywhere; the root finder at a generic parameter)
    ok &= continuity_probe(
        pe, ie, lambda x, n: (nat_value(n), interval_value(ConstCode(x))),
        Fraction(1, 2), n=5, eps_exp=5,
        clamp=lambda x: min(max(x, Fraction(0)), Fraction(1))) is not None
    pfa, algfa = load("root_bisect_fa")
    ok &= continuity_probe(
        pfa, algfa, lambda a, n: (nat_value(n), rat_value(a)),
        Fraction(0), n=4, eps_exp=3, fuel_steps=4_000_000) is not None
    detail.append("continuity-sampling")

    criterion("criterion-8 property-suites", ok, 60.0, time.time() - t0,
              " ".join(detail))
