"""Tracking functions, the code algebra, and the two desk constructions."""

import gc
import weakref
from fractions import Fraction

import pytest

from whilecc.algebra import (get_algebra, rat_value, value_key, NatV, RealV,
                             ArrV, TT, FF, DIV, FUEL_OUT, NATS, SHARED_NATS,
                             PartialAlgebra)
from whilecc.codes import (Fuel, CodeRegistry, ConstCode, ECode, RuleCode,
                           SumCode, OutOfFuel, sqrt_code, mul_codes, add_codes,
                           inv_code, rat_encode, check_fast_cauchy_prefix)
from whilecc.interp import Dovetail, Oracle, eval_proc, nat_value
from whilecc.lang import parse
from whilecc.programs import load
from whilecc.programs.oracles import (exp_enclosure, exp_partial_sum,
                                      sqrt_enclosure)
from whilecc.reals import (Enumeration, SortEnumeration, alpha_rat,
                           ecode_eval)
from whilecc.tracking import (code_algebra, decode_code_value,
                              encode_input, check_tracking,
                              soundness_lift, a0_square_check, LiftError,
                              LUCModulus, EffOpenCover, adequacy_mc,
                              adequacy_g, effective_open_membership,
                              strictify_tracking)


@pytest.fixture()
def rn_codes(registry):
    rn = get_algebra("RN")
    return rn, code_algebra(rn, registry), registry


def real_sort():
    return get_algebra("RN").signature.sort("real")


# ---------------------------------------------------------------------------
# the code algebra


@pytest.mark.parametrize("alg_name", ["RN", "IN", "codes(IN)"])
def test_exact_constants_tie_as_div_and_invert_in_one_step(alg_name):
    # equal exact constants compare as a decided divergence, after the one
    # step every rule takes (none on an empty budget); inv of a non-zero
    # constant takes that step too, and is DIV at 0 with no step
    if alg_name == "codes(IN)":
        reg = CodeRegistry()
        alg = code_algebra(get_algebra("IN"), reg)
        real = lambda q: NatV(reg.mint(ConstCode(q)))
        read = lambda v: reg.code(v.n).value
    else:
        alg, real, read = get_algebra(alg_name), rat_value, lambda v: v.code.value
    half = Fraction(1, 2)
    for steps in (0, 1, 10):
        for rule, y, want in (("eq_real", half, DIV), ("less_real", half, DIV),
                              ("eq_real", 1, FF), ("less_real", 1, TT)):
            fuel = Fuel(steps)
            assert alg.apply(rule, (real(half), real(y)), fuel) is want
            assert fuel.remaining == max(steps - 1, 0), (rule, steps)
        fuel = Fuel(steps)
        assert read(alg.apply("inv", (real(half),), fuel)) == 2
        assert fuel.remaining == max(steps - 1, 0)
        fuel = Fuel(steps)
        assert alg.apply("inv", (real(0),), fuel) is DIV
        assert fuel.remaining == steps


def test_code_algebra_identity_procedure(rn_codes):
    rn, calg, reg = rn_codes
    p = parse("algebra RN\nfunc f in a: real out b: real begin b := a end")
    idx = reg.mint(ConstCode(Fraction(2, 7)))
    out = eval_proc(p, (NatV(idx),), calg, Dovetail(), Fuel(1000))
    assert out.values[0].n == idx  # the input code comes straight back


def test_code_algebra_doubling(rn_codes):
    rn, calg, reg = rn_codes
    p = parse("algebra RN\nfunc f in a: real out b: real begin b := a + a end")
    idx = reg.mint(ConstCode(Fraction(1, 3)))
    out = eval_proc(p, (NatV(idx),), calg, Dovetail(), Fuel(1000))
    code = reg.code(out.values[0].n)
    for n in (1, 5, 9):
        assert abs(ecode_eval(code, n, Fuel(10**7)) - Fraction(2, 3)) < Fraction(1, 1 << (n - 1))


# the trackers that mint no code: the constant zero and i_I return an
# existing one, and the comparisons a bool
MINT_NONE = {"zero_real", "zero_interval", "i_I", "eq_real", "less_real"}


def test_each_real_tracker_mints_exactly_one_code(registry):
    IN = get_algebra("IN")
    calg = code_algebra(IN, registry)
    samples = {"real": (rat_value(Fraction(1, 3)), rat_value(Fraction(-2, 5))),
               "interval": (rat_value(Fraction(3, 4)),), "nat": (NatV(5),)}
    grew = {}
    for name, sym in IN.signature.symbols.items():
        sorts = sym.arg_sorts + (sym.result_sort,)
        if sym.conditional or all(s.kind in ("bool", "nat") for s in sorts):
            continue  # tracked by the value rule itself
        args = tuple(samples[s.kind][i % len(samples[s.kind])]
                     for i, s in enumerate(sym.arg_sorts))
        want = IN.apply(sym, args, Fuel(100))
        coded = tuple(encode_input(a, s, registry)
                      for a, s in zip(args, sym.arg_sorts))
        before = len(registry)
        got = calg.apply(sym, coded, Fuel(100))
        grew[name] = len(registry) - before
        decoded = decode_code_value(got, sym.result_sort, registry)
        assert value_key(decoded) == value_key(want), name
    assert MINT_NONE | {"add", "mul", "neg", "inv", "dist"} <= set(grew)
    assert grew == {name: int(name not in MINT_NONE) for name in grew}


def test_trackers_return_the_shared_nat_of_their_index(registry):
    add = code_algebra(get_algebra("IN"), registry).interp["add"]
    third = encode_input(rat_value(Fraction(1, 3)), real_sort(), registry)
    got = add(Fuel(5), third, third)
    assert got is NATS[len(registry) - 1]
    while len(registry) <= SHARED_NATS:
        registry.mint(ConstCode(0))
    got = add(Fuel(5), third, third)
    assert type(got) is NatV and got.n == len(registry) - 1 > SHARED_NATS
    assert registry.code(got.n).value == Fraction(2, 3)


ARRAY_SAMPLES = {
    "bool": (TT, FF, TT),
    "nat": (NatV(3), NatV(0), NatV(7)),
    "real": (rat_value(Fraction(1, 2)), rat_value(-3), rat_value(Fraction(2, 7))),
    "interval": (rat_value(Fraction(1, 3)), rat_value(1), rat_value(0)),
}


@pytest.mark.parametrize("name", ["RN*", "IN*"])
def test_code_algebra_array_trackers_match_star_algebra(name, registry):
    star = get_algebra(name)
    calg = code_algebra(star, registry)
    sig = star.signature
    elem_sorts = [s for s in sig.sorts.values() if s.kind != "array"]
    assert {s.kind for s in elem_sorts} >= {"bool", "nat", "real"}
    for s in elem_sorts:
        items = ARRAY_SAMPLES[s.kind]
        arr, v = ArrV(s, items), items[1]
        cases = [("Null", ()), ("Lgth", (arr,)), ("Lgth", (ArrV(s, ()),))]
        cases += [("Ap", (arr, NatV(i))) for i in (0, 2, 3, 9)]
        cases += [("Update", (arr, NatV(i), v)) for i in (0, 2, 3, 9)]
        cases += [("Newlength", (arr, NatV(k))) for k in (0, 2, 3, 6)]
        for op, args in cases:
            sym = sig.symbol(f"{op}_{s.name}")
            want = star.apply(sym, args, Fuel(100))
            coded = tuple(encode_input(a, t, registry)
                          for a, t in zip(args, sym.arg_sorts))
            got = calg.apply(sym, coded, Fuel(100))
            assert all(r is not DIV and r is not FUEL_OUT
                       for r in (want, got)), (name, sym.name)
            decoded = decode_code_value(got, sym.result_sort, registry)
            assert value_key(decoded) == value_key(want), \
                (name, sym.name, args)


def test_a0_square_on_five_small_programs(rn_codes):
    rn, calg, reg = rn_codes
    sources = [
        "func p1 in a: real out b: real begin b := a * a + 1 end",
        "func p2 in a: real out b: real begin b := a + a + 1/2 end",
        "func p3 in a: real, c: real out b: real begin b := a * c - c end",
        "func p4 in a: real out b: real begin "
        "  if a < 1 orelse 1 < a then b := a * 2 else b := a fi end",
        "func p5 in a: real out b: real aux k: nat begin "
        "  k := 0; while k < 3 do b := b + a; k := succ(k) od end",
    ]
    inputs1 = [(rat_value(Fraction(n, 7)),) for n in range(-4, 5)]
    inputs2 = [(rat_value(Fraction(n, 3)), rat_value(Fraction(2, 5)))
               for n in range(-4, 5)]
    for src in sources:
        p = parse("algebra RN\n" + src)
        ins = inputs2 if len(p.in_vars) == 2 else [
            i for i in inputs1 if src.count("p4") == 0
            or i[0].code.value != 1]  # p4's guard diverges exactly at 1
        rep = a0_square_check(p, rn, calg, reg, ins)
        assert rep.ok, (src, rep.failures)


def test_check_tracking_addition(rn_codes):
    rn, calg, reg = rn_codes
    alpha = alpha_rat()
    ks = [(rat_encode(Fraction(a, b)), rat_encode(Fraction(c, d)))
          for a, b, c, d in [(1, 2, 1, 3), (0, 1, 5, 4), (-7, 2, 7, 2)]]

    def decode(_i, k):
        return alpha.decode("real", k)

    def f(fuel, a, b):
        fuel.take()
        c1 = ConstCode(alpha.decode("real", a.n).code.value)
        c2 = ConstCode(alpha.decode("real", b.n).code.value)
        return NatV(reg.mint(add_codes(c1, c2)))

    rep = check_tracking(lambda fuel, *args: rn.apply("add", args, fuel),
                         f, ks, decode,
                         decode_out=lambda v: RealV(reg.code(v.n)),
                         name="add-tracking")
    assert rep.ok


def test_check_tracking_strictness_failure_reported(rn_codes):
    rn, calg, reg = rn_codes
    alpha = alpha_rat()

    def bad_inv(fuel, a):  # ignores the zero case entirely
        fuel.take()
        q = alpha.decode("real", a.n).code.value
        return NatV(reg.mint(ConstCode(0 if q == 0 else 1 / q)))

    ks = [(rat_encode(Fraction(1, 2)),), (rat_encode(Fraction(0)),)]
    rep = check_tracking(lambda fuel, *args: rn.apply("inv", args, fuel),
                         bad_inv, ks,
                         lambda _i, k: alpha.decode("real", k),
                         decode_out=lambda v: RealV(reg.code(v.n)),
                         strict=True, name="inv-strictness")
    assert not rep.ok
    assert any("strictness" in r[3] for r in rep.failures)


def test_check_tracking_row_fails_when_the_comparison_runs_out_of_fuel(rn_codes):
    # the results are compared on what the tracker left of its budget
    rn, calg, reg = rn_codes

    def sqrt2(fuel, a):
        fuel.take()
        return RealV(sqrt_code(2))

    def tracker(drain):
        def f(fuel, a):
            while drain and fuel.take():
                pass
            return NatV(reg.mint(sqrt_code(2)))
        return f

    for drain, ok, detail in [
            (False, True, "square commutes (equality unrefuted at 2^-20)"),
            (True, False, "fuel ran out comparing the results at 2^-20")]:
        rep = check_tracking(sqrt2, tracker(drain), [(0,)],
                             lambda _i, k: NatV(k),
                             decode_out=lambda v: RealV(reg.code(v.n)),
                             fuel_steps=50, name="sqrt2")
        assert rep.rows == [(ok, "sqrt2", "(0,)", detail)]


def test_check_tracking_eq_nat_identity():
    n_alg = get_algebra("N")
    f = n_alg.interp["eq_nat"]
    rep = check_tracking(lambda fuel, *args: n_alg.apply("eq_nat", args, fuel),
                         f, [(3, 3), (2, 7)],
                         lambda _i, k: NatV(k), name="eq_nat")
    assert rep.ok


# ---------------------------------------------------------------------------
# Theorem A machinery


def test_lift_of_constant_program(rn_codes):
    rn, calg, reg = rn_codes
    p = parse("algebra RN\nfunc c in n: nat, x: real out y: real begin y := 5/8 end")
    idx = reg.mint(ConstCode(0))
    code = soundness_lift(p, calg, reg, (NatV(idx),))
    for n in (0, 4, 8):
        assert ecode_eval(code, n, Fuel(10**7)) == Fraction(5, 8)


def test_lift_square_plus_one_desk_instance(rn_codes):
    # |e''(n) - (x^2+1)| < 2^-(n-2) for codes of 0, 1/3, sqrt2, n <= 8
    rn, calg, reg = rn_codes
    p, _ = load("sq1_approx")
    cases = [(ConstCode(Fraction(0)), (Fraction(1), Fraction(1))),
             (ConstCode(Fraction(1, 3)), (Fraction(10, 9), Fraction(10, 9))),
             (sqrt_code(2), (Fraction(3), Fraction(3)))]
    for code_in, (tlo, thi) in cases:
        idx = reg.mint(code_in)
        lifted = soundness_lift(p, calg, reg, (NatV(idx),))
        for n in range(0, 9):
            v = ecode_eval(lifted, n, Fuel(10**7))
            tol = Fraction(4, 1 << n)  # the 2^-n+2 bound of the instance
            assert tlo - tol < v < thi + tol, (n, v)


def test_lift_levels_are_paid_for_by_the_caller():
    # a level run is paid for by the approx call that needs it
    reg = CodeRegistry()
    calg = code_algebra(get_algebra("IN"), reg)
    p, _ = load("exp_approx")
    x = NatV(reg.mint(ConstCode(Fraction(1, 4))))
    lifted = soundness_lift(p, calg, reg, (x,))
    fuel = Fuel(5)
    with pytest.raises(OutOfFuel):
        ecode_eval(lifted, 6, fuel)
    assert fuel.remaining == 0
    # n = 6 needs level 8 alone; on a live budget the uncached level runs
    # in full and the caller pays exactly its steps (9 310 here)
    level = Fuel(10**6)
    eval_proc(p, (nat_value(8), x), calg, Dovetail(), level)
    fuel = Fuel(10**6)
    assert ecode_eval(lifted, 6, fuel) == exp_partial_sum(Fraction(1, 4), 2 ** 9)
    assert fuel.remaining == level.remaining
    # a level that outgrows its cap on a live budget is still a LiftError
    capped = soundness_lift(p, calg, reg, (x,), fuel_per_level=100)
    fuel = Fuel(10**6)
    with pytest.raises(LiftError) as e:
        ecode_eval(capped, 6, fuel)
    assert e.value.level == 8 and fuel.remaining == 10**6 - 100
    # a negative cap is refused: a level run's budget is never negative
    with pytest.raises(ValueError):
        soundness_lift(p, calg, reg, (x,), fuel_per_level=-1)


def test_lifted_approx_spends_as_recorded():
    # n = 5 runs level 7 on a budget carved from the caller's and the rest
    # repaid; the caller is charged the recorded spend. The cached level
    # costs nothing. Level 7 makes 256 divisions by a constant, one step each
    reg = CodeRegistry()
    calg = code_algebra(get_algebra("IN"), reg)
    p, _ = load("exp_approx")
    x = NatV(reg.mint(ConstCode(Fraction(1, 4))))
    lifted = soundness_lift(p, calg, reg, (x,))
    fuel = Fuel(10**6)
    assert lifted.approx(5, fuel) == exp_partial_sum(Fraction(1, 4), 2 ** 8)
    assert fuel.remaining == 995_052
    fuel = Fuel(10**6)
    lifted.approx(5, fuel)
    assert fuel.remaining == 10**6


def test_lift_aborts_with_level_on_divergence(rn_codes):
    rn, calg, reg = rn_codes
    p = parse("algebra RN\nfunc d in n: nat, x: real out y: real begin div end")
    idx = reg.mint(ConstCode(0))
    code = soundness_lift(p, calg, reg, (NatV(idx),), fuel_per_level=500)
    with pytest.raises(LiftError) as e:
        ecode_eval(code, 1, Fuel(10**7))
    assert e.value.level == 3  # the first queried level is n + 2


def test_lift_bisection_sqrt2(rn_codes):
    # the root program, run on codes, lifts to a code for a sqrt2-like root
    rn = get_algebra("RN*")
    reg = CodeRegistry()
    calg = code_algebra(rn, reg)
    p, _ = load("root_bisect")
    arr = encode_input(
        __import__("whilecc.programs", fromlist=["real_array"]).real_array(
            [-2, 0, 1]),
        rn.signature.sort("real*"), reg)
    lifted = soundness_lift(p, calg, reg, (arr,), fuel_per_level=3_000_000)
    lo, hi = sqrt_enclosure(2, 40)
    for n in (2, 5):
        v = ecode_eval(lifted, n, Fuel(10**7))
        tol = Fraction(2, 1 << n)
        assert (lo - tol < v < hi + tol) or (-hi - tol < v < -lo + tol), (n, v)


def test_exp_lift_desk_check(rn_codes):
    # the Theorem A instance for the exponential program at a rational code
    inn = get_algebra("IN")
    reg = CodeRegistry()
    calg = code_algebra(inn, reg)
    p, _ = load("exp_approx")
    x = Fraction(1, 3)
    idx = reg.mint(ConstCode(x))
    lifted = soundness_lift(p, calg, reg, (NatV(idx),))
    lo, hi = exp_enclosure(x)
    for n in (1, 4, 6):
        v = ecode_eval(lifted, n, Fuel(10**7))
        tol = Fraction(2, 1 << n)  # eq-(13)-style bound 2^-n+1
        assert lo - tol < v < hi + tol, (n, v)


# A lift is a fast Cauchy code for the approximated value: |v(n) - F(x)| is
# at most 2^-n. ALT_APPROX spends its whole 2^-n error budget at every level,
# on alternate sides of x, so a diagonal taken at level n instead of n + 2
# puts entries n and n + 1 3 * 2^-(n+1) apart.
ALT_APPROX = """algebra RN
func alt_approx
in n: nat, x: real
out y: real
aux e: real, k: nat
begin
  e := 1;
  k := 0;
  while k < n do e := e * (0 - 1/2); k := succ(k) od;
  y := x + e
end"""


def _within(v: Fraction, enclosure: tuple[Fraction, Fraction], n: int) -> bool:
    """|v - F| <= 2^-n for every F in the closed enclosure, exactly."""
    lo, hi = enclosure
    eps = Fraction(1, 1 << n)
    return v - eps <= lo and hi <= v + eps


def _approximating(name: str):
    """ALT_APPROX over RN, or a shipped program, with its algebra."""
    if name == "alt_approx":
        return parse(ALT_APPROX), get_algebra("RN")
    return load(name)


# exp_approx's level m sums 2^(m+1) terms, so its prefix stays short
@pytest.mark.parametrize("program, code_in, enclosure, upto", [
    ("alt_approx", ConstCode(Fraction(1, 3)), (Fraction(1, 3),) * 2, 16),
    ("alt_approx", ConstCode(Fraction(-7, 2)), (Fraction(-7, 2),) * 2, 16),
    ("alt_approx", sqrt_code(2), sqrt_enclosure(2), 16),
    ("alt_approx", SumCode(sqrt_code(2), ConstCode(-1)),
     tuple(b - 1 for b in sqrt_enclosure(2)), 12),
    ("sq1_approx", ConstCode(Fraction(1, 3)), (Fraction(10, 9),) * 2, 14),
    ("sq1_approx", ConstCode(Fraction(-5, 2)), (Fraction(29, 4),) * 2, 14),
    ("sq1_approx", sqrt_code(2), (Fraction(3),) * 2, 14),
    ("exp_approx", ConstCode(0), exp_enclosure(0), 8),
    ("exp_approx", ConstCode(Fraction(1, 3)), exp_enclosure(Fraction(1, 3)), 8),
    ("exp_approx", ConstCode(1), exp_enclosure(1), 8),
])
def test_lift_is_a_fast_cauchy_code_for_the_approximated_value(
        program, code_in, enclosure, upto):
    p, alg = _approximating(program)
    reg = CodeRegistry()
    lifted = soundness_lift(p, code_algebra(alg, reg), reg,
                            (NatV(reg.mint(code_in)),))
    fuel = Fuel(10**8)
    assert check_fast_cauchy_prefix(lifted, fuel, upto=upto) == []
    for n in range(upto + 1):
        assert _within(lifted.approx(n, fuel), enclosure, n), n


def _const_lift(rn):
    reg = CodeRegistry()
    calg = code_algebra(rn, reg)
    p = parse("algebra RN\nfunc c in n: nat, x: real out y: real "
              "begin y := x + 5/8 end")
    lifted = soundness_lift(p, calg, reg, (NatV(reg.mint(ConstCode(1))),))
    return lifted, calg, reg


def test_lifted_code_outlives_its_registry_and_code_algebra(RN):
    lifted, calg, reg = _const_lift(RN)
    reg_ref = weakref.ref(reg)
    del calg, reg
    assert reg_ref() is not None  # the lifted code still holds it
    assert ecode_eval(lifted, 6, Fuel(10**7)) == Fraction(13, 8)


def test_registered_diagonal_alone_reports_its_freed_code_algebra(RN):
    lifted, calg, reg = _const_lift(RN)
    diagonal = reg.code(len(reg) - 1)
    del lifted, calg
    with pytest.raises(LiftError, match="freed"):
        ecode_eval(diagonal, 3, Fuel(10**7))


def test_a_dropped_lift_is_freed_without_the_cyclic_collector(RN):
    gc.collect()
    gc.disable()
    try:
        lifted, calg, reg = _const_lift(RN)
        assert ecode_eval(lifted, 4, Fuel(10**7)) == Fraction(13, 8)
        refs = [weakref.ref(calg), weakref.ref(reg)]
        del lifted, calg, reg
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_a_code_algebra_run_on_directly_is_freed_without_the_cyclic_collector(RN):
    # eval_proc keeps the body compiled on calg in p.compiled, keyed weakly
    # by calg; its closures hold calg's rules and literal minter, not calg,
    # so calg, its registry and that code go with the last reference to calg
    p = parse("algebra RN\nfunc c in x: real out y: real begin y := x + 5/8 end")
    gc.collect()
    gc.disable()
    try:
        reg = CodeRegistry()
        calg = code_algebra(RN, reg)
        out = eval_proc(p, (NatV(reg.mint(ConstCode(1))),), calg, Dovetail(),
                        Fuel(1_000))
        assert reg.code(out.values[0].n).value == Fraction(13, 8)
        [code] = p.compiled[calg].values()
        closure = next(f for f in code.closures.values() if f is not None)
        refs = [weakref.ref(calg), weakref.ref(reg), weakref.ref(closure)]
        del out, code, closure, calg, reg
        assert [r() for r in refs] == [None, None, None]
        assert not p.compiled
    finally:
        gc.enable()


def test_a_second_run_on_a_code_algebra_mints_no_literal_again(IN):
    # a run reuses the code compiled on calg, whose real literals were
    # minted once, when it was compiled: a warm run returns the cold run's
    # value and mints the codes a cold run mints, less those literals
    p, _ = load("exp_approx")
    n3 = nat_value(3)

    def run(calg, reg):
        start = len(reg)
        x = NatV(reg.mint(ConstCode(Fraction(1, 3))))
        out = eval_proc(p, (n3, x), calg, Dovetail(), Fuel(100_000))
        return reg.code(out.values[0].n).value, [c.value for c in reg.codes[start:]]

    cold = []
    for _ in range(2):
        reg = CodeRegistry()
        cold.append(run(code_algebra(IN, reg), reg))
    reg = CodeRegistry()
    calg = code_algebra(IN, reg)
    warm = [run(calg, reg) for _ in range(2)]
    assert cold[0] == cold[1] == warm[0]
    value, minted = cold[0]
    assert value == exp_partial_sum(Fraction(1, 3), 16)
    # x, then the literals as the body is compiled: the 1 of `y := 1` and
    # `s := 1`, and the 0 the parser assigns y and s on entry
    assert sorted(minted[1:5]) == [0, 0, 1, 1]
    assert warm[1] == (value, minted[:1] + minted[5:])
    assert len(reg) == 1 + 2 * len(minted) - 4


NEST = """
algebra RN
func nest
in x: real
out y: real, j: nat, k: nat
aux i: nat
begin
  j := choose z : z < 8;
  while i < 2 do y := y + (x + 1/3); i := succ(i) od;
  k := choose z : z < 8
end
"""


def test_a_run_nested_in_a_run_of_its_code_leaves_that_run_as_it_was(RN):
    # a rule runs the procedure again on the same algebra and strategy while
    # the outer run is under way: the inner run has its own Oracle, and the
    # outer one goes on with its own proposals to its own values. The code's
    # two real literals, the 0 the parser assigns y and the 1/3, were minted
    # when the outer run compiled it, so the inner run mints neither
    p = parse(NEST)

    def run(alg, reg, seed):
        start = len(reg)
        x = NatV(reg.mint(ConstCode(Fraction(1, 3))))
        out = eval_proc(p, (x,), alg, Oracle(seed), Fuel(10_000))
        [(y, j, k)] = out.values
        return (reg.code(y.n).value, j.n, k.n), len(reg) - start

    def cold(seed):
        reg = CodeRegistry()
        return run(code_algebra(RN, reg), reg, seed)

    outer_cold, inner_cold = cold(1), cold(2)
    assert outer_cold[0][1:] != inner_cold[0][1:]  # the seeds choose apart
    reg = CodeRegistry()
    calg = code_algebra(RN, reg)
    inner = []

    def add(fuel, a, b):
        if not inner:  # the outer run's first add; the inner run's do not nest
            inner.append(None)
            inner[0] = run(nesting, reg, 2)
        return calg.interp["add"](fuel, a, b)

    nesting = PartialAlgebra("nesting", calg.signature,
                             dict(calg.interp, add=add),
                             carrier_check=calg.accepts,
                             real_literal=calg.real_literal)
    outer = run(nesting, reg, 1)
    assert inner == [(inner_cold[0], inner_cold[1] - 2)]
    assert outer == (outer_cold[0], outer_cold[1] + inner_cold[1] - 2)


# ---------------------------------------------------------------------------
# Theorem B machinery


@pytest.fixture()
def square_setup(registry):
    alpha = alpha_rat()
    centers = [Fraction(i, 2) for i in range(-3, 4)]
    cover_pairs = [(rat_encode(c), 0) for c in centers]
    cover = LUCModulus(cover=lambda i: cover_pairs[i % len(cover_pairs)],
                       lu=lambda i, n: n + 4,
                       cover_size_hint=len(cover_pairs))

    def sq(fuel, a):
        fuel.take()
        c = registry.code(a.n)
        return NatV(registry.mint(mul_codes(c, c)))

    return alpha, registry, cover, sq


def test_adequacy_mc_formula_case(square_setup):
    alpha, reg, cover, _ = square_setup
    out = adequacy_mc(cover, alpha, rat_value(Fraction(1, 2)), 4,
                      fuel=Fuel(200_000))
    assert out is not DIV and out is not FUEL_OUT
    assert out.n >= 8  # max(d0, lu(i, 4)) with lu = n + 4


def test_adequacy_mc_outside_cover_exhausts(square_setup):
    alpha, reg, cover, _ = square_setup
    out = adequacy_mc(cover, alpha, rat_value(50), 3, fuel=Fuel(3000))
    assert out is FUEL_OUT


def test_adequacy_g_square(square_setup):
    alpha, reg, cover, sq = square_setup
    for xq in (Fraction(0), Fraction(1, 3), Fraction(-7, 8), Fraction(3, 2)):
        for n in (2, 6, 10):
            out = adequacy_g(sq, cover, alpha, reg, rat_value(xq), n, Dovetail(),
                             fuel=Fuel(500_000))
            assert out is not DIV and out is not FUEL_OUT, (xq, n)
            y = out.code.value
            assert abs(y - xq * xq) < Fraction(1, 1 << n), (xq, n, y)


def test_adequacy_g_identity_tracking(square_setup):
    alpha, reg, cover, _ = square_setup

    def ident(fuel, a):
        fuel.take()
        return a

    out = adequacy_g(ident, cover, alpha, reg,
                     rat_value(Fraction(5, 8)), 8, Dovetail(), fuel=Fuel(500_000))
    assert out is not DIV and out is not FUEL_OUT
    assert abs(out.code.value - Fraction(5, 8)) < Fraction(1, 256)


@pytest.mark.parametrize("xq, n, y, left", [
    (Fraction(1, 3), 6, Fraction(1, 9), 499_897),
    (Fraction(-7, 8), 2, Fraction(49, 64), 486_884)])
def test_adequacy_g_spends_as_recorded(square_setup, xq, n, y, left):
    # each index's f-run gets a budget carved from the caller's and the rest
    # repaid; the caller's remaining fuel is the recorded spend
    alpha, reg, cover, sq = square_setup
    fuel = Fuel(500_000)
    out = adequacy_g(sq, cover, alpha, reg, rat_value(xq), n, Dovetail(),
                     fuel=fuel)
    assert out.code.value == y and fuel.remaining == left


class SlowCode(ECode):
    """The constant q, each level of which costs `cost` steps to read."""

    def __init__(self, q: Fraction, cost: int):
        super().__init__()
        self.q, self.cost = q, cost

    def _compute(self, n, fuel):
        for _ in range(self.cost):
            if not fuel.take():
                raise OutOfFuel("slow", n)
        return self.q


@pytest.mark.parametrize("cost, budget, out, left", [
    (40, 7_520, FUEL_OUT, 0), (40, 7_540, Fraction(5, 8), 1),
    (400, 100_000, Fraction(5, 8), 92_101)])
def test_adequacy_g_reads_the_tracked_code_on_its_stage_budget(
        square_setup, cost, budget, out, left):
    # f's code is read on the stage's carved budget: an index whose code
    # costs more than that is undecided and tried again at a later stage,
    # and a caller's budget that runs out while reading it gives FUEL_OUT
    # (OutOfFuel escaped when the code was read on the caller's budget)
    alpha, reg, cover, _ = square_setup

    def slow(fuel, a):
        fuel.take()
        return NatV(reg.mint(SlowCode(reg.code(a.n).value, cost)))

    fuel = Fuel(budget)
    r = adequacy_g(slow, cover, alpha, reg, rat_value(Fraction(5, 8)), 3,
                   Dovetail(), fuel=fuel)
    assert (r if r is FUEL_OUT else r.code.value) == out
    assert fuel.remaining == left


def test_adequacy_g_gives_up_an_index_whose_lift_hits_its_level_cap():
    # the round trip with a lift as the tracker: on 200 steps per level,
    # exp_approx's level 5 does not converge. The LiftError that says so
    # refutes the index, as a retry under the same cap would fail the same
    # way, instead of escaping adequacy_g, and the search runs out of fuel
    p, IN = load("exp_approx")
    reg = CodeRegistry()

    def lift(fuel, e):
        return NatV(reg.mint(soundness_lift(p, code_algebra(IN, reg), reg, (e,),
                                            fuel_per_level=200)))

    centers = [rat_encode(Fraction(i, 4)) for i in range(5)]
    cover = LUCModulus(cover=lambda i: (centers[i % 5], 2),
                       lu=lambda i, q: q + 3, cover_size_hint=5)
    fuel = Fuel(20_000)
    out = adequacy_g(lift, cover, alpha_rat(), reg, rat_value(0), 2,
                     Dovetail(), fuel=fuel)
    assert out is FUEL_OUT and fuel.remaining == 0


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 3), Fraction(-7, 5)])
def test_adequacy_g_is_within_its_bound_at_full_budget(registry, x, side):
    # F is the identity, whose modulus lu(i, p) = p is tight. The tracker
    # maps the code of a to n -> a + side * 2^-n, 2^-n from its limit at
    # every n. alpha(k) = x + side * 3 * 2^-(k+2) puts the first index within
    # 2^-M of x at 3/4 of that window, on the tracker's side. With M = n + 1
    # and the code read at n + 1, G_n(x) lies 7/8 * 2^-n from F(x) = x; a
    # modulus taken at a lower precision, or the code read at n, exceeds 2^-n.
    def decode(k):
        return rat_value(x + side * Fraction(3, 1 << (k + 2)))

    alpha = Enumeration({"real": SortEnumeration(member=lambda k: True,
                                                 decode=decode)})
    cover = LUCModulus(cover=lambda i: (0, -4), lu=lambda i, p: p,
                       cover_size_hint=1)

    def full_budget(fuel, a):
        fuel.take()
        q = registry.code(a.n).value
        return NatV(registry.mint(
            RuleCode(lambda n: q + side * Fraction(1, 1 << n), name="slow")))

    code = registry.code(full_budget(Fuel(1), NatV(registry.mint(ConstCode(x)))).n)
    assert check_fast_cauchy_prefix(code, Fuel(10**6), upto=20) == []
    for n in (0, 1, 3, 8, 12):
        out = adequacy_g(full_budget, cover, alpha, registry, rat_value(x), n,
                         fuel=Fuel(200_000))
        err = abs(out.code.value - x)
        assert Fraction(1, 1 << (n + 1)) < err <= Fraction(1, 1 << n), (n, err)


def test_adequacy_g_outside_domain_exhausts(square_setup):
    alpha, reg, cover, _ = square_setup

    def inv_track(fuel, a):
        code, status = inv_code(reg.code(a.n), fuel)
        if status == "zero":
            return DIV
        if status == "fuel":
            return FUEL_OUT
        return NatV(reg.mint(code))

    # x = 0 is outside dom(inv): the k-search never certifies f(e_con[k]) down
    pairs = [(rat_encode(Fraction(0)), 0)]
    inv_cover = LUCModulus(cover=lambda i: pairs[0], lu=lambda i, n: n + 6,
                           cover_size_hint=1)
    out = adequacy_g(inv_track, inv_cover, alpha, reg,
                     rat_value(0), 3, Dovetail(), fuel=Fuel(4000))
    assert out is FUEL_OUT


def test_adequacy_g_never_retries_a_divergent_index(registry):
    # alpha(k) = 2^-30/(k+1): distinct rationals all within 2^-M of x = 0,
    # so the constant code f receives names the index it came from
    def decode(k):
        return rat_value(Fraction(1, (k + 1) << 30))

    alpha = Enumeration({"real": SortEnumeration(member=lambda k: True,
                                                 decode=decode)})
    cover = LUCModulus(cover=lambda i: (0, 0), lu=lambda i, n: n + 4,
                       cover_size_hint=1)
    seen = []

    def divergent(fuel, a):
        seen.append(registry.code(a.n).value)
        return DIV

    out = adequacy_g(divergent, cover, alpha, registry,
                     rat_value(0), 3, Dovetail(), fuel=Fuel(20_000))
    assert out is FUEL_OUT
    assert seen and len(seen) == len(set(seen))


def test_adequacy_g_mints_one_code_per_rational(square_setup):
    # retried indices, and indices naming the same rational, share one
    # constant code: the registry grows by the distinct rationals tried
    alpha, reg, cover, _ = square_setup
    tried = []

    def undecided(fuel, a):
        tried.append(reg.code(a.n).value)
        return FUEL_OUT

    before = len(reg)
    out = adequacy_g(undecided, cover, alpha, reg, rat_value(0), 3,
                     Dovetail(), fuel=Fuel(20_000))
    assert out is FUEL_OUT
    assert len(tried) > len(set(tried))
    assert len(reg) - before <= len(set(tried))


# ---------------------------------------------------------------------------
# effective openness


def test_effective_open_membership(registry):
    alpha = alpha_rat()
    # the cover of (0, inf): balls B(2^-i-ish centers widening outward)
    pairs = [(rat_encode(Fraction(2 ** i, 2)), 0 if i else 1) for i in range(6)]
    cover = EffOpenCover(cover=lambda i: pairs[i % len(pairs)],
                         cover_size_hint=len(pairs))
    one = ConstCode(1)
    out = effective_open_membership(cover, one, alpha, Fuel(5000))
    assert out is not DIV and out is not FUEL_OUT and out.b
    zero = ConstCode(0)
    for budget in (50, 500, 5000):
        out = effective_open_membership(cover, zero, alpha, Fuel(budget))
        assert out is FUEL_OUT  # boundary point: semi-decision never fires


def test_strictify_tracking(registry):
    alpha = alpha_rat()
    pairs = [(rat_encode(Fraction(0)), -4)]  # one huge ball: everything nearby
    cover = EffOpenCover(cover=lambda i: pairs[0], cover_size_hint=1)

    def ident(fuel, a):
        fuel.take()
        return a

    f = ident
    f2 = strictify_tracking(f, cover, alpha, registry)
    idx = registry.mint(ConstCode(Fraction(1, 2)))
    a = f(Fuel(1000), NatV(idx))
    b = f2(Fuel(5000), NatV(idx))
    assert all(r is not DIV and r is not FUEL_OUT for r in (a, b))
    assert a.n == b.n
    # a code outside the cover never gets through the strictified version
    far_pairs = [(rat_encode(Fraction(10)), 4)]
    far_cover = EffOpenCover(cover=lambda i: far_pairs[0], cover_size_hint=1)
    f3 = strictify_tracking(f, far_cover, alpha, registry)
    out = f3(Fuel(2000), NatV(idx))
    assert out is FUEL_OUT
