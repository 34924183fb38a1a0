"""Built-in algebras, rule outcomes, fuel behavior, and metrics."""

import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from whilecc.algebra import (apply, get_algebra, rat_value, interval_value,
                             interval_containment, INTERVAL_SLACK_BITS,
                             product_metric, AlgebraError,
                             BoolV, NatV, RealV, ArrV, TT, FF, Value, DIV,
                             FUEL_OUT, SHARED_NATS)
from whilecc.codes import (Fuel, ConstCode, OutOfFuel, sqrt_code, e_code,
                           add_codes, prog_rat_decode, unpair)
from whilecc.signature import ProductType, REAL, NAT


F = lambda k=100000: Fuel(k)


def test_booleans(B):
    assert apply(B, "and", (TT, FF), F()).b is False
    inner = apply(B, "not", (TT,), F())
    assert apply(B, "not", (inner,), F()).b is True
    assert apply(B, "or", (FF, FF), F()).b is False


def test_naturals(N):
    assert apply(N, "eq_nat", (NatV(3), NatV(3)), F()).b
    assert apply(N, "less_nat", (NatV(2), NatV(7)), F()).b
    assert apply(N, "if_nat", (TT, NatV(4), NatV(9)), F()).n == 4
    assert apply(N, "succ", (NatV(41),), F()).n == 42


def test_nat_and_bool_rules_return_shared_values(N):
    from whilecc.algebra import SHARED_NATS, nat_value
    three = NatV(3)
    for rule, args, want in (("and", (TT, TT), TT), ("and", (TT, FF), FF),
                             ("or", (FF, FF), FF), ("or", (FF, TT), TT),
                             ("not", (TT,), FF), ("not", (FF,), TT),
                             ("eq_nat", (three, NatV(3)), TT),
                             ("eq_nat", (three, NatV(4)), FF),
                             ("less_nat", (three, NatV(7)), TT),
                             ("less_nat", (three, three), FF)):
        assert apply(N, rule, args, F()) is want, (rule, args)
    assert apply(N, "zero_nat", (), F()) is nat_value(0)
    for n in (0, 41, SHARED_NATS - 2):
        assert apply(N, "succ", (NatV(n),), F()) is nat_value(n + 1)
    for n in (SHARED_NATS - 1, 10 ** 6):  # past the table: a new, equal NatV
        r = apply(N, "succ", (NatV(n),), F())
        assert type(r) is NatV and r.n == n + 1
        assert nat_value(n + 1).n == n + 1


def test_rn_decode_caches_stop_growing_past_the_shared_nats():
    # rat, nat2real, fst and snd share one decoded value per n below
    # SHARED_NATS; a larger n is decoded afresh, so no cache grows with it
    rules = get_algebra("RN").interp
    caches = [inspect.getclosurevars(rules[rule]).nonlocals[name]
              for rule, name in (("rat", "rat_of"), ("nat2real", "real_of"),
                                 ("fst", "unpair_of"))]
    for n in (0, 5, SHARED_NATS - 1):
        for rule in ("rat", "nat2real"):
            assert rules[rule](F(), NatV(n)) is rules[rule](F(), NatV(n))
    sizes = [c.cache_info().currsize for c in caches]
    for n in range(SHARED_NATS, SHARED_NATS + 2_000):
        a = NatV(n)
        assert rules["rat"](F(), a).code.value == prog_rat_decode(n)
        assert rules["nat2real"](F(), a).code.value == n
        assert (rules["fst"](F(), a).n, rules["snd"](F(), a).n) == unpair(n)
    assert [c.cache_info().currsize for c in caches] == sizes
    big = NatV(SHARED_NATS)
    assert rules["rat"](F(), big) is not rules["rat"](F(), big)


def test_total_algebras_never_fail(B, N):
    # even at a dead budget the discrete total operations complete
    assert isinstance(apply(B, "and", (TT, TT), Fuel(0)), Value)
    assert isinstance(apply(N, "succ", (NatV(0),), Fuel(0)), Value)


def test_real_field_and_partial_comparisons(RN):
    v = apply(RN, "add", (rat_value(Fraction(1, 2)), rat_value(Fraction(1, 3))), F())
    assert v.code.value == Fraction(5, 6)
    assert apply(RN, "less_real", (rat_value(1), rat_value(2)), F()).b
    for fuel in (1, 10, 1000):  # a tie of exact constants is decided
        assert apply(RN, "eq_real", (rat_value(1), rat_value(1)), Fuel(fuel)) is DIV
    assert apply(RN, "inv", (rat_value(0),), F()) is DIV
    assert apply(RN, "inv", (rat_value(2),), F()).code.value == Fraction(1, 2)


def test_comparison_on_same_code_exhausts(RN):
    s2 = sqrt_code(2)
    assert apply(RN, "less_real", (RealV(s2), RealV(s2)), Fuel(64)) is FUEL_OUT


def test_comparison_against_64_digit_oracle(RN):
    # whenever less_real converges the answer must agree with a deep
    # interval refinement (a 64-digit oracle is ~214 bits)
    codes = [ConstCode(Fraction(7, 5)), sqrt_code(2), e_code(),
             add_codes(sqrt_code(2), ConstCode(Fraction(-1, 64)))]
    for i, x in enumerate(codes):
        for j, y in enumerate(codes):
            out = apply(RN, "less_real", (RealV(x), RealV(y)), Fuel(400))
            if out is DIV or out is FUEL_OUT:
                continue
            xlo, xhi = x.interval(220, F())
            ylo, yhi = y.interval(220, F())
            if out.b:
                assert xlo < yhi, (i, j)
            else:
                assert ylo < xhi, (i, j)


def test_apply_is_fuel_monotone(RN):
    # values and DIV never change with more fuel
    random.seed(7)
    args_pool = [rat_value(Fraction(random.randrange(-9, 10),
                                    random.randrange(1, 9))) for _ in range(12)]
    ops = ["add", "mul", "neg", "inv", "eq_real", "less_real"]
    for op in ops:
        sym = RN.signature.symbol(op)
        for _ in range(40):
            args = tuple(random.choice(args_pool) for _ in range(sym.arity))
            small = apply(RN, op, args, Fuel(random.randrange(1, 8)))
            if small is not FUEL_OUT:
                big = apply(RN, op, args, Fuel(10_000))
                assert big is not FUEL_OUT and (big is DIV) == (small is DIV)
                if isinstance(small, BoolV):
                    assert big.b == small.b


def test_metric_axioms_sampled(RN):
    random.seed(3)
    real = RN.signature.sort("real")
    pts = [rat_value(Fraction(random.randrange(-40, 40), random.randrange(1, 12)))
           for _ in range(8)]
    n = 10
    slack1 = Fraction(2, 1 << n)
    for x in pts:
        assert RN.metric(real, x, x, n, F()) <= slack1
        for y in pts:
            dxy = RN.metric(real, x, y, n, F())
            dyx = RN.metric(real, y, x, n, F())
            assert abs(dxy - dyx) <= slack1
            for z in pts:
                dxz = RN.metric(real, x, z, n, F())
                dyz = RN.metric(real, y, z, n, F())
                assert dxz <= dxy + dyz + 2 * slack1


def test_product_metric(RN):
    u = ProductType((REAL, REAL))
    d = product_metric(RN, u, (rat_value(0), rat_value(0)),
                       (rat_value(3), rat_value(4)), 20, F())
    assert abs(d - 4) <= Fraction(1, 1 << 19)
    same = product_metric(RN, u, (rat_value(1), rat_value(2)),
                          (rat_value(1), rat_value(2)), 10, F())
    assert same <= Fraction(1, 1 << 10)
    # mixed tuple uses the discrete metric on nat
    u2 = ProductType((REAL, NAT))
    d2 = product_metric(RN, u2, (rat_value(0), NatV(1)),
                        (rat_value(0), NatV(2)), 10, F())
    assert d2 == 1


def test_real_metric_charges_caller_fuel(RN):
    real = RN.signature.sort("real")
    fuel = Fuel(10)
    d = RN.metric(real, RealV(sqrt_code(2)), rat_value(1), 20, fuel)
    assert abs(d - Fraction(41421, 100000)) < Fraction(1, 10**5)
    assert fuel.remaining < 10
    with pytest.raises(OutOfFuel):
        RN.metric(real, RealV(sqrt_code(2)), rat_value(1), 20, Fuel(0))


def test_star_algebra_array_ops(RNs):
    f = F()
    arr = apply(RNs, "Null_real", (), f)
    assert apply(RNs, "Lgth_real", (arr,), f).n == 0
    arr = apply(RNs, "Newlength_real", (arr, NatV(3)), f)
    arr = apply(RNs, "Update_real", (arr, NatV(1), rat_value(7)), f)
    assert apply(RNs, "Ap_real", (arr, NatV(1)), f).code.value == 7
    # out of range reads are total and give the sort default
    assert apply(RNs, "Ap_real", (arr, NatV(9)), f).code.value == 0
    # out of range updates leave the array unchanged
    same = apply(RNs, "Update_real", (arr, NatV(9), rat_value(1)), f)
    assert [v.code.value for v in same.items] == [v.code.value for v in arr.items]


def test_array_metric_length_mismatch_is_one(RNs):
    real = RNs.signature.sort("real")
    sx = RNs.signature.sort("real*")
    a = ArrV(real, (rat_value(1), rat_value(2)))
    b = ArrV(real, (rat_value(1), rat_value(2), rat_value(3)))
    assert RNs.metric(sx, a, b, 8, F()) == 1
    c = ArrV(real, (rat_value(1), rat_value(Fraction(9, 4))))
    d = RNs.metric(sx, a, c, 20, F())
    assert abs(d - Fraction(1, 4)) <= Fraction(1, 1 << 19)


def test_interval_algebra(IN):
    f = F()
    half = interval_value(ConstCode(Fraction(1, 2)))
    out = apply(IN, "i_I", (half,), f)
    assert out.code.value == Fraction(1, 2)
    with pytest.raises(AlgebraError):
        interval_value(ConstCode(2))
    third = interval_value(sqrt_code(Fraction(1, 9)))  # a code for 1/3
    assert isinstance(apply(IN, "i_I", (third,), f), Value)
    # boundary values pass with the documented slack
    interval_value(ConstCode(0))
    interval_value(ConstCode(1))


def test_interval_containment_charges_caller_fuel():
    # refining a non-constant code draws on the caller's budget, so a budget
    # that covers the refinement rounds alone runs out
    slack = Fraction(1, 1 << INTERVAL_SLACK_BITS)
    probe = sqrt_code(Fraction(1, 9))  # a code for 1/3
    rounds = next(n + 1 for n in range(64)
                  if -slack <= probe.interval(n, F())[0]
                  and probe.interval(n, F())[1] <= 1 + slack)
    fuel = Fuel(1000)
    assert interval_containment(sqrt_code(Fraction(1, 9)), fuel) == "yes"
    assert 1000 - fuel.remaining > rounds
    fuel = Fuel(rounds)
    assert interval_containment(sqrt_code(Fraction(1, 9)), fuel) == "unknown"
    assert fuel.dead


def test_apply_argument_errors(RN):
    from whilecc.signature import SignatureError
    with pytest.raises(AlgebraError):
        apply(RN, "add", (rat_value(1),), F())
    with pytest.raises(AlgebraError):
        apply(RN, "add", (rat_value(1), NatV(2)), F())
    with pytest.raises(SignatureError):
        apply(RN, "no_such_symbol", (), F())


def test_get_algebra_names():
    for name in ("B", "N", "R", "RN", "IN", "RN*", "N*", "IN*"):
        alg = get_algebra(name)
        assert alg.name == name
    with pytest.raises(AlgebraError):
        get_algebra("ZFC")


@given(st.fractions(max_denominator=64), st.fractions(max_denominator=64))
@settings(max_examples=80, derandomize=True)
def test_real_metric_is_exact_on_rationals(q1, q2):
    RN = get_algebra("RN")
    real = RN.signature.sort("real")
    assert RN.metric(real, rat_value(q1), rat_value(q2), 12, F()) == abs(q1 - q2)


def _entered(rule, *args):
    """The rule's result, and the Python functions entered while it ran
    after the rule itself, as (module, name) pairs."""
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append((frame.f_globals.get("__name__"), frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        result = rule(*args)
    finally:
        sys.setprofile(None)
    assert seen[0][1] == rule.__name__
    return result, seen[1:]


@pytest.mark.parametrize("name", ["RN", "IN"])
def test_constant_operations_enter_one_codes_function(request, name):
    # a real operation on exact constants runs in its rule plus at most one
    # function of whilecc.codes: the arithmetic builds its constant in place
    alg = request.getfixturevalue(name)
    rules = alg.interp
    a, b = Fraction(3, 7), Fraction(5, 11)
    x, y, z = rat_value(a), rat_value(b), rat_value(Fraction(5, 14))
    for op, args, codes_fn, want in (
            ("add", (x, z), "add_codes", a + Fraction(5, 14)),  # nested
            ("add", (x, y), "add_codes", a + b),
            ("mul", (x, y), "mul_codes", a * b),
            ("neg", (x,), "neg_code", -a),
            ("inv", (x,), "inv_code", 1 / a),
            ("dist", (x, y), "abs_diff_code", abs(a - b))):
        out, entered = _entered(rules[op], F(), *args)
        assert [f for m, f in entered if m == "whilecc.codes"] == [codes_fn], op
        assert out.code.value == want
    for op, want in (("less_real", TT), ("eq_real", FF)):
        out, entered = _entered(rules[op], F(), x, y)
        assert (out, entered) == (want, []), op
    seven = rules["nat2real"](F(), NatV(7))
    out, entered = _entered(rules["nat2real"], F(), NatV(7))
    assert out is seven and entered == [] and seven.code.value == 7
    if name == "IN":
        half = interval_value(ConstCode(Fraction(1, 2)))
        out, entered = _entered(rules["i_I"], F(), half)
        assert out is half and entered == []
