"""Pairing, rational codecs, and fast Cauchy code machinery."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from whilecc import codes
from whilecc.algebra import (DIV, FF, TT, RealV, builtin_R_N,
                             compare_codes, interval_value, rat_value,
                             value_key)
from whilecc.codes import (pair, unpair, rat_decode, rat_encode,
                           prog_rat_decode, ConstCode, RuleCode, SumCode,
                           MulCode, DiagonalCode, Fuel, CodeRegistry, ECode,
                           FastCauchyError, check_fast_cauchy_prefix,
                           add_codes, mul_codes, inv_code, abs_diff_code,
                           neg_code, sqrt_code, e_code, separation_witness)
from whilecc.interp import Dovetail, eval_proc, nat_value
from whilecc.programs import load
from whilecc.programs.oracles import exp_partial_sums_at

HALF = Fraction(1, 2)


def sqrt2_oracle_enclosure(bits=80):
    # independent oracle: integer square roots at scaled precision
    lo = Fraction(isqrt(2 << (2 * bits)), 1 << bits)
    return lo, lo + Fraction(1, 1 << bits)


def test_pair_unpair_bijection_sampled():
    for n in range(0, 1_000_001, 997):  # arithmetic slice of 0..10^6
        a, b = unpair(n)
        assert pair(a, b) == n
    for a in range(60):
        for b in range(60):
            assert unpair(pair(a, b)) == (a, b)


@given(st.integers(0, 10**6))
@settings(max_examples=200, derandomize=True)
def test_pair_unpair_property(n):
    a, b = unpair(n)
    assert pair(a, b) == n


def test_rat_decode_zero_is_zero():
    assert rat_decode(0) == Fraction(0, 1)


def test_rat_codec_roundtrip_samples():
    qs = [Fraction(p, q) for p in range(-9, 10) for q in range(1, 8)]
    for r in qs:
        assert rat_decode(rat_encode(r)) == r


@given(st.fractions(max_denominator=1000))
@settings(max_examples=200, derandomize=True)
def test_rat_codec_roundtrip_property(r):
    assert rat_decode(rat_encode(r)) == r


def test_prog_rat_surjective_onto_samples():
    # odd side carries the canonical enumeration
    for r in (Fraction(3, 7), Fraction(-355, 113), Fraction(0)):
        assert prog_rat_decode(2 * rat_encode(r) + 1) == r
    # even side: dyadics appear with small indices
    seen = {prog_rat_decode(k) for k in range(0, 200, 2)}
    assert Fraction(1, 2) in seen and Fraction(-3) in seen


def test_const_code_fast_cauchy_trivially():
    c = ConstCode(Fraction(7, 2))
    assert check_fast_cauchy_prefix(c, Fuel(10**6)) == []
    for n in (0, 5, 13):
        assert c.approx(n, Fuel(10**6)) == Fraction(7, 2)


def test_sqrt2_code_against_interval_oracle():
    s2 = sqrt_code(2)
    lo, hi = sqrt2_oracle_enclosure()
    v = s2.approx(10, Fuel(10**6))
    assert abs(v - lo) < Fraction(1, 1 << 9) and abs(v - hi) < Fraction(1, 1 << 9)
    assert check_fast_cauchy_prefix(s2, Fuel(10**6)) == []


def test_e_code_against_taylor_oracle():
    # independent oracle: direct factorial sums with an explicit tail bound
    def oracle(bits):
        s, t, i = Fraction(1), Fraction(1), 0
        while t * 2 > Fraction(1, 1 << bits):
            i += 1
            t /= i
            s += t
        return s, s + 2 * t

    e = e_code()
    lo, hi = oracle(60)
    for n in (1, 4, 8, 12):
        v = e.approx(n, Fuel(10**6))
        assert lo - Fraction(1, 1 << n) < v < hi + Fraction(1, 1 << n)
    assert check_fast_cauchy_prefix(e, Fuel(10**6)) == []


def test_arithmetic_codes_are_fast_cauchy_and_correct():
    s2 = sqrt_code(2)
    e = e_code()
    cases = {
        "sum": (add_codes(s2, e), None),
        "mul": (mul_codes(s2, s2), Fraction(2)),
        "absdiff": (abs_diff_code(s2, s2), Fraction(0)),
    }
    for name, (code, limit) in cases.items():
        assert check_fast_cauchy_prefix(code, Fuel(10**6)) == [], name
        if limit is not None:
            assert abs(code.approx(16, Fuel(10**6)) - limit) < Fraction(1, 1 << 16), name


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
@settings(max_examples=100, derandomize=True)
def test_const_arithmetic_exact(a, b):
    assert add_codes(ConstCode(a), ConstCode(b)).value == a + b
    assert mul_codes(ConstCode(a), ConstCode(b)).value == a * b


@given(st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6))
@settings(max_examples=200, derandomize=True)
def test_fast_rational_helpers_agree_with_operators(a, b):
    from whilecc.codes import rat_dist
    # on operands in lowest terms, a product and a sum over unrelated
    # denominators give a pair in lowest terms, like a Fraction's (positive
    # denominator), with no Fraction built; a nested sum stays unreduced
    x, y = ConstCode(a), ConstCode(b)
    da, db = a.denominator, b.denominator
    results = [(mul_codes(x, y), a * b)]
    if da % db and db % da:
        results.append((add_codes(x, y), a + b))
    for c, r in results:
        assert (_pair(c), _state(c)) == (_pair(r), "lowest")
    if a != 0:
        c, _ = inv_code(ConstCode(a), Fuel(0))
        assert (_pair(c), _state(c)) == (_pair(1 / a), "lowest")
    d = rat_dist(a, b)
    assert d == abs(a - b)  # Fraction equality is canonical
    assert type(d) is Fraction and d.denominator > 0
    assert gcd(d.numerator, d.denominator) == 1


def test_coprime_builds_without_reducing():
    # the caller promises coprime integers; no gcd runs on any interpreter
    assert codes._coprime(2, 4).numerator == 2
    assert codes._coprime(3, 7) == Fraction(3, 7)


_CHAIN_OPS = ("add", "add", "add", "neg", "mul", "absdiff", "inv")


@st.composite
def const_chains(draw):
    """Leaf rationals over equal, nested and unrelated denominators, and a
    chain of operations; each step combines two earlier codes and may read
    its result at once, so operands are both reduced and unreduced."""
    base = draw(st.integers(1, 10 ** 9))
    dens = st.one_of(st.just(base),
                     st.integers(2, 64).map(lambda m: base * m),
                     st.integers(1, 10 ** 12))
    nums = st.one_of(st.integers(-12, 12), st.integers(-10 ** 15, 10 ** 15))
    leaves = draw(st.lists(st.builds(Fraction, nums, dens),
                           min_size=1, max_size=6))
    steps = draw(st.lists(st.tuples(st.sampled_from(_CHAIN_OPS),
                                    st.integers(0, 63), st.integers(0, 63),
                                    st.sampled_from([False, False, True])),
                          max_size=30))
    return leaves, steps


def _state(c: ConstCode) -> str:
    """How far a constant's pair is known, by the marker in `_value`."""
    v = c._value
    if v is None:
        return "unreduced"
    if v is codes._LOWEST:
        return "lowest"
    assert type(v) is Fraction
    return "read"


def _pair(c) -> tuple[int, int]:
    return c.numerator, c.denominator


def _unreduced(*cs: ConstCode) -> list[ConstCode]:
    """The constants whose pair may be unreduced."""
    return [c for c in cs if _state(c) == "unreduced"]


def _check_compare(x: ConstCode, y: ConstCode, a: Fraction, b: Fraction):
    # eq_real and less_real on constants: one step, DIV when equal
    for op in ("less", "eq"):
        fuel = Fuel(3)
        want = DIV if a == b else TT if op == "less" and a < b else FF
        assert compare_codes(x, y, fuel, op) is want
        assert fuel.remaining == 2


def _bits(q: Fraction) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


def _check_canonical(c: ConstCode, r: Fraction, stored: int) -> None:
    v = c.value
    assert type(v) is Fraction and v == r
    assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1
    assert stored % v.denominator == 0
    # canonical for every reader, whichever chain reached the rational
    direct = rat_value(r)
    assert value_key(RealV(c)) == value_key(direct)
    assert hash(value_key(RealV(c))) == hash(value_key(direct))


@given(const_chains())
@settings(max_examples=300, derandomize=True)
def test_const_chains_read_canonical_values(chain):
    leaves, steps = chain
    pool = [(ConstCode(q), q, q.denominator) for q in leaves]
    for op, i, j, read in steps:
        (x, a, _), (y, b, _) = pool[i % len(pool)], pool[j % len(pool)]
        if _bits(a) + _bits(b) > 4000:  # repeated products grow exponentially
            continue
        dx, dy = x.denominator, y.denominator
        # comparisons and distances read the stored pairs, never reduce them
        states = [_state(x), _state(y)]
        _check_compare(x, y, a, b)
        assert [_state(x), _state(y)] == states
        if op == "add":
            c, r = add_codes(x, y), a + b
        elif op == "neg":
            c, r = neg_code(x), -a
        elif op == "mul":
            c, r = mul_codes(x, y), a * b
        elif op == "absdiff":
            c, r = abs_diff_code(x, y), abs(a - b)
        else:
            c, status = inv_code(x, Fuel(10))
            if a == 0:
                assert (c, status) == (None, "zero")
                continue
            r = 1 / a
        stored = c.denominator
        assert _state(c) != "read"  # no arithmetic builds a Fraction
        if op == "add" and _unreduced(c):
            assert stored <= max(dx, dy)  # an unreduced sum never grows
        if op == "absdiff":
            assert stored == dx * dy // gcd(dx, dy)
            assert [_state(x), _state(y)] == states
        if read:
            _check_canonical(c, r, stored)
        pool.append((c, r, stored))
    for c, r, stored in pool:
        _check_canonical(c, r, stored)
    for x, a, _ in pool[-4:]:
        for y, b, _ in pool:
            _check_compare(x, y, a, b)


RN_RULES = builtin_R_N().interp


def _check_rule_compare(x: RealV, y: RealV, a: Fraction, b: Fraction):
    # the RN comparison rules decide two constants inline: one step on a
    # live budget and none on an empty one, DIV when they are equal, and
    # no operand pair reduced
    states = [_state(x.code), _state(y.code)]
    for op in ("less_real", "eq_real"):
        want = DIV if a == b else TT if op == "less_real" and a < b else FF
        for steps in (3, 0):
            fuel = Fuel(steps)
            assert RN_RULES[op](fuel, x, y) is want
            assert fuel.remaining == max(steps - 1, 0)
    assert [_state(x.code), _state(y.code)] == states


@given(const_chains())
@settings(max_examples=300, derandomize=True)
def test_const_chains_through_the_rules_read_canonical_values(chain):
    # the same chains driven through the RN rules, which build their
    # constants in place and compare two constants without compare_codes
    leaves, steps = chain
    pool = [(rat_value(q), q, q.denominator) for q in leaves]
    for op, i, j, read in steps:
        (x, a, _), (y, b, _) = pool[i % len(pool)], pool[j % len(pool)]
        if _bits(a) + _bits(b) > 4000:  # repeated products grow exponentially
            continue
        dx, dy = x.code.denominator, y.code.denominator
        _check_rule_compare(x, y, a, b)
        fuel = Fuel(2)
        if op == "add":
            v, r = RN_RULES["add"](fuel, x, y), a + b
        elif op == "neg":
            v, r = RN_RULES["neg"](fuel, x), -a
        elif op == "mul":
            v, r = RN_RULES["mul"](fuel, x, y), a * b
        elif op == "absdiff":
            v, r = RN_RULES["dist"](fuel, x, y), abs(a - b)
        else:
            v = RN_RULES["inv"](fuel, x)
            if a == 0:
                assert v is DIV and fuel.remaining == 2  # decided, no step
                continue
            r = 1 / a
        assert fuel.remaining == 1  # a rule on constants takes one step
        c = v.code
        stored = c.denominator
        assert type(v) is RealV and type(c) is ConstCode
        assert _state(c) != "read"  # no rule builds a Fraction
        if op == "add" and _unreduced(c):
            assert stored <= max(dx, dy)  # an unreduced sum never grows
        if op == "absdiff":
            assert stored == dx * dy // gcd(dx, dy)
        if read:
            _check_canonical(c, r, stored)
        pool.append((v, r, stored))
    for v, r, stored in pool:
        _check_canonical(v.code, r, stored)
    for x, a, _ in pool[-4:]:
        for y, b, _ in pool:
            _check_rule_compare(x, y, a, b)


def test_constants_are_one_type():
    half, third, sixth = (ConstCode(Fraction(1, d)) for d in (2, 3, 6))
    nested, dist = add_codes(third, sixth), abs_diff_code(half, sixth)
    assert (nested.numerator, nested.denominator) == (3, 6)
    assert (dist.numerator, dist.denominator) == (2, 6)
    assert _unreduced(nested, dist) == [nested, dist]
    consts = [(ConstCode(Fraction(-4, 6)), Fraction(-2, 3)), (nested, HALF),
              (add_codes(half, ConstCode(Fraction(1, 5))), Fraction(7, 10)),
              (mul_codes(half, third), Fraction(1, 6)),
              (neg_code(third), Fraction(-1, 3)),
              (inv_code(third, Fuel(0))[0], Fraction(3)),
              (dist, Fraction(1, 3))]
    for c, q in consts:
        assert type(c) is ConstCode and c.is_const
        state = _state(c)
        assert c.numerator * q.denominator == q.numerator * c.denominator
        assert _state(c) == state  # reading the pair reduces nothing
        assert c.value == q
        assert (c.numerator, c.denominator) == (q.numerator, q.denominator)
    # a class attribute on every code, not a property
    assert (ECode.is_const, ConstCode.is_const) == (False, True)


def test_constant_arithmetic_builds_no_fraction():
    # an int needs no Fraction, as a code or as a real value
    three = ConstCode(3)
    assert _pair(three) == (3, 1) and _state(three) == "lowest"
    assert _state(rat_value(-2).code) == "lowest"
    # add over unrelated denominators (both Henrici branches), mul, neg and
    # inv of reduced constants give reduced pairs with no Fraction
    q = {d: ConstCode(Fraction(1, d)) for d in (3, 4, 6, 10)}
    results = [(add_codes(q[3], q[4]), (7, 12)),
               (add_codes(q[6], q[10]), (4, 15)),  # 8/30 over lcm 30
               (mul_codes(ConstCode(Fraction(2, 3)), ConstCode(Fraction(9, 4))),
                (3, 2)),
               (mul_codes(three, q[6]), (1, 2)),
               (neg_code(q[4]), (-1, 4)),
               (inv_code(ConstCode(Fraction(-3, 4)), Fuel(0))[0], (-4, 3)),
               (inv_code(three, Fuel(0))[0], (1, 3))]
    for c, pair_ in results:
        assert (_pair(c), _state(c)) == (pair_, "lowest")
    # the first read of a reduced constant builds its Fraction from the pair
    c = results[1][0]
    v = c.value
    assert v == Fraction(4, 15) and _pair(c) == (4, 15) and _state(c) == "read"
    assert c.value is v
    # an unreduced operand is reduced in place, with no Fraction either;
    # a negation keeps it unreduced
    for op, want in ((lambda u: add_codes(u, q[4]), (7, 12)),
                     (lambda u: mul_codes(q[4], u), (1, 12)),
                     (lambda u: inv_code(u, Fuel(0))[0], (3, 1))):
        u = add_codes(q[6], q[6])
        assert (_pair(u), _state(u)) == ((2, 6), "unreduced")
        n = neg_code(u)
        assert (_pair(n), _state(n)) == ((-2, 6), "unreduced")
        c = op(u)
        assert (_pair(u), _state(u)) == ((1, 3), "lowest")
        assert (_pair(c), _state(c)) == (want, "lowest")
        n = neg_code(u)
        assert (_pair(n), _state(n)) == ((-1, 3), "lowest")


def test_certified_deviation_is_in_lowest_terms():
    # |1/2 - 1/4| reads as 1/4 itself, which an unreduced 2/8 does not equal
    from whilecc.programs import _certified_deviation
    dev = _certified_deviation(rat_value(HALF), (Fraction(1, 4), Fraction(1, 4)))
    assert (dev.numerator, dev.denominator) == (1, 4)


def test_constant_codes_allocate_no_approx_cache():
    quarter = ConstCode(Fraction(1, 4))
    consts = (ConstCode(HALF), add_codes(ConstCode(HALF), quarter),
              mul_codes(quarter, quarter), neg_code(quarter),
              ConstCode(Fraction(-7, 3)))
    assert _unreduced(consts[1])
    for c in consts:
        assert not hasattr(c, "_cache")
        assert c.approx(5, Fuel(0)) == c.value
        assert c.interval(2, Fuel(0)) == (c.value - quarter.value,
                                          c.value + quarter.value)
    memo = SumCode(ConstCode(HALF), e_code())
    memo.approx(3, Fuel(10**6))
    assert 3 in memo._cache


def test_exp_approx_sums_skip_full_size_gcds(monkeypatch):
    # Stage sums of exp_approx have nested denominators, so only the final
    # read of the value reduces at full size. No clock: the gcds are counted.
    big = []
    plain_gcd = codes.gcd

    def counting_gcd(a, b):
        bits = min(abs(a), abs(b)).bit_length()
        if bits > 1000:
            big.append(bits)
        return plain_gcd(a, b)

    monkeypatch.setattr(codes, "gcd", counting_gcd)
    p, alg = load("exp_approx")
    x = Fraction(1, 4)
    res = eval_proc(p, (nat_value(9), interval_value(ConstCode(x))), alg,
                    Dovetail(), Fuel(3_000_000))
    assert res.values[0].code.value == exp_partial_sums_at(x, [1024])[1024]
    assert len(big) <= 2


def _counting_int(log: list):
    """An int type that logs each division it is the dividend of, as True
    when the division is full size (the dividend is not below the divisor)."""

    class Counted(int):
        def __mod__(self, other):
            log.append(self >= other)
            return int.__mod__(self, other)

        def __floordiv__(self, other):
            log.append(self >= other)
            return int.__floordiv__(self, other)

        def __divmod__(self, other):
            log.append(self >= other)
            return int.__divmod__(self, other)

    return Counted


def _pair_const_of(q: Fraction, int_type) -> ConstCode:
    """q as a constant whose pair holds int_type, in lowest terms."""
    c = ConstCode.__new__(ConstCode)
    c.numerator, c.denominator = int_type(q.numerator), int_type(q.denominator)
    c._value = codes._LOWEST
    return c


@pytest.mark.parametrize("larger_first", [False, True])
def test_a_nested_sum_divides_its_denominators_once(larger_first):
    # denominators of over 1000 bits, one a multiple of the other: one
    # full-size division decides the nesting and gives the quotient, and the
    # sum is the unreduced pair over the larger denominator
    log: list = []
    Counted = _counting_int(log)
    small, big = 3 ** 700 * 10, 3 ** 700 * 10 * 7 ** 90
    a, b = Fraction(11 ** 290, small), Fraction(-13 ** 270, big)
    assert (a.denominator, b.denominator) == (small, big)
    assert small.bit_length() > 1000
    x, y = _pair_const_of(a, Counted), _pair_const_of(b, Counted)
    if larger_first:
        x, y = y, x
    c = add_codes(x, y)
    assert log.count(True) == 1
    na, nb = a.numerator * (big // small), b.numerator
    assert (_pair(c), _state(c)) == ((na + nb, big), "unreduced")
    assert c.value == a + b


def test_inverse_code():
    inv, status = inv_code(ConstCode(Fraction(3, 4)), Fuel(100))
    assert status == "ok" and inv.value == Fraction(4, 3)
    none, status = inv_code(ConstCode(0), Fuel(100))
    assert status == "zero" and none is None
    s2 = sqrt_code(2)
    inv, status = inv_code(s2, Fuel(1000))
    assert status == "ok"
    v = inv.approx(20, Fuel(10**6))
    assert abs(v * v - HALF) < Fraction(1, 1 << 17)
    assert check_fast_cauchy_prefix(inv, Fuel(10**6)) == []


def test_separation_witness_runs_out_of_fuel_near_zero():
    zeroish = SumCode(sqrt_code(2), MulCode(sqrt_code(2), ConstCode(-1)))
    assert separation_witness(zeroish, Fuel(60)) is None


def test_diagonal_constant_levels():
    q = Fraction(5, 9)
    d = DiagonalCode(lambda n, fuel: ConstCode(q))
    for n in (0, 3, 9):
        assert d.approx(n, Fuel(10**6)) == q


def test_diagonal_taylor_levels():
    # level n: the factorial series truncated so the tail is below 2^-n
    def level(n, fuel):
        s, t = Fraction(1), Fraction(1)
        for i in range(1, n + 3):
            t /= i
            s += t
        return ConstCode(s)

    d = DiagonalCode(level)
    e = e_code()
    for n in (2, 6, 10):
        fuel = Fuel(10**6)
        assert abs(d.approx(n, fuel) - e.approx(n + 4, fuel)) < Fraction(1, 1 << (n - 1))
    assert check_fast_cauchy_prefix(d, Fuel(10**6)) == []


def test_diagonal_sqrt_levels():
    s2 = sqrt_code(2)
    d = DiagonalCode(lambda n, fuel: ConstCode(s2.approx(n, fuel)))
    lo, hi = sqrt2_oracle_enclosure()
    for n in (2, 8):
        v = d.approx(n, Fuel(10**6))
        assert lo - Fraction(1, 1 << (n - 1)) < v < hi + Fraction(1, 1 << (n - 1))


def test_registry_validation_flags_non_cauchy():
    reg = CodeRegistry()
    bad = RuleCode(lambda n: Fraction(n), name="runaway")
    with pytest.raises(FastCauchyError):
        reg.register(bad, Fuel(10**6))
    ok = reg.register(ConstCode(1), Fuel(10**6))
    assert reg.code(ok).value == 1


def test_fast_cauchy_prefix_checks_every_level_below_upto():
    # entries 12 and 13 differ by 2^-12, and the step after 15 is 2^-15:
    # each breaks the bound only at a level of 12 or more
    late = RuleCode(lambda n: Fraction(1, 1 << 12) if n > 12 else Fraction(0),
                    name="late")
    with pytest.raises(FastCauchyError) as err:
        CodeRegistry().register(late, Fuel(10**6))
    assert err.value.violations == [(12, 13), (12, 14)]
    step = RuleCode(lambda n: Fraction(1, 1 << 15) if n > 15 else Fraction(0),
                    name="step")
    assert check_fast_cauchy_prefix(step, Fuel(10**6), upto=20) == [
        (15, k) for k in range(16, 21)]


def test_named_codes():
    reg = CodeRegistry()
    s2 = reg.code(reg.named("sqrt2"))
    assert abs(s2.approx(12, Fuel(10**6)) ** 2 - 2) < Fraction(1, 1 << 9)
    assert reg.named("sqrt2") == reg.named("sqrt2")


def test_fuel_budgets():
    f = Fuel(5)
    assert all(f.take() for _ in range(5))
    assert not f.take() and f.dead
    # spawn carves the child's steps out of the parent at once
    parent = Fuel(10)
    child = parent.spawn(3)
    assert child.remaining == 3 and parent.remaining == 7
    # a child's take leaves the parent alone
    assert child.take()
    assert child.remaining == 2 and parent.remaining == 7
    # repay returns what the child left; the repaid child is empty
    parent.repay(child)
    assert parent.remaining == 9 and child.remaining == 0 and child.dead
    # a cap above the parent's remaining is clipped to it
    child = parent.spawn(100)
    assert child.remaining == 9 and parent.remaining == 0 and parent.dead
    # a child that used up its steps is dead and repays nothing
    assert all(child.take() for _ in range(9))
    assert not child.take() and child.dead
    parent.repay(child)
    assert parent.remaining == 0
