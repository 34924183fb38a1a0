"""Enumerations, the code space, and canonical enumerations from generators."""

from fractions import Fraction

import pytest

from whilecc.algebra import get_algebra, rat_value, FF
from whilecc.codes import (ConstCode, CodeRegistry, DiagonalCode,
                           FastCauchyError, Fuel, rat_encode, sqrt_code)
from whilecc.reals import (alpha_rat, ecode_eval, const_code,
                           CCode, c_to_e, computable_closure,
                           CanonicalEnumeration, GeneratorSystem,
                           goedel_number, EnumerationError)
from whilecc.signature import ClosedTerm


def test_alpha_rat_zero_and_totality():
    alpha = alpha_rat()
    assert alpha.decode("real", 0).code.value == Fraction(0, 1)
    # total on N at sort real
    for k in range(0, 5000, 97):
        assert alpha.member("real", k)
        alpha.decode("real", k)


def test_alpha_rat_surjective_on_samples():
    alpha = alpha_rat()
    for r in (Fraction(3, 4), Fraction(-22, 7), Fraction(0), Fraction(17)):
        k = alpha.encode("real", rat_value(r))
        assert alpha.decode("real", k).code.value == r


def test_nat_bool_enumerations_are_pinned():
    alpha = alpha_rat()
    assert alpha.decode("nat", 5).n == 5
    assert alpha.decode("bool", 0) is FF or not alpha.decode("bool", 0).b
    assert alpha.decode("bool", 1).b
    assert not alpha.member("bool", 2)
    with pytest.raises(EnumerationError):
        alpha.decode("bool", 2)


def test_const_code():
    alpha = alpha_rat()
    k = rat_encode(Fraction(7, 2))
    e = const_code(alpha, k)
    for n in (0, 3, 11):
        assert ecode_eval(e, n, Fuel(10**6)) == Fraction(7, 2)


def test_c_to_e_constant_with_identity_modulus():
    alpha = alpha_rat()
    k = rat_encode(Fraction(1, 3))
    c = CCode(seq=lambda n: k, modulus=lambda n: n)
    e = c_to_e(c, alpha, Fuel(10**6))
    assert ecode_eval(e, 5, Fuel(10**6)) == Fraction(1, 3)


def test_c_to_e_harmonic_with_modulus():
    # sequence 1/(k+1) with modulus m(n) = 2^n is a code for 0
    alpha = alpha_rat()
    c = CCode(seq=lambda kk: rat_encode(Fraction(1, kk + 1)),
              modulus=lambda n: 2 ** n)
    e = c_to_e(c, alpha, Fuel(10**6))
    for n in (1, 5, 10):
        assert abs(ecode_eval(e, n, Fuel(10**6))) < Fraction(1, 1 << (n - 1))


def test_c_to_e_bad_modulus_reported():
    alpha = alpha_rat()
    c = CCode(seq=lambda kk: rat_encode(Fraction(1, kk + 1)),
              modulus=lambda n: n // 2)  # too slow: convergence not controlled
    with pytest.raises(FastCauchyError):
        c_to_e(c, alpha, Fuel(10**6))


def test_c_to_e_preserves_limits():
    alpha = alpha_rat()
    c = CCode(seq=lambda kk: rat_encode(Fraction(1, kk + 1)),
              modulus=lambda n: 2 ** n)
    e = c_to_e(c, alpha, Fuel(10**6))
    for n in (2, 6, 10):
        via_modulus = Fraction(1, c.modulus(n) + 1)
        assert abs(ecode_eval(e, n, Fuel(10**6)) - via_modulus) < Fraction(1, 1 << (n - 2))


def test_computable_closure_of_constants_acts_like_alpha():
    alpha = alpha_rat()
    reg = CodeRegistry()
    closure = computable_closure(alpha, reg)
    k = rat_encode(Fraction(-5, 8))
    idx = reg.register(const_code(alpha, k), Fuel(10**6))
    v = closure.decode("real", idx)
    for n in (0, 4, 9):
        assert ecode_eval(v.code, n, Fuel(10**6)) == Fraction(-5, 8)


def test_closure_is_computationally_closed_on_samples():
    # a diagonal over closure codes is again a closure code
    alpha = alpha_rat()
    reg = CodeRegistry()
    levels = [reg.mint(ConstCode(Fraction(1, 3) + Fraction(1, 1 << (n + 4))))
              for n in range(16)]
    diag = DiagonalCode(lambda n, fuel: reg.code(levels[min(n, 15)]))
    idx = reg.register(diag, Fuel(10**6))
    closure = computable_closure(alpha, reg)
    assert closure.member("real", idx)
    got = ecode_eval(closure.decode("real", idx).code, 10, Fuel(10**6))
    assert abs(got - Fraction(1, 3)) < Fraction(1, 1 << 8)


def test_diagonal_limit_bound_on_constructed_instance():
    # levels approximate sqrt2 at rate 2^-level; diagonal lands within 2^-(n-1)
    s2 = sqrt_code(2)
    diag = DiagonalCode(lambda n, fuel: ConstCode(s2.approx(n, fuel)))
    for n in (1, 4, 8):
        truth = s2.approx(40, Fuel(10**6))
        assert abs(ecode_eval(diag, n, Fuel(10**6)) - truth) < Fraction(1, 1 << (n - 1))


def test_non_cauchy_producer_flagged():
    reg = CodeRegistry()
    from whilecc.codes import RuleCode
    with pytest.raises(FastCauchyError):
        reg.register(RuleCode(lambda n: Fraction((-1) ** n), name="flip"),
                     Fuel(10**6))


# ---------------------------------------------------------------------------
# canonical enumerations


@pytest.fixture(scope="module")
def rn_enum():
    rn = get_algebra("RN")
    gens = GeneratorSystem(constants={"real": [ClosedTerm("zero_real"),
                                               ClosedTerm("one_real")]})
    return rn, CanonicalEnumeration(rn.signature, rn, gens)


def test_term_enumeration_decode_encode_roundtrip(rn_enum):
    _, ce = rn_enum
    for k in range(0, 400, 7):
        t = ce.decode_term("real", k)
        # encoding the decoded term lands on a term with the same value
        k2 = ce.encode_term("real", t)
        assert ce.decode_term("real", k2) == t


def test_term_enumeration_one_plus_one(rn_enum):
    _, ce = rn_enum
    t = ClosedTerm("add", (ClosedTerm("one_real"), ClosedTerm("one_real")))
    k = ce.encode_term("real", t)
    assert ce.decode("real", k).code.value == 2


def test_term_enumeration_excludes_division_by_zero(rn_enum):
    _, ce = rn_enum
    t = ClosedTerm("inv", (ClosedTerm("zero_real"),))
    k = ce.encode_term("real", t)
    assert not ce.member("real", k)
    with pytest.raises(EnumerationError):
        ce.decode("real", k)


def test_term_enumeration_reaches_sampled_rationals(rn_enum):
    _, ce = rn_enum

    def rat_term(q: Fraction) -> ClosedTerm:
        def nat_as_real(m):
            t = ClosedTerm("zero_real")
            for _ in range(m):
                t = ClosedTerm("add", (t, ClosedTerm("one_real")))
            return t
        num = nat_as_real(abs(q.numerator))
        if q < 0:
            num = ClosedTerm("neg", (num,))
        if q.denominator == 1:
            return num
        return ClosedTerm("mul",
                          (num, ClosedTerm("inv", (nat_as_real(q.denominator),))))

    for q in (Fraction(2, 3), Fraction(-5, 4), Fraction(0), Fraction(7)):
        k = ce.encode_term("real", rat_term(q))
        assert ce.member("real", k)
        assert ce.decode("real", k).code.value == q


def test_goedel_number_injective_on_samples():
    texts = ["x := 1", "x := 2", "skip", "skip ", "while b do skip od"]
    codes = [goedel_number(t) for t in texts]
    assert len(set(codes)) == len(codes)
