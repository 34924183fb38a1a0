"""Concrete computability: tracking functions and the code algebra.

A tracking function makes the enumeration square commute: running it on
indices agrees (under decoding) with the abstract function on values, on
every sample where the abstract side converges; strict tracking also
reflects definedness. The code algebra interprets a whole signature by
tracking functions, so running the ordinary interpreter over it executes
programs on codes; that single construction stands in for the per-function
representing machinery of the soundness proof, and the comparison of the
two instantiations is what the tests check.

Real-sorted equality of results is only refutable, so commuting squares are
checked as "not refuted at precision 2^-20", on the budget the check already
gives the tracked side; a comparison that runs out of it fails its row.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .algebra import (PartialAlgebra, Value, BoolV, NatV, RealV, ArrV, DIV,
                      FUEL_OUT, Failure, TT, FF, InterpRule, compare_codes,
                      rat_value, nat_value, array_rules, AlgebraError,
                      SHARED_NATS, NATS)
from .codes import (Fuel, ECode, ConstCode, CodeRegistry, CodeProducerError,
                    DiagonalCode, OutOfFuel, add_codes, neg_code, mul_codes,
                    abs_diff_code, inv_code, prog_rat_decode)
from .interp import Dovetail, eval_proc
from .lang.ast import Procedure
from .reals import Enumeration, ecode_eval
from .report import Report
from .signature import Sort


EQUALITY_CHECK_BITS = 20


# ---------------------------------------------------------------------------
# the code algebra


def _values_equal_unrefuted(a: Value, b: Value, fuel: Fuel,
                            bits: int = EQUALITY_CHECK_BITS) -> bool:
    """Exact on discrete sorts; on reals, equality not refuted at 2^-bits.
    Raises `OutOfFuel` when `fuel` runs out first."""
    if isinstance(a, BoolV) and isinstance(b, BoolV):
        return a.b == b.b
    if isinstance(a, NatV) and isinstance(b, NatV):
        return a.n == b.n
    if isinstance(a, RealV) and isinstance(b, RealV):
        if a.code.is_const and b.code.is_const:
            return a.code.value == b.code.value
        alo, ahi = a.code.interval(bits, fuel)
        blo, bhi = b.code.interval(bits, fuel)
        return not (ahi < blo or bhi < alo)
    if isinstance(a, ArrV) and isinstance(b, ArrV):
        return (len(a.items) == len(b.items)
                and all(_values_equal_unrefuted(x, y, fuel, bits)
                        for x, y in zip(a.items, b.items)))
    return False


def _add_equality_row(rep: Report, name: str, sample: str, pairs, fuel: Fuel,
                      detail: str) -> None:
    """Add the row saying whether each pair of results is equal, checked on
    `fuel`; when that runs out first, the row fails and says so."""
    try:
        ok = all(_values_equal_unrefuted(a, b, fuel) for a, b in pairs)
    except OutOfFuel:
        ok = False
        detail = f"fuel ran out comparing the results at 2^-{EQUALITY_CHECK_BITS}"
    rep.add(ok, name, sample, detail)


def code_algebra(base: PartialAlgebra, registry: CodeRegistry) -> PartialAlgebra:
    """An algebra whose carriers are code naturals and whose operations are
    strict tracking functions for every symbol of the built-in real /
    interval algebras (starred or not). Codes travel as nat values holding
    registry indices; bool and nat are tracked identically. Running the
    generic interpreter over it is concrete computation on codes.

    The trackers read their operands' codes from the registry's list in
    place, and each real result mints exactly one code; its index comes
    back as the shared `NATS[i]` below `SHARED_NATS`. The arithmetic is
    called through this module's globals, which the perfbench tracer
    patches."""
    sig = base.signature
    codes = registry.codes

    def mint(c: ECode) -> NatV:
        i = len(codes)
        codes.append(c)
        return NATS[i] if i < SHARED_NATS else NatV(i)

    def zero_real(fuel):
        if fuel.remaining:
            fuel.remaining -= 1
        return NATS[0]  # index 0 is const 0

    def one_real(fuel):
        if fuel.remaining:
            fuel.remaining -= 1
        return mint(ConstCode(1))

    def add(fuel, a, b):
        if fuel.remaining:
            fuel.remaining -= 1
        return mint(add_codes(codes[a.n], codes[b.n]))

    def mul(fuel, a, b):
        if fuel.remaining:
            fuel.remaining -= 1
        return mint(mul_codes(codes[a.n], codes[b.n]))

    def neg(fuel, a):
        if fuel.remaining:
            fuel.remaining -= 1
        return mint(neg_code(codes[a.n]))

    def inv(fuel, a):
        c, status = inv_code(codes[a.n], fuel)
        if status == "zero":
            return DIV
        if status == "fuel":
            return FUEL_OUT
        return mint(c)

    def eq_real(fuel, a, b):
        return compare_codes(codes[a.n], codes[b.n], fuel, "eq")

    def less_real(fuel, a, b):
        return compare_codes(codes[a.n], codes[b.n], fuel, "less")

    def nat2real(fuel, a):
        if fuel.remaining:
            fuel.remaining -= 1
        return mint(ConstCode(a.n))

    def rat(fuel, a):
        if fuel.remaining:
            fuel.remaining -= 1
        return mint(ConstCode(prog_rat_decode(a.n)))

    def dist(fuel, a, b):
        if fuel.remaining:
            fuel.remaining -= 1
        return mint(abs_diff_code(codes[a.n], codes[b.n]))

    def i_I(fuel, a):
        if fuel.remaining:
            fuel.remaining -= 1
        return a

    trackers = {"zero_real": zero_real, "one_real": one_real, "add": add,
                "mul": mul, "neg": neg, "inv": inv, "eq_real": eq_real,
                "less_real": less_real, "nat2real": nat2real, "rat": rat,
                "dist": dist, "zero_interval": zero_real, "i_I": i_I}
    discrete = ("bool", "nat")
    for name, sym in sig.symbols.items():
        if sym.conditional or all(s.kind in discrete for s in
                                  sym.arg_sorts + (sym.result_sort,)):
            trackers[name] = base.interp[name]
    for s in sig.sorts.values():
        if s.kind == "array" and f"Null_{s.elem.name}" in sig.symbols:
            trackers.update(array_rules(s.elem, _code_default))
    # a symbol with no tracker is left out, and PartialAlgebra rejects it
    interp = {n: trackers[n] for n in sig.symbols if n in trackers}
    metrics = {k: base.metrics[k] for k in ("bool", "nat") if k in base.metrics}
    return PartialAlgebra("codes(" + base.name + ")", sig, interp, metrics,
                          total=False, carrier_check=_accepts_code,
                          real_literal=lambda q: mint(ConstCode(q)))


def _code_default(elem: Sort) -> Value:
    if elem.kind == "bool":
        return FF
    return NATS[0]  # nat zero, or the index of the constant-zero code


def _accepts_code(sort: Sort, v: Value) -> bool:
    if sort.kind == "bool":
        return isinstance(v, BoolV)
    if sort.kind in ("nat", "real", "interval"):
        return isinstance(v, NatV)
    if sort.kind == "array":
        return isinstance(v, ArrV) and all(_accepts_code(sort.elem, x)
                                           for x in v.items)
    return False


def decode_code_value(v: Value, sort: Sort, registry: CodeRegistry) -> Value:
    """alpha-bar applied to a code-algebra result."""
    if sort.kind in ("bool", "nat"):
        return v
    if sort.kind in ("real", "interval"):
        return RealV(registry.code(v.n))
    if sort.kind == "array":
        return ArrV(sort.elem, tuple(decode_code_value(x, sort.elem, registry)
                                     for x in v.items))
    raise AlgebraError(f"cannot decode sort {sort.name}")


def encode_input(v: Value, sort: Sort, registry: CodeRegistry) -> Value:
    """Inject an abstract value into the code algebra (registers its code)."""
    if sort.kind in ("bool", "nat"):
        return v
    if sort.kind in ("real", "interval"):
        return nat_value(registry.mint(v.code))
    if sort.kind == "array":
        return ArrV(sort.elem, tuple(encode_input(x, sort.elem, registry)
                                     for x in v.items))
    raise AlgebraError(f"cannot encode sort {sort.name}")


# ---------------------------------------------------------------------------
# tracking checks


def check_tracking(F: InterpRule, f: InterpRule, samples,
                   decode: Callable[[int, int], tuple],
                   decode_out: Optional[Callable[[Value], Value]] = None,
                   strict: bool = False, fuel_steps: int = 100_000,
                   name: str = "tracking") -> Report:
    """Sampled commuting square.

    F runs on abstract values and f on indices, both called as rules
    F(fuel, *args); decode(position, index) supplies the abstract value for
    each sample component and decode_out maps the tracked result back to a
    value. The results are compared on what is left of f's budget. Failures
    are report rows, never exceptions.
    """
    rep = Report(name)
    decode_out = decode_out or (lambda v: v)
    for ks in samples:
        abstract_args = tuple(decode(i, k) for i, k in enumerate(ks))
        FV = F(Fuel(fuel_steps), *abstract_args)
        fuel = Fuel(fuel_steps)
        fv = f(fuel, *(NatV(k) for k in ks))
        tag_F, tag_f = (r.value if isinstance(r, Failure) else "ok"
                        for r in (FV, fv))
        sample = str(ks)
        if tag_F == "ok" and tag_f != "ok":
            rep.add(False, name, sample,
                    f"abstract converged but tracking gave {tag_f}")
        elif tag_F == "ok":
            _add_equality_row(rep, name, sample, [(FV, decode_out(fv))], fuel,
                              "square commutes (equality unrefuted at 2^-20)")
        elif strict and tag_f == "ok":
            rep.add(False, name, sample,
                    "strictness failure: tracking converged where the "
                    "abstract function does not")
        else:
            rep.add(True, name, sample,
                    f"both sides non-convergent ({tag_F}/{tag_f})")
    return rep


# ---------------------------------------------------------------------------
# Theorem A machinery: the lift from approximation runs to a code


class LiftError(CodeProducerError):
    pass


class LiftedCode(ECode):
    """The code `soundness_lift` returns: its registered diagonal code, held
    together with the code algebra and registry the level runs need."""

    __slots__ = ("diagonal", "code_alg", "registry")

    def __init__(self, diagonal: ECode, code_alg: PartialAlgebra,
                 registry: CodeRegistry):
        self.diagonal, self.code_alg, self.registry = diagonal, code_alg, registry

    def approx(self, n: int, fuel: Fuel) -> Fraction:
        return self.diagonal.approx(n, fuel)


def soundness_lift(P: Procedure, code_alg: PartialAlgebra,
                   registry: CodeRegistry, args: tuple,
                   fuel_per_level: int = 500_000, strat=None) -> LiftedCode:
    """Assemble the diagonal code from per-precision tracked runs of an
    approximating procedure P: nat x u -> s.

    Level m runs P on the code algebra at precision m; the diagonal shifted
    by two is a fast Cauchy code for the approximated value at the decoded
    input. A level run is paid for by the `approx` call that needs it: it
    runs on at most `fuel_per_level` steps carved out of that call's budget,
    and the rest is repaid when the run returns. When the caller's budget
    dies during the run, `approx` raises `OutOfFuel`; when the run does not
    converge within its cap, `LiftError` with the level's index. Either way
    the level is not cached.

    The diagonal code is registered. It refers to the code algebra and the
    registry only weakly: both refer to the registry, which refers to the
    code, and that cycle would leave each lift to the cyclic garbage
    collector. The returned code holds all three.
    """
    if fuel_per_level < 0:
        raise ValueError("fuel must be non-negative")
    strat = strat or Dovetail()
    cache: dict[int, ECode] = {}
    alg_ref, reg_ref = weakref.ref(code_alg), weakref.ref(registry)

    def levels(m: int, fuel: Fuel) -> ECode:
        c = cache.get(m)
        if c is None:
            alg, reg = alg_ref(), reg_ref()
            if alg is None or reg is None:
                raise LiftError(f"level {m}: the lift's code algebra or "
                                "registry was freed", level=m)
            level_fuel = fuel.spawn(fuel_per_level)
            try:
                res = eval_proc(P, (nat_value(m),) + tuple(args), alg,
                                strat, level_fuel)
            finally:
                fuel.repay(level_fuel)
            if not res.values:
                if fuel.dead:
                    raise OutOfFuel(f"level {m}: the caller's budget ran out "
                                    "during the approximating run", m)
                raise LiftError(
                    f"level {m}: approximating run did not converge "
                    f"({'divergent' if res.proven_divergent else 'fuel'})",
                    level=m)
            out = res.values[0]
            c = reg.code(out.n)
            cache[m] = c
        return c

    code = DiagonalCode(levels)
    registry.mint(code)
    return LiftedCode(code, code_alg, registry)


def a0_square_check(P: Procedure, abstract_alg: PartialAlgebra,
                    code_alg: PartialAlgebra, registry: CodeRegistry,
                    inputs: list, fuel_steps: int = 300_000,
                    name: str = "A0-square") -> Report:
    """Run P both on values and on codes and compare the decoded outputs.

    With rational inputs and field operations both sides are exact, so the
    comparison is exact equality; otherwise equality is unrefuted-at-2^-20,
    checked on what is left of the code run's budget.
    """
    rep = Report(name)
    out_sorts = [s for _, s in P.out_vars]
    for args in inputs:
        abstract = eval_proc(P, args, abstract_alg, Dovetail(), Fuel(fuel_steps))
        coded_args = tuple(encode_input(v, s, registry)
                           for v, s in zip(args, [s for _, s in P.in_vars]))
        fuel = Fuel(fuel_steps)
        coded = eval_proc(P, coded_args, code_alg, Dovetail(), fuel)
        sample = "(" + ", ".join(map(repr, args)) + ")"
        if bool(abstract.values) != bool(coded.values):
            rep.add(False, name, sample, "one side converged, the other did not")
            continue
        if not abstract.values:
            rep.add(True, name, sample, "both sides non-convergent")
            continue
        av, cv = abstract.values[0], coded.values[0]
        avs = av if isinstance(av, tuple) else (av,)
        cvs = cv if isinstance(cv, tuple) else (cv,)
        decoded = tuple(decode_code_value(c, s, registry)
                        for c, s in zip(cvs, out_sorts))
        _add_equality_row(rep, name, sample, zip(avs, decoded), fuel,
                          "decoded code run equals value run exactly")
    return rep


# ---------------------------------------------------------------------------
# Theorem B machinery: modulus of continuity and the approximant G


@dataclass
class LUCModulus:
    """Ball cover of the domain with a modulus of local uniform continuity."""

    cover: Callable[[int], tuple[int, int]]  # i -> (center index, radius exp)
    lu: Callable[[int, int], int]            # (ball, precision) -> input precision
    cover_size_hint: int = 64


@dataclass
class EffOpenCover:
    """Ball cover whose union is the domain of the tracked function."""

    cover: Callable[[int], tuple[int, int]]  # i -> (center index, radius exp)
    cover_size_hint: int = 64


def _radius(l: int) -> Fraction:
    """2^-l, allowing negative exponents (balls wider than 1)."""
    return Fraction(1, 1 << l) if l >= 0 else Fraction(1 << -l)


def _dist_below(x: Value, center: Value, bound: Fraction, prec: int,
                fuel: Fuel) -> Optional[bool]:
    """Certify d(x, center) < bound (True), >= refuted (False), or unknown."""
    code = abs_diff_code(x.code, center.code)
    if code.is_const:
        fuel.take()
        return code.value < bound
    try:
        lo, hi = code.interval(prec, fuel)
    except CodeProducerError:
        return None
    if hi < bound:
        return True
    if lo > bound:
        return False
    return None


def _scan_cover(cover, alpha: Enumeration, fuel: Fuel, probe):
    """Stage loop over cover balls: each stage takes one step of fuel and
    calls probe(i, center, radius, stage) on balls 0..stage (at most
    cover_size_hint of them). The first non-None probe result, or FUEL_OUT
    once fuel runs out."""
    stage = 0
    while fuel.take():
        for i in range(min(stage + 1, cover.cover_size_hint)):
            k_i, l_i = cover.cover(i)
            r = probe(i, alpha.decode("real", k_i), _radius(l_i), stage)
            if r is not None:
                return r
        stage += 1
    return FUEL_OUT


def adequacy_mc(F_cover: LUCModulus, alpha: Enumeration, x: Value, n: int,
                fuel: Fuel):
    """Modulus of continuity at x: find a cover ball containing x, a gap
    exponent d0 with d(x, center) + 2^-d0 < 2^-l, and return
    max(d0, LU(i, n)). Diverges (FUEL_OUT) off the covered domain."""

    def probe(i, center, radius, stage):
        if not _dist_below(x, center, radius, stage, fuel):
            return None
        for d0 in range(1, stage + 2):
            if _dist_below(x, center, radius - Fraction(1, 1 << d0),
                           stage + d0, fuel):
                return nat_value(max(d0, F_cover.lu(i, n)))
        return None

    return _scan_cover(F_cover, alpha, fuel, probe)


def adequacy_g(f: InterpRule, F_cover: LUCModulus, alpha: Enumeration,
               registry: CodeRegistry, x: Value, n: int,
               strat: Optional[Dovetail] = None, *, fuel: Fuel):
    """The approximant G_n(x): within 2^-n of F(x) for x in the domain.

    Steps: modulus M at precision n+1; Dovetail search (strat, or an
    unseeded Dovetail) for an index k with d(alpha(k), x) < 2^-M and f
    defined on the constant code of alpha(k); then return
    alpha({f(e_con[k])}(n+1)). The f-run and the reading of its code share
    the stage's carved budget. An index whose nearness, f-run or reading is
    undecided on its stage budget is tried again; one refuted or proven
    divergent is not. A rational's constant code is minted once per call."""
    mc = adequacy_mc(F_cover, alpha, x, n + 1, fuel)
    if mc is FUEL_OUT:
        return mc
    M = mc.n
    eps = Fraction(1, 1 << M)
    e_cons: dict[Fraction, int] = {}

    def attempt(k: int, stage: int):
        a_k = alpha.decode("real", k)
        near = _dist_below(x, a_k, eps, max(M + 2, stage), fuel)
        if near is None:
            return FUEL_OUT
        if not near:
            return DIV
        q = a_k.code.value
        if q not in e_cons:
            e_cons[q] = registry.mint(ConstCode(q))
        run_fuel = fuel.spawn(stage + 1)
        try:
            run = f(run_fuel, NatV(e_cons[q]))
            if run is DIV or run is FUEL_OUT:
                return run
            return rat_value(ecode_eval(registry.code(run.n), n + 1, run_fuel))
        except OutOfFuel:
            return FUEL_OUT
        finally:
            fuel.repay(run_fuel)

    return (strat or Dovetail()).search(fuel, attempt)


def effective_open_membership(cover: EffOpenCover, e: ECode,
                              alpha: Enumeration, fuel: Fuel):
    """Semi-decide membership of the coded point in the cover union."""
    point = RealV(e)

    def probe(i, center, radius, stage):
        if _dist_below(point, center, radius, stage, fuel):
            return TT
        return None

    return _scan_cover(cover, alpha, fuel, probe)


def strictify_tracking(f: InterpRule, cover: EffOpenCover,
                       alpha: Enumeration, registry: CodeRegistry) -> InterpRule:
    """f'(e) = f(e) after semi-deciding that the coded point lies in the
    cover, whose union is dom(F); strict by construction."""

    def rule(fuel: Fuel, *args):
        member = effective_open_membership(cover, registry.code(args[0].n),
                                           alpha, fuel)
        if member is FUEL_OUT:
            return member
        return f(fuel, *args)

    return rule
