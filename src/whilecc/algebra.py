"""Carriers, fuel-bounded basic operations, and the built-in algebras.

Every basic operation is a rule `rule(fuel, *values)` that charges its own
fuel and makes partiality observable in finite time: it returns a Value when
it converges, DIV when it is proven divergent (its divergence condition is
decidable, e.g. inverting an exact 0 or comparing two equal exact
constants), or FUEL_OUT when it exhausts its
budget while still undecided; it does not raise OutOfFuel. Constant-time
total operations (booleans,
naturals, real ring operations) take one step and never fail; fuel gates the
genuinely semidecidable work (interval refinement for comparisons, inverse
witness searches).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Callable, Optional

from .codes import (Fuel, ECode, ConstCode, OutOfFuel, add_codes, neg_code,
                    mul_codes, abs_diff_code, inv_code, prog_rat_decode, pair,
                    unpair)
from .signature import (Signature, Sort, FuncSymbol, ProductType,
                        make_signature, standardise, n_standardise,
                        star_signature, default_term, REAL, INTERVAL, NAT)


class AlgebraError(Exception):
    """Ill-typed application: a programming error, not divergence."""


class Failure(Enum):
    """The two outcomes of a rule other than a value, valued by the words
    reports use for them."""

    DIV = "div"        # proven divergent
    FUEL_OUT = "fuel"  # undecided when the budget ran out


DIV, FUEL_OUT = Failure.DIV, Failure.FUEL_OUT


# ---------------------------------------------------------------------------
# values


class Value:
    __slots__ = ()


class BoolV(Value):
    __slots__ = ("b",)

    def __init__(self, b: bool):
        self.b = bool(b)

    def __repr__(self):
        return "tt" if self.b else "ff"


TT = BoolV(True)
FF = BoolV(False)


class NatV(Value):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 0:
            raise AlgebraError("naturals are non-negative")
        self.n = n

    def __repr__(self):
        return f"NatV({self.n})"


# one Dovetail block (interp.Dovetail.BLOCK_BITS): a seeded search scans a
# block in a permuted order, so a search in block 0 allocates no NatV. The
# Dovetail attempt and Enumerate's choose loop index NATS in place.
SHARED_NATS = 1 << 13
NATS = [NatV(i) for i in range(SHARED_NATS)]


def nat_value(i: int) -> NatV:
    """NatV(i), one shared object for each i below SHARED_NATS."""
    return NATS[i] if i < SHARED_NATS else NatV(i)


class RealV(Value):
    """A real carried by a fast Cauchy code (constant codes stay exact)."""

    __slots__ = ("code",)

    def __init__(self, code: ECode):
        self.code = code

    def __repr__(self):
        if self.code.is_const:
            return f"RealV({self.code.value})"
        return f"RealV({self.code!r})"


class ArrV(Value):
    __slots__ = ("elem_sort", "items")

    def __init__(self, elem_sort: Sort, items: tuple):
        self.elem_sort = elem_sort
        self.items = tuple(items)

    def __repr__(self):
        return f"ArrV({self.elem_sort.name}, {list(self.items)!r})"


def rat_value(q) -> RealV:
    return RealV(ConstCode(q))


def value_key(v: Value):
    """Hashable identity for outcome-set dedup; real codes compare exactly
    only when constant, otherwise by object identity (equality of reals is
    not decidable)."""
    if isinstance(v, BoolV):
        return ("b", v.b)
    if isinstance(v, NatV):
        return ("n", v.n)
    if isinstance(v, RealV):
        if v.code.is_const:
            return ("q", v.code.value)
        return ("c", id(v.code))
    if isinstance(v, ArrV):
        return ("a", v.elem_sort.name, tuple(value_key(x) for x in v.items))
    if isinstance(v, tuple):
        return ("t",) + tuple(value_key(x) for x in v)
    raise AlgebraError(f"not a value: {v!r}")


_KIND_TAG = {"bool": BoolV, "nat": NatV, "real": RealV, "interval": RealV,
             "array": ArrV, "user": Value}


def check_value(sort: Sort, v: Value) -> bool:
    cls = _KIND_TAG[sort.kind]
    if not isinstance(v, cls):
        return False
    if sort.kind == "array" and v.elem_sort != sort.elem:
        return False
    return True


# ---------------------------------------------------------------------------
# comparisons by interval refinement


def compare_codes(x: ECode, y: ECode, fuel: Fuel, op: str):
    """op "less": tt if x<y, ff if x>y; op "eq": ff if x!=y. Both diverge
    at x=y. For two exact constants that is decided in one step, and a tie
    is DIV; otherwise interval refinement never separates equal reals, and
    the result is FUEL_OUT once fuel runs out. The RN/IN rules decide two
    constants inline, as the first branch does; the code-algebra trackers
    come here for them."""
    if x.is_const and y.is_const:
        if fuel.remaining:
            fuel.remaining -= 1
        # cross-multiply the stored pairs (denominators are positive)
        l, r = x.numerator * y.denominator, y.numerator * x.denominator
        if l == r:
            return DIV  # equality holds: the operation diverges, decidedly
        return TT if op == "less" and l < r else FF
    n = 0
    while fuel.take():
        try:
            xlo, xhi = x.interval(n, fuel)
            ylo, yhi = y.interval(n, fuel)
        except OutOfFuel:
            return FUEL_OUT
        if xhi < ylo:
            return TT if op == "less" else FF
        if yhi < xlo:
            return FF
        n += 1
    return FUEL_OUT


# ---------------------------------------------------------------------------
# partial algebras


MetricRule = Callable[[Value, Value, int, Fuel], Fraction]
InterpRule = Callable[..., "Value | Failure"]  # rule(fuel, *values)


class PartialAlgebra:
    """A signature together with fuel-bounded interpretations and metrics."""

    def __init__(self, name: str, signature: Signature,
                 interp: dict[str, InterpRule],
                 metrics: Optional[dict[str, MetricRule]] = None,
                 total: bool = False,
                 carrier_check: Optional[Callable[[Sort, Value], bool]] = None,
                 real_literal: Optional[Callable[[Fraction], Value]] = None):
        self.name = name
        self.signature = signature
        self.interp = interp
        self.metrics = metrics or {}
        self.total = total
        self.accepts = carrier_check or check_value
        self.real_literal = real_literal or rat_value
        missing = [f for f in signature.symbols if f not in interp]
        if missing:
            raise AlgebraError(f"algebra {name} lacks rules for {missing}")

    def apply(self, f, args, fuel: Fuel):
        """The rule of f on sort-checked args: a Value, DIV or FUEL_OUT."""
        sym = self.signature.symbol(f) if isinstance(f, str) else f
        if len(args) != sym.arity:
            raise AlgebraError(f"{sym.name}: arity {sym.arity}, got {len(args)}")
        for s, v in zip(sym.arg_sorts, args):
            if not self.accepts(s, v):
                raise AlgebraError(f"{sym.name}: argument of sort {s.name} got {v!r}")
        return self.interp[sym.name](fuel, *args)

    def metric(self, sort: Sort, v1: Value, v2: Value, n: int, fuel: Fuel) -> Fraction:
        """The distance at precision n; a real one is charged to `fuel` and
        raises `OutOfFuel` when that runs out."""
        try:
            rule = self.metrics[sort.name]
        except KeyError:
            raise AlgebraError(f"sort {sort.name} has no metric") from None
        return rule(v1, v2, n, fuel)

    def default_value(self, sort: Sort) -> Value:
        # a default term is a nullary constant, which takes one step
        sym = default_term(self.signature, sort).sym
        v = self.apply(sym, (), Fuel(1))
        if v is DIV or v is FUEL_OUT:
            raise AlgebraError(f"default term for {sort.name} did not converge")
        return v


apply = PartialAlgebra.apply  # apply(algebra, f, args, fuel)


def product_metric(a: PartialAlgebra, u, xs, ys, n: int, fuel: Fuel) -> Fraction:
    sorts = u.components if isinstance(u, ProductType) else tuple(u)
    if len(xs) != len(sorts) or len(ys) != len(sorts):
        raise AlgebraError("tuple length does not match product type")
    best = Fraction(0)
    for s, x, y in zip(sorts, xs, ys):
        d = a.metric(s, x, y, n, fuel)
        if d > best:
            best = d
    return best


# ---------------------------------------------------------------------------
# metric rules


def _discrete_metric(v1, v2, n, fuel):
    return Fraction(0) if value_key(v1) == value_key(v2) else Fraction(1)


def _real_metric(v1: RealV, v2: RealV, n: int, fuel: Fuel) -> Fraction:
    return abs_diff_code(v1.code, v2.code).approx(n, fuel)


def _array_metric(elem_rule: MetricRule) -> MetricRule:
    def rule(v1: ArrV, v2: ArrV, n: int, fuel: Fuel) -> Fraction:
        if len(v1.items) != len(v2.items):
            return Fraction(1)
        best = Fraction(0)
        for a, b in zip(v1.items, v2.items):
            d = elem_rule(a, b, n, fuel)
            if d > best:
                best = d
        return min(Fraction(1), best)
    return rule


# ---------------------------------------------------------------------------
# built-in algebras


# A total rule takes its one step itself and then builds its value. A step is
# `fuel.remaining` decremented when it is positive (what `Fuel.take` does),
# spelled inline here as at every hot site, so `take` is not a hook; a
# total rule completes even on an empty budget.


def _if(fuel, b, x, y):
    if fuel.remaining:
        fuel.remaining -= 1
    return x if b.b else y


def _bool_rules() -> dict:
    def true(fuel):
        if fuel.remaining:
            fuel.remaining -= 1
        return TT

    def false(fuel):
        if fuel.remaining:
            fuel.remaining -= 1
        return FF

    def and_(fuel, a, b):
        if fuel.remaining:
            fuel.remaining -= 1
        return TT if a.b and b.b else FF

    def or_(fuel, a, b):
        if fuel.remaining:
            fuel.remaining -= 1
        return TT if a.b or b.b else FF

    def not_(fuel, a):
        if fuel.remaining:
            fuel.remaining -= 1
        return FF if a.b else TT

    return {"true": true, "false": false, "and": and_, "or": or_,
            "not": not_, "if_bool": _if}


def _nat_rules() -> dict:
    def zero_nat(fuel):
        if fuel.remaining:
            fuel.remaining -= 1
        return NATS[0]

    def succ(fuel, a):
        if fuel.remaining:
            fuel.remaining -= 1
        return nat_value(a.n + 1)

    def eq_nat(fuel, a, b):
        if fuel.remaining:
            fuel.remaining -= 1
        return TT if a.n == b.n else FF

    def less_nat(fuel, a, b):
        if fuel.remaining:
            fuel.remaining -= 1
        return TT if a.n < b.n else FF

    return {"zero_nat": zero_nat, "succ": succ, "eq_nat": eq_nat,
            "less_nat": less_nat, "if_nat": _if}


def builtin_B() -> PartialAlgebra:
    sig = standardise(make_signature())
    return PartialAlgebra("B", sig, _bool_rules(), {"bool": _discrete_metric},
                          total=True)


def builtin_N() -> PartialAlgebra:
    sig = n_standardise(standardise(make_signature()))
    interp = {**_bool_rules(), **_nat_rules()}
    metrics = {"bool": _discrete_metric, "nat": _discrete_metric}
    return PartialAlgebra("N", sig, interp, metrics, total=True)


def _real_base_signature() -> Signature:
    sig = make_signature([REAL], defaults={"real": "zero_real"})
    sig.add_symbol(FuncSymbol("zero_real", (), REAL))
    sig.add_symbol(FuncSymbol("one_real", (), REAL))
    sig.add_symbol(FuncSymbol("add", (REAL, REAL), REAL))
    sig.add_symbol(FuncSymbol("mul", (REAL, REAL), REAL))
    sig.add_symbol(FuncSymbol("neg", (REAL,), REAL))
    sig.add_symbol(FuncSymbol("inv", (REAL,), REAL, partial=True))
    return sig


def _real_rules() -> dict:
    def zero_real(fuel):
        if fuel.remaining:
            fuel.remaining -= 1
        return rat_value(0)

    def one_real(fuel):
        if fuel.remaining:
            fuel.remaining -= 1
        return rat_value(1)

    def add(fuel, a, b):
        if fuel.remaining:
            fuel.remaining -= 1
        return RealV(add_codes(a.code, b.code))

    def mul(fuel, a, b):
        if fuel.remaining:
            fuel.remaining -= 1
        return RealV(mul_codes(a.code, b.code))

    def neg(fuel, a):
        if fuel.remaining:
            fuel.remaining -= 1
        return RealV(neg_code(a.code))

    def inv(fuel, a):
        code, status = inv_code(a.code, fuel)
        if status == "zero":
            return DIV
        if status == "fuel":
            return FUEL_OUT
        return RealV(code)

    # compare_codes' constant case, spelled inline: choose_near's candidate
    # test and every bisection comparison reach it here
    def eq_real(fuel, a, b):
        x, y = a.code, b.code
        if x.is_const and y.is_const:
            if fuel.remaining:
                fuel.remaining -= 1
            if x.numerator * y.denominator == y.numerator * x.denominator:
                return DIV
            return FF
        return compare_codes(x, y, fuel, "eq")

    def less_real(fuel, a, b):
        x, y = a.code, b.code
        if x.is_const and y.is_const:
            if fuel.remaining:
                fuel.remaining -= 1
            l, r = x.numerator * y.denominator, y.numerator * x.denominator
            if l == r:
                return DIV
            return TT if l < r else FF
        return compare_codes(x, y, fuel, "less")

    return {"zero_real": zero_real, "one_real": one_real, "add": add,
            "mul": mul, "neg": neg, "inv": inv, "if_real": _if,
            "eq_real": eq_real, "less_real": less_real}


def builtin_R() -> PartialAlgebra:
    """The standard partial real algebra: the field with partial eq/less."""
    sig = standardise(_real_base_signature(),
                      eq_sorts={"real": "partial"}, order_sorts={"real": "partial"})
    interp = {**_bool_rules(), **_real_rules()}
    metrics = {"bool": _discrete_metric, "real": _real_metric}
    return PartialAlgebra("R", sig, interp, metrics, total=False)


def builtin_R_N() -> PartialAlgebra:
    """N-standardised reals, plus the While-computable conveniences the
    pseudo-code style assumes: nat embedding, rational enumeration, metric,
    and a nat pairing with projections."""
    sig = n_standardise(standardise(_real_base_signature(),
                                    eq_sorts={"real": "partial"},
                                    order_sorts={"real": "partial"}))
    sig.add_symbol(FuncSymbol("nat2real", (NAT,), REAL))
    sig.add_symbol(FuncSymbol("rat", (NAT,), REAL))
    sig.add_symbol(FuncSymbol("dist", (REAL, REAL), REAL))
    sig.add_symbol(FuncSymbol("pair", (NAT, NAT), NAT))
    sig.add_symbol(FuncSymbol("fst", (NAT,), NAT))
    sig.add_symbol(FuncSymbol("snd", (NAT,), NAT))
    interp = {**_bool_rules(), **_nat_rules(), **_real_rules()}
    # decode caches: these symbols are hammered by dovetailed searches, and
    # nat2real returns one shared constant per n (no rule mutates a value).
    # Only n below SHARED_NATS is kept, so each cache holds at most that
    # many entries for the algebra's life; a larger n is decoded afresh.
    rat_of = cache(lambda n: rat_value(prog_rat_decode(n)))
    real_of = cache(rat_value)
    unpair_of = cache(unpair)

    def rat(fuel, a):
        if fuel.remaining:
            fuel.remaining -= 1
        n = a.n
        return rat_of(n) if n < SHARED_NATS else rat_value(prog_rat_decode(n))

    def fst(fuel, a):
        if fuel.remaining:
            fuel.remaining -= 1
        n = a.n
        return nat_value((unpair_of(n) if n < SHARED_NATS else unpair(n))[0])

    def snd(fuel, a):
        if fuel.remaining:
            fuel.remaining -= 1
        n = a.n
        return nat_value((unpair_of(n) if n < SHARED_NATS else unpair(n))[1])

    def nat2real(fuel, a):
        if fuel.remaining:
            fuel.remaining -= 1
        n = a.n
        return real_of(n) if n < SHARED_NATS else rat_value(n)

    def dist(fuel, a, b):
        if fuel.remaining:
            fuel.remaining -= 1
        return RealV(abs_diff_code(a.code, b.code))

    def pair_(fuel, a, b):
        if fuel.remaining:
            fuel.remaining -= 1
        return NatV(pair(a.n, b.n))

    interp.update({"nat2real": nat2real, "rat": rat, "dist": dist,
                   "pair": pair_, "fst": fst, "snd": snd})
    metrics = {"bool": _discrete_metric, "nat": _discrete_metric, "real": _real_metric}
    return PartialAlgebra("RN", sig, interp, metrics, total=False)


INTERVAL_SLACK_BITS = 20


def interval_containment(code: ECode, fuel: Optional[Fuel] = None) -> str:
    """Certify code's limit within [0,1] up to slack 2^-20: yes/no/unknown."""
    slack = Fraction(1, 1 << INTERVAL_SLACK_BITS)
    budget = fuel if fuel is not None else Fuel(4 * INTERVAL_SLACK_BITS)
    n = 0
    while budget.take():
        try:
            lo, hi = code.interval(n, budget)
        except OutOfFuel:
            return "unknown"
        if lo >= -slack and hi <= 1 + slack:
            return "yes"
        if lo > 1 + slack or hi < -slack:
            return "no"
        n += 1
    return "unknown"


def interval_value(code: ECode, fuel: Optional[Fuel] = None) -> RealV:
    status = interval_containment(code, fuel)
    if status == "no":
        raise AlgebraError("real is provably outside the unit interval")
    if status == "unknown":
        raise AlgebraError("unit-interval containment undecided within budget")
    return RealV(code)


def builtin_interval() -> PartialAlgebra:
    """The N-standard partial interval algebra: carrier [0,1] embedded in R."""
    base = builtin_R_N()
    sig = base.signature.copy()
    sig.add_sort(INTERVAL)
    sig.defaults["interval"] = "zero_interval"
    sig.add_symbol(FuncSymbol("zero_interval", (), INTERVAL))
    sig.add_symbol(FuncSymbol("i_I", (INTERVAL,), REAL))
    sig.add_symbol(FuncSymbol("if_interval", (Sort("bool", "bool"), INTERVAL, INTERVAL),
                              INTERVAL, conditional=True))

    def i_I(fuel, a):  # the embedding: the same value, sort real
        if fuel.remaining:
            fuel.remaining -= 1
        return a

    interp = dict(base.interp)
    interp.update({"zero_interval": base.interp["zero_real"], "i_I": i_I,
                   "if_interval": _if})
    metrics = dict(base.metrics)
    metrics["interval"] = _real_metric
    return PartialAlgebra("IN", sig, interp, metrics, total=False)


def array_rules(elem: Sort, default: Callable[[Sort], Value]) -> dict:
    """The starred-array operations at element sort elem. Reads past the end
    and growth by Newlength use default(elem)."""
    name = elem.name

    def null(fuel):
        if fuel.remaining:
            fuel.remaining -= 1
        return ArrV(elem, ())

    def lgth(fuel, arr):
        if fuel.remaining:
            fuel.remaining -= 1
        return NatV(len(arr.items))

    def ap(fuel, arr, i):
        if fuel.remaining:
            fuel.remaining -= 1
        return arr.items[i.n] if i.n < len(arr.items) else default(elem)

    def update(fuel, arr, i, v):
        if fuel.remaining:
            fuel.remaining -= 1
        if i.n >= len(arr.items):
            return arr
        return ArrV(arr.elem_sort, arr.items[:i.n] + (v,) + arr.items[i.n + 1:])

    def newlength(fuel, arr, k):
        if fuel.remaining:
            fuel.remaining -= 1
        items = arr.items
        if k.n <= len(items):
            return ArrV(arr.elem_sort, items[:k.n])
        fill = tuple(default(elem) for _ in range(k.n - len(items)))
        return ArrV(arr.elem_sort, items + fill)

    return {f"Null_{name}": null, f"Lgth_{name}": lgth, f"Ap_{name}": ap,
            f"Update_{name}": update, f"Newlength_{name}": newlength}


def star_algebra(a: PartialAlgebra) -> PartialAlgebra:
    if not a.signature.n_standard:
        raise AlgebraError("starring requires an N-standard algebra")
    sig = star_signature(a.signature)
    interp = dict(a.interp)
    metrics = dict(a.metrics)
    defaults: dict[str, Value] = {}

    def default_of(sort: Sort) -> Value:
        # resolved lazily, so that the starred algebra object exists first
        v = defaults.get(sort.name)
        if v is None:
            v = defaults[sort.name] = star.default_value(sort)
        return v

    for s in [s for s in a.signature.sorts.values() if s.kind != "array"]:
        sx = sig.sort(s.name + "*")
        interp.update(array_rules(s, default_of))
        interp[f"if_{sx.name}"] = _if
        if s.name in metrics:
            metrics[sx.name] = _array_metric(metrics[s.name])
    star = PartialAlgebra(a.name + "*", sig, interp, metrics, total=a.total)
    return star


_BUILTINS = {"B": builtin_B, "N": builtin_N, "R": builtin_R,
             "RN": builtin_R_N, "IN": builtin_interval}


def get_algebra(name: str) -> PartialAlgebra:
    """Resolve an algebra by header name; a trailing * applies starring."""
    base = name[:-1] if name.endswith("*") else name
    try:
        alg = _BUILTINS[base]()
    except KeyError:
        raise AlgebraError(f"unknown algebra {name!r}") from None
    if name.endswith("*"):
        alg = star_algebra(alg)
    return alg
