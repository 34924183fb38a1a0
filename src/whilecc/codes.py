"""Fast Cauchy codes: the concrete representation behind exact real values.

A code denotes a real number through a rule producing, for each n, a rational
within 2^-n of the limit (and within 2^-n of every later entry, exactly):

    |value_at(k) - value_at(n)| < 2^-n   for all k > n.

Constant codes (`ConstCode`) carry an exact rational as an integer pair,
`numerator` over `denominator` > 0, and all arithmetic between constants
stays exact and works on the pairs alone: no result builds a Fraction, and
the first read of `value` builds it. Two results keep the pair unreduced
until that read, which reduces the pair in place:
- a sum of two constants whose denominators nest (one divides the other),
  as a numerator over the larger denominator, so a chain of such sums never
  stores a denominator larger than the largest one among its operands;
- the distance |a - b| of two constants, over lcm(da, db).
So the stored denominator is a multiple of the reduced one. A negation keeps
its operand's pair reduced or not; every other result is made in lowest
terms, with gcds on component-sized integers, after its operands are reduced
in place. Each arithmetic function builds its constant result in place, with
no helper call. Comparisons of two constants cross-multiply the stored pairs
and never reduce them. Derived codes (sum, product, inverse, ...) re-query their
children at shifted precisions chosen so the fast Cauchy bound is preserved.
The module also hosts the Cantor pairing utilities and the rational codecs
used by enumerations, plus the append-only code registry.

Every producer draws on the `Fuel` its caller passes, and raises `OutOfFuel`
when that budget dies; there is no module-wide fallback budget. A diagonal
code passes the same budget on to its level function, so whoever asks for a
lifted code's n-th rational also pays for the level runs behind it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Optional

# Fraction(n, d) from coprime n and d > 0, without a full-size gcd
if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12
    _coprime = Fraction._from_coprime_ints
else:
    def _coprime(n: int, d: int) -> Fraction:
        return Fraction(n, d, _normalize=False)


def rat_dist(a: Fraction, b: Fraction) -> Fraction:
    """Exact |a - b| in lowest terms."""
    return abs_diff_code(ConstCode(a), ConstCode(b)).value


class CodeProducerError(Exception):
    """A sequence rule failed to produce its n-th entry."""

    def __init__(self, message: str, level: Optional[int] = None):
        super().__init__(message)
        self.level = level


class OutOfFuel(CodeProducerError):
    """The budget died while a producer was still working."""


class FastCauchyError(Exception):
    """Prefix validation found indices violating the fast Cauchy bound."""

    def __init__(self, violations):
        super().__init__(f"fast Cauchy violations at (n, k) pairs: {violations}")
        self.violations = violations


# ---------------------------------------------------------------------------
# fuel


_new = object.__new__


class Fuel:
    """Mutable step budget: one counter, and a step is one decrement.

    A step is `remaining` decremented when it is positive; it never goes
    below zero. `take` does that and says whether it did. The hot sites (the
    rules, the statement walkers, the Dovetail stage loop) spell the step
    inline, `if fuel.remaining: fuel.remaining -= 1`, and repay a guard's
    budget inline too, so neither `take` nor `repay` is a hook: a harness
    that counts the work overrides `spawn` (once per guard attempt) or
    `Dovetail.visit` (once per stage).

    A capped budget for a guard or a level run is carved out of its parent:
    `spawn(cap)` moves min(cap, remaining) steps into a new child at once, and
    `repay(child)` gives back what the child left. The parent is thus charged
    exactly the steps the child took, as long as no guard or level run keeps
    its budget after it returns and the parent is not drawn on while a child
    is out. A spawn site repays in a `finally`, so a raising guard leaves its
    parent right too.
    """

    __slots__ = ("remaining",)

    def __init__(self, steps: int):
        if steps < 0:
            raise ValueError("fuel must be non-negative")
        self.remaining = steps

    def take(self) -> bool:
        if self.remaining:
            self.remaining -= 1
            return True
        return False

    @property
    def dead(self) -> bool:
        return self.remaining <= 0

    def spawn(self, cap: int) -> "Fuel":
        """A plain Fuel holding min(cap, remaining) steps carved out of this
        one. cap is never negative and neither is remaining, so the child is
        built without `__init__`'s check."""
        n = cap if cap < self.remaining else self.remaining
        self.remaining -= n
        child = _new(Fuel)
        child.remaining = n
        return child

    def repay(self, child: "Fuel") -> None:
        self.remaining += child.remaining
        child.remaining = 0

    def __repr__(self):
        return f"Fuel({self.remaining})"


# ---------------------------------------------------------------------------
# pairing and rational codecs


def pair(a: int, b: int) -> int:
    """Cantor diagonal pairing, a bijection N^2 -> N."""
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    # w = floor((sqrt(8n+1)-1)/2) is the diagonal index.
    w = (isqrt(8 * n + 1) - 1) // 2
    t = w * (w + 1) // 2
    b = n - t
    return w - b, b


def rat_decode(k: int) -> Fraction:
    """Canonical enumeration of Q: k -> (sign, numerator, denominator-1)."""
    s, pq = unpair(k)
    p, q0 = unpair(pq)
    r = Fraction(p, q0 + 1)
    return -r if s % 2 == 1 else r


def rat_encode(r: Fraction) -> int:
    """Index of r under rat_decode; rat_decode(rat_encode(r)) == r."""
    r = Fraction(r)
    s = 1 if r < 0 else 0
    return pair(s, pair(abs(r.numerator), r.denominator - 1))


# Program-facing enumeration of Q: dyadics (level-major, window [-8, 8])
# interleaved with the canonical enumeration so search indices stay small
# where the bisection fixtures need them while surjectivity onto Q holds.

DYADIC_WINDOW = 8  # the configurable bisection search window [-W, W]


def _dyadic_decode(m: int) -> Fraction:
    # level 0: the integers in the window; level j >= 1: the dyadics with
    # odd numerator at scale 2^-j (each dyadic is listed exactly once)
    size0 = 2 * DYADIC_WINDOW + 1
    if m < size0:
        return Fraction(m - DYADIC_WINDOW)
    m -= size0
    j = 1
    while True:
        size = DYADIC_WINDOW << j  # odd numerators up to the window edge
        if m < size:
            num = 2 * (m >> 1) + 1
            if m & 1:
                num = -num
            return Fraction(num, 1 << j)
        m -= size
        j += 1


def prog_rat_decode(k: int) -> Fraction:
    if k % 2 == 0:
        return _dyadic_decode(k // 2)
    return rat_decode(k // 2)


def prog_rat_encode(q) -> int:
    """The least index decoding to q (dyadics inside the window live on the
    cheap even side, everything lives on the odd canonical side)."""
    q = Fraction(q)
    best = 2 * rat_encode(q) + 1
    den = q.denominator
    if den & (den - 1) == 0 and abs(q) <= DYADIC_WINDOW:
        j = den.bit_length() - 1
        if j == 0:
            best = min(best, 2 * (int(q) + DYADIC_WINDOW))
        elif abs(q.numerator) <= (DYADIC_WINDOW << j):
            start = 2 * DYADIC_WINDOW + 1 + sum(DYADIC_WINDOW << jj
                                                for jj in range(1, j))
            t = (abs(q.numerator) - 1) // 2
            idx = start + 2 * t + (1 if q < 0 else 0)
            best = min(best, 2 * idx)
    return best


# ---------------------------------------------------------------------------
# codes


class ECode:
    """A fast Cauchy representative of a real number. `approx` memoises
    its levels in `_cache`; constant codes, which override it, have none."""

    __slots__ = ("_cache",)
    is_const = False

    def __init__(self):
        self._cache: dict[int, Fraction] = {}

    def approx(self, n: int, fuel: Fuel) -> Fraction:
        """The n-th rational of the sequence; within 2^-n of the limit.

        The work of computing an uncached level, including any level runs
        of a lifted code, is charged to `fuel`; `OutOfFuel` leaves the level
        uncached."""
        v = self._cache.get(n)
        if v is None:
            v = self._compute(n, fuel)
            self._cache[n] = v
        return v

    def _compute(self, n: int, fuel: Fuel) -> Fraction:
        raise NotImplementedError

    def interval(self, n: int, fuel: Fuel) -> tuple[Fraction, Fraction]:
        v = self.approx(n, fuel)
        h = Fraction(1, 1 << n)
        return v - h, v + h


_LOWEST = object()  # ConstCode._value of a pair in lowest terms, unread


class ConstCode(ECode):
    """Constant sequence: the exact-rational shortcut. Like a Fraction it has
    a `numerator` and a `denominator` > 0, and arithmetic works on this pair.
    `_value` marks how far the pair is known: None while it may be
    unreduced, `_LOWEST` once it is in lowest terms, and the Fraction once
    `value` has been read. The first read of `value` reduces an unreduced
    pair in place and builds the Fraction; nothing else builds it."""

    __slots__ = ("numerator", "denominator", "_value")
    is_const = True

    def __init__(self, value):
        if type(value) is int:
            self.numerator, self.denominator, self._value = value, 1, _LOWEST
        else:
            v = self._value = Fraction(value)
            self.numerator, self.denominator = v.numerator, v.denominator

    def _reduce(self) -> None:
        """Bring an unreduced pair to lowest terms in place."""
        g = gcd(self.numerator, self.denominator)
        if g > 1:
            self.numerator //= g
            self.denominator //= g
        self._value = _LOWEST

    @property
    def value(self) -> Fraction:
        v = self._value
        if v is None or v is _LOWEST:
            if v is None:
                self._reduce()
            v = self._value = _coprime(self.numerator, self.denominator)
        return v

    def approx(self, n, fuel):
        return self.value

    def __repr__(self):
        return f"ConstCode({self.value})"


class RuleCode(ECode):
    """Code backed by an arbitrary rule n -> rational (builtin sequences)."""

    __slots__ = ("rule", "name")

    def __init__(self, rule: Callable[[int], Fraction], name: str = "rule"):
        super().__init__()
        self.rule = rule
        self.name = name

    def _compute(self, n, fuel):
        if not fuel.take():
            raise OutOfFuel(f"{self.name}: out of fuel at level {n}", n)
        return Fraction(self.rule(n))

    def __repr__(self):
        return f"RuleCode({self.name})"


class SumCode(ECode):
    __slots__ = ("x", "y")

    def __init__(self, x: ECode, y: ECode):
        super().__init__()
        self.x, self.y = x, y

    def _compute(self, n, fuel):
        return self.x.approx(n + 2, fuel) + self.y.approx(n + 2, fuel)


class NegCode(ECode):
    __slots__ = ("x",)

    def __init__(self, x: ECode):
        super().__init__()
        self.x = x

    def _compute(self, n, fuel):
        return -self.x.approx(n, fuel)


class AbsDiffCode(ECode):
    """|x - y|: the real metric, 1-Lipschitz in both arguments."""

    __slots__ = ("x", "y")

    def __init__(self, x: ECode, y: ECode):
        super().__init__()
        self.x, self.y = x, y

    def _compute(self, n, fuel):
        return abs(self.x.approx(n + 2, fuel) - self.y.approx(n + 2, fuel))


class MulCode(ECode):
    __slots__ = ("x", "y", "_shift")

    def __init__(self, x: ECode, y: ECode):
        super().__init__()
        self.x, self.y = x, y
        self._shift: Optional[int] = None

    def _compute(self, n, fuel):
        if self._shift is None:
            # 2^s >= |x| + |y| + 1, using |.| <= |.(0)| + 1.
            bound = abs(self.x.approx(0, fuel)) + abs(self.y.approx(0, fuel)) + 3
            s = 0
            while (1 << s) < bound:
                s += 1
            self._shift = s
        k = n + self._shift + 1
        return self.x.approx(k, fuel) * self.y.approx(k, fuel)


class InvCode(ECode):
    """1/x given a separation witness m with |x| > 2^-m."""

    __slots__ = ("x", "m")

    def __init__(self, x: ECode, m: int):
        super().__init__()
        self.x = x
        self.m = m

    def _compute(self, n, fuel):
        k = n + 2 * self.m + 2
        v = self.x.approx(k, fuel)
        if v == 0:
            raise CodeProducerError("inverse witness violated: sequence hit 0", n)
        return 1 / v


class DiagonalCode(ECode):
    """Diagonal over a rule (n, fuel) -> code, shifted by 2 to restore fast
    Cauchy.

    The caller promises level-n codes have limits within 2^-n of a common
    target; then value_at(n) = levels(n+2).approx(n+2) converges fast to it.
    The level rule runs on the budget of the `approx` call that needs it.
    """

    __slots__ = ("levels",)

    def __init__(self, levels: Callable[[int, Fuel], ECode]):
        super().__init__()
        self.levels = levels

    def _compute(self, n, fuel):
        m = n + 2
        code = self.levels(m, fuel)
        if code is None:
            raise CodeProducerError("diagonal level producer failed", m)
        return code.approx(m, fuel)


# A constant result is `_new(ConstCode)` given its pair and the `_value`
# mark: None for a pair that may be unreduced, `_LOWEST` for one in lowest
# terms, which takes gcds on component-sized integers only (Henrici; Knuth,
# TAOCP vol. 2, 4.5.1).


def add_codes(x: ECode, y: ECode) -> ECode:
    if x.is_const and y.is_const:
        na, da, nb, db = x.numerator, x.denominator, y.numerator, y.denominator
        c = _new(ConstCode)
        # nested denominators: add over the larger one, reduce on first read;
        # one division decides the nesting and gives the quotient
        q, r = divmod(db, da)
        if not r:
            c.numerator, c.denominator, c._value = na * q + nb, db, None
            return c
        q, r = divmod(da, db)
        if not r:
            c.numerator, c.denominator, c._value = nb * q + na, da, None
            return c
        if x._value is None:
            x._reduce()
            na, da = x.numerator, x.denominator
        if y._value is None:
            y._reduce()
            nb, db = y.numerator, y.denominator
        g = gcd(da, db)
        if g == 1:
            c.numerator, c.denominator = na * db + da * nb, da * db
        else:
            s = da // g
            t = na * (db // g) + nb * s
            g2 = gcd(t, g)
            if g2 == 1:
                c.numerator, c.denominator = t, s * db
            else:
                c.numerator, c.denominator = t // g2, s * (db // g2)
        c._value = _LOWEST
        return c
    return SumCode(x, y)


def neg_code(x: ECode) -> ECode:
    if x.is_const:
        c = _new(ConstCode)
        c.numerator, c.denominator = -x.numerator, x.denominator
        c._value = None if x._value is None else _LOWEST
        return c
    return NegCode(x)


def mul_codes(x: ECode, y: ECode) -> ECode:
    if x.is_const and y.is_const:
        if x._value is None:
            x._reduce()
        if y._value is None:
            y._reduce()
        na, da, nb, db = x.numerator, x.denominator, y.numerator, y.denominator
        g = gcd(na, db)
        if g > 1:
            na //= g
            db //= g
        g = gcd(nb, da)
        if g > 1:
            nb //= g
            da //= g
        c = _new(ConstCode)
        c.numerator, c.denominator, c._value = na * nb, db * da, _LOWEST
        return c
    return MulCode(x, y)


def abs_diff_code(x: ECode, y: ECode) -> ECode:
    """|x - y|. Of two constants, over lcm(da, db) with one gcd of the
    denominators (Henrici) and no reduction; for operands in lowest terms
    with gcd(da, db) = 1 that is lowest terms already."""
    if x.is_const and y.is_const:
        da, db = x.denominator, y.denominator
        g = gcd(da, db)
        s = da // g
        c = _new(ConstCode)
        c.numerator = abs(x.numerator * (db // g) - y.numerator * s)
        c.denominator, c._value = s * db, None
        return c
    return AbsDiffCode(x, y)


def separation_witness(x: ECode, fuel: Fuel) -> Optional[int]:
    """Search m with |x| > 2^-m by refinement; None when fuel runs out.

    Never returns for an exact zero; callers decide that case separately
    (constants are inspected directly).
    """
    n = 0
    while fuel.take():
        try:
            v = x.approx(n, fuel)
        except OutOfFuel:
            return None
        if abs(v) > Fraction(2, 1 << n):  # |x| >= |v| - 2^-n > 2^-n
            return n
        n += 1
    return None


def inv_code(x: ECode, fuel: Fuel) -> tuple[Optional[ECode], str]:
    """Build 1/x. Returns (code, "ok"), (None, "zero") or (None, "fuel")."""
    if x.is_const:
        if x.numerator == 0:
            return None, "zero"
        if x._value is None:
            x._reduce()
        n, d = x.numerator, x.denominator
        if n < 0:
            n, d = -n, -d
        c = _new(ConstCode)
        c.numerator, c.denominator, c._value = d, n, _LOWEST
        return c, "ok"
    m = separation_witness(x, fuel)
    if m is None:
        return None, "fuel"
    return InvCode(x, m), "ok"


# ---------------------------------------------------------------------------
# builtin named codes


def _sqrt_rat_floor(a: Fraction, bits: int) -> Fraction:
    """floor(sqrt(a) * 2^bits) / 2^bits for a >= 0, exactly."""
    num = a.numerator << (2 * bits)
    return Fraction(isqrt(num * a.denominator), a.denominator << bits)


def sqrt_code(a) -> ECode:
    """Code for sqrt(a), a a non-negative rational (nested dyadic intervals)."""
    a = Fraction(a)
    if a < 0:
        raise ValueError("sqrt of a negative rational")

    def rule(n: int) -> Fraction:
        return _sqrt_rat_floor(a, n + 2)

    return RuleCode(rule, name=f"sqrt({a})")


def e_code() -> ECode:
    """Code for Euler's number via factorial-series partial sums."""

    def rule(n: int) -> Fraction:
        m = n + 3  # tail sum_{i>m} 1/i! < 2/(m+1)! <= 2^-(n+1)
        s = Fraction(0)
        t = Fraction(1)
        for i in range(m + 1):
            if i > 0:
                t /= i
            s += t
        return s

    return RuleCode(rule, name="e")


# ---------------------------------------------------------------------------
# registry (the Goedel table: pairing plus an append-only index store)


VALIDATION_PREFIX = 14


def check_fast_cauchy_prefix(code: ECode, fuel: Fuel,
                             upto: int = VALIDATION_PREFIX) -> list[tuple[int, int]]:
    """Exact-rational check of |v(k) - v(n)| < 2^-n on a finite prefix."""
    vals = [code.approx(i, fuel) for i in range(upto + 1)]
    bad = []
    for n in range(upto):
        for k in range(n + 1, upto + 1):
            if abs(vals[k] - vals[n]) >= Fraction(1, 1 << n):
                bad.append((n, k))
    return bad


class CodeRegistry:
    """Append-only store mapping natural indices to sequence rules.

    Indices are stable within a session; membership of an index in the code
    space is only ever validated on a finite prefix (the full predicate is
    undecidable). `register` checks that prefix on the caller's budget;
    `mint` skips it, for codes that are fast Cauchy by construction.

    `codes` is the store itself: a code's index is its position, and the
    list only ever grows, so a hot caller may read `codes[i]` and append to
    it in place of `code(i)` and `mint`.
    """

    def __init__(self):
        self.codes: list[ECode] = []
        self._named: dict[str, int] = {}
        self.mint(ConstCode(0))  # index 0: the default real

    def __len__(self):
        return len(self.codes)

    def mint(self, code: ECode) -> int:
        """Register a construction-derived code without prefix validation."""
        self.codes.append(code)
        return len(self.codes) - 1

    def register(self, code: ECode, fuel: Fuel) -> int:
        """Register a code after checking its fast Cauchy prefix on `fuel`."""
        bad = check_fast_cauchy_prefix(code, fuel)
        if bad:
            raise FastCauchyError(bad)
        return self.mint(code)

    def code(self, index: int) -> ECode:
        return self.codes[index]

    # named builtin codes (CLI input literals)

    def named(self, name: str) -> int:
        idx = self._named.get(name)
        if idx is None:
            if name == "sqrt2":
                idx = self.mint(sqrt_code(2))
            elif name == "e":
                idx = self.mint(e_code())
            else:
                raise KeyError(f"unknown named code {name!r}")
            self._named[name] = idx
        return idx
