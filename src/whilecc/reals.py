"""Enumerated subspaces, code spaces, and canonical enumerations.

An enumeration assigns to each sort a decidable-or-declared index domain and
a total decode rule onto carrier values; nat is enumerated identically and
bool by {0: ff, 1: tt}. The computable closure replaces index domains by the
(undecidable) space of registered fast Cauchy codes, validated here only on
finite prefixes. Canonical enumerations decode naturals to closed terms over
a generator system and evaluate them, excluding provably divergent terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .codes import (Fuel, ECode, ConstCode, CodeRegistry,
                    FastCauchyError, check_fast_cauchy_prefix,
                    pair, unpair, rat_decode, rat_encode)
from .algebra import (PartialAlgebra, Value, NatV, RealV, TT, FF, DIV,
                      FUEL_OUT, rat_value)
from .signature import Signature, ClosedTerm


class EnumerationError(Exception):
    pass


class EnumPending(EnumerationError):
    """Evaluation of a queried index ran out of fuel: membership pending."""


@dataclass
class SortEnumeration:
    member: Callable[[int], bool]
    decode: Callable[[int], Value]
    encode: Optional[Callable[[Value], int]] = None


class Enumeration:
    """Per-sort families alpha_s: Omega_s -> carrier."""

    def __init__(self, families: dict[str, SortEnumeration]):
        fams = dict(families)
        fams.setdefault("nat", SortEnumeration(
            member=lambda k: True, decode=lambda k: NatV(k),
            encode=lambda v: v.n))
        fams.setdefault("bool", SortEnumeration(
            member=lambda k: k in (0, 1),
            decode=lambda k: TT if k == 1 else FF,
            encode=lambda v: 1 if v.b else 0))
        self.families = fams

    def member(self, sort: str, k: int) -> bool:
        return self.families[sort].member(k)

    def decode(self, sort: str, k: int) -> Value:
        if not self.member(sort, k):
            raise EnumerationError(f"{k} outside the index domain at sort {sort}")
        return self.families[sort].decode(k)

    def encode(self, sort: str, v: Value) -> int:
        enc = self.families[sort].encode
        if enc is None:
            raise EnumerationError(f"sort {sort} has no encoder")
        return enc(v)


def alpha_rat() -> Enumeration:
    """The canonical enumeration of Q (total on N, polynomial-time decode)."""
    real = SortEnumeration(
        member=lambda k: True,
        decode=lambda k: rat_value(rat_decode(k)),
        encode=lambda v: rat_encode(v.code.value))
    interval = SortEnumeration(
        member=lambda k: 0 <= rat_decode(k) <= 1,
        decode=lambda k: rat_value(rat_decode(k)),
        encode=lambda v: rat_encode(v.code.value))
    return Enumeration({"real": real, "interval": interval})


# ---------------------------------------------------------------------------
# codes: spec-facing operations over the registry


def ecode_eval(e: ECode, n: int, fuel: Fuel) -> Fraction:
    """The n-th rational of the sequence; within 2^-(n-1) of the limit.

    All the work, including the level runs of a lifted code, is charged to
    `fuel`; `OutOfFuel` is raised when it runs out first."""
    return e.approx(n, fuel)


def const_code(alpha: Enumeration, k: int, sort: str = "real") -> ECode:
    v = alpha.decode(sort, k)
    if not isinstance(v, RealV) or not v.code.is_const:
        raise EnumerationError(f"index {k} does not decode to a rational")
    return ConstCode(v.code.value)


@dataclass
class CCode:
    """Raw code: sequence rule paired with a modulus of convergence."""

    seq: Callable[[int], int]      # n -> index in Omega_alpha
    modulus: Callable[[int], int]  # precision -> stabilization point


def c_to_e(c: CCode, alpha: Enumeration, fuel: Fuel, sort: str = "real") -> ECode:
    """Normalize to identity modulus: {e'}(n) = {e}({m}(n)). The fast Cauchy
    prefix is checked on `fuel`; violations are reported, not silently
    accepted."""

    def rule(n: int) -> Fraction:
        v = alpha.decode(sort, c.seq(c.modulus(n)))
        return v.code.value

    from .codes import RuleCode
    code = RuleCode(rule, name="c_to_e")
    bad = check_fast_cauchy_prefix(code, fuel)
    if bad:
        raise FastCauchyError(bad)
    return code


def computable_closure(alpha: Enumeration, registry: CodeRegistry) -> Enumeration:
    """Enumeration over code indices. Membership in the code space is not
    decidable; indices are accepted if registered (prefix-validated at the
    registration boundary)."""
    real = SortEnumeration(
        member=lambda k: k < len(registry),
        decode=lambda k: RealV(registry.code(k)))
    return Enumeration({"real": real, "interval": real})


# ---------------------------------------------------------------------------
# canonical enumerations from generator systems (terms over generators)


@dataclass
class GeneratorSystem:
    """Per-sort generators: finitely many constants, or a unary symbol
    indexing an infinite family."""

    constants: dict[str, list[ClosedTerm]]
    indexed: dict[str, str] = None  # sort -> function symbol over nat

    def __post_init__(self):
        if self.indexed is None:
            self.indexed = {}


class CanonicalEnumeration(Enumeration):
    def __init__(self, sig: Signature, algebra: PartialAlgebra,
                 gens: GeneratorSystem, fuel_per_eval: int = 2_000):
        self.sig = sig
        self.algebra = algebra
        self.gens = gens
        self.fuel_per_eval = fuel_per_eval
        self._tables: dict[str, list] = {}
        self._cache: dict[tuple[str, int], object] = {}
        fams = {}
        for sort in set(gens.constants) | set(gens.indexed):
            fams[sort] = SortEnumeration(
                member=(lambda k, s=sort: self._eval(s, k) is not None),
                decode=(lambda k, s=sort: self._decode(s, k)))
        super().__init__(fams)

    # the symbol table at a sort: generators first, then every signature
    # symbol whose result is that sort (argument sorts recurse)

    def _table(self, sort: str) -> list:
        tab = self._tables.get(sort)
        if tab is None:
            tab = [("gen", g) for g in self.gens.constants.get(sort, ())]
            if sort in self.gens.indexed:
                tab.append(("idx", self.sig.symbol(self.gens.indexed[sort])))
            for sym in self.sig.symbols.values():
                if sym.result_sort.name == sort and not sym.conditional:
                    tab.append(("sym", sym))
            if not tab:
                raise EnumerationError(f"no generators or symbols at sort {sort}")
            # index 0 decodes with argument code 0; a leaf must sit there or
            # term decoding would not terminate
            for i, (kind, entry) in enumerate(tab):
                if kind in ("gen", "idx") or (kind == "sym" and entry.arity == 0):
                    tab[0], tab[i] = tab[i], tab[0]
                    break
            else:
                raise EnumerationError(f"sort {sort} has no leaf term")
            self._tables[sort] = tab
        return tab

    def decode_term(self, sort: str, k: int) -> ClosedTerm:
        tab = self._table(sort)
        head, rest = unpair(k)
        kind, entry = tab[head % len(tab)]
        if kind == "gen":
            return entry
        if kind == "idx":
            return ClosedTerm(entry.name, (ClosedTerm(f"#nat:{rest}"),))
        args = []
        for s in entry.arg_sorts:
            rest, here = unpair(rest)
            args.append(self.decode_term(s.name, here))
        return ClosedTerm(entry.name, tuple(args))

    def encode_term(self, sort: str, t: ClosedTerm) -> int:
        """Inverse of decode_term on the canonical slots (head index < table
        length, so decode's modulus is the identity here)."""
        tab = self._table(sort)
        for i, (kind, entry) in enumerate(tab):
            if kind == "gen" and entry == t:
                return pair(i, 0)
            if kind == "idx" and entry.name == t.sym and len(t.args) == 1 \
                    and t.args[0].sym.startswith("#nat:"):
                return pair(i, int(t.args[0].sym[5:]))
            if kind == "sym" and entry.name == t.sym:
                rest = 0
                for s, arg in zip(reversed(entry.arg_sorts), reversed(t.args)):
                    rest = pair(rest, self.encode_term(s.name, arg))
                return pair(i, rest)
        raise EnumerationError(f"term head {t.sym!r} not encodable at sort {sort}")

    def _eval(self, sort: str, k: int):
        key = (sort, k)
        if key in self._cache:
            return self._cache[key]
        term = self.decode_term(sort, k)
        v = self._eval_closed(term)
        self._cache[key] = v
        return v

    def _eval_closed(self, t: ClosedTerm):
        if t.sym.startswith("#nat:"):
            return NatV(int(t.sym[5:]))
        vals = []
        for a in t.args:
            v = self._eval_closed(a)
            if v is None:
                return None
            vals.append(v)
        v = self.algebra.apply(t.sym, tuple(vals), Fuel(self.fuel_per_eval))
        if v is DIV:
            return None  # excluded from the index domain
        if v is FUEL_OUT:
            raise EnumPending(f"evaluation of {t!r} pending at its per-evaluation "
                              f"budget (fuel_per_eval={self.fuel_per_eval})")
        return v

    def _decode(self, sort: str, k: int) -> Value:
        v = self._eval(sort, k)
        if v is None:
            raise EnumerationError(f"index {k} is outside the domain at {sort}")
        return v


def goedel_number(text: str) -> int:
    """Injective coding of syntax: fold the pairing over the UTF-8 bytes."""
    acc = 0
    for byte in text.encode("utf-8"):
        acc = pair(acc, byte)
    return acc
