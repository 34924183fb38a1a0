"""Many-sorted signatures and their standard / N-standard / array extensions.

Symbols carry canonical, signature-unique names ("eq_real", "Ap_nat", ...);
surface syntax may overload shorter spellings and resolves them by sort.
Every sort in a well-formed signature has a designated default closed term,
so value initialisation is always possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


class SignatureError(Exception):
    pass


@dataclass(frozen=True)
class Sort:
    name: str
    kind: str  # bool | nat | real | interval | array | user
    elem: Optional["Sort"] = None

    def __post_init__(self):
        if self.kind == "array":
            if self.elem is None:
                raise SignatureError("array sort needs an element sort")
            if self.elem.kind == "array":
                raise SignatureError("no double starring: array-of-array is forbidden")
        elif self.elem is not None:
            raise SignatureError("only array sorts have an element sort")

    def __repr__(self):
        return f"Sort({self.name})"


BOOL = Sort("bool", "bool")
NAT = Sort("nat", "nat")
REAL = Sort("real", "real")
INTERVAL = Sort("interval", "interval")


def starred(s: Sort) -> Sort:
    return Sort(s.name + "*", "array", elem=s)


@dataclass(frozen=True)
class FuncSymbol:
    name: str
    arg_sorts: tuple[Sort, ...]
    result_sort: Sort
    partial: bool = False
    conditional: bool = False  # if_s symbols get the non-strict term rule

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __repr__(self):
        args = " x ".join(s.name for s in self.arg_sorts) or "()"
        return f"{self.name}: {args} -> {self.result_sort.name}"


@dataclass(frozen=True)
class ProductType:
    components: tuple[Sort, ...] = ()

    def __len__(self):
        return len(self.components)


@dataclass(frozen=True)
class ClosedTerm:
    """Application tree over constant/function symbols (no variables)."""

    sym: str
    args: tuple["ClosedTerm", ...] = ()

    def __repr__(self):
        if not self.args:
            return self.sym
        return f"{self.sym}({', '.join(map(repr, self.args))})"


@dataclass
class Signature:
    sorts: dict[str, Sort] = field(default_factory=dict)
    symbols: dict[str, FuncSymbol] = field(default_factory=dict)
    defaults: dict[str, str] = field(default_factory=dict)  # sort -> constant symbol
    standard: bool = False
    n_standard: bool = False
    starred: bool = False

    def sort(self, name: str) -> Sort:
        try:
            return self.sorts[name]
        except KeyError:
            raise SignatureError(f"unknown sort {name!r}") from None

    def symbol(self, name: str) -> FuncSymbol:
        try:
            return self.symbols[name]
        except KeyError:
            raise SignatureError(f"unknown symbol {name!r}") from None

    def add_sort(self, s: Sort) -> Sort:
        old = self.sorts.get(s.name)
        if old is not None and old != s:
            raise SignatureError(f"sort name collision: {s.name}")
        self.sorts[s.name] = s
        return s

    def add_symbol(self, sym: FuncSymbol) -> FuncSymbol:
        if sym.name in self.symbols:
            raise SignatureError(f"symbol name collision: {sym.name}")
        for s in sym.arg_sorts + (sym.result_sort,):
            if self.sorts.get(s.name) != s:
                raise SignatureError(f"symbol {sym.name} uses undeclared sort {s.name}")
        self.symbols[sym.name] = sym
        return sym

    def copy(self) -> "Signature":
        return Signature(dict(self.sorts), dict(self.symbols), dict(self.defaults),
                         self.standard, self.n_standard, self.starred)


def make_signature(sorts: Iterable[Sort] = (), symbols: Iterable[FuncSymbol] = (),
                   defaults: Optional[dict[str, str]] = None) -> Signature:
    sig = Signature()
    for s in sorts:
        sig.add_sort(s)
    for f in symbols:
        sig.add_symbol(f)
    if defaults:
        sig.defaults.update(defaults)
    return sig


def default_term(sig: Signature, s: Sort) -> ClosedTerm:
    if sig.sorts.get(s.name) != s:
        raise SignatureError(f"sort {s.name!r} not in signature")
    sym = sig.defaults.get(s.name)
    if sym is None:
        raise SignatureError(f"sort {s.name!r} has no default term")
    return ClosedTerm(sym)


def validate_signature(sig: Signature) -> list[str]:
    """Machine-checkable invariants; returns a list of violation messages."""
    problems = []
    if sig.standard:
        if "bool" not in sig.sorts:
            problems.append("standard signature lacks bool sort")
        for name in ("true", "false", "and", "or", "not"):
            if name not in sig.symbols:
                problems.append(f"standard signature lacks {name}")
        for s in sig.sorts.values():
            if s.kind != "bool" and f"if_{s.name}" not in sig.symbols:
                problems.append(f"missing conditional if_{s.name}")
    if sig.n_standard:
        if "nat" not in sig.sorts:
            problems.append("N-standard signature lacks nat sort")
        for name in ("zero_nat", "succ", "eq_nat", "less_nat", "if_nat"):
            if name not in sig.symbols:
                problems.append(f"N-standard signature lacks {name}")
    for s in sig.sorts.values():
        if s.name not in sig.defaults:
            problems.append(f"sort {s.name} has no default term")
        elif sig.defaults[s.name] not in sig.symbols:
            problems.append(f"default for {s.name} names missing symbol")
    return problems


_BOOLEAN_SYMBOLS = ("true", "false", "and", "or", "not")


def standardise(sig: Signature, eq_sorts: Optional[dict[str, str]] = None,
                order_sorts: Optional[dict[str, str]] = None) -> Signature:
    """Adjoin booleans, per-sort conditionals, and declared eq/less extras.

    eq_sorts / order_sorts map sort names to "total" or "partial".
    """
    if sig.standard:
        raise SignatureError("signature is already standard")
    for name in _BOOLEAN_SYMBOLS:
        if name in sig.symbols:
            raise SignatureError(f"reserved boolean symbol {name} already declared")
    out = sig.copy()
    out.add_sort(BOOL)
    out.defaults.setdefault("bool", "false")
    out.add_symbol(FuncSymbol("true", (), BOOL))
    out.add_symbol(FuncSymbol("false", (), BOOL))
    out.add_symbol(FuncSymbol("and", (BOOL, BOOL), BOOL))
    out.add_symbol(FuncSymbol("or", (BOOL, BOOL), BOOL))
    out.add_symbol(FuncSymbol("not", (BOOL,), BOOL))
    for s in out.sorts.values():
        out.add_symbol(FuncSymbol(f"if_{s.name}", (BOOL, s, s), s, conditional=True))
    for name, mode in (eq_sorts or {}).items():
        s = out.sort(name)
        out.add_symbol(FuncSymbol(f"eq_{name}", (s, s), BOOL, partial=(mode == "partial")))
    for name, mode in (order_sorts or {}).items():
        s = out.sort(name)
        out.add_symbol(FuncSymbol(f"less_{name}", (s, s), BOOL, partial=(mode == "partial")))
    out.standard = True
    return out


def n_standardise(sig: Signature) -> Signature:
    if not sig.standard:
        raise SignatureError("N-standardisation requires a standard signature")
    if sig.n_standard:
        raise SignatureError("signature is already N-standard")
    for name in ("zero_nat", "succ", "eq_nat", "less_nat", "if_nat"):
        if name in sig.symbols:
            raise SignatureError(f"reserved nat symbol {name} already declared")
    out = sig.copy()
    out.add_sort(NAT)
    out.defaults.setdefault("nat", "zero_nat")
    out.add_symbol(FuncSymbol("zero_nat", (), NAT))
    out.add_symbol(FuncSymbol("succ", (NAT,), NAT))
    out.add_symbol(FuncSymbol("eq_nat", (NAT, NAT), BOOL))
    out.add_symbol(FuncSymbol("less_nat", (NAT, NAT), BOOL))
    out.add_symbol(FuncSymbol("if_nat", (BOOL, NAT, NAT), NAT, conditional=True))
    out.n_standard = True
    return out


def star_signature(sig: Signature) -> Signature:
    """Adjoin a starred (finite array) sort with its operations per base sort."""
    if not sig.n_standard:
        raise SignatureError("starring requires an N-standard signature")
    if sig.starred:
        raise SignatureError("signature is already starred")
    out = sig.copy()
    base = [s for s in sig.sorts.values() if s.kind != "array"]
    for s in base:
        sx = out.add_sort(starred(s))
        out.defaults.setdefault(sx.name, f"Null_{s.name}")
        out.add_symbol(FuncSymbol(f"Null_{s.name}", (), sx))
        out.add_symbol(FuncSymbol(f"Lgth_{s.name}", (sx,), NAT))
        out.add_symbol(FuncSymbol(f"Ap_{s.name}", (sx, NAT), s))
        out.add_symbol(FuncSymbol(f"Update_{s.name}", (sx, NAT, s), sx))
        out.add_symbol(FuncSymbol(f"Newlength_{s.name}", (sx, NAT), sx))
        out.add_symbol(FuncSymbol(f"if_{sx.name}", (BOOL, sx, sx), sx, conditional=True))
    out.starred = True
    return out
