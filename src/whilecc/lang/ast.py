"""Abstract syntax for WhileCC(Σ) / WhileCC*(Σ) programs.

Terms are sort-annotated after checking. Literal nodes stand for the closed
terms they abbreviate (naturals for iterated successor over zero, rationals
for the corresponding term over 0, 1, +, x, inv) and evaluate to the same
values in one step.
"""

from __future__ import annotations

from typing import Optional
from weakref import WeakKeyDictionary

from ..signature import Sort, FuncSymbol


class Term:
    __slots__ = ("sort",)


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str, sort: Optional[Sort] = None):
        self.name = name
        self.sort = sort

    def __repr__(self):
        return f"Var({self.name})"

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name and self.sort == other.sort

    def __hash__(self):
        return hash(("var", self.name))


class Lit(Term):
    __slots__ = ("value",)

    def __init__(self, value, sort: Optional[Sort] = None):
        self.value = value
        self.sort = sort

    def __repr__(self):
        return f"Lit({self.value})"

    def __eq__(self, other):
        return isinstance(other, Lit) and self.value == other.value and self.sort == other.sort

    def __hash__(self):
        return hash(("lit", self.value))


class App(Term):
    __slots__ = ("sym", "args")

    def __init__(self, sym: FuncSymbol, args: tuple = ()):
        self.sym = sym
        self.args = tuple(args)
        self.sort = sym.result_sort

    def __repr__(self):
        return f"App({self.sym.name}, {list(self.args)})"

    def __eq__(self, other):
        return (isinstance(other, App) and self.sym == other.sym
                and self.args == other.args)

    def __hash__(self):
        return hash(("app", self.sym.name, self.args))


class Choose(Term):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Term, sort: Optional[Sort] = None):
        self.var = var
        self.body = body
        self.sort = sort

    def __repr__(self):
        return f"Choose({self.var}, {self.body!r})"

    def __eq__(self, other):
        return (isinstance(other, Choose) and self.var == other.var
                and self.body == other.body)

    def __hash__(self):
        return hash(("choose", self.var, self.body))


class Stmt:
    __slots__ = ()


class Skip(Stmt):
    __slots__ = ()

    def __repr__(self):
        return "Skip"

    def __eq__(self, other):
        return isinstance(other, Skip)

    def __hash__(self):
        return hash("skip")


class Div(Stmt):
    __slots__ = ()

    def __repr__(self):
        return "Div"

    def __eq__(self, other):
        return isinstance(other, Div)

    def __hash__(self):
        return hash("div")


class Assign(Stmt):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: tuple, rhs: tuple):
        self.lhs = tuple(lhs)
        self.rhs = tuple(rhs)

    def __repr__(self):
        return f"Assign({self.lhs}, {self.rhs})"

    def __eq__(self, other):
        return isinstance(other, Assign) and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self):
        return hash(("assign", self.lhs, self.rhs))


class Seq(Stmt):
    __slots__ = ("s1", "s2")

    def __init__(self, s1: Stmt, s2: Stmt):
        self.s1 = s1
        self.s2 = s2

    def __repr__(self):
        return f"Seq({self.s1!r}, {self.s2!r})"

    def __eq__(self, other):
        return isinstance(other, Seq) and self.s1 == other.s1 and self.s2 == other.s2

    def __hash__(self):
        return hash(("seq", self.s1, self.s2))


class If(Stmt):
    __slots__ = ("b", "then", "els")

    def __init__(self, b: Term, then: Stmt, els: Stmt):
        self.b = b
        self.then = then
        self.els = els

    def __repr__(self):
        return f"If({self.b!r}, {self.then!r}, {self.els!r})"

    def __eq__(self, other):
        return (isinstance(other, If) and self.b == other.b
                and self.then == other.then and self.els == other.els)

    def __hash__(self):
        return hash(("if", self.b, self.then, self.els))


class While(Stmt):
    __slots__ = ("b", "body")

    def __init__(self, b: Term, body: Stmt):
        self.b = b
        self.body = body

    def __repr__(self):
        return f"While({self.b!r}, {self.body!r})"

    def __eq__(self, other):
        return isinstance(other, While) and self.b == other.b and self.body == other.body

    def __hash__(self):
        return hash(("while", self.b, self.body))


def is_atomic(s: Stmt) -> bool:
    return isinstance(s, (Skip, Div, Assign))


def seq_all(stmts: list[Stmt]) -> Stmt:
    if not stmts:
        return Skip()
    out = stmts[-1]
    for s in reversed(stmts[:-1]):
        out = Seq(s, out)
    return out


def flatten_seq(s: Stmt, acc: list) -> list:
    if isinstance(s, Seq):
        flatten_seq(s.s1, acc)
        flatten_seq(s.s2, acc)
    else:
        acc.append(s)
    return acc


def normalize_seq(s: Stmt) -> Stmt:
    """Right-nest every sequence so structurally equal programs print and
    re-parse to identical trees (sequencing is semantically associative)."""
    if isinstance(s, Seq):
        parts = [normalize_seq(p) for p in flatten_seq(s, [])]
        return seq_all(parts)
    if isinstance(s, If):
        return If(s.b, normalize_seq(s.then), normalize_seq(s.els))
    if isinstance(s, While):
        return While(s.b, normalize_seq(s.body))
    return s


class Procedure:
    """A procedure declaration. `compiled` is the interpreter's cache of the
    body compiled per algebra, and `defaults` of the initial values of the
    out and aux variables per algebra: WeakKeyDictionaries keyed by the
    algebra, so that they keep no algebra alive (see `interp._compiled` and
    `interp._defaults`)."""

    __slots__ = ("name", "algebra_name", "in_vars", "out_vars", "aux_vars",
                 "body", "var_sorts", "compiled", "defaults")

    def __init__(self, name, algebra_name, in_vars, out_vars, aux_vars, body):
        self.name = name
        self.algebra_name = algebra_name
        self.in_vars = tuple(in_vars)    # tuples of (name, Sort)
        self.out_vars = tuple(out_vars)
        self.aux_vars = tuple(aux_vars)
        self.body = body
        self.var_sorts = {n: s for n, s in
                          self.in_vars + self.out_vars + self.aux_vars}
        self.compiled = WeakKeyDictionary()
        self.defaults = WeakKeyDictionary()

    @property
    def in_type(self):
        return tuple(s for _, s in self.in_vars)

    @property
    def out_type(self):
        return tuple(s for _, s in self.out_vars)

    def __repr__(self):
        return f"Procedure({self.name}: {self.in_type} -> {self.out_type})"


class Program:
    __slots__ = ("algebra_name", "procedures")

    def __init__(self, algebra_name: str, procedures: dict):
        self.algebra_name = algebra_name
        self.procedures = procedures

    def proc(self, name: Optional[str] = None) -> Procedure:
        if name is None:
            return next(iter(self.procedures.values()))
        return self.procedures[name]


def term_vars(t: Term, acc: set) -> set:
    if isinstance(t, Var):
        acc.add(t.name)
    elif isinstance(t, App):
        for a in t.args:
            term_vars(a, acc)
    elif isinstance(t, Choose):
        inner = set()
        term_vars(t.body, inner)
        inner.discard(t.var)
        acc |= inner
    return acc


def stmt_vars(s: Stmt, acc: set) -> set:
    if isinstance(s, Assign):
        acc |= set(s.lhs)
        for t in s.rhs:
            term_vars(t, acc)
    elif isinstance(s, Seq):
        stmt_vars(s.s1, acc)
        stmt_vars(s.s2, acc)
    elif isinstance(s, If):
        term_vars(s.b, acc)
        stmt_vars(s.then, acc)
        stmt_vars(s.els, acc)
    elif isinstance(s, While):
        term_vars(s.b, acc)
        stmt_vars(s.body, acc)
    return acc


def assigned_vars(s: Stmt, acc: set) -> set:
    if isinstance(s, Assign):
        acc |= set(s.lhs)
    elif isinstance(s, Seq):
        assigned_vars(s.s1, acc)
        assigned_vars(s.s2, acc)
    elif isinstance(s, If):
        assigned_vars(s.then, acc)
        assigned_vars(s.els, acc)
    elif isinstance(s, While):
        assigned_vars(s.body, acc)
    return acc


def subst_term(t: Term, mapping: dict) -> Term:
    """Capture-naive substitution of terms for variables (fresh names only)."""
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, App):
        return App(t.sym, tuple(subst_term(a, mapping) for a in t.args))
    if isinstance(t, Choose):
        inner = {k: v for k, v in mapping.items() if k != t.var}
        c = Choose(t.var, subst_term(t.body, inner))
        c.sort = t.sort
        return c
    return t
