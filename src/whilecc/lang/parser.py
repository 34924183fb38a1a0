"""Concrete syntax for .wcc program files.

A file is a header `algebra <name>` followed by one or more procedures:

    func root_bisect
    in  n: nat, p: real*
    out x: real
    aux a: real, b: real
    begin ... end

Statements use :=, if/then/else/fi, while/do/od, for/to/do/od, skip, div;
terms have infix + - * / and comparisons, short-circuit andthen/orelse (sugar
for the boolean conditional), strict and/or/not, and the choose forms
`choose z : b`, `choose z1, z2 : b`, `choose rational q : b`. Comments are
{ braced }. All sugar desugars to the official syntax during parsing.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from ..algebra import get_algebra
from ..signature import (Signature, Sort, SignatureError, default_term,
                         ClosedTerm, BOOL, NAT)
from .ast import (Term, Var, Lit, App, Choose, Stmt, Skip, Div, Assign, Seq,
                  If, While, Procedure, Program, seq_all, normalize_seq,
                  stmt_vars, assigned_vars, subst_term)


class WccError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0, kind: str = "error"):
        super().__init__(f"{line}:{col}: {kind}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.kind = kind


KEYWORDS = {
    "algebra", "func", "in", "out", "aux", "begin", "end", "skip", "div",
    "if", "then", "else", "fi", "while", "do", "od", "for", "to",
    "choose", "rational", "andthen", "orelse", "and", "or", "not",
    "true", "false",
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\{[^}]*\})
  | (?P<decimal>\d+\.\d+)
  | (?P<nat>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>:=|<>|<=|>=|[-+*/=<>(),:;\[\]])
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind},{self.text!r})"


def tokenize(text: str) -> list[Token]:
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise WccError(f"unexpected character {text[pos]!r}", line, col, "lexical")
        grp = m.lastgroup
        chunk = m.group()
        if grp not in ("ws", "comment"):
            if grp == "ident" and chunk in KEYWORDS:
                toks.append(Token(chunk, chunk, line, col))
            else:
                toks.append(Token(grp, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


# operator families resolved by operand sort
_ARITH = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
_OVERLOADED = {"Ap", "Update", "Newlength", "Lgth", "Null"}


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.sig: Optional[Signature] = None
        self.algebra_name = ""
        self.frame: dict[str, Sort] = {}
        self.bound: list[tuple[str, Sort]] = []  # choose binders in scope
        self.fresh_counter = 0
        self.extra_aux: list[tuple[str, Sort]] = []

    # token plumbing

    def peek(self, k=0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Optional[Token]:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind: str, what: str = "") -> Token:
        t = self.peek()
        if t.kind != kind:
            raise WccError(f"expected {what or kind}, found {t.text or 'end of file'!r}",
                           t.line, t.col, "syntax")
        return self.next()

    def err(self, msg: str, tok: Optional[Token] = None, kind: str = "sort") -> WccError:
        t = tok or self.peek()
        return WccError(msg, t.line, t.col, kind)

    def fresh(self, base: str) -> str:
        while True:
            name = f"{base}{self.fresh_counter}"
            self.fresh_counter += 1
            if name not in self.frame:
                return name

    # program structure

    def parse_program(self) -> Program:
        self.expect("algebra", "'algebra' header")
        name_tok = self.expect("ident", "algebra name")
        name = name_tok.text
        if self.peek().kind == "op" and self.peek().text == "*":
            self.next()
            name += "*"
        try:
            algebra = get_algebra(name)
        except Exception:
            raise self.err(f"unknown algebra {name!r}", name_tok, "header")
        self.sig = algebra.signature
        self.algebra_name = name
        procs = {}
        while not self.at("eof"):
            p = self.parse_procedure()
            if p.name in procs:
                raise self.err(f"duplicate procedure {p.name}", kind="well-formedness")
            procs[p.name] = p
        if not procs:
            raise self.err("program has no procedures", kind="syntax")
        return Program(name, procs)

    def parse_decls(self) -> list[tuple[str, Sort]]:
        decls = [self.parse_decl()]
        while self.accept_op(","):
            decls.append(self.parse_decl())
        return decls

    def accept_op(self, text: str) -> bool:
        t = self.peek()
        if t.kind == "op" and t.text == text:
            self.next()
            return True
        return False

    def expect_op(self, text: str):
        t = self.peek()
        if not (t.kind == "op" and t.text == text):
            raise WccError(f"expected {text!r}, found {t.text or 'end of file'!r}",
                           t.line, t.col, "syntax")
        self.next()

    def parse_decl(self) -> tuple[str, Sort]:
        name = self.expect("ident", "variable name").text
        self.expect_op(":")
        sort = self.parse_sort()
        return name, sort

    def parse_sort(self) -> Sort:
        t = self.expect("ident", "sort name")
        name = t.text
        if self.peek().kind == "op" and self.peek().text == "*":
            self.next()
            name += "*"
        try:
            return self.sig.sort(name)
        except SignatureError:
            raise self.err(f"unknown sort {name!r}", t)

    def parse_procedure(self) -> Procedure:
        self.expect("func", "'func'")
        name = self.expect("ident", "procedure name").text
        in_vars = self.parse_decls() if self.accept("in") else []
        out_vars = self.parse_decls() if self.accept("out") else []
        aux_vars = self.parse_decls() if self.accept("aux") else []
        seen = set()
        for n, _ in in_vars + out_vars + aux_vars:
            if n in seen:
                raise self.err(f"duplicate variable {n}", kind="well-formedness")
            seen.add(n)
        self.frame = {n: s for n, s in in_vars + out_vars + aux_vars}
        self.extra_aux = []
        self.expect("begin", "'begin'")
        body = self.parse_stmts()
        self.expect("end", "'end'")
        aux_vars = list(aux_vars) + self.extra_aux
        proc = Procedure(name, self.algebra_name, in_vars, out_vars, aux_vars,
                         normalize_seq(body))
        proc = auto_init(proc, self.sig)
        check_procedure(proc, self.sig)
        return proc

    # statements

    def parse_stmts(self) -> Stmt:
        stmts = [self.parse_stmt()]
        while self.accept_op(";"):
            stmts.append(self.parse_stmt())
        return seq_all(stmts)

    def parse_stmt(self) -> Stmt:
        t = self.peek()
        if self.accept("skip"):
            return Skip()
        if self.accept("div"):
            return Div()
        if self.accept("if"):
            b = self.check(self.parse_term(), BOOL)
            self.expect("then")
            s1 = self.parse_stmts()
            self.expect("else")
            s2 = self.parse_stmts()
            self.expect("fi")
            return If(b, s1, s2)
        if self.accept("while"):
            b = self.check(self.parse_term(), BOOL)
            self.expect("do")
            body = self.parse_stmts()
            self.expect("od")
            return While(b, body)
        if self.accept("for"):
            return self.parse_for()
        if t.kind == "ident":
            return self.parse_assign()
        raise WccError(f"expected a statement, found {t.text!r}", t.line, t.col, "syntax")

    def parse_for(self) -> Stmt:
        # for k := e1 to e2 do S od  ==  k := e1; end' := e2;
        #                                while not less(end', k) do S; k := succ(k) od
        var_tok = self.expect("ident", "loop variable")
        var = var_tok.text
        if self.frame.get(var) != NAT:
            raise self.err("for-loop variable must be a declared nat variable", var_tok)
        self.expect_op(":=")
        lo = self.check(self.parse_term(), NAT)
        self.expect("to")
        hi = self.check(self.parse_term(), NAT)
        self.expect("do")
        body = self.parse_stmts()
        self.expect("od")
        end_var = self.fresh("for_end")
        self.frame[end_var] = NAT
        self.extra_aux.append((end_var, NAT))
        sig = self.sig
        guard = App(sig.symbol("not"),
                    (App(sig.symbol("less_nat"), (Var(end_var, NAT), Var(var, NAT))),))
        inc = Assign((var,), (App(sig.symbol("succ"), (Var(var, NAT),)),))
        return seq_all([
            Assign((var,), (lo,)),
            Assign((end_var,), (hi,)),
            While(guard, Seq(body, inc)),
        ])

    def parse_assign(self) -> Stmt:
        names = [self.expect("ident", "variable").text]
        while self.accept_op(","):
            names.append(self.expect("ident", "variable").text)
        self.expect_op(":=")
        for n in names:
            if n not in self.frame:
                raise self.err(f"assignment to undeclared variable {n}",
                               kind="well-formedness")
        if len(set(names)) != len(names):
            raise self.err("concurrent assignment targets must be distinct",
                           kind="well-formedness")
        if self.at("choose"):
            return self.parse_choose_assign(names)
        rhs = [self.parse_term()]
        while self.accept_op(","):
            rhs.append(self.parse_term())
        if len(rhs) != len(names):
            raise self.err(f"assignment arity mismatch: {len(names)} targets, "
                           f"{len(rhs)} terms", kind="well-formedness")
        rhs = [self.check(t, self.frame[n]) for n, t in zip(names, rhs)]
        return Assign(tuple(names), tuple(rhs))

    def parse_choose_assign(self, names: list[str]) -> Stmt:
        tok = self.peek()
        term = self.parse_choose_term(allow_pair=len(names) == 2)
        if isinstance(term, tuple):  # paired sugar: (choose_term, proj1, proj2)
            chooser, p1, p2 = term
            k = self.fresh("ch_pair")
            self.frame[k] = NAT
            self.extra_aux.append((k, NAT))
            first = Assign((k,), (chooser,))
            kv = Var(k, NAT)
            vals = [self.check(subst_term(p, {"$": kv}), self.frame[n])
                    for n, p in zip(names, (p1, p2))]
            return Seq(first, Assign(tuple(names), tuple(vals)))
        if len(names) != 1:
            raise self.err("this choose form binds a single target", tok,
                           "well-formedness")
        term = self.check(term, self.frame[names[0]])
        return Assign((names[0],), (term,))

    def parse_choose_term(self, allow_pair: bool = False):
        """Returns a Term, or for the two-binder sugar a triple
        (choose-term, proj-template-1, proj-template-2) with `$` the hole.
        Two binders decode one chosen natural through `fst`/`snd`; the
        rational form wraps each binder's value in `rat(.)`."""
        self.expect("choose")
        rational = self.accept("rational")
        names = [self.expect("ident", "binder").text]
        if self.accept_op(","):
            names.append(self.expect("ident", "binder").text)
        self.expect_op(":")
        if len(names) == 2 and not allow_pair:
            raise self.err("paired choose needs two assignment targets",
                           kind="well-formedness")
        if len(names) == 1:
            z, projs = (self.fresh("ch_k") if rational else names[0]), (None,)
        else:
            z = self.fresh("ch_z")
            projs = (self.sig.symbol("fst"), self.sig.symbol("snd"))

        def wrap(t):
            return App(self.sig.symbol("rat"), (t,)) if rational else t

        def decode(v):  # the binders' values from the chosen natural v
            return tuple(wrap(v if p is None else App(p, (v,))) for p in projs)

        def guard():
            return self.check(self.parse_term(), BOOL)

        self.bound.append((z, NAT))
        if rational or len(names) == 2:
            body = self._with_binders(dict(zip(names, decode(Var(z, NAT)))),
                                      guard)
        else:  # the plain single binder is the choose variable itself
            body = guard()
        self.bound.pop()
        chooser = Choose(z, body, NAT)
        if len(names) == 1:
            return wrap(chooser)
        return (chooser,) + decode(Var("$", NAT))

    def _with_binders(self, mapping: dict, thunk):
        """Parse with pseudo-variables that are substituted away afterwards."""
        self.bound.extend((n, mapping[n].sort or NAT) for n in mapping)
        try:
            body = thunk()
        finally:
            del self.bound[len(self.bound) - len(mapping):]
        return subst_term(body, mapping)

    # terms: precedence climbing

    def parse_term(self) -> Term:
        return self.parse_orelse()

    def parse_orelse(self) -> Term:
        t = self.parse_andthen()
        while self.accept("orelse"):
            rhs = self.parse_andthen()
            t = App(self.sig.symbol("if_bool"),
                    (self.check(t, BOOL), App(self.sig.symbol("true")),
                     self.check(rhs, BOOL)))
        return t

    def parse_andthen(self) -> Term:
        t = self.parse_or()
        while self.accept("andthen"):
            rhs = self.parse_or()
            t = App(self.sig.symbol("if_bool"),
                    (self.check(t, BOOL), self.check(rhs, BOOL),
                     App(self.sig.symbol("false"))))
        return t

    def parse_or(self) -> Term:
        t = self.parse_and()
        while self.accept("or"):
            rhs = self.parse_and()
            t = App(self.sig.symbol("or"), (self.check(t, BOOL), self.check(rhs, BOOL)))
        return t

    def parse_and(self) -> Term:
        t = self.parse_not()
        while self.accept("and"):
            rhs = self.parse_not()
            t = App(self.sig.symbol("and"), (self.check(t, BOOL), self.check(rhs, BOOL)))
        return t

    def parse_not(self) -> Term:
        if self.accept("not"):
            return App(self.sig.symbol("not"), (self.check(self.parse_not(), BOOL),))
        return self.parse_comparison()

    def parse_comparison(self) -> Term:
        t = self.parse_additive()
        op_tok = self.peek()
        if op_tok.kind == "op" and op_tok.text in ("=", "<", ">", "<=", ">=", "<>"):
            self.next()
            rhs = self.parse_additive()
            return self.make_comparison(op_tok, t, rhs)
        return t

    def make_comparison(self, op_tok: Token, lhs: Term, rhs: Term) -> Term:
        lhs, rhs = self.unify_pair(lhs, rhs, op_tok)
        lhs, rhs = self._embed_intervals(lhs, rhs)
        sort = lhs.sort
        op = op_tok.text
        sig = self.sig

        def sym(prefix):
            name = f"{prefix}_{sort.name}"
            try:
                return sig.symbol(name)
            except SignatureError:
                raise self.err(f"sort {sort.name} has no {prefix} operator", op_tok)

        if op == "=":
            return App(sym("eq"), (lhs, rhs))
        if op == "<>":
            return App(sig.symbol("not"), (App(sym("eq"), (lhs, rhs)),))
        if op == "<":
            return App(sym("less"), (lhs, rhs))
        if op == ">":
            return App(sym("less"), (rhs, lhs))
        if op == "<=":
            return App(sig.symbol("not"), (App(sym("less"), (rhs, lhs)),))
        return App(sig.symbol("not"), (App(sym("less"), (lhs, rhs)),))  # >=

    def parse_additive(self) -> Term:
        t = self.parse_multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("+", "-"):
                self.next()
                rhs = self.parse_multiplicative()
                t = self.make_arith(tok, t, rhs)
            else:
                return t

    def parse_multiplicative(self) -> Term:
        t = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("*", "/"):
                self.next()
                rhs = self.parse_unary()
                t = self.make_arith(tok, t, rhs)
            else:
                return t

    def make_arith(self, op_tok: Token, lhs: Term, rhs: Term) -> Term:
        op = op_tok.text
        # constant folding keeps rational literals exact
        if isinstance(lhs, Lit) and isinstance(rhs, Lit) and lhs.sort is None and rhs.sort is None:
            a, b = Fraction(lhs.value), Fraction(rhs.value)
            if op == "+":
                return Lit(a + b)
            if op == "-":
                return Lit(a - b)
            if op == "*":
                return Lit(a * b)
            if b == 0:
                raise self.err("literal division by zero", op_tok)
            return Lit(a / b)
        lhs, rhs = self.unify_pair(lhs, rhs, op_tok)
        lhs, rhs = self._embed_intervals(lhs, rhs)
        sort = lhs.sort
        if sort.kind not in ("real",):
            raise self.err(f"no arithmetic {op!r} at sort {sort.name}", op_tok)
        sig = self.sig
        if op == "+":
            return App(sig.symbol("add"), (lhs, rhs))
        if op == "*":
            return App(sig.symbol("mul"), (lhs, rhs))
        if op == "-":
            return App(sig.symbol("add"), (lhs, App(sig.symbol("neg"), (rhs,))))
        return App(sig.symbol("mul"), (lhs, App(sig.symbol("inv"), (rhs,))))

    def parse_unary(self) -> Term:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            inner = self.parse_unary()
            if isinstance(inner, Lit) and inner.sort is None:
                return Lit(-Fraction(inner.value))
            inner = self.check(inner, self.sig.sort("real"))
            return App(self.sig.symbol("neg"), (inner,))
        return self.parse_atom()

    def parse_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "nat":
            self.next()
            return Lit(int(tok.text))
        if tok.kind == "decimal":
            self.next()
            return Lit(Fraction(tok.text))
        if tok.kind == "true" or tok.kind == "false":
            self.next()
            return App(self.sig.symbol(tok.kind))
        if self.accept("choose"):
            self.pos -= 1
            term = self.parse_choose_term(allow_pair=False)
            return term
        if tok.kind == "if":
            self.next()
            b = self.check(self.parse_term(), BOOL)
            self.expect("then")
            t1 = self.parse_term()
            self.expect("else")
            t2 = self.parse_term()
            self.expect("fi")
            t1, t2 = self.unify_pair(t1, t2, tok)
            name = f"if_{t1.sort.name}"
            try:
                sym = self.sig.symbol(name)
            except SignatureError:
                raise self.err(f"sort {t1.sort.name} has no conditional", tok)
            return App(sym, (b, t1, t2))
        if tok.kind == "op" and tok.text == "(":
            self.next()
            t = self.parse_term()
            self.expect_op(")")
            return t
        if tok.kind == "ident":
            self.next()
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.parse_call(tok)
            sort = self.lookup_var(tok.text)
            if sort is None:
                raise self.err(f"unknown variable {tok.text!r}", tok)
            return Var(tok.text, sort)
        raise WccError(f"expected a term, found {tok.text or 'end of file'!r}",
                       tok.line, tok.col, "syntax")

    def lookup_var(self, name: str) -> Optional[Sort]:
        for n, s in reversed(self.bound):
            if n == name:
                return s
        return self.frame.get(name)

    def parse_call(self, name_tok: Token) -> Term:
        self.expect_op("(")
        args = []
        if not (self.peek().kind == "op" and self.peek().text == ")"):
            args.append(self.parse_term())
            while self.accept_op(","):
                args.append(self.parse_term())
        self.expect_op(")")
        name = name_tok.text
        sig = self.sig
        if name in _OVERLOADED:
            if not args:
                raise self.err(f"{name} needs arguments to resolve its sort", name_tok)
            first = args[0]
            if first.sort is None:
                raise self.err(f"cannot resolve {name}: untyped first argument", name_tok)
            elem = first.sort.elem
            if elem is None:
                raise self.err(f"{name} expects an array argument", name_tok)
            name = f"{name}_{elem.name}"
        try:
            sym = sig.symbol(name)
        except SignatureError:
            raise self.err(f"unknown function {name_tok.text!r}", name_tok)
        if len(args) != sym.arity:
            raise self.err(f"{sym.name} expects {sym.arity} arguments, got {len(args)}",
                           name_tok, "well-formedness")
        checked = tuple(self.check(a, s) for a, s in zip(args, sym.arg_sorts))
        return App(sym, checked)

    # literal sort resolution

    def check(self, t: Term, expected: Sort) -> Term:
        if isinstance(t, Lit) and t.sort is None:
            return self.resolve_lit(t, expected)
        if t.sort is None:
            raise self.err(f"cannot determine sort of {t!r}")
        if t.sort != expected:
            retyped = self._retype_literals(t, expected)
            if retyped is not None:
                return retyped
            raise self.err(f"expected sort {expected.name}, found {t.sort.name}")
        return t

    def _retype_literals(self, t: Term, expected: Sort) -> Optional[Term]:
        """Literal-only terms (and conditionals over them) adopt the sort the
        context demands; anything else keeps its inferred sort."""
        if isinstance(t, Lit):
            try:
                return self.resolve_lit(Lit(t.value), expected)
            except WccError:
                return None
        if isinstance(t, App) and t.sym.conditional and len(t.args) == 3:
            t1 = self._retype_literals(t.args[1], expected)
            t2 = self._retype_literals(t.args[2], expected)
            if t1 is None or t2 is None:
                return None
            try:
                sym = self.sig.symbol(f"if_{expected.name}")
            except SignatureError:
                return None
            return App(sym, (t.args[0], t1, t2))
        return None

    def resolve_lit(self, t: Lit, expected: Sort) -> Lit:
        v = Fraction(t.value)
        if expected.kind == "nat":
            if v.denominator != 1 or v < 0:
                raise self.err(f"literal {t.value} is not a natural number")
            return Lit(int(v), expected)
        if expected.kind in ("real", "interval"):
            return Lit(v, expected)
        raise self.err(f"literal {t.value} cannot have sort {expected.name}")

    def unify_pair(self, a: Term, b: Term, tok: Token) -> tuple[Term, Term]:
        if a.sort is None and b.sort is None:
            # default numeric sort for literal-literal combinations
            target = self.sig.sorts.get("real") or NAT
            return self.resolve_lit(a, target), self.resolve_lit(b, target)
        if a.sort is None:
            return self.check(a, b.sort), b
        if b.sort is None:
            return a, self.check(b, a.sort)
        if a.sort != b.sort:
            # the unit-interval sort embeds in real via i_I
            a2, b2 = self._coerce_interval(a, b)
            if a2 is not None:
                return a2, b2
            raise self.err(f"operand sorts differ: {a.sort.name} vs {b.sort.name}", tok)
        return a, b

    def _embed_intervals(self, a: Term, b: Term) -> tuple[Term, Term]:
        """The unit-interval sort has no arithmetic or order of its own;
        operands embed into real via i_I."""
        if a.sort is not None and a.sort.kind == "interval":
            emb = self.sig.symbols.get("i_I")
            if emb is not None:
                return App(emb, (a,)), App(emb, (b,))
        return a, b

    def _coerce_interval(self, a: Term, b: Term):
        real = self.sig.sorts.get("real")
        interval = self.sig.sorts.get("interval")
        if real is None or interval is None:
            return None, None
        emb = self.sig.symbols.get("i_I")
        if emb is None:
            return None, None
        if a.sort == interval and b.sort == real:
            return App(emb, (a,)), b
        if a.sort == real and b.sort == interval:
            return a, App(emb, (b,))
        return None, None


# ---------------------------------------------------------------------------
# initialisation and validation


def default_init_term(sig: Signature, sort: Sort) -> Term:
    """The default closed term of a sort as an AST term (literal where the
    surface syntax has one, so printing round-trips)."""
    if sort.kind == "nat":
        return Lit(0, sort)
    if sort.kind in ("real", "interval"):
        return Lit(Fraction(0), sort)
    ct: ClosedTerm = default_term(sig, sort)

    def conv(c: ClosedTerm) -> Term:
        return App(sig.symbol(c.sym), tuple(conv(a) for a in c.args))

    return conv(ct)


def has_init(proc: Procedure, sig: Signature) -> bool:
    body = proc.body
    first = body.s1 if isinstance(body, Seq) else body
    if not isinstance(first, Assign):
        return False
    need = {n for n, _ in proc.out_vars + proc.aux_vars}
    if set(first.lhs) != need:
        return False
    for name, term in zip(first.lhs, first.rhs):
        if term != default_init_term(sig, proc.var_sorts[name]):
            return False
    return True


def auto_init(proc: Procedure, sig: Optional[Signature] = None) -> Procedure:
    """Prepend the initialisation assignment unless it is already present."""
    if sig is None:
        sig = get_algebra(proc.algebra_name).signature
    targets = proc.out_vars + proc.aux_vars
    if not targets or has_init(proc, sig):
        return proc
    lhs = tuple(n for n, _ in targets)
    rhs = tuple(default_init_term(sig, s) for _, s in targets)
    body = Seq(Assign(lhs, rhs), proc.body)
    return Procedure(proc.name, proc.algebra_name, proc.in_vars, proc.out_vars,
                     proc.aux_vars, body)


def check_procedure(proc: Procedure, sig: Signature) -> None:
    names = [n for n, _ in proc.in_vars + proc.out_vars + proc.aux_vars]
    if len(set(names)) != len(names):
        raise WccError("variable sections overlap or repeat", kind="well-formedness")
    used = stmt_vars(proc.body, set())
    undeclared = used - set(names)
    if undeclared:
        raise WccError(f"body uses undeclared variables {sorted(undeclared)}",
                       kind="well-formedness")
    assigned = assigned_vars(proc.body, set())
    bad = assigned & {n for n, _ in proc.in_vars}
    if bad:
        raise WccError(f"input assigned: {sorted(bad)}", kind="well-formedness")
    if (proc.out_vars or proc.aux_vars) and not has_init(proc, sig):
        raise WccError("body lacks the initialisation assignment",
                       kind="well-formedness")


def validate_star(proc: Procedure, strict: bool = False) -> Procedure:
    """Check the WhileCC* i/o restriction. Strict mode enforces unstarred,
    non-nat base sorts for both inputs and outputs; the default allows nat
    and starred inputs (the approximability and array-input forms the
    examples use) while still rejecting starred outputs."""
    for n, s in proc.out_vars:
        if s.kind == "array":
            raise WccError(f"output variable {n} has starred sort", kind="star")
        if strict and s.kind == "nat":
            raise WccError(f"output variable {n} has sort nat under strict i/o",
                           kind="star")
    if strict:
        for n, s in proc.in_vars:
            if s.kind == "array":
                raise WccError(f"input variable {n} has starred sort", kind="star")
            if s.kind == "nat":
                raise WccError(f"input variable {n} has sort nat under strict i/o",
                               kind="star")
    return proc


def parse_program(text: str) -> Program:
    return Parser(text).parse_program()


def parse(text: str, proc: Optional[str] = None) -> Procedure:
    return parse_program(text).proc(proc)


# ---------------------------------------------------------------------------
# pretty printer (parse . pretty == identity on the AST)


_INFIX = {"add": " + ", "mul": " * "}
_CMP = {"eq": " = ", "less": " < "}


def pretty_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lit):
        # a fraction is parenthesized: `x * 1/2` re-parses as (x * 1) / 2
        text = str(t.value)
        return f"({text})" if "/" in text else text
    if isinstance(t, Choose):
        # parenthesized: a bare choose body would swallow an enclosing infix
        return f"(choose {t.var} : {pretty_term(t.body)})"
    if isinstance(t, App):
        name = t.sym.name
        if not t.args:
            if name in ("true", "false"):
                return name
            return f"{name}()"
        if name == "if_bool" and len(t.args) == 3:
            b, x, y = t.args
            if isinstance(x, App) and x.sym.name == "true" and not x.args:
                return f"({pretty_term(b)} orelse {pretty_term(y)})"
            if isinstance(y, App) and y.sym.name == "false" and not y.args:
                return f"({pretty_term(b)} andthen {pretty_term(x)})"
        if t.sym.conditional and len(t.args) == 3:
            b, x, y = t.args
            return (f"if {pretty_term(b)} then {pretty_term(x)} "
                    f"else {pretty_term(y)} fi")
        if name in _INFIX and len(t.args) == 2:
            return f"({pretty_term(t.args[0])}{_INFIX[name]}{pretty_term(t.args[1])})"
        if name == "and" or name == "or":
            return f"({pretty_term(t.args[0])} {name} {pretty_term(t.args[1])})"
        if name == "not":
            return f"not {pretty_term(t.args[0])}"
        head, _, sortpart = name.partition("_")
        if head in ("eq", "less") and len(t.args) == 2 and sortpart:
            return f"({pretty_term(t.args[0])}{_CMP[head]}{pretty_term(t.args[1])})"
        if head in _OVERLOADED:
            name = head
        args = ", ".join(pretty_term(a) for a in t.args)
        return f"{name}({args})"
    raise TypeError(f"not a term: {t!r}")


def pretty_stmt(s: Stmt, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(s, Skip):
        return pad + "skip"
    if isinstance(s, Div):
        return pad + "div"
    if isinstance(s, Assign):
        return (pad + ", ".join(s.lhs) + " := "
                + ", ".join(pretty_term(t) for t in s.rhs))
    if isinstance(s, Seq):
        return pretty_stmt(s.s1, indent) + ";\n" + pretty_stmt(s.s2, indent)
    if isinstance(s, If):
        return (pad + f"if {pretty_term(s.b)} then\n"
                + pretty_stmt(s.then, indent + 1) + "\n" + pad + "else\n"
                + pretty_stmt(s.els, indent + 1) + "\n" + pad + "fi")
    if isinstance(s, While):
        return (pad + f"while {pretty_term(s.b)} do\n"
                + pretty_stmt(s.body, indent + 1) + "\n" + pad + "od")
    raise TypeError(f"not a statement: {s!r}")


def _pretty_decls(kw: str, decls) -> str:
    if not decls:
        return ""
    body = ", ".join(f"{n}: {s.name}" for n, s in decls)
    return f"{kw} {body}\n"


def pretty_procedure(p: Procedure) -> str:
    return (f"func {p.name}\n"
            + _pretty_decls("in", p.in_vars)
            + _pretty_decls("out", p.out_vars)
            + _pretty_decls("aux", p.aux_vars)
            + "begin\n" + pretty_stmt(p.body, 1) + "\nend\n")


def pretty_program(prog: Program) -> str:
    procs = "\n".join(pretty_procedure(p) for p in prog.procedures.values())
    return f"algebra {prog.algebra_name}\n\n{procs}"
