"""Operational semantics for WhileCC* under three choice strategies.

The semantics is the branching small-step one: First gives the atomic head,
Rest the possible remainders in a state, CompStep executes the head, and the
computation tree collects all outcomes. Divergence is never certified, only
under-approximated: outcome sets carry a proven-divergence flag (a div leaf,
an operation whose divergence condition is decidable, or a choose whose
whole domain was searched without a witness) and a truncation flag (fuel,
candidate bounds, node caps). `maybe_divergent` is their union;
diagnostics say which happened.

Terms have one evaluator: a run compiles each term once into a closure
(`_compile`) with its rules, nat literals and choose handler fixed; a real
literal is minted on first evaluation, so a code algebra's registry grows in
evaluation order. One closure serves every strategy; how a strict operation
treats a failed argument follows its argument `out`. Oracle and Dovetail
pass None and stop at the first one. Enumerate passes its outcome set,
evaluates every argument, since its operation applies to every combination
of argument values, records each failure in the set, and leaves a term that
contains a choose to the set-valued `_enum_term`. That runs the closures of
its choose-free subterms, and applies an operation to the ordered product
of its operands' values, cut at the node cap (`_combos`, which combines the
right-hand sides of a concurrent assignment too). Every rule is called as `rule(fuel, *values)` and returns a
Value, DIV or FUEL_OUT (see `algebra`); applications of one and two
arguments get closures of their own that build no argument list, and in the
common shapes read an operand that is a variable or a nat literal in place,
with no call. A conditional calls the rule of a constant branch in place,
and beside one reads a guard of such a shape in place too (`_cond`). Under
Enumerate a choose tests each candidate's guard with one call and no
outcome set of its own, unless the guard holds a nested choose.

Statements are compiled too: a run turns a body once into a flat list of
nodes (`_compile_stmt`), each an assignment, `skip`, `div` or the guard test
of an `if` or `while`, with its successors resolved past `Seq` and the ends
of branches and loop bodies. Oracle and Dovetail walk the nodes on one
mutable bindings dict and build a State only for the final one; Enumerate
walks them depth first over (node, State) work items. `eval_atomic`, `rest`
and the computation trees keep the First/Rest reading of statements.

A choose's guard can bound its domain: an interval [lo, hi) outside which
the guard is ff on every budget, read once per run from its nat
comparisons of the choose variable (`_guard_domain`). Dovetail and
Enumerate search only the domain, and a search that refutes every
candidate of a finite one proves the choose divergent.

Strategies:
  * Enumerate explores every branch, with choose ranging over its domain up
    to max_nat.
  * Oracle answers the c-th choose with f(c) for a seed-derived f and
    diverges when the guard rejects it; it proposes over all naturals.
  * Dovetail searches candidates fairly: stage k takes one step, first
    tries one new candidate, while the domain has one, and re-tries those
    due, each on a budget of k + 1 steps; a candidate whose guard ran out
    of budget at stage k is due again at stage max(2k, k + 1). A seed
    jitters the visiting order so independent runs can find different
    witnesses. The adequacy approximant (`tracking.adequacy_g`) searches
    its indices on the same schedule, over all naturals.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import gcd
from sys import maxsize
from typing import Callable, Optional

from .algebra import (PartialAlgebra, Value, NatV, DIV, FUEL_OUT, value_key,
                      nat_value, AlgebraError, SHARED_NATS, NATS)
from .codes import Fuel
from .lang.ast import (Term, Var, Lit, App, Choose, Stmt, Skip, Div, Assign,
                       Seq, If, While, Procedure, is_atomic, seq_all,
                       subst_term)
from .signature import NAT


# ---------------------------------------------------------------------------
# strategies


class Enumerate:
    def __init__(self, max_nat: int = 32, max_depth: int = 10_000):
        if max_nat <= 0 or max_depth <= 0:
            raise ValueError("enumerate bounds must be positive")
        self.max_nat = max_nat
        self.max_depth = max_depth

    def fresh(self):
        return self

    def __repr__(self):
        return f"Enumerate(max_nat={self.max_nat}, max_depth={self.max_depth})"


class Oracle:
    """One implementation of choose: the c-th evaluation proposes f(c).

    A seed is a non-negative integer: `random.Random` seeds by absolute
    value, so -s would propose s's first answer."""

    def __init__(self, seed: int = 0, f: Optional[Callable[[int], int]] = None):
        if seed < 0:
            raise ValueError(f"an oracle seed must be non-negative, got {seed}")
        self.seed = seed
        self.f = f if f is not None else self._seeded
        self.counter = 0

    def _seeded(self, c: int) -> int:
        return random.Random(self.seed * 2654435761 + c).randrange(8)

    def next_candidate(self) -> int:
        c = self.counter
        self.counter += 1
        return self.f(c)

    def fresh(self):
        return Oracle(self.seed, None if self.f == self._seeded else self.f)

    def __repr__(self):
        return f"Oracle(seed={self.seed})"


class Dovetail:
    """Fair budgeted search; stage k gives each tried candidate k + 1 steps.

    A search over all naturals gives each stage a new candidate. A seed
    permutes that scan: within each block of 2^13 consecutive candidates
    the visiting order follows a seeded odd stride (a bijection on the
    block), so independently seeded searches reach a roughly uniform choice
    among a block's witnesses rather than always the least one. Every
    candidate is still visited at a stage within one block of its index, so
    fairness and budget growth are unchanged. Without a seed the scan is
    the plain ascending one.

    A search over a finite domain of N candidates, which a choose's guard
    bounds (see `_guard_domain`), gives new candidates at stages 0..N-1
    only, in a bijection onto the domain: lo + (offset + k * stride) mod N
    at stage k, with offset and stride (coprime to N) drawn once per N from
    the seed, or ascending from lo without one. Once every candidate is
    refuted and none is due again, no witness exists: the search is DIV.

    A seed is a non-negative integer: `random.Random` seeds by absolute
    value, so -s would visit the first block as s does.
    """

    BLOCK_BITS = 13
    MASK = (1 << BLOCK_BITS) - 1

    def __init__(self, seed: Optional[int] = None):
        if seed is not None and seed < 0:
            raise ValueError(f"a dovetail seed must be non-negative, got {seed}")
        self.seed = seed
        self._strides: dict[int, int] = {}
        self._orders: dict[int, tuple[int, int]] = {}
        # (lo, N, offset, stride) of the finite search under way, else None
        self._scan: Optional[tuple[int, int, int, int]] = None

    def _stride(self, block: int) -> int:
        s = random.Random((self.seed << 24) ^ block).randrange(1 << self.BLOCK_BITS) | 1
        self._strides[block] = s
        return s

    def _order(self, n: int) -> tuple[int, int]:
        """The seeded (offset, stride) of a domain of n candidates."""
        rng = random.Random(f"dovetail {self.seed} {n}")
        offset = rng.randrange(n)
        stride = 1 if n < 3 else rng.randrange(1, n)
        while gcd(stride, n) != 1:
            stride = rng.randrange(1, n)
        order = self._orders[n] = (offset, stride)
        return order

    def visit(self, stage: int) -> int:
        """The candidate given its first budget at this stage. In a finite
        domain it is lo + (offset + stage * stride) mod N. Over all naturals
        it is the stage itself without a seed, else its position in its
        block times the block's stride, mod the block size. A block's stride
        is drawn once (`_stride`) and read from `_strides` after; strides
        are odd, never 0."""
        scan = self._scan
        if scan is not None:
            lo, n, offset, stride = scan
            return lo + (offset + stage * stride) % n
        if self.seed is None:
            return stage
        block = stage >> self.BLOCK_BITS
        s = self._strides.get(block) or self._stride(block)
        return (block << self.BLOCK_BITS) | ((stage * s) & self.MASK)

    def search(self, fuel: Fuel, attempt: Callable[[int, int], object],
               domain: Optional[range] = None):
        """The first result of attempt(candidate, stage), over the finite
        domain or, when it is None, over all naturals. Each stage takes one
        step of fuel and tries the candidate visit(stage), while the domain
        has new ones, and then those due again. attempt returns a result,
        FUEL_OUT (undecided on its budget at stage k: due again at stage
        max(2k, k + 1)) or DIV (refuted for good). The search returns
        FUEL_OUT once fuel runs out, and DIV once every candidate of the
        domain is refuted (at once for an empty one)."""
        # the stages that give a new candidate: all of them, over the naturals
        end, scan = (maxsize if domain is None else len(domain)), None
        if domain:
            order = ((0, 1) if self.seed is None
                     else self._orders.get(end) or self._order(end))
            scan = (domain.start, end) + order
        outer, self._scan = self._scan, scan  # a guard's search nests
        try:
            stage = 0
            retry: list[tuple[int, int]] = []  # (due stage, candidate)
            while fuel.remaining:
                if stage < end:
                    fuel.remaining -= 1
                    cand = self.visit(stage)
                elif not retry:
                    return DIV
                else:
                    fuel.remaining -= 1
                    if retry[0][0] > stage:
                        stage += 1
                        continue
                    cand = heapq.heappop(retry)[1]
                while True:
                    r = attempt(cand, stage)
                    if r is FUEL_OUT:
                        # due after this stage: no pop of this stage reaches it
                        heapq.heappush(retry, (max(stage * 2, stage + 1), cand))
                    elif r is not DIV:
                        return r
                    if not retry or retry[0][0] > stage:
                        break
                    cand = heapq.heappop(retry)[1]
                stage += 1
            return FUEL_OUT if stage < end or retry else DIV
        finally:
            self._scan = outer

    def fresh(self):
        return Dovetail(self.seed)

    def __repr__(self):
        return f"Dovetail(seed={self.seed})"


# ---------------------------------------------------------------------------
# states and outcome sets


class State:
    __slots__ = ("bindings",)

    def __init__(self, bindings: dict):
        self.bindings = bindings

    def get(self, name: str) -> Value:
        return self.bindings[name]

    def set_many(self, names, vals) -> "State":
        b = dict(self.bindings)
        for n, v in zip(names, vals):
            b[n] = v
        return State(b)

    def key(self):
        return tuple(sorted((k, value_key(v)) for k, v in self.bindings.items()))

    def __repr__(self):
        return f"State({self.bindings})"


@dataclass
class OutcomeSet:
    """Values (or states, or output tuples) plus divergence information."""

    values: list = field(default_factory=list)
    proven_divergent: bool = False
    truncated: bool = False
    diagnostics: list = field(default_factory=list)

    @property
    def maybe_divergent(self) -> bool:
        return self.proven_divergent or self.truncated

    def add(self, v, seen: set) -> None:
        k = value_key(v) if not isinstance(v, State) else v.key()
        if k not in seen:
            seen.add(k)
            self.values.append(v)

    def merge_flags(self, other: "OutcomeSet") -> None:
        self.proven_divergent |= other.proven_divergent
        self.truncated |= other.truncated
        self.diagnostics.extend(other.diagnostics)

    def note(self, msg: str) -> None:
        self.diagnostics.append(msg)

    def __repr__(self):
        flags = []
        if self.proven_divergent:
            flags.append("div")
        if self.truncated:
            flags.append("truncated")
        return f"OutcomeSet({self.values}{', ' + '+'.join(flags) if flags else ''})"


class Ctx:
    """One run's evaluation context. `closures` maps each term node, by
    identity, to its closure (see `_compile`), built on first use. Under
    Enumerate, `domains` maps each choose node that way to the domain its
    guard gives (`_guard_domain`), read when the node is compiled."""

    __slots__ = ("alg", "strat", "fuel", "enum", "closures", "domains",
                 "nodes", "node_cap")

    def __init__(self, alg: PartialAlgebra, strat, fuel: Fuel):
        self.alg = alg
        self.strat = strat
        self.fuel = fuel
        self.enum = isinstance(strat, Enumerate)
        self.closures: dict[int, Optional[Callable]] = {}
        self.domains: dict[int, tuple] = {}
        self.nodes = 0
        self.node_cap = getattr(strat, "max_depth", 1_000_000_000)

    def compiled(self, t: Term) -> Optional[Callable]:
        try:
            return self.closures[id(t)]
        except KeyError:
            f = self.closures[id(t)] = _compile(self, t)
            return f


# ---------------------------------------------------------------------------
# term compilation
#
# A closure f(b, fuel, out) returns the term's Value under the bindings b,
# or DIV or FUEL_OUT. Fuel is an argument, so a dovetailed guard runs on its
# stage budget. Under Enumerate, out is the caller's outcome set and collects
# the failure flags and notes; Oracle and Dovetail pass None.
# Closures hold no reference to the Ctx whose map holds them: that cycle
# would keep every run's closures alive until a full collection.


def _compile(ctx: Ctx, t: Term) -> Optional[Callable]:
    tt = type(t)
    if tt is Var:
        name = t.name
        return lambda b, fuel, out: b[name]
    if tt is Lit:
        if t.sort.kind == "nat":
            nat = nat_value(t.value)
            return lambda b, fuel, out: nat
        alg, q, v = ctx.alg, Fraction(t.value), None

        def real_lit(b, fuel, out):
            nonlocal v
            if v is None:
                v = alg.real_literal(q)
            return v

        return real_lit
    if tt is Choose:
        lo, hi, _ = _guard_domain(t.var, t.body)
        if ctx.enum:
            ctx.domains[id(t)] = (lo, hi)
            return None
        strat, var, body = ctx.strat, t.var, ctx.compiled(t.body)
        if isinstance(strat, Oracle):  # proposes over all naturals
            return lambda b, fuel, out: _oracle_choose(strat, var, body, b, fuel)
        # _dovetail_choose is looked up at call time, so a wrapper set on the
        # module sees it; Dovetail searches a domain only when it is finite
        if hi is None or (type(lo) is int and type(hi) is int):
            dom = None if hi is None else range(lo, hi)
            return lambda b, fuel, out: _dovetail_choose(strat, var, body, b,
                                                         fuel, dom)
        return lambda b, fuel, out: _dovetail_choose(
            strat, var, body, b, fuel, range(_at(lo, b), _at(hi, b)))
    if tt is not App:
        raise TypeError(f"not a term: {t!r}")
    fs = [ctx.compiled(a) for a in t.args]
    if any(f is None for f in fs):
        return None
    if t.sym.conditional:
        return _cond(ctx, t.args, fs)
    return _strict(ctx.alg.interp[t.sym.name], t.args, fs, t.sym.name)


def _strict(rule, args: tuple, fs: list, name: str) -> Callable:
    """The closure of a strict application: rule(fuel, *values). One closure
    serves every strategy, and its failure policy follows out. With out None
    (Oracle, Dovetail) it stops at the first failed operand and returns the
    rule's result as it is. With an outcome set (Enumerate) it evaluates
    every operand, returns the last failure, and records a failed result of
    the rule in out. Arities 1 and 2, nearly all applications, get closures
    that build no list; any other arity, 0 included, takes the n-ary one.
    Some operand shapes (see `_operands`) get closures that read a variable
    as b[name] and a nat literal as its shared NatV, with no call: "v",
    "vt", "tv" and "vv" one each, and the other pairs of in-place operands
    ("cv", "vc", "cc") one together. An operand read in place cannot fail,
    so only the other one is tested."""
    shape, leaves = _operands(args)
    if len(fs) == 1:
        f0, = fs
        if shape == "v":
            n0, = leaves

            def app_v(b, fuel, out):
                r = rule(fuel, b[n0])
                if out is None or (r is not DIV and r is not FUEL_OUT):
                    return r
                return _failed(out, r, name)

            return app_v

        def app1(b, fuel, out):
            v = f0(b, fuel, out)
            if v is DIV or v is FUEL_OUT:
                return v
            r = rule(fuel, v)
            if out is None or (r is not DIV and r is not FUEL_OUT):
                return r
            return _failed(out, r, name)

        return app1
    if len(fs) == 2:
        f0, f1 = fs
        x0, x1 = leaves
        if shape == "vv":
            def app_vv(b, fuel, out):
                r = rule(fuel, b[x0], b[x1])
                if out is None or (r is not DIV and r is not FUEL_OUT):
                    return r
                return _failed(out, r, name)

            return app_vv
        if shape in _IN_PLACE_PAIRS:
            v0, v1 = shape[0] == "v", shape[1] == "v"

            def app_in_place(b, fuel, out):
                r = rule(fuel, b[x0] if v0 else x0, b[x1] if v1 else x1)
                if out is None or (r is not DIV and r is not FUEL_OUT):
                    return r
                return _failed(out, r, name)

            return app_in_place
        if shape == "vt":
            def app_vt(b, fuel, out):
                w = f1(b, fuel, out)
                if w is DIV or w is FUEL_OUT:
                    return w
                r = rule(fuel, b[x0], w)
                if out is None or (r is not DIV and r is not FUEL_OUT):
                    return r
                return _failed(out, r, name)

            return app_vt
        if shape == "tv":
            def app_tv(b, fuel, out):
                v = f0(b, fuel, out)
                if v is DIV or v is FUEL_OUT:
                    return v
                r = rule(fuel, v, b[x1])
                if out is None or (r is not DIV and r is not FUEL_OUT):
                    return r
                return _failed(out, r, name)

            return app_tv

        def app2(b, fuel, out):
            v = f0(b, fuel, out)
            if v is DIV or v is FUEL_OUT:
                if out is None:
                    return v
                w = f1(b, fuel, out)
                return w if w is DIV or w is FUEL_OUT else v
            w = f1(b, fuel, out)
            if w is DIV or w is FUEL_OUT:
                return w
            r = rule(fuel, v, w)
            if out is None or (r is not DIV and r is not FUEL_OUT):
                return r
            return _failed(out, r, name)

        return app2

    def app(b, fuel, out):
        vals, failed = [], None
        for f in fs:
            v = f(b, fuel, out)
            if v is DIV or v is FUEL_OUT:
                if out is None:
                    return v
                failed = v
            vals.append(v)
        if failed is not None:
            return failed
        r = rule(fuel, *vals)
        if out is None or (r is not DIV and r is not FUEL_OUT):
            return r
        return _failed(out, r, name)

    return app


def _cond(ctx: Ctx, args: tuple, fs: list) -> Callable:
    """The closure of a conditional (guard, then, else). A branch that is a
    nullary application, such as the true and false that andthen and orelse
    leave, has its rule called in place. Beside such a branch, a guard that
    is an application of two in-place operands (`_IN_PLACE_PAIRS`) is read
    in place too. Under Enumerate (out is not None) a rule called in place
    records its failure as its own closure would."""
    guard, then, els = fs
    then_k, else_k = (type(a) is App and not a.args for a in args[1:])
    if not (then_k or else_k):
        def cond(b, fuel, out):
            g = guard(b, fuel, out)
            if g is DIV or g is FUEL_OUT:
                return g
            return (then if g.b else els)(b, fuel, out)

        return cond
    side = not else_k  # the guard's value that picks the constant branch
    kname = args[2 - side].sym.name
    krule, other = ctx.alg.interp[kname], (els if side else then)
    g = args[0]
    shape, leaves = _operands(g.args) if type(g) is App else ("", ())
    if shape in _IN_PLACE_PAIRS:
        gname = g.sym.name
        grule, (x0, x1) = ctx.alg.interp[gname], leaves
        v0, v1 = shape[0] == "v", shape[1] == "v"

        def cond_in_place(b, fuel, out):
            r = grule(fuel, b[x0] if v0 else x0, b[x1] if v1 else x1)
            if r is DIV or r is FUEL_OUT:
                return r if out is None else _failed(out, r, gname)
            if r.b is not side:
                return other(b, fuel, out)
            r = krule(fuel)
            if out is None or (r is not DIV and r is not FUEL_OUT):
                return r
            return _failed(out, r, kname)

        return cond_in_place

    def cond_const(b, fuel, out):
        r = guard(b, fuel, out)
        if r is DIV or r is FUEL_OUT:
            return r
        if r.b is not side:
            return other(b, fuel, out)
        r = krule(fuel)
        if out is None or (r is not DIV and r is not FUEL_OUT):
            return r
        return _failed(out, r, kname)

    return cond_const


# the shapes of two operands that are both read in place
_IN_PLACE_PAIRS = frozenset(("vv", "cv", "vc", "cc"))


def _operands(args: tuple) -> tuple[str, list]:
    """How a closure reads the operands args: one letter each, "v" for a
    variable, "c" for a nat literal and "t" for any other term, and what
    each gives in place: the variable's name, the literal's shared NatV, or
    None. A real literal is a "t": its closure mints it on first
    evaluation, so a code algebra's registry keeps its order."""
    shape, leaves = "", []
    for a in args:
        if type(a) is Var:
            shape += "v"
            leaves.append(a.name)
        elif type(a) is Lit and a.sort.kind == "nat":
            shape += "c"
            leaves.append(nat_value(a.value))
        else:
            shape += "t"
            leaves.append(None)
    return shape, leaves


def _failed(out: OutcomeSet, r, name: Optional[str] = None):
    """Record in out that r, DIV or FUEL_OUT, ended an evaluation, and note
    "{name}: fuel exhausted" for FUEL_OUT when name is given; return r."""
    if r is DIV:
        out.proven_divergent = True
    else:
        out.truncated = True
        if name is not None:
            out.note(f"{name}: fuel exhausted")
    return r


def _oracle_choose(strat, var: str, body, b: dict, fuel: Fuel):
    cand = strat.next_candidate()
    b2 = dict(b)
    b2[var] = nat_value(cand)
    g = body(b2, fuel, None)
    if g is FUEL_OUT:
        return FUEL_OUT
    if g is DIV or not g.b:
        return DIV  # the guard rejected the oracle's proposal
    return nat_value(cand)


def _dovetail_choose(strat, var: str, body, b: dict, fuel: Fuel,
                     domain: Optional[range] = None):
    b2 = dict(b)

    def attempt(cand: int, stage: int):
        b2[var] = v = NATS[cand] if cand < SHARED_NATS else NatV(cand)
        guard_fuel = fuel.spawn(stage + 1)
        try:
            g = body(b2, guard_fuel, None)
        finally:  # fuel.repay(guard_fuel), inline
            fuel.remaining += guard_fuel.remaining
            guard_fuel.remaining = 0
        if g is FUEL_OUT or g is DIV:
            return g
        return v if g.b else DIV  # a ff guard is refuted

    return strat.search(fuel, attempt, domain)


# ---------------------------------------------------------------------------
# choose domains read from the guard
#
# The domain of `choose z : g` is an interval [lo, hi) of naturals outside
# which g is ff on every budget: evaluating g there can neither fail nor run
# out, so a candidate outside is one that every strategy would refute, and
# a search may skip it. Only the total nat comparisons less_nat and eq_nat
# of z with a nat literal or another variable bound it, read in place at
# no cost. `c andthen t` (if_bool(c, t, false)) meets c's domain, and t's
# when c is exact: built of such comparisons alone, so that no failure of
# c is skipped. `c orelse e` (if_bool(c, true, e)) takes the hull of both.
# Any other guard gives [0, hi = None), all naturals.
#
# A bound is an int, a variable's name, or a tuple ("succ", x), ("max", x,
# y) or ("min", x, y) of bounds; `_at` reads it under a choose's bindings,
# and `choose_eliminate` turns it into a term. Constant bounds are folded.


def _guard_domain(z: str, t: Term) -> tuple:
    """(lo, hi, exact) for the guard t of `choose z`: hi None has no upper
    end, and exact says that t is built from comparisons of z alone."""
    if type(t) is App:
        name, args = t.sym.name, t.args
        if name == "less_nat" or name == "eq_nat":
            x, y = args
            left = type(x) is Var and x.name == z  # z < e or z = e
            e = (_bound_operand(y, z) if left else _bound_operand(x, z)
                 if type(y) is Var and y.name == z else None)
            if e is not None:
                if name == "eq_nat":
                    return e, _succ(e), True
                return (0, e, True) if left else (_succ(e), None, True)
        if name == "if_bool":
            c, x, y = args
            if _is_const(y, "false"):  # c andthen x
                lo, hi, exact = _guard_domain(z, c)
                if not exact:
                    return lo, hi, False
                lo2, hi2, exact = _guard_domain(z, x)
                return _max(lo, lo2), _min(hi, hi2), exact
            if _is_const(x, "true"):  # c orelse y
                lo, hi, exact = _guard_domain(z, c)
                lo2, hi2, exact2 = _guard_domain(z, y)
                hull = None if hi is None or hi2 is None else _max(hi, hi2)
                return _min(lo, lo2), hull, exact and exact2
    return 0, None, False


def _is_const(t: Term, name: str) -> bool:
    return type(t) is App and t.sym.name == name and not t.args


def _bound_operand(t: Term, z: str):
    """t as a bound: a nat literal's value, or another variable's name."""
    if type(t) is Lit and t.sort.kind == "nat":
        return int(t.value)
    if type(t) is Var and t.name != z:
        return t.name
    return None


def _succ(x):
    return x + 1 if type(x) is int else ("succ", x)


def _max(x, y):
    if type(x) is int and type(y) is int:
        return max(x, y)
    return y if x == 0 else x if y == 0 else ("max", x, y)


def _min(x, y):
    """The lesser bound; None, no upper end, is the greatest."""
    if x is None or y is None:
        return y if x is None else x
    if type(x) is int and type(y) is int:
        return min(x, y)
    return 0 if x == 0 or y == 0 else ("min", x, y)


def _at(x, b: dict) -> int:
    """The value of the bound x under the bindings b."""
    if type(x) is int:
        return x
    if type(x) is str:
        return b[x].n
    if x[0] == "succ":
        return _at(x[1], b) + 1
    v, w = _at(x[1], b), _at(x[2], b)
    return max(v, w) if x[0] == "max" else min(v, w)


# ---------------------------------------------------------------------------
# enumerate-strategy term evaluation
#
# Only choose can give a term more than one value. A choose-free term runs
# its compiled closure and is wrapped in one outcome set at the boundary;
# outcome sets are built per node only for applications that contain a
# choose, and for choose itself.


def _enum_term(ctx: Ctx, t: Term, b: dict) -> OutcomeSet:
    """The outcome set of t, which contains a choose, under Enumerate."""
    out = OutcomeSet()
    seen: set = set()
    if isinstance(t, App):
        args = t.args
        if t.sym.conditional:
            for g in _enum_values(ctx, args[0], ctx.compiled(args[0]), b, out):
                branch = args[1] if g.b else args[2]
                for w in _enum_values(ctx, branch, ctx.compiled(branch), b, out):
                    out.add(w, seen)
            return out
        value_lists = [_enum_values(ctx, a, ctx.compiled(a), b, out)
                       for a in args]
        rule = ctx.alg.interp[t.sym.name]
        for combo in _combos(ctx, value_lists, out):
            v = rule(ctx.fuel, *combo)
            if v is DIV or v is FUEL_OUT:
                _failed(out, v, t.sym.name)
            else:
                out.add(v, seen)
        return out
    if isinstance(t, Choose):
        var, body = t.var, t.body
        single = ctx.compiled(body)
        fuel = ctx.fuel
        g = OutcomeSet()
        b2 = dict(b)
        clean_witness = False
        any_flag = undecided = False
        # the domain's candidates up to max_nat
        lo, hi = ctx.domains[id(t)]
        lo, top = _at(lo, b), ctx.strat.max_nat + 1
        hi = None if hi is None else _at(hi, b)
        inside = hi is not None and hi <= top
        end = hi if inside else top
        for cand in range(lo, end):
            b2[var] = v_cand = NATS[cand] if cand < SHARED_NATS else NatV(cand)
            if single is not None:
                # a single-valued guard: one call, tested inline
                v = single(b2, fuel, g)
                has_tt = v is not DIV and v is not FUEL_OUT and v.b
                has_ff = False
            else:
                has_tt = has_ff = False
                for v in _enum_values(ctx, body, None, b2, g):
                    has_tt, has_ff = has_tt or v.b, has_ff or not v.b
            flagged = g.proven_divergent or g.truncated
            if has_tt:
                out.add(v_cand, seen)
                if not has_ff and not flagged:
                    clean_witness = True
            if flagged:
                any_flag = True
                undecided = undecided or g.truncated
                out.note(f"choose candidate {cand}: "
                         + ("divergent guard" if g.proven_divergent
                            else "undecided guard"))
                g = OutcomeSet()  # the next candidate's flags start clear
        if not clean_witness:
            # the whole domain tested, with no witness and no guard left
            # undecided: no natural is one. Else divergence stays possible.
            proven = inside and not out.values and not undecided
            if proven:
                out.proven_divergent = True
            else:
                out.truncated = True
            if not any_flag:
                tested = (f"choose candidates {lo}..{end - 1} all rejected"
                          if lo < end else "no choose candidate to test")
                out.note(tested if proven else tested + "; rest unexplored")
        return out
    raise TypeError(f"not a term: {t!r}")


def eval_term(t: Term, sigma: State, alg: PartialAlgebra, strat,
              fuel: Fuel) -> OutcomeSet:
    ctx = Ctx(alg, strat, fuel)
    return _term_outcomes(ctx, t, sigma.bindings)


def _term_outcomes(ctx: Ctx, t: Term, b: dict) -> OutcomeSet:
    f = ctx.compiled(t)
    if f is None:  # a choose under Enumerate
        return _enum_term(ctx, t, b)
    out = OutcomeSet()
    r = f(b, ctx.fuel, out if ctx.enum else None)
    if r is not DIV and r is not FUEL_OUT:
        out.values.append(r)
    elif not ctx.enum:  # Enumerate's closure has recorded the failure
        _failed(out, r, "term evaluation")
    return out


# ---------------------------------------------------------------------------
# atomic statements, First / Rest / CompStep


def _assign_outcomes(ctx: Ctx, s: Assign, sigma: State) -> OutcomeSet:
    out = OutcomeSet()
    if ctx.enum:
        fs = [ctx.compiled(t) for t in s.rhs]
        out.values = _enum_assign(ctx, s.lhs, s.rhs, fs, sigma, out)
        return out
    vals = []
    for t in s.rhs:
        r = ctx.compiled(t)(sigma.bindings, ctx.fuel, None)
        if r is DIV or r is FUEL_OUT:
            _failed(out, r)
            return out
        vals.append(r)
    out.values.append(sigma.set_many(s.lhs, vals))
    return out


def eval_atomic(s: Stmt, sigma: State, alg: PartialAlgebra, strat,
                fuel: Fuel) -> OutcomeSet:
    ctx = Ctx(alg, strat, fuel)
    return _atomic_outcomes(ctx, s, sigma)


def _atomic_outcomes(ctx: Ctx, s: Stmt, sigma: State) -> OutcomeSet:
    if isinstance(s, Skip):
        return OutcomeSet(values=[sigma])
    if isinstance(s, Div):
        return OutcomeSet(proven_divergent=True)
    if isinstance(s, Assign):
        return _assign_outcomes(ctx, s, sigma)
    raise TypeError(f"not atomic: {s!r}")


def first(s: Stmt) -> Stmt:
    if is_atomic(s):
        return s
    if isinstance(s, Seq):
        return first(s.s1)
    return Skip()


@dataclass
class RestResult:
    stmts: list
    has_div: bool = False
    truncated: bool = False


def rest(s: Stmt, sigma: State, alg: PartialAlgebra, strat, fuel: Fuel) -> RestResult:
    ctx = Ctx(alg, strat, fuel)
    return _rest(ctx, s, sigma)


def _rest(ctx: Ctx, s: Stmt, sigma: State) -> RestResult:
    if is_atomic(s):
        return RestResult([Skip()])
    if isinstance(s, Seq):
        if is_atomic(s.s1):
            return RestResult([s.s2])
        inner = _rest(ctx, s.s1, sigma)
        return RestResult([Seq(s1p, s.s2) for s1p in inner.stmts],
                          inner.has_div, inner.truncated)
    guards = _term_outcomes(ctx, s.b, sigma.bindings)
    stmts = []
    if isinstance(s, If):
        for v in guards.values:
            stmts.append(s.then if v.b else s.els)
    elif isinstance(s, While):
        for v in guards.values:
            stmts.append(Seq(s.body, s) if v.b else Skip())
    return RestResult(stmts, guards.proven_divergent, guards.truncated)


def comp_step(s: Stmt, sigma: State, alg: PartialAlgebra, strat,
              fuel: Fuel) -> OutcomeSet:
    return eval_atomic(first(s), sigma, alg, strat, fuel)


# ---------------------------------------------------------------------------
# computation trees


class CompTree:
    """Stage-bounded branching record; only leaves may carry divergence."""

    __slots__ = ("state", "children", "div_leaf", "truncated", "frontier")

    def __init__(self, state: State):
        self.state = state
        self.children: list[CompTree] = []
        self.div_leaf = False       # an up-arrow leaf hangs off this node
        self.truncated = False      # cut by fuel / bounds, not by semantics
        self.frontier = False       # stage bound reached with work remaining

    def leaves(self, acc=None):
        if acc is None:
            acc = []
        if not self.children:
            acc.append(self)
        else:
            for c in self.children:
                c.leaves(acc)
        return acc


def comp_tree_stage(s: Stmt, sigma: State, n: int, alg: PartialAlgebra,
                    strat=None, *, fuel: Fuel) -> CompTree:
    """The stage-n computation tree of s from sigma, built on `fuel`."""
    if n < 0:
        raise ValueError("stage must be non-negative")
    strat = strat or Enumerate()
    ctx = Ctx(alg, strat, fuel)
    return _tree(ctx, s, sigma, n)


def _tree(ctx: Ctx, s: Stmt, sigma: State, n: int) -> CompTree:
    node = CompTree(sigma)
    if n == 0:
        node.frontier = True
        return node
    ctx.nodes += 1
    if ctx.nodes > ctx.node_cap:
        node.truncated = True
        return node
    step = _atomic_outcomes(ctx, first(s), sigma)
    if is_atomic(s):
        for sp in step.values:
            node.children.append(CompTree(sp))
        node.div_leaf |= step.proven_divergent
        node.truncated |= step.truncated
        return node
    rr = _rest(ctx, s, sigma)
    for sp in step.values:
        for s2 in rr.stmts:
            node.children.append(_tree(ctx, s2, sp, n - 1))
    node.div_leaf |= step.proven_divergent or rr.has_div
    node.truncated |= step.truncated or rr.truncated
    return node


def tree_is_prefix(a: CompTree, b: CompTree) -> bool:
    """Stage-n tree is a prefix of the stage-(n+1) tree (same branching,
    possibly deeper)."""
    if a.state.key() != b.state.key():
        return False
    if a.frontier or a.truncated:
        return True
    if len(a.children) != len(b.children) or a.div_leaf != b.div_leaf:
        return False
    return all(tree_is_prefix(x, y) for x, y in zip(a.children, b.children))


# ---------------------------------------------------------------------------
# statement and procedure semantics


# A body is compiled once per run into a list of nodes (`_compile_stmt`).
# Each node is an atomic statement or the guard test of an `if` or `while`;
# its successors are list indices resolved past `Seq` and past the end of
# each branch and loop body, so moving from node to node costs no step, and
# END ends the run. Fuel is taken once per node visited.

_ASSIGN1, _ASSIGN, _GUARD, _SKIP, _DIV = range(5)
END = -1


class _Node:
    """One node of a compiled body. An assignment `lhs := rhs` keeps the
    closures `fs` of its rhs terms, and when it assigns one variable, that
    `name` and the closure `f`. A guard keeps its term as `rhs[0]` and its
    closure as `f`, and goes to `next` when the guard holds and to `alt`
    when it does not; `next` is also an atomic node's successor."""

    __slots__ = ("kind", "lhs", "rhs", "fs", "name", "f", "next", "alt")

    def __init__(self, kind: int, lhs: tuple = (), rhs: tuple = (),
                 fs: tuple = ()):
        self.kind, self.lhs, self.rhs, self.fs = kind, lhs, rhs, fs
        self.name = lhs[0] if len(lhs) == 1 else None
        self.f = fs[0] if len(fs) == 1 else None
        self.next = self.alt = END


def _compile_stmt(ctx: Ctx, nodes: list, s: Stmt, k: int) -> int:
    """Append the nodes of s, run before the node k, and return the entry
    of s. A Seq chain is walked without recursion, so a long one cannot
    exhaust the stack."""
    parts, todo = [], [s]
    while todo:
        s = todo.pop()
        if isinstance(s, Seq):
            todo += (s.s2, s.s1)
        else:
            parts.append(s)
    for s in reversed(parts):
        i = len(nodes)
        if isinstance(s, Assign):
            fs = tuple(ctx.compiled(t) for t in s.rhs)
            node = _Node(_ASSIGN1 if len(s.lhs) == 1 else _ASSIGN,
                         s.lhs, s.rhs, fs)
        elif isinstance(s, Skip):
            node = _Node(_SKIP)
        elif isinstance(s, Div):
            node = _Node(_DIV)
        elif isinstance(s, (If, While)):
            node = _Node(_GUARD, rhs=(s.b,), fs=(ctx.compiled(s.b),))
        else:
            raise TypeError(f"not a statement: {s!r}")
        nodes.append(node)
        if isinstance(s, If):
            node.next = _compile_stmt(ctx, nodes, s.then, k)
            node.alt = _compile_stmt(ctx, nodes, s.els, k)
        elif isinstance(s, While):
            node.next, node.alt = _compile_stmt(ctx, nodes, s.body, i), k
        elif not isinstance(s, Div):
            node.next = k
        k = i
    return k


def _eval_stmt_det(ctx: Ctx, nodes: list, i: int, sigma: State) -> OutcomeSet:
    """Oracle and Dovetail: one path, run on one bindings dict."""
    b = dict(sigma.bindings)
    fuel = ctx.fuel
    out = OutcomeSet()
    while True:
        if not fuel.remaining:
            out.truncated = True
            out.note("statement evaluation: fuel exhausted")
            return out
        fuel.remaining -= 1
        node = nodes[i]
        kind = node.kind
        if kind == _ASSIGN1:
            v = node.f(b, fuel, None)
            if v is DIV or v is FUEL_OUT:
                _failed(out, v)
                return out
            b[node.name] = v
            i = node.next
        elif kind == _GUARD:
            v = node.f(b, fuel, None)
            if v is DIV or v is FUEL_OUT:
                _failed(out, v, "term evaluation")
                return out
            i = node.next if v.b else node.alt
        elif kind == _ASSIGN:
            vals = []
            for f in node.fs:
                v = f(b, fuel, None)
                if v is DIV or v is FUEL_OUT:
                    _failed(out, v)
                    return out
                vals.append(v)
            b.update(zip(node.lhs, vals))
            i = node.next
        elif kind == _SKIP:
            i = node.next
        else:
            out.proven_divergent = True
            return out
        if i == END:
            out.values.append(State(b))
            return out


def _enum_values(ctx: Ctx, t: Term, f, b: dict, out: OutcomeSet):
    """The values of t, whose closure is f (None when t contains a choose),
    under Enumerate; failures are recorded in out."""
    if f is not None:
        v = f(b, ctx.fuel, out)
        return () if v is DIV or v is FUEL_OUT else (v,)
    vs = _enum_term(ctx, t, b)
    out.merge_flags(vs)
    return vs.values


def _combos(ctx: Ctx, value_lists: list, out: OutcomeSet) -> list:
    """The ordered product of value_lists, cut at ctx.node_cap combinations;
    each cut is a truncation noted in out. A stage builds at most one
    combination past the cap, the one that shows the cut."""
    cap = ctx.node_cap
    combos = [()]
    for vs in value_lists:
        combos = list(islice((c + (v,) for c in combos for v in vs), cap + 1))
        if len(combos) > cap:
            out.truncated = True
            out.note("application combination cap hit")
            del combos[cap:]
    return combos


def _enum_assign(ctx: Ctx, lhs: tuple, rhs: tuple, fs, sigma: State,
                 out: OutcomeSet) -> list:
    """The distinct states an assignment reaches under Enumerate. Every rhs
    is evaluated; failures are recorded in out."""
    combos = _combos(ctx, [_enum_values(ctx, t, f, sigma.bindings, out)
                           for t, f in zip(rhs, fs)], out)
    if len(combos) == 1:  # nothing to deduplicate
        return [sigma.set_many(lhs, combos[0])]
    states = OutcomeSet()
    seen: set = set()
    for combo in combos:
        states.add(sigma.set_many(lhs, combo), seen)
    return states.values


def _eval_stmt_enum(ctx: Ctx, nodes: list, entry: int, sigma: State) -> OutcomeSet:
    """Enumerate: a depth-first walk over (node, State) work items."""
    out = OutcomeSet()
    seen: set = set()
    fuel = ctx.fuel
    work = [(entry, sigma)]
    while work:
        if not fuel.remaining:
            out.truncated = True
            out.note("statement evaluation: fuel exhausted with frontier pending")
            return out
        ctx.nodes += 1
        if ctx.nodes > ctx.node_cap:
            out.truncated = True
            out.note("node budget exhausted with frontier pending")
            return out
        i, st = work.pop()
        fuel.remaining -= 1  # positive: tested above, and nothing ran since
        node = nodes[i]
        kind = node.kind
        if kind == _GUARD:
            branches = []
            for v in _enum_values(ctx, node.rhs[0], node.f, st.bindings, out):
                j = node.next if v.b else node.alt
                if j == END:
                    out.add(st, seen)
                else:
                    branches.append(j)
            for j in reversed(branches):
                work.append((j, st))
            continue
        if kind == _SKIP:
            states = (st,)
        elif kind == _DIV:
            out.proven_divergent = True
            continue
        else:
            states = _enum_assign(ctx, node.lhs, node.rhs, node.fs, st, out)
        j = node.next
        for sp in states:
            if j == END:
                out.add(sp, seen)
            else:
                work.append((j, sp))
    return out


def eval_stmt(s: Stmt, sigma: State, alg: PartialAlgebra, strat,
              fuel: Fuel) -> OutcomeSet:
    ctx = Ctx(alg, strat, fuel)
    nodes: list[_Node] = []
    entry = _compile_stmt(ctx, nodes, s, END)
    if ctx.enum:
        return _eval_stmt_enum(ctx, nodes, entry, sigma)
    return _eval_stmt_det(ctx, nodes, entry, sigma)


def initial_state(p: Procedure, alg: PartialAlgebra, args,
                  junk: Optional[dict] = None) -> State:
    if len(args) != len(p.in_vars):
        raise AlgebraError(f"{p.name}: expected {len(p.in_vars)} inputs, "
                           f"got {len(args)}")
    b = {}
    for (n, s), v in zip(p.in_vars, args):
        if not alg.accepts(s, v):
            raise AlgebraError(f"{p.name}: input {n} expects sort {s.name}, got {v!r}")
        b[n] = v
    for n, s in p.out_vars + p.aux_vars:
        if junk and n in junk:
            b[n] = junk[n]
        else:
            b[n] = alg.default_value(s)
    return State(b)


def eval_proc(p: Procedure, args, alg: PartialAlgebra, strat, fuel: Fuel,
              junk: Optional[dict] = None) -> OutcomeSet:
    """Run a procedure; outcome values are outputs (tuples if several)."""
    strat = strat.fresh()
    sigma = initial_state(p, alg, args, junk)
    res = eval_stmt(p.body, sigma, alg, strat, fuel)
    out = OutcomeSet(proven_divergent=res.proven_divergent,
                     truncated=res.truncated,
                     diagnostics=list(res.diagnostics))
    seen: set = set()
    names = [n for n, _ in p.out_vars]
    for sp in res.values:
        vals = tuple(sp.get(n) for n in names)
        out.add(vals[0] if len(vals) == 1 else vals, seen)
    return out


def is_deterministic_on(p: Procedure, samples, alg: PartialAlgebra,
                        strat=None, fuel_steps: int = 200_000) -> list[dict]:
    """Bounded determinism check: is the Enumerate outcome set a singleton?"""
    strat = strat or Enumerate()
    report = []
    for args in samples:
        res = eval_proc(p, args, alg, strat, Fuel(fuel_steps))
        report.append({
            "input": args,
            "outcomes": res.values,
            "deterministic": len(res.values) == 1 and not res.maybe_divergent,
            "maybe_divergent": res.maybe_divergent,
        })
    return report


# ---------------------------------------------------------------------------
# choose elimination (total algebras)


class ChooseEliminationError(Exception):
    pass


def choose_eliminate(p: Procedure, alg: PartialAlgebra) -> Procedure:
    """Rewrite every choose into a least-witness while search (Prop 3.4.1
    style); sound for deterministic procedures over total algebras. A search
    in a branch of a conditional term runs only when that branch is taken,
    and a search in a choose guard runs again for every candidate. A search
    starts at the low end of the domain its guard gives (`_guard_domain`)
    and, past a finite high end, ends in `div`.

    Precondition: a search nested in a choose guard must have a witness for
    every candidate that the outer least-witness search reaches. Where one
    has none, the rewritten procedure diverges at that candidate (it never
    answers wrongly), while Enumerate and Dovetail go on to a later one."""
    if not alg.total:
        raise ChooseEliminationError(
            f"algebra {alg.name} is not total; choose elimination needs "
            "convergent guard evaluation")
    sig = alg.signature
    counter = [0]
    new_aux: list = []
    taken = set(p.var_sorts)

    def fresh(sort) -> Var:
        while True:
            name = f"ch_elim_{counter[0]}"
            counter[0] += 1
            if name not in taken:
                taken.add(name)
                new_aux.append((name, sort))
                return Var(name, sort)

    def bound_term(x) -> Term:
        """A domain bound (see `_guard_domain`) as a nat term."""
        if type(x) is int:
            return Lit(x, NAT)
        if type(x) is str:
            return Var(x, NAT)
        if x[0] == "succ":
            return App(sig.symbol("succ"), (bound_term(x[1]),))
        v, w = bound_term(x[1]), bound_term(x[2])
        less = App(sig.symbol("less_nat"), (v, w))
        return App(sig.symbol("if_nat"), (less, w, v) if x[0] == "max"
                   else (less, v, w))

    def strip_term(t: Term, pre: list) -> Term:
        """t without choose; the searches it needs are appended to pre."""
        if isinstance(t, (Var, Lit)):
            return t
        if isinstance(t, App):
            if t.sym.conditional and any(_has_choose(a) for a in t.args[1:]):
                guard = strip_term(t.args[0], pre)
                v = fresh(t.sort)
                branches = []
                for a in t.args[1:]:
                    branch_pre: list = []
                    val = strip_term(a, branch_pre)
                    branches.append(_seq_with_pre(branch_pre,
                                                  Assign((v.name,), (val,))))
                pre.append(If(guard, *branches))
                return v
            return App(t.sym, tuple(strip_term(a, pre) for a in t.args))
        if isinstance(t, Choose):
            z = fresh(NAT)
            lo, hi, _ = _guard_domain(t.var, t.body)
            # substitute first, so a search in the guard sees the candidate
            guard_pre: list = []
            body = strip_term(subst_term(t.body, {t.var: z}), guard_pre)
            steps = [Assign((z.name,), (App(sig.symbol("succ"), (z,)),))]
            if hi is not None:  # past the domain no candidate is a witness
                steps.append(If(App(sig.symbol("less_nat"),
                                    (z, bound_term(hi))), Skip(), Div()))
            pre.append(Assign((z.name,), (bound_term(lo),)))
            pre.extend(guard_pre)
            pre.append(While(App(sig.symbol("not"), (body,)),
                             seq_all(steps + guard_pre)))
            return z
        raise TypeError(f"not a term: {t!r}")

    def strip_stmt(s: Stmt) -> Stmt:
        if isinstance(s, (Skip, Div)):
            return s
        if isinstance(s, Assign):
            pre: list = []
            rhs = tuple(strip_term(t, pre) for t in s.rhs)
            body = Assign(s.lhs, rhs)
            return _seq_with_pre(pre, body)
        if isinstance(s, Seq):
            return Seq(strip_stmt(s.s1), strip_stmt(s.s2))
        if isinstance(s, If):
            pre = []
            b = strip_term(s.b, pre)
            return _seq_with_pre(pre, If(b, strip_stmt(s.then), strip_stmt(s.els)))
        if isinstance(s, While):
            pre = []
            b = strip_term(s.b, pre)
            body = strip_stmt(s.body)
            if pre:
                # guard searches re-run before each re-evaluation of b
                body = Seq(body, seq_all(pre))
                return _seq_with_pre(pre, While(b, body))
            return While(b, body)
        raise TypeError(f"not a statement: {s!r}")

    body = strip_stmt(p.body)
    return Procedure(p.name + "_elim", p.algebra_name, p.in_vars, p.out_vars,
                     tuple(p.aux_vars) + tuple(new_aux), body)


def _has_choose(t: Term) -> bool:
    return isinstance(t, Choose) or (
        isinstance(t, App) and any(_has_choose(a) for a in t.args))


def _seq_with_pre(pre: list, body: Stmt) -> Stmt:
    if not pre:
        return body
    return Seq(seq_all(pre), body)
