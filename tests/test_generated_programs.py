"""Properties of generated programs.

Hypothesis draws small well-sorted procedures over N and RN: bounded `for`
loops, `if`, strict and short-circuit booleans, `choose` whose witnesses lie
below the Enumerate bound, and now and then `inv` of 0 or a `div` branch.
A body ends in the output assignment, or in an `if`, a `while` or a `skip`
with the output assigned before it or inside it.
Each procedure is printed with `pretty_program`, and the tests check that

  * parsing the printed text gives the same procedure back;
  * a converged Dovetail(seed) or Oracle(seed) value lies in the Enumerate
    outcome set, whenever that set is not truncated;
  * more fuel never removes an Enumerate value, nor the proven-divergence
    flag;
  * the stage-n computation tree is a prefix of the stage-(n+1) tree;
  * the computation tree, read off the statements as written, agrees with
    the compiled node walk under Enumerate: the same terminated states, a
    div leaf exactly when the run is proven divergent, and a truncated node
    exactly when it is truncated;
  * over N, where every guard converges, a procedure that Enumerate shows
    deterministic gives the same value after choose elimination as under
    Dovetail;
  * over RN, the run over the code algebra tracks the run over values (the
    soundness square): both converge or neither does, and the decoded code
    outputs equal the value outputs. Half the real outputs are a `dist` of
    the drawn output term and another term, so a wrong `dist` tracker shows.

Generated terms, assigned one or two at a time, are also run under
Enumerate against `reference_values`, a set-valued term semantics read off
the AST with no compilation and no fuel: where neither side is truncated,
the states reached assign exactly every combination of reference values.

Draws are derandomized, so every run checks the same programs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from hypothesis import example, given, settings, strategies as st

from whilecc import interp
from whilecc.algebra import (DIV, FF, FUEL_OUT, TT, RealV, get_algebra,
                             rat_value, value_key)
from whilecc.codes import CodeRegistry, Fuel, sqrt_code
from whilecc.interp import (Dovetail, Enumerate, Oracle, State,
                            choose_eliminate, comp_tree_stage, eval_proc,
                            eval_stmt, eval_term, initial_state, nat_value,
                            tree_is_prefix)
from whilecc.lang import parse_program
from whilecc.lang.ast import (App, Assign, Choose, Div, If, Lit, Procedure,
                              Program, Skip, Var, While, normalize_seq,
                              seq_all)
from whilecc.lang.parser import auto_init, pretty_program
from whilecc.tracking import a0_square_check, code_algebra

MAX_NAT = 4  # Enumerate's choose bound; every choose guard implies z <= it
FUELS = (30, 60, 120, 250, 6_000)  # rising; strategies run on the last
# the computation tree against the compiled walker: bounds no draw reaches,
# so neither side is cut where the other goes on
TREE_STAGES, TREE_FUEL, TREE_NODES = 2_000, 2_000_000, 200_000
SQUARE_EXAMPLES = 150
REAL_LITS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 4))
REAL_INPUTS = (Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(2))


def _settings(examples):
    return settings(derandomize=True, max_examples=examples, deadline=None,
                    database=None)


class _Gen:
    """Draws terms and statements for one procedure over `sig`."""

    def __init__(self, draw, sig):
        self.draw = draw
        self.sig = sig
        self.sort = sig.sort
        self.has_real = "real" in sig.sorts
        self.vars = {"nat": ["n", "k"], "bool": ["b"], "real": []}
        if self.has_real:
            self.vars["real"] = ["x", "u"]
        self.chooses = 0

    def app(self, name, *args):
        return App(self.sig.symbol(name), args)

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    # terms

    def leaf(self, sort, bound):
        s = self.sort(sort)
        names = self.vars[sort] + (list(bound) if sort == "nat" else [])
        leaves = [Var(v, s) for v in names]
        if sort == "nat":
            leaves += [Lit(i, s) for i in range(4)]
        elif sort == "real":
            leaves += [Lit(q, s) for q in REAL_LITS]
        else:
            leaves += [self.app("true"), self.app("false")]
        return self.pick(leaves)

    def pair(self, sort, depth, bound):
        """Two operands, not both literals: the parser folds literal
        arithmetic and gives literal-only comparisons the real sort."""
        a = self.term(sort, depth, bound)
        b = self.term(sort, depth, bound)
        if isinstance(a, Lit) and isinstance(b, Lit):
            a = Var(self.vars[sort][0], self.sort(sort))
        return a, b

    def term(self, sort, depth, bound=()):
        if depth == 0 or self.draw(st.integers(0, 2)) == 0:
            return self.leaf(sort, bound)
        d = depth - 1
        ops = {"nat": ["succ", "if", "choose", "choose"],
               "bool": ["and", "or", "not", "andthen", "orelse", "if",
                        "eq_nat", "less_nat"],
               "real": ["add", "mul", "neg", "inv", "inv0", "nat2real", "rat",
                        "dist", "if"]}[sort]
        if sort == "bool" and self.has_real:
            ops += ["eq_real", "less_real"]
        op = self.pick(ops)
        if op == "choose":
            return self.choose(d, bound)
        if op == "if":
            return self.app(f"if_{sort}", self.term("bool", d, bound),
                            *self.pair(sort, d, bound))
        if op == "andthen":
            return self.app("if_bool", self.term("bool", d, bound),
                            self.term("bool", d, bound), self.app("false"))
        if op == "orelse":
            return self.app("if_bool", self.term("bool", d, bound),
                            self.app("true"), self.term("bool", d, bound))
        if op == "inv0":
            return self.app("inv", Lit(Fraction(0), self.sort("real")))
        if op in ("succ", "nat2real", "rat"):
            return self.app(op, self.term("nat", d, bound))
        if op in ("neg", "inv"):
            return self.app(op, self.term("real", d, bound))
        if op == "not":
            return self.app(op, self.term("bool", d, bound))
        if op in ("and", "or"):
            return self.app(op, self.term("bool", d, bound),
                            self.term("bool", d, bound))
        arg = {"eq_nat": "nat", "less_nat": "nat"}.get(op, "real")
        return self.app(op, *self.pair(arg, d, bound))

    def choose(self, depth, bound):
        """choose z : (z < K) andthen phi, so every witness is below K;
        phi relates z to another nat term, and maybe to a boolean term."""
        z = f"z{self.chooses}"
        self.chooses += 1
        nat = self.sort("nat")
        zv, other = Var(z, nat), self.term("nat", depth, bound)
        phi = self.app(self.pick(["less_nat", "eq_nat"]),
                       *self.pick([(zv, other), (other, zv)]))
        if self.draw(st.booleans()):
            phi = self.app("or", phi, self.term("bool", depth, bound + (z,)))
        cap = self.draw(st.integers(1, MAX_NAT + 1))
        body = self.app("if_bool", self.app("less_nat", zv, Lit(cap, nat)),
                        phi, self.app("false"))
        return Choose(z, body, nat)

    # statements

    def stmt(self, depth, loops):
        kinds = ["assign", "assign"] + (["if", "for"] if depth else [])
        kind = self.pick(kinds)
        if kind == "if":
            # a `div` only in a branch, so some runs still converge
            els = (Div() if self.draw(st.integers(0, 3)) == 0
                   else self.block(depth - 1, loops))
            return If(self.term("bool", 2), self.block(depth - 1, loops), els)
        if kind == "for":
            return self.for_loop(depth, loops)
        targets = [(v, s) for s in ("nat", "bool", "real")
                   for v in self.vars[s] if v not in ("n", "x")]
        count = self.pick([1, 1, 2])
        chosen = self.draw(st.permutations(targets))[:count]
        return Assign(tuple(v for v, _ in chosen),
                      tuple(self.term(s, 3) for _, s in chosen))

    def for_loop(self, depth, loops, tail=()):
        """The parser's desugaring of `for i := lo to hi do S od`, with the
        statements tail run at the end of S."""
        nat = self.sort("nat")
        i, e = Var(f"i{loops}", nat), Var(f"e{loops}", nat)
        hi = self.pick([Lit(0, nat), Lit(1, nat), Lit(2, nat), Var("n", nat)])
        inc = Assign((i.name,), (self.app("succ", i),))
        return seq_all([
            Assign((i.name,), (Lit(self.pick([0, 1]), nat),)),
            Assign((e.name,), (hi,)),
            While(self.app("not", self.app("less_nat", e, i)),
                  seq_all([self.block(depth - 1, loops + 1), *tail, inc]))])

    def block(self, depth, loops):
        return seq_all([self.stmt(depth, loops)
                        for _ in range(self.pick([1, 2]))])


@st.composite
def programs(draw, algebras=("N", "RN")):
    """(program, procedure, inputs) over one of the algebras."""
    alg_name = draw(st.sampled_from(algebras))
    sig = get_algebra(alg_name).signature
    gen = _Gen(draw, sig)
    nat, boolean = sig.sort("nat"), sig.sort("bool")
    out_sort = draw(st.sampled_from(["nat", "real"] if gen.has_real else ["nat"]))
    in_vars = [("n", nat)] + ([("x", sig.sort("real"))] if gen.has_real else [])
    aux = [("b", boolean)]
    if gen.has_real:
        aux.append(("u", sig.sort("real")))
    aux += [(f"{v}{d}", nat) for d in range(2) for v in "ie"]
    block, out = gen.block(2, 0), gen.term(out_sort, 3)
    if out_sort == "real" and draw(st.booleans()):
        # dist of the output and another term, so dist results reach r
        other = gen.term("real", 2)
        if isinstance(out, Lit) and isinstance(other, Lit):
            other = Var("x", sig.sort("real"))
        out = gen.app("dist", out, other)
    # the body ends in the output assignment, or in an `if`, a `while` or a
    # `skip` with the output assigned before it or inside it; a `while` at
    # the end leaves the body from its guard
    set_r = Assign(("r",), (out,))
    end = draw(st.sampled_from(["assign", "if", "while", "skip"]))
    inside = end in ("if", "while") and draw(st.booleans())
    tail = [] if inside else [set_r]
    if end == "if":
        then = gen.block(1, 0)
        tail.append(If(gen.term("bool", 2),
                       seq_all([then, set_r]) if inside else then,
                       gen.block(1, 0)))
    elif end == "while":
        tail.append(gen.for_loop(1, 0, (set_r,) if inside else ()))
    elif end == "skip":
        tail.append(Skip())
    body = seq_all([block, *tail])
    out_vars = [("r", sig.sort(out_sort)), ("k", nat)]
    proc = auto_init(Procedure("gen", alg_name, in_vars, out_vars, aux,
                               normalize_seq(body)), sig)
    args = [nat_value(draw(st.integers(0, 2)))]
    if gen.has_real:
        args.append(rat_value(draw(st.sampled_from(REAL_INPUTS))))
    return Program(alg_name, {"gen": proc}), proc, args


def _enum(proc, args, fuel):
    return eval_proc(proc, args, get_algebra(proc.algebra_name),
                     Enumerate(MAX_NAT, 400), Fuel(fuel))


@_settings(150)
@given(programs())
def test_generated_program_round_trips(case):
    prog, proc, _ = case
    text = pretty_program(prog)
    again = parse_program(text).proc("gen")
    assert again.body == proc.body, text
    assert (again.in_vars, again.out_vars, again.aux_vars) == \
        (proc.in_vars, proc.out_vars, proc.aux_vars)
    assert pretty_program(Program(prog.algebra_name, {"gen": again})) == text


@_settings(100)
@given(programs(), st.sampled_from([Dovetail, Oracle]), st.integers(0, 3))
def test_converged_strategy_value_is_an_enumerate_value(case, strategy, seed):
    prog, proc, args = case
    run = eval_proc(proc, args, get_algebra(proc.algebra_name), strategy(seed),
                    Fuel(FUELS[-1]))
    enum = _enum(proc, args, FUELS[-1])
    if not run.values or run.maybe_divergent or enum.truncated:
        return
    [v] = run.values
    assert value_key(v) in {value_key(w) for w in enum.values}, \
        pretty_program(prog)


@_settings(80)
@given(programs())
def test_more_fuel_keeps_every_enumerate_value(case):
    prog, proc, args = case
    runs = [_enum(proc, args, fuel) for fuel in FUELS]
    for low, high in zip(runs, runs[1:]):
        assert ({value_key(v) for v in low.values}
                <= {value_key(v) for v in high.values}), pretty_program(prog)
        assert high.proven_divergent or not low.proven_divergent, \
            pretty_program(prog)


@_settings(100)
@given(programs())
def test_stage_tree_is_a_prefix_of_the_next_stage(case):
    prog, proc, args = case
    alg = get_algebra(proc.algebra_name)
    sigma = initial_state(proc, alg, args)
    trees = []
    for n in range(9):
        # ample fuel and nodes: a cut at stage n+1 could land where stage n
        # went on, and the property is about the semantics, not the budget
        fuel = Fuel(100_000)
        trees.append(comp_tree_stage(proc.body, sigma, n, alg,
                                     Enumerate(MAX_NAT, 2_000), fuel=fuel))
        assert not fuel.dead
    for n, (a, b) in enumerate(zip(trees, trees[1:])):
        assert tree_is_prefix(a, b), (n, pretty_program(prog))


@_settings(80)
@given(programs(("N",)), st.integers(0, 3))
def test_choose_elimination_agrees_with_dovetail_when_deterministic(case, seed):
    prog, proc, args = case
    alg = get_algebra("N")
    enum = _enum(proc, args, FUELS[-1])
    if len(enum.values) != 1 or enum.maybe_divergent:
        return  # not shown deterministic
    elim = eval_proc(choose_eliminate(proc, alg), args, alg, Dovetail(seed),
                     Fuel(FUELS[-1]))
    keys = [value_key(v) for v in enum.values]
    assert not elim.maybe_divergent, pretty_program(prog)
    assert [value_key(v) for v in elim.values] == keys, pretty_program(prog)
    # a seeded search may visit the only witness late, past the budget
    run = eval_proc(proc, args, alg, Dovetail(seed), Fuel(FUELS[-1]))
    if not run.maybe_divergent:
        assert [value_key(v) for v in run.values] == keys, pretty_program(prog)


@_settings(SQUARE_EXAMPLES)
@given(programs(("RN",)))
def test_code_algebra_run_tracks_the_value_run(case):
    prog, proc, args = case
    rn, registry = get_algebra("RN"), CodeRegistry()
    rep = a0_square_check(proc, rn, code_algebra(rn, registry), registry,
                          [tuple(args)], fuel_steps=FUELS[-1])
    assert rep.ok, (pretty_program(prog), rep.failures)


@_settings(200)
@given(programs())
def test_computation_tree_agrees_with_the_compiled_walker(case):
    prog, proc, args = case
    alg = get_algebra(proc.algebra_name)
    sigma = initial_state(proc, alg, args)
    strat = Enumerate(MAX_NAT, TREE_NODES)
    tree = comp_tree_stage(proc.body, sigma, TREE_STAGES, alg, strat,
                           fuel=Fuel(TREE_FUEL))
    run = eval_stmt(proc.body, sigma, alg, strat, Fuel(TREE_FUEL))
    nodes, todo = [], [tree]
    while todo:
        node = todo.pop()
        nodes.append(node)
        todo.extend(node.children)
    text = pretty_program(prog)
    assert not any(n.frontier for n in nodes), text
    ends = {n.state.key() for n in nodes if not n.children
            and not (n.div_leaf or n.truncated)}
    assert ends == {st.key() for st in run.values}, text
    assert any(n.div_leaf for n in nodes) == run.proven_divergent, text
    assert any(n.truncated for n in nodes) == run.truncated, text


# A reference semantics of terms, read directly off the AST with no
# compilation and no budget to thread (McKeeman's differential testing):
# choose ranges over 0..MAX_NAT, and a strict application takes every
# combination of argument values. Each rule application runs on a budget of
# its own, ample for exact constants; FUEL_OUT there is an undecided
# comparison, and the result is then marked undecided.

def reference_values(t, b: dict, alg) -> tuple[list, bool]:
    """(the values of t under the bindings b, whether any was undecided)."""
    if isinstance(t, Var):
        return [b[t.name]], False
    if isinstance(t, Lit):
        if t.sort.kind == "nat":
            return [nat_value(t.value)], False
        return [alg.real_literal(Fraction(t.value))], False
    if isinstance(t, Choose):
        values, undecided = [], False
        for cand in range(MAX_NAT + 1):
            guard, u = reference_values(t.body, {**b, t.var: nat_value(cand)},
                                        alg)
            undecided |= u
            if any(v.b for v in guard):
                values.append(nat_value(cand))
        return values, undecided
    if t.sym.conditional:
        guard, undecided = reference_values(t.args[0], b, alg)
        values = []
        for g in guard:
            vs, u = reference_values(t.args[1] if g.b else t.args[2], b, alg)
            values += vs
            undecided |= u
        return values, undecided
    args = [reference_values(a, b, alg) for a in t.args]
    undecided = any(u for _, u in args)
    values = []
    for combo in product(*(vs for vs, _ in args)):
        r = alg.interp[t.sym.name](Fuel(1_000), *combo)
        if r is FUEL_OUT:
            undecided = True
        elif r is not DIV:
            values.append(r)
    return values, undecided


@st.composite
def assignments(draw, algebras=("N", "RN")):
    """(algebra, a concurrent assignment of one or two generated terms to
    fresh variables, bindings of the variables the terms read)."""
    alg = get_algebra(draw(st.sampled_from(algebras)))
    gen = _Gen(draw, alg.signature)
    sorts = ["nat", "bool"] + (["real"] if gen.has_real else [])
    rhs = tuple(gen.term(draw(st.sampled_from(sorts)), 3)
                for _ in range(draw(st.integers(1, 2))))
    b = {"n": nat_value(draw(st.integers(0, 3))),
         "k": nat_value(draw(st.integers(0, 3))),
         "b": draw(st.sampled_from([TT, FF]))}
    if gen.has_real:
        for name in ("x", "u"):
            b[name] = rat_value(draw(st.sampled_from(REAL_INPUTS)))
    return alg, Assign(("o0", "o1")[:len(rhs)], rhs), b


@_settings(400)
@given(assignments())
def test_enumerate_assigns_every_combination_of_reference_values(case):
    alg, s, b = case
    run = eval_stmt(s, State(b), alg, Enumerate(MAX_NAT, 400), Fuel(100_000))
    refs = [reference_values(t, b, alg) for t in s.rhs]
    if run.truncated or any(u for _, u in refs):
        return
    want = {tuple(value_key(v) for v in combo)
            for combo in product(*(vs for vs, _ in refs))}
    got = {tuple(value_key(st.get(n)) for n in s.lhs) for st in run.values}
    assert got == want, s


# Choose guards for the domain differential: comparisons of z with a literal
# or the variable w, which bound the domain, and others that do not: real
# comparisons that tie (DIV) at some z or need refinement, inv at z = 0, and
# total ones the domain does not read, nested in andthen, orelse and not.
_GUARD_ATOMS = ("z < {a}", "{a} < z", "z = {a}", "{a} = z", "x <> nat2real(z)",
                "nat2real(z) < x", "inv(nat2real(z)) < x", "succ(z) < {a}",
                "w < {a}")
_GUARD_XS = (Fraction(0), Fraction(2), Fraction(1, 2), "sqrt2")


@st.composite
def guards(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(_GUARD_ATOMS)).format(
            a=draw(st.sampled_from(("0", "1", "3", "5", "12", "w"))))
    op = draw(st.sampled_from(("andthen", "andthen", "orelse", "not")))
    if op == "not":
        return f"not ({draw(guards(depth - 1))})"
    return f"({draw(guards(depth - 1))}) {op} ({draw(guards(depth - 1))})"


@_settings(250)
@given(guards(), st.integers(0, 5), st.sampled_from(_GUARD_XS),
       st.integers(0, 3))
@example("z = 12", 0, Fraction(0), 0)  # a domain past Enumerate's bound
@example("(z < 3) andthen (z = 5)", 0, Fraction(0), 1)  # an empty one
@example("(x <> nat2real(z)) andthen (z < 3)", 0, Fraction(2), 2)
def test_a_guard_domain_never_changes_what_a_search_finds(guard, w, x, seed):
    # the same choose with and without its domain (read all naturals, as
    # for a guard that gives none): Enumerate finds the same values and
    # notes the same candidates, and a domain proves divergence only where
    # no natural is a witness; a bounded Dovetail value is a witness
    proc = parse_program("algebra RN\nfunc f in w: nat, x: real out k: nat "
                         f"begin k := choose z : {guard} end").proc("f")
    chooser = proc.body.s2.rhs[0]
    rn = get_algebra("RN")
    args = (nat_value(w), RealV(sqrt_code(2)) if x == "sqrt2" else rat_value(x))
    pruned = eval_proc(proc, args, rn, Enumerate(8), Fuel(100_000))
    run = eval_proc(proc, args, rn, Dovetail(seed), Fuel(3_000))
    # the unbounded runs take an algebra of their own: the code compiled on
    # rn, domain and all, is reused by every later run on rn
    rn_all = get_algebra("RN")
    bounded = interp._guard_domain
    interp._guard_domain = lambda z, t: (0, None, False)
    try:
        full = eval_proc(proc, args, rn_all, Enumerate(8), Fuel(100_000))
        wide = eval_proc(proc, args, rn_all, Enumerate(40), Fuel(1_000_000))
    finally:
        interp._guard_domain = bounded

    def notes(res):
        return [n for n in res.diagnostics if n.startswith("choose candidate ")]

    assert [v.n for v in pruned.values] == [v.n for v in full.values], guard
    assert notes(pruned) == notes(full), guard
    assert pruned.maybe_divergent == full.maybe_divergent, guard
    if pruned.proven_divergent or run.proven_divergent:
        assert not wide.values and not notes(wide)[len(notes(pruned)):], guard
    if run.values:
        [v] = run.values
        b = {"w": args[0], "x": args[1], "k": nat_value(0), chooser.var: v}
        g = eval_term(chooser.body, State(b), rn, Enumerate(1), Fuel(10_000))
        assert [u.b for u in g.values] == [True] and not g.maybe_divergent, guard
