"""Properties of generated programs.

Hypothesis draws small well-sorted procedures over N and RN: bounded `for`
loops, `if`, strict and short-circuit booleans, `choose` whose witnesses lie
below the Enumerate bound, and now and then `inv` of 0 or a `div` branch.
Each procedure is printed with `pretty_program`, and the tests check that

  * parsing the printed text gives the same procedure back;
  * a converged Dovetail(seed) or Oracle(seed) value lies in the Enumerate
    outcome set, whenever that set is not truncated;
  * more fuel never removes an Enumerate value, nor the proven-divergence
    flag;
  * the stage-n computation tree is a prefix of the stage-(n+1) tree;
  * over N, where every guard converges, a procedure that Enumerate shows
    deterministic gives the same value after choose elimination as under
    Dovetail;
  * over RN, the run over the code algebra tracks the run over values (the
    soundness square): both converge or neither does, and the decoded code
    outputs equal the value outputs. Half the real outputs are a `dist` of
    the drawn output term and another term, so a wrong `dist` tracker shows.

Draws are derandomized, so every run checks the same programs.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from whilecc.algebra import get_algebra, rat_value, value_key
from whilecc.codes import CodeRegistry, Fuel
from whilecc.interp import (Dovetail, Enumerate, Oracle, choose_eliminate,
                            comp_tree_stage, eval_proc, initial_state,
                            nat_value, tree_is_prefix)
from whilecc.lang import parse_program
from whilecc.lang.ast import (App, Assign, Choose, Div, If, Lit, Procedure,
                              Program, Var, While, normalize_seq, seq_all)
from whilecc.lang.parser import auto_init, pretty_program
from whilecc.tracking import a0_square_check, code_algebra

MAX_NAT = 4  # Enumerate's choose bound; every choose guard implies z <= it
FUELS = (30, 60, 120, 250, 6_000)  # rising; strategies run on the last
SQUARE_EXAMPLES = 150
REAL_LITS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 4))


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
            # the parser's desugaring of `for i := lo to hi do S od`
            nat = self.sort("nat")
            i, e = Var(f"i{loops}", nat), Var(f"e{loops}", nat)
            hi = self.pick([Lit(0, nat), Lit(1, nat), Lit(2, nat), Var("n", nat)])
            inc = Assign((i.name,), (self.app("succ", i),))
            return seq_all([
                Assign((i.name,), (Lit(self.pick([0, 1]), nat),)),
                Assign((e.name,), (hi,)),
                While(self.app("not", self.app("less_nat", e, i)),
                      seq_all([self.block(depth - 1, loops + 1), inc]))])
        targets = [(v, s) for s in ("nat", "bool", "real")
                   for v in self.vars[s] if v not in ("n", "x")]
        count = self.pick([1, 1, 2])
        chosen = self.draw(st.permutations(targets))[:count]
        return Assign(tuple(v for v, _ in chosen),
                      tuple(self.term(s, 3) for _, s in chosen))

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
    body = seq_all([block, Assign(("r",), (out,))])
    out_vars = [("r", sig.sort(out_sort)), ("k", nat)]
    proc = auto_init(Procedure("gen", alg_name, in_vars, out_vars, aux,
                               normalize_seq(body)), sig)
    args = [nat_value(draw(st.integers(0, 2)))]
    if gen.has_real:
        args.append(rat_value(draw(st.sampled_from(
            [Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(2)]))))
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
