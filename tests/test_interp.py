"""Operational semantics: term/statement/procedure evaluation, trees,
strategies, and choose elimination."""

import gc
import weakref
from fractions import Fraction

import pytest

from whilecc.algebra import (get_algebra, rat_value, NatV, RealV, DIV,
                             FUEL_OUT, TT, FF, SHARED_NATS)
from whilecc.codes import Fuel, sqrt_code, unpair
from whilecc.interp import (Enumerate, Oracle, Dovetail, State, eval_term,
                            eval_atomic, first, rest, comp_step,
                            comp_tree_stage, tree_is_prefix, eval_stmt,
                            eval_proc, initial_state, is_deterministic_on,
                            choose_eliminate, ChooseEliminationError,
                            _dovetail_choose, _combos, Ctx, OutcomeSet,
                            _guard_domain, _at)
from whilecc.lang import parse
from whilecc.lang.ast import (Var, Lit, App, Choose, Skip, Div, Assign, Seq,
                              If, While)
from whilecc.programs import load, real_array
from whilecc.signature import NAT


RN = get_algebra("RN")
RN_STAR = get_algebra("RN*")
N = get_algebra("N")


def term(src, algebra="RN", frame="", assign_to=("b", "bool")):
    """Parse a term by wrapping it in a one-assignment procedure."""
    name, sort = assign_to
    decl = f"in {frame}" if frame else ""
    p = parse(f"algebra {algebra}\nfunc t {decl} out {name}: {sort} "
              f"begin {name} := {src} end")
    return p.body.s2.rhs[0]


def state(**kw):
    return State(dict(kw))


# ---------------------------------------------------------------------------
# term semantics


def test_choose_enumerate_eq_nat():
    # brute force over 0..10 against the choose clause
    t = Choose("z", App(N.signature.symbol("eq_nat"), (Var("z", NAT), Lit(3, NAT))), NAT)
    expected = {n for n in range(11) if n == 3}
    out = eval_term(t, state(), N, Enumerate(10), Fuel(10_000))
    assert {v.n for v in out.values} == expected
    assert not out.maybe_divergent  # clean witness refutes divergence


def test_choose_false_guard_diverges():
    t = Choose("z", App(N.signature.symbol("false"), ()), NAT)
    for strat in (Enumerate(10), Dovetail()):
        out = eval_term(t, state(), N, strat, Fuel(500))
        assert out.values == [] and out.maybe_divergent


def test_if_term():
    t = term("if true then 1 else 2 fi", assign_to=("b", "nat"))
    out = eval_term(t, state(), RN, Enumerate(4), Fuel(100))
    assert [v.n for v in out.values] == [1]


def test_term_guard_divergence_propagates():
    t = term("if x = 0 then 1 else 2 fi", frame="x: real", assign_to=("b", "nat"))
    out = eval_term(t, state(x=rat_value(0)), RN, Enumerate(4), Fuel(50))
    assert out.maybe_divergent  # eq_real(0,0) never converges
    out2 = eval_term(t, state(x=rat_value(1)), RN, Enumerate(4), Fuel(1000))
    assert [v.n for v in out2.values] == [2] and not out2.maybe_divergent


def test_strict_application_propagates_bottom():
    # or(ff, eq_real(0,0)-not) has no value: strict argument evaluation
    t = term("false or (x <> 0)", frame="x: real")
    out = eval_term(t, state(x=rat_value(0)), RN, Enumerate(4), Fuel(200))
    assert out.values == [] and out.maybe_divergent


def test_short_circuit_conditional_recovers():
    t = term("false andthen (x <> 0)", frame="x: real")
    out = eval_term(t, state(x=rat_value(0)), RN, Enumerate(4), Fuel(200))
    assert [v.b for v in out.values] == [False] and not out.maybe_divergent


def test_strict_and_evaluates_every_argument():
    # a tie in the first argument does not stop the second being compared;
    # a tie of two exact constants is divergent, and makes no note
    t = term("(x < 0) and (y < 1)", frame="x: real, y: real")
    for y in (1, Fraction(1, 2)):
        fuel = Fuel(100)
        out = eval_term(t, state(x=rat_value(0), y=rat_value(y)), RN,
                        Enumerate(4), fuel)
        assert out.values == [] and out.proven_divergent and not out.truncated
        assert out.diagnostics == []
        assert fuel.remaining == 98  # both comparisons, no `and`
    fuel = Fuel(100)  # the deterministic path stops at the first failure
    eval_term(t, state(x=rat_value(0), y=rat_value(1)), RN, Dovetail(), fuel)
    assert fuel.remaining == 99


def test_inverting_zero_is_proven_divergent():
    t = term("dist(1 / x, y) < 1", frame="x: real, y: real")
    out = eval_term(t, state(x=rat_value(0), y=rat_value(0)), RN,
                    Enumerate(4), Fuel(100))
    assert out.values == [] and out.proven_divergent and not out.truncated
    assert out.diagnostics == []
    c = term("choose k : dist(1 / x, rat(k)) < 1", frame="x: real",
             assign_to=("i", "nat"))
    out = eval_term(c, state(x=rat_value(0)), RN, Enumerate(2), Fuel(100))
    assert out.values == [] and out.truncated and not out.proven_divergent
    assert out.diagnostics == [f"choose candidate {k}: divergent guard"
                               for k in range(3)]


def test_choose_in_choose_body_branches():
    t = term("choose z : z = (choose w : (w = 1) or (w = 3))",
             assign_to=("i", "nat"), algebra="N")
    out = eval_term(t, state(), N, Enumerate(5), Fuel(1000))
    # the inner choose is many-valued, so each witness guard is both tt and
    # ff: no clean witness refutes divergence
    assert [v.n for v in out.values] == [1, 3]
    assert out.truncated and not out.proven_divergent
    assert out.diagnostics == ["choose candidates 0..5 all rejected; "
                               "rest unexplored"]


# Every operand shape a strict application reads in place (a variable or a
# nat literal, beside another one or beside any other term), and terms whose
# failing operand, `inv(0)` giving DIV or a comparison giving FUEL_OUT on a
# 1-step budget, stands on either side. Enumerate evaluates both operands and
# records every failure, so its flags, notes and fuel differ from the other
# strategies' there. Rows recorded before operands were read in place; the
# two-literal and nullary-operand rows, before their closures were folded.
SHAPE_TERMS = {
    "n < k": "bool", "x + z": "real", "x < x": "bool", "w < x": "bool",
    "7 < n": "bool", "k = 1": "bool", "k < 2": "bool",
    "k < succ(n)": "bool", "succ(n) < k": "bool",
    "x + (z * x)": "real", "x + inv(y)": "real",
    "x + (if w < x then x else z fi)": "real",
    "(z * x) + x": "real", "inv(y) + x": "real",
    "(if w < x then x else z fi) + x": "real",
    "succ(n)": "nat", "inv(y)": "real", "x + 1/2": "real",
    "(if w < x then x else z fi) + inv(y)": "real",
    "inv(y) + (if w < x then x else z fi)": "real",
    "(if x < x then x else z fi) + inv(y)": "real",
    "choose j : (j = 2) andthen (x < nat2real(j))": "nat",
    "less_nat(2, 7)": "bool", "(k < 2) and true": "bool",
}
SHAPE_STRATEGIES = {"oracle": lambda: Oracle(1),
                    "dovetail": lambda: Dovetail(1),
                    "enumerate": lambda: Enumerate(4)}
SHAPE_ROWS = [
    ("n < k", "oracle", 1, ["ff"], False, False, [], 0),
    ("n < k", "oracle", 200, ["ff"], False, False, [], 199),
    ("n < k", "dovetail", 1, ["ff"], False, False, [], 0),
    ("n < k", "dovetail", 200, ["ff"], False, False, [], 199),
    ("n < k", "enumerate", 1, ["ff"], False, False, [], 0),
    ("n < k", "enumerate", 200, ["ff"], False, False, [], 199),
    ("x + z", "oracle", 1, ["RealV(-1/4)"], False, False, [], 0),
    ("x + z", "oracle", 200, ["RealV(-1/4)"], False, False, [], 199),
    ("x + z", "dovetail", 1, ["RealV(-1/4)"], False, False, [], 0),
    ("x + z", "dovetail", 200, ["RealV(-1/4)"], False, False, [], 199),
    ("x + z", "enumerate", 1, ["RealV(-1/4)"], False, False, [], 0),
    ("x + z", "enumerate", 200, ["RealV(-1/4)"], False, False, [], 199),
    ("x < x", "oracle", 1, [], True, False, [], 0),
    ("x < x", "oracle", 200, [], True, False, [], 199),
    ("x < x", "dovetail", 1, [], True, False, [], 0),
    ("x < x", "dovetail", 200, [], True, False, [], 199),
    ("x < x", "enumerate", 1, [], True, False, [], 0),
    ("x < x", "enumerate", 200, [], True, False, [], 199),
    ("w < x", "oracle", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x", "oracle", 200, ["ff"], False, False, [], 194),
    ("w < x", "dovetail", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x", "dovetail", 200, ["ff"], False, False, [], 194),
    ("w < x", "enumerate", 1, [], False, True, ["less_real: fuel exhausted"], 0),
    ("w < x", "enumerate", 200, ["ff"], False, False, [], 194),
    ("7 < n", "oracle", 1, ["ff"], False, False, [], 0),
    ("7 < n", "oracle", 200, ["ff"], False, False, [], 199),
    ("7 < n", "dovetail", 1, ["ff"], False, False, [], 0),
    ("7 < n", "dovetail", 200, ["ff"], False, False, [], 199),
    ("7 < n", "enumerate", 1, ["ff"], False, False, [], 0),
    ("7 < n", "enumerate", 200, ["ff"], False, False, [], 199),
    ("k = 1", "oracle", 1, ["tt"], False, False, [], 0),
    ("k = 1", "oracle", 200, ["tt"], False, False, [], 199),
    ("k = 1", "dovetail", 1, ["tt"], False, False, [], 0),
    ("k = 1", "dovetail", 200, ["tt"], False, False, [], 199),
    ("k = 1", "enumerate", 1, ["tt"], False, False, [], 0),
    ("k = 1", "enumerate", 200, ["tt"], False, False, [], 199),
    ("k < 2", "oracle", 1, ["tt"], False, False, [], 0),
    ("k < 2", "oracle", 200, ["tt"], False, False, [], 199),
    ("k < 2", "dovetail", 1, ["tt"], False, False, [], 0),
    ("k < 2", "dovetail", 200, ["tt"], False, False, [], 199),
    ("k < 2", "enumerate", 1, ["tt"], False, False, [], 0),
    ("k < 2", "enumerate", 200, ["tt"], False, False, [], 199),
    ("k < succ(n)", "oracle", 1, ["tt"], False, False, [], 0),
    ("k < succ(n)", "oracle", 200, ["tt"], False, False, [], 198),
    ("k < succ(n)", "dovetail", 1, ["tt"], False, False, [], 0),
    ("k < succ(n)", "dovetail", 200, ["tt"], False, False, [], 198),
    ("k < succ(n)", "enumerate", 1, ["tt"], False, False, [], 0),
    ("k < succ(n)", "enumerate", 200, ["tt"], False, False, [], 198),
    ("succ(n) < k", "oracle", 1, ["ff"], False, False, [], 0),
    ("succ(n) < k", "oracle", 200, ["ff"], False, False, [], 198),
    ("succ(n) < k", "dovetail", 1, ["ff"], False, False, [], 0),
    ("succ(n) < k", "dovetail", 200, ["ff"], False, False, [], 198),
    ("succ(n) < k", "enumerate", 1, ["ff"], False, False, [], 0),
    ("succ(n) < k", "enumerate", 200, ["ff"], False, False, [], 198),
    ("x + (z * x)", "oracle", 1, ["RealV(1/8)"], False, False, [], 0),
    ("x + (z * x)", "oracle", 200, ["RealV(1/8)"], False, False, [], 198),
    ("x + (z * x)", "dovetail", 1, ["RealV(1/8)"], False, False, [], 0),
    ("x + (z * x)", "dovetail", 200, ["RealV(1/8)"], False, False, [], 198),
    ("x + (z * x)", "enumerate", 1, ["RealV(1/8)"], False, False, [], 0),
    ("x + (z * x)", "enumerate", 200, ["RealV(1/8)"], False, False, [], 198),
    ("x + inv(y)", "oracle", 1, [], True, False, [], 1),
    ("x + inv(y)", "oracle", 200, [], True, False, [], 200),
    ("x + inv(y)", "dovetail", 1, [], True, False, [], 1),
    ("x + inv(y)", "dovetail", 200, [], True, False, [], 200),
    ("x + inv(y)", "enumerate", 1, [], True, False, [], 1),
    ("x + inv(y)", "enumerate", 200, [], True, False, [], 200),
    ("x + (if w < x then x else z fi)", "oracle", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("x + (if w < x then x else z fi)", "oracle", 200, ["RealV(-1/4)"], False, False, [], 193),
    ("x + (if w < x then x else z fi)", "dovetail", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("x + (if w < x then x else z fi)", "dovetail", 200, ["RealV(-1/4)"], False, False, [], 193),
    ("x + (if w < x then x else z fi)", "enumerate", 1, [], False, True, ["less_real: fuel exhausted"], 0),
    ("x + (if w < x then x else z fi)", "enumerate", 200, ["RealV(-1/4)"], False, False, [], 193),
    ("(z * x) + x", "oracle", 1, ["RealV(1/8)"], False, False, [], 0),
    ("(z * x) + x", "oracle", 200, ["RealV(1/8)"], False, False, [], 198),
    ("(z * x) + x", "dovetail", 1, ["RealV(1/8)"], False, False, [], 0),
    ("(z * x) + x", "dovetail", 200, ["RealV(1/8)"], False, False, [], 198),
    ("(z * x) + x", "enumerate", 1, ["RealV(1/8)"], False, False, [], 0),
    ("(z * x) + x", "enumerate", 200, ["RealV(1/8)"], False, False, [], 198),
    ("inv(y) + x", "oracle", 1, [], True, False, [], 1),
    ("inv(y) + x", "oracle", 200, [], True, False, [], 200),
    ("inv(y) + x", "dovetail", 1, [], True, False, [], 1),
    ("inv(y) + x", "dovetail", 200, [], True, False, [], 200),
    ("inv(y) + x", "enumerate", 1, [], True, False, [], 1),
    ("inv(y) + x", "enumerate", 200, [], True, False, [], 200),
    ("(if w < x then x else z fi) + x", "oracle", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("(if w < x then x else z fi) + x", "oracle", 200, ["RealV(-1/4)"], False, False, [], 193),
    ("(if w < x then x else z fi) + x", "dovetail", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("(if w < x then x else z fi) + x", "dovetail", 200, ["RealV(-1/4)"], False, False, [], 193),
    ("(if w < x then x else z fi) + x", "enumerate", 1, [], False, True, ["less_real: fuel exhausted"], 0),
    ("(if w < x then x else z fi) + x", "enumerate", 200, ["RealV(-1/4)"], False, False, [], 193),
    ("succ(n)", "oracle", 1, ["NatV(3)"], False, False, [], 0),
    ("succ(n)", "oracle", 200, ["NatV(3)"], False, False, [], 199),
    ("succ(n)", "dovetail", 1, ["NatV(3)"], False, False, [], 0),
    ("succ(n)", "dovetail", 200, ["NatV(3)"], False, False, [], 199),
    ("succ(n)", "enumerate", 1, ["NatV(3)"], False, False, [], 0),
    ("succ(n)", "enumerate", 200, ["NatV(3)"], False, False, [], 199),
    ("inv(y)", "oracle", 1, [], True, False, [], 1),
    ("inv(y)", "oracle", 200, [], True, False, [], 200),
    ("inv(y)", "dovetail", 1, [], True, False, [], 1),
    ("inv(y)", "dovetail", 200, [], True, False, [], 200),
    ("inv(y)", "enumerate", 1, [], True, False, [], 1),
    ("inv(y)", "enumerate", 200, [], True, False, [], 200),
    ("x + 1/2", "oracle", 1, ["RealV(1)"], False, False, [], 0),
    ("x + 1/2", "oracle", 200, ["RealV(1)"], False, False, [], 199),
    ("x + 1/2", "dovetail", 1, ["RealV(1)"], False, False, [], 0),
    ("x + 1/2", "dovetail", 200, ["RealV(1)"], False, False, [], 199),
    ("x + 1/2", "enumerate", 1, ["RealV(1)"], False, False, [], 0),
    ("x + 1/2", "enumerate", 200, ["RealV(1)"], False, False, [], 199),
    ("(if w < x then x else z fi) + inv(y)", "oracle", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("(if w < x then x else z fi) + inv(y)", "oracle", 200, [], True, False, [], 194),
    ("(if w < x then x else z fi) + inv(y)", "dovetail", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("(if w < x then x else z fi) + inv(y)", "dovetail", 200, [], True, False, [], 194),
    ("(if w < x then x else z fi) + inv(y)", "enumerate", 1, [], True, True, ["less_real: fuel exhausted"], 0),
    ("(if w < x then x else z fi) + inv(y)", "enumerate", 200, [], True, False, [], 194),
    ("inv(y) + (if w < x then x else z fi)", "oracle", 1, [], True, False, [], 1),
    ("inv(y) + (if w < x then x else z fi)", "oracle", 200, [], True, False, [], 200),
    ("inv(y) + (if w < x then x else z fi)", "dovetail", 1, [], True, False, [], 1),
    ("inv(y) + (if w < x then x else z fi)", "dovetail", 200, [], True, False, [], 200),
    ("inv(y) + (if w < x then x else z fi)", "enumerate", 1, [], True, True, ["less_real: fuel exhausted"], 0),
    ("inv(y) + (if w < x then x else z fi)", "enumerate", 200, [], True, False, [], 194),
    ("(if x < x then x else z fi) + inv(y)", "oracle", 1, [], True, False, [], 0),
    ("(if x < x then x else z fi) + inv(y)", "oracle", 200, [], True, False, [], 199),
    ("(if x < x then x else z fi) + inv(y)", "dovetail", 1, [], True, False, [], 0),
    ("(if x < x then x else z fi) + inv(y)", "dovetail", 200, [], True, False, [], 199),
    ("(if x < x then x else z fi) + inv(y)", "enumerate", 1, [], True, False, [], 0),
    ("(if x < x then x else z fi) + inv(y)", "enumerate", 200, [], True, False, [], 199),
    ("choose j : (j = 2) andthen (x < nat2real(j))", "oracle", 1, [], True, False, [], 0),
    ("choose j : (j = 2) andthen (x < nat2real(j))", "oracle", 200, [], True, False, [], 198),
    ("choose j : (j = 2) andthen (x < nat2real(j))", "dovetail", 1, ["NatV(2)"], False, False, [], 0),
    ("choose j : (j = 2) andthen (x < nat2real(j))", "dovetail", 200, ["NatV(2)"], False, False, [], 198),
    ("choose j : (j = 2) andthen (x < nat2real(j))", "enumerate", 1, ["NatV(2)"], False, False, [], 0),
    ("choose j : (j = 2) andthen (x < nat2real(j))", "enumerate", 200, ["NatV(2)"], False, False, [], 197),
    ("less_nat(2, 7)", "oracle", 1, ["tt"], False, False, [], 0),
    ("less_nat(2, 7)", "oracle", 200, ["tt"], False, False, [], 199),
    ("less_nat(2, 7)", "dovetail", 1, ["tt"], False, False, [], 0),
    ("less_nat(2, 7)", "dovetail", 200, ["tt"], False, False, [], 199),
    ("less_nat(2, 7)", "enumerate", 1, ["tt"], False, False, [], 0),
    ("less_nat(2, 7)", "enumerate", 200, ["tt"], False, False, [], 199),
    ("(k < 2) and true", "oracle", 1, ["tt"], False, False, [], 0),
    ("(k < 2) and true", "oracle", 200, ["tt"], False, False, [], 197),
    ("(k < 2) and true", "dovetail", 1, ["tt"], False, False, [], 0),
    ("(k < 2) and true", "dovetail", 200, ["tt"], False, False, [], 197),
    ("(k < 2) and true", "enumerate", 1, ["tt"], False, False, [], 0),
    ("(k < 2) and true", "enumerate", 200, ["tt"], False, False, [], 197),
]


@pytest.mark.parametrize("src, strategy, budget, values, div, truncated, "
                         "notes, left", SHAPE_ROWS)
def test_operand_shapes_evaluate_as_recorded(src, strategy, budget, values,
                                             div, truncated, notes, left):
    assert _shape_outcome(src, SHAPE_TERMS[src], strategy, budget) == (
        values, div, truncated, notes, left)


def _shape_outcome(src, sort, strategy, budget, star=False):
    """Values, both flags, diagnostics and fuel left of the term src of the
    given sort, on fixed bindings, under the strategy and budget. With star
    the term is over RN* and the bindings also hold xs = [1, 2, 3]."""
    frame = "n: nat, k: nat, x: real, y: real, z: real, w: real"
    sigma = state(n=NatV(2), k=NatV(1), x=rat_value(Fraction(1, 2)),
                  y=rat_value(0), z=rat_value(Fraction(-3, 4)),
                  w=RealV(sqrt_code(2)))
    if star:
        frame += ", xs: real*"
        sigma.bindings["xs"] = real_array([1, 2, 3])
    t = term(src, algebra="RN*" if star else "RN", frame=frame,
             assign_to=("o", sort))
    fuel = Fuel(budget)
    out = eval_term(t, sigma, RN_STAR if star else RN,
                    SHAPE_STRATEGIES[strategy](), fuel)
    return ([repr(v) for v in out.values], out.proven_divergent,
            out.truncated, out.diagnostics, fuel.remaining)


# Three-operand applications, which take the generic n-ary closure: Update
# on RN*, with operands that give DIV (inv(0)) or FUEL_OUT (a comparison
# with sqrt(2) on a 1-step budget) in either order. Oracle and Dovetail stop
# at the first failed operand; Enumerate evaluates all three and records
# every failure. Rows recorded before the two closure families were merged.
UPDATE_ROWS = [
    ("Update(xs, k, x)", "oracle", 1, ["ArrV(real, [RealV(1), RealV(1/2), RealV(3)])"], False, False, [], 0),
    ("Update(xs, k, x)", "oracle", 200, ["ArrV(real, [RealV(1), RealV(1/2), RealV(3)])"], False, False, [], 199),
    ("Update(xs, k, x)", "dovetail", 1, ["ArrV(real, [RealV(1), RealV(1/2), RealV(3)])"], False, False, [], 0),
    ("Update(xs, k, x)", "dovetail", 200, ["ArrV(real, [RealV(1), RealV(1/2), RealV(3)])"], False, False, [], 199),
    ("Update(xs, k, x)", "enumerate", 1, ["ArrV(real, [RealV(1), RealV(1/2), RealV(3)])"], False, False, [], 0),
    ("Update(xs, k, x)", "enumerate", 200, ["ArrV(real, [RealV(1), RealV(1/2), RealV(3)])"], False, False, [], 199),
    ("Update(xs, 0, 1/2)", "oracle", 1, ["ArrV(real, [RealV(1/2), RealV(2), RealV(3)])"], False, False, [], 0),
    ("Update(xs, 0, 1/2)", "oracle", 200, ["ArrV(real, [RealV(1/2), RealV(2), RealV(3)])"], False, False, [], 199),
    ("Update(xs, 0, 1/2)", "dovetail", 1, ["ArrV(real, [RealV(1/2), RealV(2), RealV(3)])"], False, False, [], 0),
    ("Update(xs, 0, 1/2)", "dovetail", 200, ["ArrV(real, [RealV(1/2), RealV(2), RealV(3)])"], False, False, [], 199),
    ("Update(xs, 0, 1/2)", "enumerate", 1, ["ArrV(real, [RealV(1/2), RealV(2), RealV(3)])"], False, False, [], 0),
    ("Update(xs, 0, 1/2)", "enumerate", 200, ["ArrV(real, [RealV(1/2), RealV(2), RealV(3)])"], False, False, [], 199),
    ("Update(xs, k, inv(y))", "oracle", 1, [], True, False, [], 1),
    ("Update(xs, k, inv(y))", "oracle", 200, [], True, False, [], 200),
    ("Update(xs, k, inv(y))", "dovetail", 1, [], True, False, [], 1),
    ("Update(xs, k, inv(y))", "dovetail", 200, [], True, False, [], 200),
    ("Update(xs, k, inv(y))", "enumerate", 1, [], True, False, [], 1),
    ("Update(xs, k, inv(y))", "enumerate", 200, [], True, False, [], 200),
    ("Update(xs, n, if w < x then x else z fi)", "oracle", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("Update(xs, n, if w < x then x else z fi)", "oracle", 200, ["ArrV(real, [RealV(1), RealV(2), RealV(-3/4)])"], False, False, [], 193),
    ("Update(xs, n, if w < x then x else z fi)", "dovetail", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("Update(xs, n, if w < x then x else z fi)", "dovetail", 200, ["ArrV(real, [RealV(1), RealV(2), RealV(-3/4)])"], False, False, [], 193),
    ("Update(xs, n, if w < x then x else z fi)", "enumerate", 1, [], False, True, ["less_real: fuel exhausted"], 0),
    ("Update(xs, n, if w < x then x else z fi)", "enumerate", 200, ["ArrV(real, [RealV(1), RealV(2), RealV(-3/4)])"], False, False, [], 193),
    ("Update(Update(xs, k, inv(y)), n, if w < x then x else z fi)", "oracle", 1, [], True, False, [], 1),
    ("Update(Update(xs, k, inv(y)), n, if w < x then x else z fi)", "oracle", 200, [], True, False, [], 200),
    ("Update(Update(xs, k, inv(y)), n, if w < x then x else z fi)", "dovetail", 1, [], True, False, [], 1),
    ("Update(Update(xs, k, inv(y)), n, if w < x then x else z fi)", "dovetail", 200, [], True, False, [], 200),
    ("Update(Update(xs, k, inv(y)), n, if w < x then x else z fi)", "enumerate", 1, [], True, True, ["less_real: fuel exhausted"], 0),
    ("Update(Update(xs, k, inv(y)), n, if w < x then x else z fi)", "enumerate", 200, [], True, False, [], 194),
    ("Update(Update(xs, n, if w < x then x else z fi), k, inv(y))", "oracle", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("Update(Update(xs, n, if w < x then x else z fi), k, inv(y))", "oracle", 200, [], True, False, [], 193),
    ("Update(Update(xs, n, if w < x then x else z fi), k, inv(y))", "dovetail", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("Update(Update(xs, n, if w < x then x else z fi), k, inv(y))", "dovetail", 200, [], True, False, [], 193),
    ("Update(Update(xs, n, if w < x then x else z fi), k, inv(y))", "enumerate", 1, [], True, True, ["less_real: fuel exhausted"], 0),
    ("Update(Update(xs, n, if w < x then x else z fi), k, inv(y))", "enumerate", 200, [], True, False, [], 193),
]


@pytest.mark.parametrize("src, strategy, budget, values, div, truncated, "
                         "notes, left", UPDATE_ROWS)
def test_three_operand_applications_evaluate_as_recorded(
        src, strategy, budget, values, div, truncated, notes, left):
    assert _shape_outcome(src, "real*", strategy, budget, star=True) == (
        values, div, truncated, notes, left)


# Conditionals in every form the compiler tells apart: andthen and orelse
# (a constant false or true branch), if ... fi with constant and
# non-constant branches, and guards in the shapes "vv", "cv", "vc" and "t",
# some giving DIV (inv(0)) or FUEL_OUT (a comparison with sqrt(2)), inside
# a choose too. Recorded values; at budget 0 a constant branch still returns
# its value, since the nullary rules ignore what fuel.take() says.
COND_TERMS = {
    "n < k andthen x < z": "bool",
    "k < n andthen w < x": "bool",
    "x < z andthen k < n": "bool",
    "w < x andthen k < n": "bool",
    "7 < n andthen x < z": "bool",
    "1 < n andthen z < x": "bool",
    "k = 1 andthen n < 3": "bool",
    "n = 1 andthen inv(y) < x": "bool",
    "k = 1 andthen inv(y) < x": "bool",
    "n < k orelse x < z": "bool",
    "x < x orelse k = 1": "bool",
    "1 < n orelse w < x": "bool",
    "n = 1 orelse w < x": "bool",
    "k = 1 orelse inv(y) < x": "bool",
    "succ(n) < k orelse k = 1": "bool",
    "inv(y) < x andthen k = 1": "bool",
    "w < x orelse k = 1": "bool",
    "(k = 1 andthen n < 3) orelse w < x": "bool",
    "(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)": "bool",
    "if n < k then x else z fi": "real",
    "if 1 < n then x + z else inv(y) fi": "real",
    "if k = 1 then true else false fi": "bool",
    "if w < x then false else k < n fi": "bool",
    "if inv(y) < x then true else false fi": "bool",
    "choose j : (1 < j) andthen (j < 4)": "nat",
    "choose j : (1 < j) andthen (j < 5000)": "nat",
}
COND_ROWS = [
    ("n < k andthen x < z", "oracle", 0, ["ff"], False, False, [], 0),
    ("n < k andthen x < z", "oracle", 1, ["ff"], False, False, [], 0),
    ("n < k andthen x < z", "oracle", 2, ["ff"], False, False, [], 0),
    ("n < k andthen x < z", "oracle", 200, ["ff"], False, False, [], 198),
    ("n < k andthen x < z", "dovetail", 0, ["ff"], False, False, [], 0),
    ("n < k andthen x < z", "dovetail", 1, ["ff"], False, False, [], 0),
    ("n < k andthen x < z", "dovetail", 2, ["ff"], False, False, [], 0),
    ("n < k andthen x < z", "dovetail", 200, ["ff"], False, False, [], 198),
    ("n < k andthen x < z", "enumerate", 0, ["ff"], False, False, [], 0),
    ("n < k andthen x < z", "enumerate", 1, ["ff"], False, False, [], 0),
    ("n < k andthen x < z", "enumerate", 2, ["ff"], False, False, [], 0),
    ("n < k andthen x < z", "enumerate", 200, ["ff"], False, False, [], 198),
    ("k < n andthen w < x", "oracle", 0, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("k < n andthen w < x", "oracle", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("k < n andthen w < x", "oracle", 2, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("k < n andthen w < x", "oracle", 200, ["ff"], False, False, [], 193),
    ("k < n andthen w < x", "dovetail", 0, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("k < n andthen w < x", "dovetail", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("k < n andthen w < x", "dovetail", 2, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("k < n andthen w < x", "dovetail", 200, ["ff"], False, False, [], 193),
    ("k < n andthen w < x", "enumerate", 0, [], False, True, ["less_real: fuel exhausted"], 0),
    ("k < n andthen w < x", "enumerate", 1, [], False, True, ["less_real: fuel exhausted"], 0),
    ("k < n andthen w < x", "enumerate", 2, [], False, True, ["less_real: fuel exhausted"], 0),
    ("k < n andthen w < x", "enumerate", 200, ["ff"], False, False, [], 193),
    ("x < z andthen k < n", "oracle", 0, ["ff"], False, False, [], 0),
    ("x < z andthen k < n", "oracle", 1, ["ff"], False, False, [], 0),
    ("x < z andthen k < n", "oracle", 2, ["ff"], False, False, [], 0),
    ("x < z andthen k < n", "oracle", 200, ["ff"], False, False, [], 198),
    ("x < z andthen k < n", "dovetail", 0, ["ff"], False, False, [], 0),
    ("x < z andthen k < n", "dovetail", 1, ["ff"], False, False, [], 0),
    ("x < z andthen k < n", "dovetail", 2, ["ff"], False, False, [], 0),
    ("x < z andthen k < n", "dovetail", 200, ["ff"], False, False, [], 198),
    ("x < z andthen k < n", "enumerate", 0, ["ff"], False, False, [], 0),
    ("x < z andthen k < n", "enumerate", 1, ["ff"], False, False, [], 0),
    ("x < z andthen k < n", "enumerate", 2, ["ff"], False, False, [], 0),
    ("x < z andthen k < n", "enumerate", 200, ["ff"], False, False, [], 198),
    ("w < x andthen k < n", "oracle", 0, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x andthen k < n", "oracle", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x andthen k < n", "oracle", 2, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x andthen k < n", "oracle", 200, ["ff"], False, False, [], 193),
    ("w < x andthen k < n", "dovetail", 0, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x andthen k < n", "dovetail", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x andthen k < n", "dovetail", 2, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x andthen k < n", "dovetail", 200, ["ff"], False, False, [], 193),
    ("w < x andthen k < n", "enumerate", 0, [], False, True, ["less_real: fuel exhausted"], 0),
    ("w < x andthen k < n", "enumerate", 1, [], False, True, ["less_real: fuel exhausted"], 0),
    ("w < x andthen k < n", "enumerate", 2, [], False, True, ["less_real: fuel exhausted"], 0),
    ("w < x andthen k < n", "enumerate", 200, ["ff"], False, False, [], 193),
    ("7 < n andthen x < z", "oracle", 0, ["ff"], False, False, [], 0),
    ("7 < n andthen x < z", "oracle", 1, ["ff"], False, False, [], 0),
    ("7 < n andthen x < z", "oracle", 2, ["ff"], False, False, [], 0),
    ("7 < n andthen x < z", "oracle", 200, ["ff"], False, False, [], 198),
    ("7 < n andthen x < z", "dovetail", 0, ["ff"], False, False, [], 0),
    ("7 < n andthen x < z", "dovetail", 1, ["ff"], False, False, [], 0),
    ("7 < n andthen x < z", "dovetail", 2, ["ff"], False, False, [], 0),
    ("7 < n andthen x < z", "dovetail", 200, ["ff"], False, False, [], 198),
    ("7 < n andthen x < z", "enumerate", 0, ["ff"], False, False, [], 0),
    ("7 < n andthen x < z", "enumerate", 1, ["ff"], False, False, [], 0),
    ("7 < n andthen x < z", "enumerate", 2, ["ff"], False, False, [], 0),
    ("7 < n andthen x < z", "enumerate", 200, ["ff"], False, False, [], 198),
    ("1 < n andthen z < x", "oracle", 0, ["tt"], False, False, [], 0),
    ("1 < n andthen z < x", "oracle", 1, ["tt"], False, False, [], 0),
    ("1 < n andthen z < x", "oracle", 2, ["tt"], False, False, [], 0),
    ("1 < n andthen z < x", "oracle", 200, ["tt"], False, False, [], 198),
    ("1 < n andthen z < x", "dovetail", 0, ["tt"], False, False, [], 0),
    ("1 < n andthen z < x", "dovetail", 1, ["tt"], False, False, [], 0),
    ("1 < n andthen z < x", "dovetail", 2, ["tt"], False, False, [], 0),
    ("1 < n andthen z < x", "dovetail", 200, ["tt"], False, False, [], 198),
    ("1 < n andthen z < x", "enumerate", 0, ["tt"], False, False, [], 0),
    ("1 < n andthen z < x", "enumerate", 1, ["tt"], False, False, [], 0),
    ("1 < n andthen z < x", "enumerate", 2, ["tt"], False, False, [], 0),
    ("1 < n andthen z < x", "enumerate", 200, ["tt"], False, False, [], 198),
    ("k = 1 andthen n < 3", "oracle", 0, ["tt"], False, False, [], 0),
    ("k = 1 andthen n < 3", "oracle", 1, ["tt"], False, False, [], 0),
    ("k = 1 andthen n < 3", "oracle", 2, ["tt"], False, False, [], 0),
    ("k = 1 andthen n < 3", "oracle", 200, ["tt"], False, False, [], 198),
    ("k = 1 andthen n < 3", "dovetail", 0, ["tt"], False, False, [], 0),
    ("k = 1 andthen n < 3", "dovetail", 1, ["tt"], False, False, [], 0),
    ("k = 1 andthen n < 3", "dovetail", 2, ["tt"], False, False, [], 0),
    ("k = 1 andthen n < 3", "dovetail", 200, ["tt"], False, False, [], 198),
    ("k = 1 andthen n < 3", "enumerate", 0, ["tt"], False, False, [], 0),
    ("k = 1 andthen n < 3", "enumerate", 1, ["tt"], False, False, [], 0),
    ("k = 1 andthen n < 3", "enumerate", 2, ["tt"], False, False, [], 0),
    ("k = 1 andthen n < 3", "enumerate", 200, ["tt"], False, False, [], 198),
    ("n = 1 andthen inv(y) < x", "oracle", 0, ["ff"], False, False, [], 0),
    ("n = 1 andthen inv(y) < x", "oracle", 1, ["ff"], False, False, [], 0),
    ("n = 1 andthen inv(y) < x", "oracle", 2, ["ff"], False, False, [], 0),
    ("n = 1 andthen inv(y) < x", "oracle", 200, ["ff"], False, False, [], 198),
    ("n = 1 andthen inv(y) < x", "dovetail", 0, ["ff"], False, False, [], 0),
    ("n = 1 andthen inv(y) < x", "dovetail", 1, ["ff"], False, False, [], 0),
    ("n = 1 andthen inv(y) < x", "dovetail", 2, ["ff"], False, False, [], 0),
    ("n = 1 andthen inv(y) < x", "dovetail", 200, ["ff"], False, False, [], 198),
    ("n = 1 andthen inv(y) < x", "enumerate", 0, ["ff"], False, False, [], 0),
    ("n = 1 andthen inv(y) < x", "enumerate", 1, ["ff"], False, False, [], 0),
    ("n = 1 andthen inv(y) < x", "enumerate", 2, ["ff"], False, False, [], 0),
    ("n = 1 andthen inv(y) < x", "enumerate", 200, ["ff"], False, False, [], 198),
    ("k = 1 andthen inv(y) < x", "oracle", 0, [], True, False, [], 0),
    ("k = 1 andthen inv(y) < x", "oracle", 1, [], True, False, [], 0),
    ("k = 1 andthen inv(y) < x", "oracle", 2, [], True, False, [], 1),
    ("k = 1 andthen inv(y) < x", "oracle", 200, [], True, False, [], 199),
    ("k = 1 andthen inv(y) < x", "dovetail", 0, [], True, False, [], 0),
    ("k = 1 andthen inv(y) < x", "dovetail", 1, [], True, False, [], 0),
    ("k = 1 andthen inv(y) < x", "dovetail", 2, [], True, False, [], 1),
    ("k = 1 andthen inv(y) < x", "dovetail", 200, [], True, False, [], 199),
    ("k = 1 andthen inv(y) < x", "enumerate", 0, [], True, False, [], 0),
    ("k = 1 andthen inv(y) < x", "enumerate", 1, [], True, False, [], 0),
    ("k = 1 andthen inv(y) < x", "enumerate", 2, [], True, False, [], 1),
    ("k = 1 andthen inv(y) < x", "enumerate", 200, [], True, False, [], 199),
    ("n < k orelse x < z", "oracle", 0, ["ff"], False, False, [], 0),
    ("n < k orelse x < z", "oracle", 1, ["ff"], False, False, [], 0),
    ("n < k orelse x < z", "oracle", 2, ["ff"], False, False, [], 0),
    ("n < k orelse x < z", "oracle", 200, ["ff"], False, False, [], 198),
    ("n < k orelse x < z", "dovetail", 0, ["ff"], False, False, [], 0),
    ("n < k orelse x < z", "dovetail", 1, ["ff"], False, False, [], 0),
    ("n < k orelse x < z", "dovetail", 2, ["ff"], False, False, [], 0),
    ("n < k orelse x < z", "dovetail", 200, ["ff"], False, False, [], 198),
    ("n < k orelse x < z", "enumerate", 0, ["ff"], False, False, [], 0),
    ("n < k orelse x < z", "enumerate", 1, ["ff"], False, False, [], 0),
    ("n < k orelse x < z", "enumerate", 2, ["ff"], False, False, [], 0),
    ("n < k orelse x < z", "enumerate", 200, ["ff"], False, False, [], 198),
    ("x < x orelse k = 1", "oracle", 0, [], True, False, [], 0),
    ("x < x orelse k = 1", "oracle", 1, [], True, False, [], 0),
    ("x < x orelse k = 1", "oracle", 2, [], True, False, [], 1),
    ("x < x orelse k = 1", "oracle", 200, [], True, False, [], 199),
    ("x < x orelse k = 1", "dovetail", 0, [], True, False, [], 0),
    ("x < x orelse k = 1", "dovetail", 1, [], True, False, [], 0),
    ("x < x orelse k = 1", "dovetail", 2, [], True, False, [], 1),
    ("x < x orelse k = 1", "dovetail", 200, [], True, False, [], 199),
    ("x < x orelse k = 1", "enumerate", 0, [], True, False, [], 0),
    ("x < x orelse k = 1", "enumerate", 1, [], True, False, [], 0),
    ("x < x orelse k = 1", "enumerate", 2, [], True, False, [], 1),
    ("x < x orelse k = 1", "enumerate", 200, [], True, False, [], 199),
    ("1 < n orelse w < x", "oracle", 0, ["tt"], False, False, [], 0),
    ("1 < n orelse w < x", "oracle", 1, ["tt"], False, False, [], 0),
    ("1 < n orelse w < x", "oracle", 2, ["tt"], False, False, [], 0),
    ("1 < n orelse w < x", "oracle", 200, ["tt"], False, False, [], 198),
    ("1 < n orelse w < x", "dovetail", 0, ["tt"], False, False, [], 0),
    ("1 < n orelse w < x", "dovetail", 1, ["tt"], False, False, [], 0),
    ("1 < n orelse w < x", "dovetail", 2, ["tt"], False, False, [], 0),
    ("1 < n orelse w < x", "dovetail", 200, ["tt"], False, False, [], 198),
    ("1 < n orelse w < x", "enumerate", 0, ["tt"], False, False, [], 0),
    ("1 < n orelse w < x", "enumerate", 1, ["tt"], False, False, [], 0),
    ("1 < n orelse w < x", "enumerate", 2, ["tt"], False, False, [], 0),
    ("1 < n orelse w < x", "enumerate", 200, ["tt"], False, False, [], 198),
    ("n = 1 orelse w < x", "oracle", 0, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("n = 1 orelse w < x", "oracle", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("n = 1 orelse w < x", "oracle", 2, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("n = 1 orelse w < x", "oracle", 200, ["ff"], False, False, [], 193),
    ("n = 1 orelse w < x", "dovetail", 0, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("n = 1 orelse w < x", "dovetail", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("n = 1 orelse w < x", "dovetail", 2, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("n = 1 orelse w < x", "dovetail", 200, ["ff"], False, False, [], 193),
    ("n = 1 orelse w < x", "enumerate", 0, [], False, True, ["less_real: fuel exhausted"], 0),
    ("n = 1 orelse w < x", "enumerate", 1, [], False, True, ["less_real: fuel exhausted"], 0),
    ("n = 1 orelse w < x", "enumerate", 2, [], False, True, ["less_real: fuel exhausted"], 0),
    ("n = 1 orelse w < x", "enumerate", 200, ["ff"], False, False, [], 193),
    ("k = 1 orelse inv(y) < x", "oracle", 0, ["tt"], False, False, [], 0),
    ("k = 1 orelse inv(y) < x", "oracle", 1, ["tt"], False, False, [], 0),
    ("k = 1 orelse inv(y) < x", "oracle", 2, ["tt"], False, False, [], 0),
    ("k = 1 orelse inv(y) < x", "oracle", 200, ["tt"], False, False, [], 198),
    ("k = 1 orelse inv(y) < x", "dovetail", 0, ["tt"], False, False, [], 0),
    ("k = 1 orelse inv(y) < x", "dovetail", 1, ["tt"], False, False, [], 0),
    ("k = 1 orelse inv(y) < x", "dovetail", 2, ["tt"], False, False, [], 0),
    ("k = 1 orelse inv(y) < x", "dovetail", 200, ["tt"], False, False, [], 198),
    ("k = 1 orelse inv(y) < x", "enumerate", 0, ["tt"], False, False, [], 0),
    ("k = 1 orelse inv(y) < x", "enumerate", 1, ["tt"], False, False, [], 0),
    ("k = 1 orelse inv(y) < x", "enumerate", 2, ["tt"], False, False, [], 0),
    ("k = 1 orelse inv(y) < x", "enumerate", 200, ["tt"], False, False, [], 198),
    ("succ(n) < k orelse k = 1", "oracle", 0, ["tt"], False, False, [], 0),
    ("succ(n) < k orelse k = 1", "oracle", 1, ["tt"], False, False, [], 0),
    ("succ(n) < k orelse k = 1", "oracle", 2, ["tt"], False, False, [], 0),
    ("succ(n) < k orelse k = 1", "oracle", 200, ["tt"], False, False, [], 197),
    ("succ(n) < k orelse k = 1", "dovetail", 0, ["tt"], False, False, [], 0),
    ("succ(n) < k orelse k = 1", "dovetail", 1, ["tt"], False, False, [], 0),
    ("succ(n) < k orelse k = 1", "dovetail", 2, ["tt"], False, False, [], 0),
    ("succ(n) < k orelse k = 1", "dovetail", 200, ["tt"], False, False, [], 197),
    ("succ(n) < k orelse k = 1", "enumerate", 0, ["tt"], False, False, [], 0),
    ("succ(n) < k orelse k = 1", "enumerate", 1, ["tt"], False, False, [], 0),
    ("succ(n) < k orelse k = 1", "enumerate", 2, ["tt"], False, False, [], 0),
    ("succ(n) < k orelse k = 1", "enumerate", 200, ["tt"], False, False, [], 197),
    ("inv(y) < x andthen k = 1", "oracle", 0, [], True, False, [], 0),
    ("inv(y) < x andthen k = 1", "oracle", 1, [], True, False, [], 1),
    ("inv(y) < x andthen k = 1", "oracle", 2, [], True, False, [], 2),
    ("inv(y) < x andthen k = 1", "oracle", 200, [], True, False, [], 200),
    ("inv(y) < x andthen k = 1", "dovetail", 0, [], True, False, [], 0),
    ("inv(y) < x andthen k = 1", "dovetail", 1, [], True, False, [], 1),
    ("inv(y) < x andthen k = 1", "dovetail", 2, [], True, False, [], 2),
    ("inv(y) < x andthen k = 1", "dovetail", 200, [], True, False, [], 200),
    ("inv(y) < x andthen k = 1", "enumerate", 0, [], True, False, [], 0),
    ("inv(y) < x andthen k = 1", "enumerate", 1, [], True, False, [], 1),
    ("inv(y) < x andthen k = 1", "enumerate", 2, [], True, False, [], 2),
    ("inv(y) < x andthen k = 1", "enumerate", 200, [], True, False, [], 200),
    ("w < x orelse k = 1", "oracle", 0, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x orelse k = 1", "oracle", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x orelse k = 1", "oracle", 2, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x orelse k = 1", "oracle", 200, ["tt"], False, False, [], 193),
    ("w < x orelse k = 1", "dovetail", 0, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x orelse k = 1", "dovetail", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x orelse k = 1", "dovetail", 2, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("w < x orelse k = 1", "dovetail", 200, ["tt"], False, False, [], 193),
    ("w < x orelse k = 1", "enumerate", 0, [], False, True, ["less_real: fuel exhausted"], 0),
    ("w < x orelse k = 1", "enumerate", 1, [], False, True, ["less_real: fuel exhausted"], 0),
    ("w < x orelse k = 1", "enumerate", 2, [], False, True, ["less_real: fuel exhausted"], 0),
    ("w < x orelse k = 1", "enumerate", 200, ["tt"], False, False, [], 193),
    ("(k = 1 andthen n < 3) orelse w < x", "oracle", 0, ["tt"], False, False, [], 0),
    ("(k = 1 andthen n < 3) orelse w < x", "oracle", 1, ["tt"], False, False, [], 0),
    ("(k = 1 andthen n < 3) orelse w < x", "oracle", 2, ["tt"], False, False, [], 0),
    ("(k = 1 andthen n < 3) orelse w < x", "oracle", 200, ["tt"], False, False, [], 197),
    ("(k = 1 andthen n < 3) orelse w < x", "dovetail", 0, ["tt"], False, False, [], 0),
    ("(k = 1 andthen n < 3) orelse w < x", "dovetail", 1, ["tt"], False, False, [], 0),
    ("(k = 1 andthen n < 3) orelse w < x", "dovetail", 2, ["tt"], False, False, [], 0),
    ("(k = 1 andthen n < 3) orelse w < x", "dovetail", 200, ["tt"], False, False, [], 197),
    ("(k = 1 andthen n < 3) orelse w < x", "enumerate", 0, ["tt"], False, False, [], 0),
    ("(k = 1 andthen n < 3) orelse w < x", "enumerate", 1, ["tt"], False, False, [], 0),
    ("(k = 1 andthen n < 3) orelse w < x", "enumerate", 2, ["tt"], False, False, [], 0),
    ("(k = 1 andthen n < 3) orelse w < x", "enumerate", 200, ["tt"], False, False, [], 197),
    ("(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)", "oracle", 0, ["ff"], False, False, [], 0),
    ("(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)", "oracle", 1, ["ff"], False, False, [], 0),
    ("(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)", "oracle", 2, ["ff"], False, False, [], 0),
    ("(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)", "oracle", 200, ["ff"], False, False, [], 196),
    ("(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)", "dovetail", 0, ["ff"], False, False, [], 0),
    ("(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)", "dovetail", 1, ["ff"], False, False, [], 0),
    ("(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)", "dovetail", 2, ["ff"], False, False, [], 0),
    ("(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)", "dovetail", 200, ["ff"], False, False, [], 196),
    ("(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)", "enumerate", 0, ["ff"], False, False, [], 0),
    ("(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)", "enumerate", 1, ["ff"], False, False, [], 0),
    ("(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)", "enumerate", 2, ["ff"], False, False, [], 0),
    ("(n = 1 andthen k = 1) orelse (k = 1 andthen x < z)", "enumerate", 200, ["ff"], False, False, [], 196),
    ("if n < k then x else z fi", "oracle", 0, ["RealV(-3/4)"], False, False, [], 0),
    ("if n < k then x else z fi", "oracle", 1, ["RealV(-3/4)"], False, False, [], 0),
    ("if n < k then x else z fi", "oracle", 2, ["RealV(-3/4)"], False, False, [], 1),
    ("if n < k then x else z fi", "oracle", 200, ["RealV(-3/4)"], False, False, [], 199),
    ("if n < k then x else z fi", "dovetail", 0, ["RealV(-3/4)"], False, False, [], 0),
    ("if n < k then x else z fi", "dovetail", 1, ["RealV(-3/4)"], False, False, [], 0),
    ("if n < k then x else z fi", "dovetail", 2, ["RealV(-3/4)"], False, False, [], 1),
    ("if n < k then x else z fi", "dovetail", 200, ["RealV(-3/4)"], False, False, [], 199),
    ("if n < k then x else z fi", "enumerate", 0, ["RealV(-3/4)"], False, False, [], 0),
    ("if n < k then x else z fi", "enumerate", 1, ["RealV(-3/4)"], False, False, [], 0),
    ("if n < k then x else z fi", "enumerate", 2, ["RealV(-3/4)"], False, False, [], 1),
    ("if n < k then x else z fi", "enumerate", 200, ["RealV(-3/4)"], False, False, [], 199),
    ("if 1 < n then x + z else inv(y) fi", "oracle", 0, ["RealV(-1/4)"], False, False, [], 0),
    ("if 1 < n then x + z else inv(y) fi", "oracle", 1, ["RealV(-1/4)"], False, False, [], 0),
    ("if 1 < n then x + z else inv(y) fi", "oracle", 2, ["RealV(-1/4)"], False, False, [], 0),
    ("if 1 < n then x + z else inv(y) fi", "oracle", 200, ["RealV(-1/4)"], False, False, [], 198),
    ("if 1 < n then x + z else inv(y) fi", "dovetail", 0, ["RealV(-1/4)"], False, False, [], 0),
    ("if 1 < n then x + z else inv(y) fi", "dovetail", 1, ["RealV(-1/4)"], False, False, [], 0),
    ("if 1 < n then x + z else inv(y) fi", "dovetail", 2, ["RealV(-1/4)"], False, False, [], 0),
    ("if 1 < n then x + z else inv(y) fi", "dovetail", 200, ["RealV(-1/4)"], False, False, [], 198),
    ("if 1 < n then x + z else inv(y) fi", "enumerate", 0, ["RealV(-1/4)"], False, False, [], 0),
    ("if 1 < n then x + z else inv(y) fi", "enumerate", 1, ["RealV(-1/4)"], False, False, [], 0),
    ("if 1 < n then x + z else inv(y) fi", "enumerate", 2, ["RealV(-1/4)"], False, False, [], 0),
    ("if 1 < n then x + z else inv(y) fi", "enumerate", 200, ["RealV(-1/4)"], False, False, [], 198),
    ("if k = 1 then true else false fi", "oracle", 0, ["tt"], False, False, [], 0),
    ("if k = 1 then true else false fi", "oracle", 1, ["tt"], False, False, [], 0),
    ("if k = 1 then true else false fi", "oracle", 2, ["tt"], False, False, [], 0),
    ("if k = 1 then true else false fi", "oracle", 200, ["tt"], False, False, [], 198),
    ("if k = 1 then true else false fi", "dovetail", 0, ["tt"], False, False, [], 0),
    ("if k = 1 then true else false fi", "dovetail", 1, ["tt"], False, False, [], 0),
    ("if k = 1 then true else false fi", "dovetail", 2, ["tt"], False, False, [], 0),
    ("if k = 1 then true else false fi", "dovetail", 200, ["tt"], False, False, [], 198),
    ("if k = 1 then true else false fi", "enumerate", 0, ["tt"], False, False, [], 0),
    ("if k = 1 then true else false fi", "enumerate", 1, ["tt"], False, False, [], 0),
    ("if k = 1 then true else false fi", "enumerate", 2, ["tt"], False, False, [], 0),
    ("if k = 1 then true else false fi", "enumerate", 200, ["tt"], False, False, [], 198),
    ("if w < x then false else k < n fi", "oracle", 0, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("if w < x then false else k < n fi", "oracle", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("if w < x then false else k < n fi", "oracle", 2, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("if w < x then false else k < n fi", "oracle", 200, ["tt"], False, False, [], 193),
    ("if w < x then false else k < n fi", "dovetail", 0, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("if w < x then false else k < n fi", "dovetail", 1, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("if w < x then false else k < n fi", "dovetail", 2, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("if w < x then false else k < n fi", "dovetail", 200, ["tt"], False, False, [], 193),
    ("if w < x then false else k < n fi", "enumerate", 0, [], False, True, ["less_real: fuel exhausted"], 0),
    ("if w < x then false else k < n fi", "enumerate", 1, [], False, True, ["less_real: fuel exhausted"], 0),
    ("if w < x then false else k < n fi", "enumerate", 2, [], False, True, ["less_real: fuel exhausted"], 0),
    ("if w < x then false else k < n fi", "enumerate", 200, ["tt"], False, False, [], 193),
    ("if inv(y) < x then true else false fi", "oracle", 0, [], True, False, [], 0),
    ("if inv(y) < x then true else false fi", "oracle", 1, [], True, False, [], 1),
    ("if inv(y) < x then true else false fi", "oracle", 2, [], True, False, [], 2),
    ("if inv(y) < x then true else false fi", "oracle", 200, [], True, False, [], 200),
    ("if inv(y) < x then true else false fi", "dovetail", 0, [], True, False, [], 0),
    ("if inv(y) < x then true else false fi", "dovetail", 1, [], True, False, [], 1),
    ("if inv(y) < x then true else false fi", "dovetail", 2, [], True, False, [], 2),
    ("if inv(y) < x then true else false fi", "dovetail", 200, [], True, False, [], 200),
    ("if inv(y) < x then true else false fi", "enumerate", 0, [], True, False, [], 0),
    ("if inv(y) < x then true else false fi", "enumerate", 1, [], True, False, [], 1),
    ("if inv(y) < x then true else false fi", "enumerate", 2, [], True, False, [], 2),
    ("if inv(y) < x then true else false fi", "enumerate", 200, [], True, False, [], 200),
    ("choose j : (1 < j) andthen (j < 4)", "oracle", 0, [], True, False, [], 0),
    ("choose j : (1 < j) andthen (j < 4)", "oracle", 1, [], True, False, [], 0),
    ("choose j : (1 < j) andthen (j < 4)", "oracle", 2, [], True, False, [], 0),
    ("choose j : (1 < j) andthen (j < 4)", "oracle", 200, [], True, False, [], 198),
    ("choose j : (1 < j) andthen (j < 4)", "dovetail", 0, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("choose j : (1 < j) andthen (j < 4)", "dovetail", 1, ["NatV(3)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 4)", "dovetail", 2, ["NatV(3)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 4)", "dovetail", 200, ["NatV(3)"], False, False, [], 198),
    ("choose j : (1 < j) andthen (j < 4)", "enumerate", 0, ["NatV(2)", "NatV(3)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 4)", "enumerate", 1, ["NatV(2)", "NatV(3)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 4)", "enumerate", 2, ["NatV(2)", "NatV(3)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 4)", "enumerate", 200, ["NatV(2)", "NatV(3)"], False, False, [], 196),
    ("choose j : (1 < j) andthen (j < 5000)", "oracle", 0, ["NatV(5)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 5000)", "oracle", 1, ["NatV(5)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 5000)", "oracle", 2, ["NatV(5)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 5000)", "oracle", 200, ["NatV(5)"], False, False, [], 198),
    ("choose j : (1 < j) andthen (j < 5000)", "dovetail", 0, [], False, True, ["term evaluation: fuel exhausted"], 0),
    ("choose j : (1 < j) andthen (j < 5000)", "dovetail", 1, ["NatV(2274)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 5000)", "dovetail", 2, ["NatV(2274)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 5000)", "dovetail", 200, ["NatV(2274)"], False, False, [], 198),
    ("choose j : (1 < j) andthen (j < 5000)", "enumerate", 0, ["NatV(2)", "NatV(3)", "NatV(4)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 5000)", "enumerate", 1, ["NatV(2)", "NatV(3)", "NatV(4)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 5000)", "enumerate", 2, ["NatV(2)", "NatV(3)", "NatV(4)"], False, False, [], 0),
    ("choose j : (1 < j) andthen (j < 5000)", "enumerate", 200, ["NatV(2)", "NatV(3)", "NatV(4)"], False, False, [], 194),
]


@pytest.mark.parametrize("src, strategy, budget, values, div, truncated, "
                         "notes, left", COND_ROWS)
def test_conditional_shapes_evaluate_as_recorded(src, strategy, budget, values,
                                                 div, truncated, notes, left):
    assert _shape_outcome(src, COND_TERMS[src], strategy, budget) == (
        values, div, truncated, notes, left)


# Recorded values: a guard's budget is carved out of the caller's and the
# rest repaid, so the caller is charged exactly the steps the stages and the
# guards took, also when a guard nests a second choose.
@pytest.mark.parametrize("seed, budget, values, left", [
    (None, 300, [15], 30), (None, 100_000, [15], 99_730),
    (3, 100, [], 0), (3, 300, [6090], 189), (3, 100_000, [6090], 99_889)])
def test_dovetail_guard_nesting_a_choose_spends_as_recorded(seed, budget,
                                                            values, left):
    t = term("choose k : dist(rat(k), rat(choose j : rat(j) > x)) < 1/4",
             frame="x: real", assign_to=("i", "nat"))
    fuel = Fuel(budget)
    out = eval_term(t, state(x=rat_value(Fraction(1, 2))), RN, Dovetail(seed),
                    fuel)
    assert [v.n for v in out.values] == values
    assert out.maybe_divergent == (not values) and fuel.remaining == left


def test_a_raising_guard_charges_its_caller_only_the_steps_taken():
    # every guard drains its stage budget, and the guard of candidate 4
    # then raises. Stages 0..4 take a step each, and their guards take
    # 1 + (2 + 2) + (3 + 3 + 3) + 4 + 5 = 23 steps (candidate 0 is retried at
    # stages 1 and 2, candidate 1 at stage 2): 28 in all, as recorded
    class Boom(Exception):
        pass

    def guard(b, fuel, out):
        while fuel.take():
            pass
        if b["z"].n == 4:
            raise Boom
        return FUEL_OUT

    fuel = Fuel(1000)
    with pytest.raises(Boom):
        _dovetail_choose(Dovetail(), "z", guard, {}, fuel)
    assert fuel.remaining == 1000 - 28


def test_a_guards_carved_budget_is_emptied_when_its_attempt_returns():
    # no guard keeps its budget after it returns: the caller gets back what
    # each guard left, and the guard's budget is left at 0. Stages 0..3 take
    # a step each and their guards one each: 8 steps, as recorded
    kept = []

    def guard(b, fuel, out):
        kept.append(fuel)
        fuel.take()
        return TT if b["z"].n == 3 else FF

    fuel = Fuel(1000)
    assert _dovetail_choose(Dovetail(), "z", guard, {}, fuel).n == 3
    assert [f.remaining for f in kept] == [0, 0, 0, 0]
    assert fuel.remaining == 1000 - 8


# A witness past the shared NatV table (SHARED_NATS), as recorded:
# (guard, strategy, fuel left). `z = w` bounds the search to the witness;
# `succ(z) = succ(w)` gives no domain, so the search scans up to it.
@pytest.mark.parametrize("guard, strat, left", [
    ("z = w", Dovetail(None), 99_996), ("z = w", Dovetail(1), 99_996),
    ("z = w", Enumerate(9000), 99_997),
    ("succ(z) = succ(w)", Dovetail(None), 63_997),
    ("succ(z) = succ(w)", Dovetail(1), 36_157),
    ("succ(z) = succ(w)", Enumerate(9000), 72_995)])
def test_a_choose_witness_past_the_shared_nats_is_found_as_recorded(
        guard, strat, left):
    p = parse("algebra N\nfunc t in w: nat out k: nat "
              f"begin k := choose z : {guard} end")
    assert 9000 >= SHARED_NATS
    fuel = Fuel(100_000)
    res = eval_proc(p, (NatV(9000),), N, strat, fuel)
    assert [v.n for v in res.values] == [9000]
    assert not res.proven_divergent and not res.truncated
    assert fuel.remaining == left


# The contract a harness relies on when it subclasses the library's budget
# and search: a Fuel subclass that overrides spawn sees one call per
# Dovetail guard attempt, and a Dovetail subclass that overrides visit (and
# fresh, for the copy eval_proc takes) sees one call per stage, whose
# candidate is the stage's first attempt. take and repay are not hooks: a
# step is `remaining` decremented when positive, and the hot sites spell it,
# and the attempt's repayment, inline.


class SpawnCountingFuel(Fuel):
    __slots__ = ("spawns",)

    def __init__(self, steps):
        super().__init__(steps)
        self.spawns = 0

    def spawn(self, cap):
        self.spawns += 1
        return super().spawn(cap)


class LoggingDovetail(Dovetail):
    """Logs each stage's visit and each attempt as (search, stage, cand)."""

    def __init__(self, seed=None, log=None):
        super().__init__(seed)
        self.log = log if log is not None else {"visits": [], "attempts": [],
                                                "searches": 0}

    def visit(self, stage):
        cand = super().visit(stage)
        self.log["visits"].append((self.log["searches"], stage, cand))
        return cand

    def search(self, fuel, attempt, domain=None):
        self.log["searches"] += 1
        search = self.log["searches"]

        def logged(cand, stage):
            self.log["attempts"].append((search, stage, cand))
            return attempt(cand, stage)

        return super().search(fuel, logged, domain)

    def fresh(self):
        return LoggingDovetail(self.seed, self.log)


# (program, inputs, seed, values, guard attempts, stages, fuel left), as
# recorded. root_bisect's division points and pivot3 search the finite
# domains their guards give; on (0, sqrt2, 0) pivot3 retries candidate 2
# at stages 4 and 8, past the domain's last new candidate.
@pytest.mark.parametrize("name, args, seed, value, attempts, stages, left", [
    ("root_bisect", (NatV(2), real_array([-2, 0, 1])), None,
     ["RealV(227/162)"], 989, 989, 1_989_491),
    ("root_bisect", (NatV(2), real_array([-2, 0, 1])), 5,
     ["RealV(-11663/8192)"], 402, 402, 1_994_787),
    ("choose_near", (rat_value(Fraction(1, 3)), NatV(4)), None,
     ["RealV(1/3)"], 90, 90, 1_999_608),
    ("choose_near", (rat_value(Fraction(1, 3)), NatV(4)), 5,
     ["RealV(2/7)"], 66, 66, 1_999_704),
    ("pivot3", (rat_value(0), rat_value(0), rat_value(0)), 5,
     [], 3, 3, 1_999_989),
    ("pivot3", (rat_value(0), RealV(sqrt_code(2)), rat_value(0)), 5,
     ["NatV(2)"], 5, 3, 1_999_970)])
def test_harness_hooks_see_one_spawn_per_attempt_and_one_visit_per_stage(
        name, args, seed, value, attempts, stages, left):
    p, alg = load(name)
    strat, fuel = LoggingDovetail(seed), SpawnCountingFuel(2_000_000)
    res = eval_proc(p, args, alg, strat, fuel)
    assert [repr(v) for v in res.values] == value
    log = strat.log
    assert fuel.spawns == len(log["attempts"]) == attempts
    assert len(log["visits"]) == stages and fuel.remaining == left
    firsts = {}  # each candidate's first attempt in each search, in order
    for search, stage, cand in log["attempts"]:
        firsts.setdefault((search, cand), stage)
    assert log["visits"] == [(s, k, c) for (s, c), k in firsts.items()]


def test_a_wrapper_set_after_compiling_sees_every_dovetailed_choose(
        monkeypatch):
    # Dovetail.choose looks _dovetail_choose up in the module when it is
    # called, so a wrapper set on it once the body is compiled and cached
    # (as the perfbench tracer sets one) still sees each search of a run
    import whilecc.interp as interp

    p, alg = load("root_bisect")
    args = (NatV(2), real_array([-2, 0, 1]))
    assert eval_proc(p, args, alg, Dovetail(1), Fuel(200_000)).values
    seen, search = [], interp._dovetail_choose
    monkeypatch.setattr(interp, "_dovetail_choose",
                        lambda *a: seen.append(a[0]) or search(*a))
    strat = LoggingDovetail(1)
    assert eval_proc(p, args, alg, strat, Fuel(200_000)).values
    assert len(seen) == strat.log["searches"] > 1
    assert all(type(s) is LoggingDovetail for s in seen)


STAGES = [*range(21), *range(8190, 8201), *range(16380, 16391)]
VISITS = {
    None: STAGES,
    0: [0, 6311, 4430, 2549, 668, 6979, 5098, 3217, 1336, 7647, 5766, 3885,
        2004, 123, 6434, 4553, 2672, 791, 7102, 5221, 3340, 3762, 1881, 8192,
        10393, 12594, 14795, 8804, 11005, 13206, 15407, 9416, 15772, 9781,
        11982, 14183, 16384, 17311, 18238, 19165, 20092, 21019, 21946],
    1: [0, 7843, 7494, 7145, 6796, 6447, 6098, 5749, 5400, 5051, 4702, 4353,
        4004, 3655, 3306, 2957, 2608, 2259, 1910, 1561, 1212, 698, 349, 8192,
        10895, 13598, 16301, 10812, 13515, 16218, 10729, 13432, 13764, 8275,
        10978, 13681, 16384, 22543, 20510, 18477, 16444, 22603, 20570],
    12345: [0, 4145, 98, 4243, 196, 4341, 294, 4439, 392, 4537, 490, 4635, 588,
            4733, 686, 4831, 784, 4929, 882, 5027, 980, 8094, 4047, 8192,
            15603, 14822, 14041, 13260, 12479, 11698, 10917, 10136, 11316,
            10535, 9754, 8973, 16384, 23355, 22134, 20913, 19692, 18471,
            17250],
}


@pytest.mark.parametrize("seed", list(VISITS))
def test_dovetail_visits_as_recorded(seed):
    # stages 0..20, both sides of the first block boundary (8 192) and of
    # the second (16 384); a seeded search draws each block's stride once
    d = Dovetail(seed)
    assert [d.visit(k) for k in STAGES] == VISITS[seed]
    assert [d.visit(k) for k in STAGES] == VISITS[seed]
    assert len(d._strides) == (0 if seed is None else 3)


def test_a_negative_dovetail_seed_is_rejected():
    # random.Random seeds by absolute value: -5 would visit the first
    # block as 5 does
    with pytest.raises(ValueError, match="non-negative"):
        Dovetail(-5)
    assert Dovetail(0).seed == 0 and Dovetail().seed is None


def test_a_negative_oracle_seed_is_rejected():
    # random.Random seeds by absolute value: Oracle(-5) would propose
    # Oracle(5)'s first answer
    with pytest.raises(ValueError, match="non-negative"):
        Oracle(-5)
    assert Oracle(0).seed == 0 and Oracle().seed == 0


@pytest.mark.parametrize("steps, cap", [(10, 3), (3, 10), (5, 5), (5, 0),
                                        (0, 4), (0, 0)])
def test_spawn_carves_a_plain_fuel_of_min_cap_remaining(steps, cap):
    for parent in (Fuel(steps), SpawnCountingFuel(steps)):
        child = parent.spawn(cap)
        assert type(child) is Fuel
        assert child.remaining == min(cap, steps)
        assert parent.remaining == steps - min(cap, steps)
        child.take()
        parent.repay(child)
        assert parent.remaining == steps - min(cap, steps, 1)
        assert child.remaining == 0


# ---------------------------------------------------------------------------
# atomic statements, First / Rest / CompStep


def test_eval_atomic_div():
    out = eval_atomic(Div(), state(), RN, Enumerate(4), Fuel(100))
    assert out.values == [] and out.proven_divergent and not out.truncated


def test_eval_atomic_assignment_and_swap():
    t = term("1 + 1", assign_to=("b", "real"))
    out = eval_atomic(Assign(("x",), (t,)), state(x=rat_value(0)), RN,
                      Enumerate(4), Fuel(100))
    assert out.values[0].get("x").code.value == 2
    swap = Assign(("x", "y"), (Var("y", NAT), Var("x", NAT)))
    out = eval_atomic(swap, state(x=NatV(1), y=NatV(2)), N, Enumerate(4), Fuel(100))
    sp = out.values[0]
    assert sp.get("x").n == 2 and sp.get("y").n == 1


def test_first_cases():
    a = Assign(("x",), (Lit(1, NAT),))
    assert first(Seq(a, Skip())) == a
    w = While(App(N.signature.symbol("true"), ()), Skip())
    assert isinstance(first(w), Skip)
    assert isinstance(first(Skip()), Skip)


def test_rest_cases():
    tt_guard = App(N.signature.symbol("true"), ())
    w = While(tt_guard, Skip())
    rr = rest(w, state(), N, Enumerate(4), Fuel(100))
    assert rr.stmts == [Seq(Skip(), w)] and not rr.has_div
    rr = rest(Skip(), state(), N, Enumerate(4), Fuel(100))
    assert rr.stmts == [Skip()]
    # guard that only diverges contributes div (rest of an if)
    diverging = term("x < x", frame="x: real")
    s = If(diverging, Skip(), Div())
    rr = rest(s, state(x=RealV(sqrt_code(2))), RN, Enumerate(4), Fuel(64))
    assert rr.stmts == [] and rr.truncated  # undecided at this budget


def test_comp_step():
    a = Assign(("x",), (Lit(0, NAT),))
    loop = While(App(N.signature.symbol("true"), ()), Skip())
    out = comp_step(Seq(a, loop), state(x=NatV(9)), N, Enumerate(4), Fuel(100))
    assert out.values[0].get("x").n == 0
    out = comp_step(Seq(Div(), Skip()), state(), N, Enumerate(4), Fuel(100))
    assert out.proven_divergent
    # while-head steps are skips: the state is unchanged
    out = comp_step(loop, state(x=NatV(5)), N, Enumerate(4), Fuel(100))
    assert out.values[0].get("x").n == 5


# ---------------------------------------------------------------------------
# computation trees


def test_tree_skip_single_leaf():
    t = comp_tree_stage(Skip(), state(), 1, N, fuel=Fuel(1_000_000))
    assert len(t.children) == 1 and not t.children[0].children


def test_tree_while_true_single_path():
    loop = While(App(N.signature.symbol("true"), ()), Skip())
    for n in (1, 3, 6):
        t = comp_tree_stage(loop, state(), n, N, fuel=Fuel(1_000_000))
        depth = 0
        node = t
        while node.children:
            assert len(node.children) == 1
            node = node.children[0]
            depth += 1
        assert depth == n and node.frontier  # no leaves, only the cut


def test_tree_choose_branches():
    src = term("choose z : z < 2", assign_to=("k", "nat"), algebra="RN")
    s = Assign(("k",), (src,))
    t = comp_tree_stage(s, state(k=NatV(9)), 2, RN, Enumerate(5),
                        fuel=Fuel(1_000_000))
    leaf_vals = {leaf.state.get("k").n for leaf in t.leaves() if leaf.state}
    assert leaf_vals == {0, 1}


def test_tree_enumerate_shape():
    # choose with a tie among its candidates, then a loop whose body inverts
    # an exact zero on one branch; rows are "depth i y flags" in preorder
    p = parse("""algebra RN
func t in x: real out i: nat aux y: real
begin
  i := choose k : (k < 3) and (x <> nat2real(k));
  while i < 4 do
    y := 1 / (x - nat2real(i));
    i := succ(i)
  od
end""")

    def rows(node, depth=0, acc=None):
        acc = [] if acc is None else acc
        b = node.state.bindings
        flags = "".join(c for c, f in (("d", node.div_leaf),
                                       ("t", node.truncated),
                                       ("f", node.frontier)) if f)
        acc.append(f"{depth} i={b['i'].n} y={b['y'].code.value} {flags}".rstrip())
        for c in node.children:
            rows(c, depth + 1, acc)
        return acc

    expected = ["0 i=0 y=0", "1 i=0 y=0", "2 i=0 y=0", "3 i=0 y=0",
                "4 i=0 y=1", "5 i=1 y=1", "6 i=1 y=1 d",
                "2 i=2 y=0", "3 i=2 y=0", "4 i=2 y=-1", "5 i=3 y=-1",
                "6 i=3 y=-1", "7 i=3 y=-1/2", "8 i=4 y=-1/2", "9 i=4 y=-1/2 f"]
    sigma = initial_state(p, RN, (rat_value(1),))
    # 1 / ... takes a step where its divisor is not 0: three times
    for budget, left in ((40, 0), (10_000, 9946)):
        fuel = Fuel(budget)
        t = comp_tree_stage(p.body, sigma, 9, RN, Enumerate(5), fuel=fuel)
        assert rows(t) == expected and fuel.remaining == left


def test_stage_prefix_monotone():
    p, alg = load("pivot3")
    sigma = State({"x1": rat_value(1), "x2": rat_value(0), "x3": rat_value(1),
                   "i": NatV(0)})
    for n in range(0, 4):
        t1 = comp_tree_stage(p.body, sigma, n, alg, Enumerate(6),
                             fuel=Fuel(1_000_000))
        t2 = comp_tree_stage(p.body, sigma, n + 1, alg, Enumerate(6),
                             fuel=Fuel(1_000_000))
        assert tree_is_prefix(t1, t2), n


# ---------------------------------------------------------------------------
# statement and procedure semantics


def test_eval_stmt_sequence():
    p = parse("algebra RN\nfunc f out x: real begin x := 1; x := x + 1 end")
    out = eval_stmt(p.body, state(x=rat_value(9)), RN, Enumerate(4), Fuel(100))
    assert [s.get("x").code.value for s in out.values] == [2]
    assert not out.maybe_divergent


def test_eval_stmt_while_true_divergent_frontier():
    loop = While(App(N.signature.symbol("true"), ()), Skip())
    for strat in (Enumerate(4), Dovetail(), Oracle(1)):
        out = eval_stmt(loop, state(), N, strat, Fuel(200))
        assert out.values == [] and out.maybe_divergent
        assert out.truncated  # frontier proxy, not a certified infinite path


def test_eval_stmt_guard_converges_tt():
    p = parse("algebra RN\nfunc f out x: real begin "
              "if 0 < 1 then x := 1 else div fi end")
    out = eval_stmt(p.body, state(x=rat_value(0)), RN, Enumerate(4), Fuel(1000))
    assert [s.get("x").code.value for s in out.values] == [1]
    assert not out.maybe_divergent


def test_deterministic_run_builds_no_state_or_outcome_set_per_step(monkeypatch):
    # a clock-free check of the one-dict statement loop: exp_approx at n = 3
    # takes over a hundred steps, yet the run builds the initial and final
    # State and the loop's and eval_proc's OutcomeSet, no more
    import whilecc.interp as interp
    from whilecc.algebra import interval_value
    from whilecc.codes import ConstCode
    from whilecc.programs.oracles import exp_partial_sum

    built = {"State": 0, "OutcomeSet": 0}

    def counting(cls):
        class Counting(cls):
            def __init__(self, *args, **kwargs):
                built[cls.__name__] += 1
                super().__init__(*args, **kwargs)
        return Counting

    monkeypatch.setattr(interp, "State", counting(State))
    monkeypatch.setattr(interp, "OutcomeSet", counting(interp.OutcomeSet))
    p, alg = load("exp_approx")
    x = Fraction(1, 2)
    fuel = Fuel(100_000)
    out = eval_proc(p, (NatV(3), interval_value(ConstCode(x))), alg,
                    Dovetail(0), fuel)
    assert 100_000 - fuel.remaining > 100
    assert built["State"] <= 2 and built["OutcomeSet"] <= 2
    assert out.values[0].code.value == exp_partial_sum(x, 16)


def test_long_statement_chain_runs_without_deep_recursion():
    x = Var("x", NAT)
    inc = Assign(("x",), (App(N.signature.symbol("succ"), (x,)),))
    body = Skip()
    for _ in range(5_000):
        body = Seq(inc, body)
    for strat in (Dovetail(), Enumerate(4)):
        out = eval_stmt(body, state(x=NatV(0)), N, strat, Fuel(100_000))
        assert [s.get("x").n for s in out.values] == [5_000]


def test_eval_proc_identity_and_arity():
    p = parse("algebra RN\nfunc f in a: real out b: real begin b := a end")
    out = eval_proc(p, (rat_value(Fraction(5, 3)),), RN, Dovetail(), Fuel(100))
    assert out.values[0].code.value == Fraction(5, 3)
    from whilecc.algebra import AlgebraError
    with pytest.raises(AlgebraError):
        eval_proc(p, (), RN, Dovetail(), Fuel(100))
    with pytest.raises(AlgebraError):
        eval_proc(p, (NatV(1),), RN, Dovetail(), Fuel(100))


def test_a_negative_oracle_proposal_is_no_natural():
    # nat_value(-1) once read NATS[-1], the last shared natural
    from whilecc.algebra import AlgebraError
    p = parse("algebra N\nfunc f out y: nat begin y := choose z : 3 < z end")
    with pytest.raises(AlgebraError):
        eval_proc(p, (), N, Oracle(0, f=lambda c: -1), Fuel(100))


def test_a_negative_nat_literal_is_no_natural():
    from whilecc.algebra import AlgebraError
    lit = Lit(-3, NAT)
    for t in (lit, App(N.signature.symbol("succ"), (lit,))):
        with pytest.raises(AlgebraError):
            eval_term(t, state(), N, Dovetail(), Fuel(10))


def test_pivot_examples():
    p, alg = load("pivot3")

    def run(xs, strat=Enumerate(8)):
        return eval_proc(p, tuple(rat_value(x) for x in xs), alg, strat, Fuel(30_000))

    out = run((0, Fraction(7, 2), 0))
    assert [v.n for v in out.values] == [2] and not out.maybe_divergent
    out = run((1, 1, 0))
    assert {v.n for v in out.values} == {1, 2}
    out = run((0, 0, 0))
    assert out.values == [] and out.maybe_divergent


def test_a_run_leaves_no_cyclic_garbage():
    # closures hold no reference to the Ctx whose map holds them, so a run's
    # closures, nodes and states are freed without the cyclic collector
    near = (rat_value(Fraction(1, 3)), NatV(2))
    runs = [("pivot3", (rat_value(0), rat_value(Fraction(3, 2)), rat_value(0)),
             Enumerate(8)),
            ("choose_near", near, Dovetail(1)),
            ("choose_near", near, Enumerate(40)),
            ("root_bisect", (NatV(2), real_array([-2, 0, 1])), Dovetail(1))]
    jobs = [(name, *load(name), args, strat) for name, args, strat in runs]
    gc.collect()
    gc.disable()
    try:
        for name, p, alg, args, strat in jobs:
            out = eval_proc(p, args, alg, strat, Fuel(2_000_000))
            assert out.values, name
            del out
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_a_starred_algebra_run_on_is_freed_without_the_cyclic_collector():
    # the code compiled on RN* holds its array rules, which read element
    # defaults from RN, not from RN*: so no rule keeps RN* alive, and the
    # code cached on the procedure goes with it
    p, alg = load("root_bisect")
    gc.collect()
    gc.disable()
    try:
        out = eval_proc(p, (NatV(2), real_array([-2, 0, 1])), alg, Dovetail(1),
                        Fuel(200_000))
        assert out.values and p.compiled
        ref = weakref.ref(alg)
        del alg
        assert ref() is None and not p.compiled
    finally:
        gc.enable()


def test_a_second_run_on_an_algebra_compiles_nothing(monkeypatch):
    # eval_proc compiles a body once per algebra for Enumerate and once for
    # Oracle and Dovetail together: a later run on that algebra reuses the
    # nodes and closures, with its own strategy and seed; Enumerate or
    # another algebra compiles its own
    import whilecc.interp as interp

    compiled = []
    compile_term = interp._compile
    monkeypatch.setattr(interp, "_compile", lambda ctx, t: compiled.append(t)
                        or compile_term(ctx, t))
    p, alg = load("root_bisect")
    args = (NatV(2), real_array([-2, 0, 1]))

    def runs(*strats, on=alg):
        before = len(compiled)
        for strat in strats:
            out = eval_proc(p, args, on, strat, Fuel(200_000))
            # Enumerate's is cut at its node cap, and an Oracle may diverge
            assert out.values or not isinstance(strat, Dovetail), strat
        return len(compiled) - before

    assert runs(Dovetail(1)) > 0
    assert runs(Dovetail(2), Dovetail(1), Dovetail()) == 0
    assert runs(Enumerate(8, 200), Enumerate(40, 100)) > 0
    assert runs(Oracle(0), Oracle(1)) == 0
    assert runs(Dovetail(3), Enumerate(8, 200), Oracle(2)) == 0
    other = get_algebra("RN*")
    assert runs(Oracle(1), on=other) > 0
    assert runs(Dovetail(1), Oracle(0), on=other) == 0


def test_initialisation_independence():
    # Remark-style check: junk initial values for out/aux do not matter
    p, alg = load("exp_approx")
    args = (NatV(2), rat_value(Fraction(1, 2)))
    clean = eval_proc(p, args, alg, Dovetail(), Fuel(100_000))
    junk = {"s": rat_value(99), "y": rat_value(-7), "k": NatV(55),
            "bound": NatV(1), "i": NatV(9), "t": NatV(3), "j": NatV(2)}
    dirty = eval_proc(p, args, alg, Dovetail(), Fuel(100_000), junk=junk)
    assert clean.values[0].code.value == dirty.values[0].code.value


def test_fuel_monotone_leaf_sets():
    p, alg = load("pivot3")
    args = (rat_value(1), rat_value(0), rat_value(1))
    seen = []
    for steps in (5, 20, 100, 1000, 10_000):
        out = eval_proc(p, args, alg, Enumerate(6), Fuel(steps))
        seen.append({v.n for v in out.values})
    for small, big in zip(seen, seen[1:]):
        assert small <= big
    assert seen[-1] == {1, 3}


def test_strategy_soundness_on_stdlib_samples():
    from whilecc.codes import prog_rat_encode
    cases = [
        ("pivot3", [(rat_value(1), rat_value(1), rat_value(0)),
                    (rat_value(0), rat_value(2), rat_value(3))], 8),
        ("choose_near", [(rat_value(Fraction(355, 113)), NatV(1))], None),
    ]
    for name, samples, bound in cases:
        p, alg = load(name)
        for args in samples:
            det_values = []
            for seed in range(6):
                d = eval_proc(p, args, alg, Dovetail(seed), Fuel(3_000_000))
                det_values.extend(d.values)
                o = eval_proc(p, args, alg, Oracle(seed), Fuel(3_000_000))
                det_values.extend(o.values)
            # "sufficiently large bounds": wide enough to include the
            # witness index behind every deterministic-strategy output
            if bound is None:
                bound = 4 + max(prog_rat_encode(v.code.value)
                                for v in det_values)
            enum = eval_proc(p, args, alg, Enumerate(bound), Fuel(8_000_000))
            enum_keys = {repr(v) for v in enum.values}
            for v in det_values:
                assert repr(v) in enum_keys, (name, v)


def test_oracle_counter_advances_per_choose():
    calls = []

    def f(c):
        calls.append(c)
        return [1, 2][c % 2]

    p = parse("algebra RN\nfunc f out x: nat, y: nat begin "
              "x := choose z : z = 1; y := choose z : z = 2 end")
    out = eval_proc(p, (), RN, Oracle(f=f), Fuel(10_000))
    assert calls == [0, 1]
    assert [v.n for v in out.values[0]] == [1, 2]


def test_oracle_guard_failure_is_divergence():
    p = parse("algebra RN\nfunc f out x: nat begin x := choose z : z = 1 end")
    out = eval_proc(p, (), RN, Oracle(f=lambda c: 5), Fuel(10_000))
    assert out.values == [] and out.proven_divergent


def test_is_deterministic_on():
    p, alg = load("pivot3")
    rep = is_deterministic_on(p, [(rat_value(1), rat_value(1), rat_value(0))], alg)
    assert not rep[0]["deterministic"]
    q = parse("algebra RN\nfunc c out b: real begin b := 1 end")
    rep = is_deterministic_on(q, [()], RN)
    assert rep[0]["deterministic"]
    s, alg2 = load("scaled_sum")
    rep = is_deterministic_on(s, [(rat_value(2), rat_value(3)),
                                  (rat_value(-1), rat_value(4))], alg2,
                              strat=Enumerate(6))
    assert all(r["deterministic"] for r in rep)


# ---------------------------------------------------------------------------
# choose domains read from the guard


# (guard of `choose z`, its domain (lo, hi) under w = 5; hi None is no upper
# end): only comparisons of z with a nat literal or a variable bound it, an
# andthen narrows by its second conjunct only after an exact first one, and
# an orelse takes the hull of its sides
@pytest.mark.parametrize("guard, lo, hi", [
    ("z < 3", 0, 3), ("2 < z", 3, None), ("z = 4", 4, 5), ("4 = z", 4, 5),
    ("(z < 3) andthen (z = 5)", 5, 3),
    ("(7 < z) andthen ((z < 17) andthen (x <> nat2real(z)))", 8, 17),
    ("(z = 1 andthen x <> 0) orelse ((z = 2 andthen x <> 1) orelse "
     "(z = 3 andthen x <> 2))", 1, 4),
    ("((z < 5) andthen (1 < z)) andthen (x <> nat2real(z))", 2, 5),
    ("(z < 5 andthen x <> 0) andthen (1 < z)", 0, 5),
    ("(z < 9) andthen ((x < nat2real(z)) andthen (2 < z))", 0, 9),
    ("z < w", 0, 5), ("(w < z) andthen (z < 9)", 6, 9),
    ("(z = w) orelse (z = 2)", 2, 6), ("(z < w) andthen (z = 7)", 7, 5),
    ("(x < nat2real(z)) andthen (z < 3)", 0, None),
    ("(z = 1) orelse (x < nat2real(z))", 0, None),
    ("succ(z) < 3", 0, None), ("not (z < 3)", 0, None),
    ("(z < 3) and (z = 1)", 0, None), ("w < 3", 0, None),
    ("z < z", 0, None)])
def test_a_choose_domain_is_read_from_its_guard(guard, lo, hi):
    c = term(f"choose z : {guard}", frame="w: nat, x: real",
             assign_to=("i", "nat"))
    dlo, dhi, _ = _guard_domain(c.var, c.body)
    b = {"w": NatV(5)}
    assert (_at(dlo, b), None if dhi is None else _at(dhi, b)) == (lo, hi)


def test_a_choose_with_an_empty_domain_is_proven_divergent():
    # no candidate is left to test: Dovetail is DIV at once, with no step
    # taken, and Enumerate is proven divergent whatever its bound
    t = term("choose z : (z < 3) andthen (z = 5)", assign_to=("i", "nat"))
    for strat in (Dovetail(), Dovetail(3), Enumerate(2), Enumerate(8)):
        fuel = Fuel(100)
        out = eval_term(t, state(), RN, strat, fuel)
        assert out.values == [] and out.proven_divergent, strat
        assert not out.truncated and fuel.remaining == 100, strat
        assert out.diagnostics == (["no choose candidate to test"]
                                   if isinstance(strat, Enumerate) else []), strat


@pytest.mark.parametrize("max_nat, flags, note", [
    (3, (False, True), "choose candidates 2..3 all rejected; rest unexplored"),
    (8, (True, False), "choose candidates 2..5 all rejected")])
def test_enumerate_proves_divergence_only_when_it_tests_the_whole_domain(
        max_nat, flags, note):
    t = term("choose z : (1 < z) andthen ((z < 6) andthen (x < 0))",
             frame="x: real", assign_to=("i", "nat"))
    fuel = Fuel(1_000)
    out = eval_term(t, state(x=rat_value(1)), RN, Enumerate(max_nat), fuel)
    assert out.values == [] and (out.proven_divergent, out.truncated) == flags
    assert out.diagnostics == [note]
    # candidates 2..min(5, max_nat), each with three comparisons
    assert fuel.remaining == 1_000 - 3 * (min(5, max_nat) - 1)


def test_a_partial_first_conjunct_leaves_the_domain_unbounded():
    # z < 3 comes after a comparison that diverges at z = 5: Enumerate
    # still tests candidate 5 and notes the divergence it would skip
    t = term("choose z : (x <> nat2real(z)) andthen (z < 3)",
             frame="x: real", assign_to=("i", "nat"))
    sigma = state(x=rat_value(5))
    out = eval_term(t, sigma, RN, Enumerate(8), Fuel(1_000))
    assert [v.n for v in out.values] == [0, 1, 2]
    assert out.diagnostics == ["choose candidate 5: divergent guard"]
    for seed in (None, 0, 1, 2):
        out = eval_term(t, sigma, RN, Dovetail(seed), Fuel(100_000))
        assert len(out.values) == 1 and out.values[0].n < 3, seed


def test_dovetail_searches_a_variable_domain_read_at_each_choose():
    t = term("choose z : (w < z) andthen ((z < 9) andthen (x < nat2real(z)))",
             frame="w: nat, x: real", assign_to=("i", "nat"))
    found = set()
    for seed in (None, *range(12)):
        out = eval_term(t, state(w=NatV(5), x=rat_value(6)), RN,
                        Dovetail(seed), Fuel(1_000))
        assert not out.maybe_divergent and out.values[0].n in (7, 8), seed
        found.add(out.values[0].n)
        # every candidate of 6..8 refuted once: no witness, and no retry.
        # Stages 0..2 take a step each, and their guards 1 + 2 + 3 steps
        fuel = Fuel(1_000)
        out = eval_term(t, state(w=NatV(5), x=rat_value(9)), RN,
                        Dovetail(seed), fuel)
        assert out.values == [] and out.proven_divergent, seed
        assert not out.truncated and fuel.remaining == 1_000 - 3 - 6
    assert found == {7, 8}  # seeds reach either witness


def test_a_seeded_dovetail_order_is_a_bijection_onto_the_domain():
    for n in (1, 2, 3, 9, 12, 64):
        for seed in (None, 0, 1, 7):
            d = Dovetail(seed)
            seen = []
            d.search(Fuel(10_000), lambda cand, stage: seen.append(cand) or DIV,
                     range(5, 5 + n))
            assert sorted(seen) == list(range(5, 5 + n)), (n, seed)
            if seed is None:
                assert seen == list(range(5, 5 + n))


# ---------------------------------------------------------------------------
# choose elimination


def test_choose_eliminate_simple_search():
    p = parse("algebra N\nfunc f out d: nat begin d := choose z : eq_nat(z, 5) end",)
    elim = choose_eliminate(p, N)
    out = eval_proc(elim, (), N, Dovetail(), Fuel(10_000))
    assert [v.n for v in out.values] == [5]
    orig = eval_proc(p, (), N, Dovetail(), Fuel(10_000))
    assert [v.n for v in orig.values] == [5]


def test_choose_eliminate_requires_total_algebra():
    p, alg = load("pivot3")
    with pytest.raises(ChooseEliminationError):
        choose_eliminate(p, alg)


def test_choose_eliminate_in_guard():
    src = """algebra N*
func f in n: nat out c: nat aux w: nat
begin
  w := n;
  while (choose z : eq_nat(z, w)) < 3 do c := succ(c); w := succ(w) od
end"""
    p = parse(src)
    alg = get_algebra("N*")
    elim = choose_eliminate(p, alg)
    for n0 in (0, 2, 3, 5):
        a = eval_proc(p, (NatV(n0),), alg, Dovetail(), Fuel(100_000))
        b = eval_proc(elim, (NatV(n0),), alg, Dovetail(), Fuel(100_000))
        assert [v.n for v in a.values] == [v.n for v in b.values], n0


@pytest.mark.parametrize("rhs", [
    # a search in an untaken branch must not run: for n = 0 it has no witness
    "if n = 0 then 7 else (choose z : (z < 4) andthen (z < n)) fi",
    # a search in a choose guard sees each candidate of the outer search
    "choose z : (z < 4) andthen ((choose y : (y < 4) andthen (y = z)) = 2)",
])
def test_choose_eliminate_keeps_searches_where_they_run(rhs):
    p = parse(f"algebra N\nfunc f in n: nat out r: nat begin r := {rhs} end")
    elim = choose_eliminate(p, N)
    for n in (0, 1):
        a = eval_proc(p, (NatV(n),), N, Dovetail(), Fuel(3_000))
        b = eval_proc(elim, (NatV(n),), N, Dovetail(), Fuel(3_000))
        assert not a.maybe_divergent and not b.maybe_divergent, n
        assert [v.n for v in a.values] == [v.n for v in b.values], n


def test_choose_eliminate_diverges_where_a_guard_search_has_no_witness():
    # the precondition of choose_eliminate: candidate 0 reaches an inner
    # search with no witness; the strategies go on to the witness 1, the
    # eliminated procedure's search ends in div past its domain y < 4
    rhs = ("choose z : (z < 4) andthen ((z = 1) orelse "
           "((choose y : (y < 4) andthen (y = 5)) = 0))")
    p = parse(f"algebra N\nfunc f in n: nat out r: nat begin r := {rhs} end")
    for strat in (Dovetail(), Enumerate(4)):
        res = eval_proc(p, (NatV(0),), N, strat, Fuel(5_000))
        assert [v.n for v in res.values] == [1], strat
        assert not res.maybe_divergent, strat
    res = eval_proc(choose_eliminate(p, N), (NatV(0),), N, Dovetail(),
                    Fuel(5_000))
    assert res.values == [] and res.proven_divergent and not res.truncated


def test_choose_eliminate_searches_the_guard_domain_and_ends_in_div_past_it():
    # the domain is [max(w + 1, k), min(9, k + 1)): the least-witness loop
    # starts at its low end, and past its high end it ends in div
    p = parse("algebra N\nfunc f in w: nat, k: nat out r: nat begin "
              "r := choose z : (w < z) andthen ((z < 9) andthen (z = k)) end")
    elim = choose_eliminate(p, N)
    for w, k in [(5, k) for k in range(12)] + [(1_000, 1_001)]:
        want = eval_proc(p, (NatV(w), NatV(k)), N, Enumerate(1_100),
                         Fuel(100_000))
        fuel = Fuel(1_000)
        got = eval_proc(elim, (NatV(w), NatV(k)), N, Dovetail(), fuel)
        assert [v.n for v in got.values] == [v.n for v in want.values], k
        assert got.proven_divergent == (not want.values), k
        assert not got.truncated and fuel.remaining > 950, k


def test_deterministic_programs_agree_with_elimination_spot():
    # the full 0..100 sweep is the acceptance criterion; spot-check here
    alg = get_algebra("N*")
    for name, oracle in (("isqrt_search", lambda n: __import__("math").isqrt(n)),
                         ("log2_search", lambda n: n.bit_length() - 1 if n else 0)):
        p, _ = load(name)
        elim = choose_eliminate(p, alg)
        for n in (0, 1, 7, 64, 100):
            a = eval_proc(p, (NatV(n),), alg, Dovetail(), Fuel(400_000))
            b = eval_proc(elim, (NatV(n),), alg, Dovetail(), Fuel(400_000))
            assert a.values[0].n == b.values[0].n == oracle(n), (name, n)


@pytest.mark.parametrize("body, outs, steps", [
    ("x, y := (choose z : z < n), (choose w : w < n)", "x: nat, y: nat", 82),
    ("x := pair((choose z : z < n), (choose w : w < n))", "x: nat", 1_082),
])
def test_enumerate_cuts_a_product_of_choose_values_at_the_node_cap(
        body, outs, steps):
    # 40 * 40 combinations under a node cap of 1000, in an application and
    # in a concurrent assignment alike: the first 1000 in order are kept,
    # and the cut is a truncation with one note
    p = parse(f"algebra RN\nfunc t in n: nat out {outs} begin {body} end")
    fuel = Fuel(10**7)
    out = eval_proc(p, (NatV(40),), RN, Enumerate(40, 1_000), fuel)
    assert (out.proven_divergent, out.truncated) == (False, True)
    assert out.diagnostics == ["application combination cap hit"]
    assert 10**7 - fuel.remaining == steps
    assert [(v[0].n, v[1].n) if isinstance(v, tuple) else unpair(v.n)
            for v in out.values] == [divmod(i, 40) for i in range(1_000)]


class CountingList(list):
    """A list that counts the items its iterators yield."""

    yielded = 0

    def __iter__(self):
        for v in super().__iter__():
            self.yielded += 1
            yield v


def test_combos_build_at_most_one_combination_past_the_cap():
    # 300 * 300 combinations under a node cap of 1000: the second stage
    # takes 1001 of them, not all 90 000, and keeps the first 1000 in order
    lists = [CountingList(NatV(i) for i in range(300)) for _ in range(2)]
    out = OutcomeSet()
    combos = _combos(Ctx(RN, Enumerate(300, 1_000), Fuel(0)), lists, out)
    assert [vs.yielded for vs in lists] == [300, 1_001]
    assert [(a.n, b.n) for a, b in combos] == [divmod(i, 300)
                                               for i in range(1_000)]
    assert out.truncated and out.diagnostics == ["application combination cap hit"]


def test_enumerate_bounds_validation():
    with pytest.raises(ValueError):
        Enumerate(0)
    with pytest.raises(ValueError):
        Enumerate(4, 0)
