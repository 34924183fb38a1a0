"""Golden equivalence for the choice strategies.

Each case runs a shipped program under one strategy and compares, exactly,
the outcome value keys (in order), both divergence flags, the diagnostics
list (in order) and the fuel left over against `data/enum_golden.json`.
The strategy axis is `Enumerate(max_nat, max_depth)`, whose cases were
recorded from the per-node outcome-set evaluator (the single-valued
evaluation of choose-free terms must reproduce them bit for bit), then
`Dovetail(seed)` and `Oracle(seed)`, which pin the choose search and the
deterministic evaluator. A last axis runs one small program at every fuel
budget up to the least one that completes, which pins the exact step at
which each statement loop runs out of fuel. The rule axis applies every
basic operation of `N*`, `RN*`, `IN*` and `code_algebra(IN*)` through
`algebra.apply` to fixed arguments at a few budgets, and pins each outcome
and the fuel left over: that is where a rule charges its own step.

Regenerate (only when the semantics change on purpose) with

    PYTHONPATH=src python tests/test_enum_golden.py --write
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from whilecc.algebra import (DIV, FUEL_OUT, ArrV, BoolV, NatV, RealV, apply,
                             get_algebra, rat_value, value_key)
from whilecc.codes import CodeRegistry, Fuel, sqrt_code
from whilecc.interp import Dovetail, Enumerate, Oracle, eval_proc, nat_value
from whilecc.lang import parse_program
from whilecc.programs import load, real_array
from whilecc.tracking import code_algebra, encode_input

FIXTURE = Path(__file__).parent / "data" / "enum_golden.json"

FUELS = (300, 3_000, 200_000)
DEPTHS = (5, 10_000)
SEEDS = (0, 1, 2)

# Failures outside any choose body: ties in a strict `and` (both arguments
# are still evaluated), inverting an exact zero, and a choose nested in a
# choose body.
EDGES = """
algebra RN
func edges
in x: real, y: real
out z: real
aux b: bool
begin
  b := (x < 0) and (y < 1);
  z := (1 / (x - y)) + rat(choose j : (j < 3) andthen
         ((dist(1 / x, y) < 4) andthen ((choose i : i = j) < 2)))
end
"""

# An `if` ends the outer `while` body and the procedure; the inner `while`
# swaps; the choose gives Enumerate two branches per round; only some of
# its paths reach the `div`.
FUEL_EDGES = """
algebra N
func fuel_edges
in n: nat
out r: nat
aux a: nat, b: nat, i: nat, j: nat
begin
  a := 0;
  b := 1;
  i := 0;
  while i < n do
    j := 0;
    while j < i do j := succ(j); a, b := b, a od;
    i := succ(i);
    if (choose z : z < 8) < 2 then skip else b := succ(b) fi
  od;
  if a = b then div else skip fi;
  if a < b then r := a else r := b fi
end
"""

# (strategy, least budget at which more fuel changes nothing but the fuel
# left over), for fuel_edges on input 2
BOUNDARIES = (
    (lambda: Dovetail(0), 43),
    (lambda: Oracle(0), 41),
    (lambda: Enumerate(8, 5), 7),
    (lambda: Enumerate(8, 10_000), 124),
)

# (program, max_nat, inputs); a Fraction input is a real, an int a natural,
# a list a real array. Programs with max_nat None run only under Dovetail
# and Oracle.
CASES = [
    ("pivot3", 40, [(0, Fraction(3, 2), 0), (0, 0, 0),
                    (1, -2, Fraction(1, 3))]),
    ("scaled_sum", 40, [(0, 5), (0, 0), (2, Fraction(-3, 4))]),
    ("choose_near", 300, [(Fraction(1, 3), 2), (Fraction(-5, 7), 4),
                          (Fraction(2), 3)]),
    ("sq1_approx", 8, [(3, Fraction(1, 2))]),
    ("least_divisor", 40, [(15,), (7,), (0,)]),
    ("isqrt_search", 40, [(10,), (0,)]),
    ("root_bisect_fa", 600, [(0, Fraction(1, 3)), (1, Fraction(1, 3)),
                             (1, Fraction(0))]),
    ("edges", 6, [(Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)),
                  (Fraction(1, 4), Fraction(1)), (Fraction(-1, 3), Fraction(1, 2)),
                  (Fraction(0), Fraction(2))]),
    ("root_bisect", None, [(3, [-2, 0, 1]), (2, [0, -1, 0, 1]),
                           (3, [0, 0, 1])]),
    ("horner", None, [([Fraction(1, 3), -1, 2], Fraction(3, 2)), ([], 0)]),
    ("log2_search", None, [(10,), (0,)]),
    ("exp_approx", None, [(3, Fraction(1, 2)), (1, Fraction(0))]),
]

REAL_ARGS = {"pivot3": (0, 1, 2), "scaled_sum": (0, 1), "choose_near": (0,),
             "sq1_approx": (1,), "root_bisect_fa": (1,), "edges": (0, 1),
             "horner": (1,), "exp_approx": (1,)}


def _load(program: str):
    if program == "edges":
        return parse_program(EDGES).proc("edges"), get_algebra("RN")
    if program == "fuel_edges":
        return parse_program(FUEL_EDGES).proc("fuel_edges"), get_algebra("N")
    return load(program)


def _args(program: str, inputs: tuple) -> tuple:
    reals = REAL_ARGS.get(program, ())
    return tuple(real_array(x) if isinstance(x, list)
                 else rat_value(x) if i in reals else nat_value(x)
                 for i, x in enumerate(inputs))


def _run(program: str, strat, inputs: tuple, fuel: int) -> dict:
    proc, alg = _load(program)
    budget = Fuel(fuel)
    res = eval_proc(proc, _args(program, inputs), alg, strat, budget)
    keys = [value_key(v) for v in res.values]
    # non-constant codes dedup by object identity, which no fixture can hold
    assert all(k[0] != "c" for k in keys)
    ins = [str(x) for x in inputs]
    if isinstance(strat, Enumerate):
        head = {"program": program, "max_nat": strat.max_nat, "inputs": ins,
                "fuel": fuel, "max_depth": strat.max_depth}
    else:
        head = {"program": program, "strategy": repr(strat), "inputs": ins,
                "fuel": fuel}
    return {
        **head,
        "values": [repr(k) for k in keys],
        "proven_divergent": res.proven_divergent,
        "truncated": res.truncated,
        "diagnostics": list(res.diagnostics),
        "fuel_remaining": budget.remaining,
    }


def _grid(enumerate_axis: bool):
    for program, max_nat, inputs in CASES:
        if enumerate_axis and max_nat is None:
            continue
        for args in inputs:
            for fuel in FUELS:
                if enumerate_axis:
                    strats = [Enumerate(max_nat, d) for d in DEPTHS]
                else:
                    strats = [S(seed) for S in (Dovetail, Oracle)
                              for seed in SEEDS]
                for strat in strats:
                    yield program, strat, args, fuel


def _boundary_grid():
    for make, last in BOUNDARIES:
        for fuel in range(last + 1):
            yield "fuel_edges", make(), (2,), fuel


def _case_id(case) -> str:
    program, strat, args, fuel = case
    if isinstance(strat, Enumerate):
        tail = f"d{strat.max_depth}"
    else:
        tail = f"{type(strat).__name__.lower()}{strat.seed}"
    args = "_".join(str(x).replace(" ", "") for x in args)
    return f"{program}-{args}-f{fuel}-{tail}"


# The rule axis. Each sort has a pool of argument makers, called afresh for
# every application, so that no code's approximation cache carries over from
# one case to the next. The real pool gives equal reals (ties in eq/less),
# an exact zero (inv) and a non-constant code.
RULE_ALGEBRAS = ("N*", "RN*", "IN*", "codes(IN*)")
RULE_FUELS = (0, 1, 2, 5, 64)
APPROX_BITS, APPROX_FUEL = 20, 100_000
SCALARS = {
    "bool": (("tt", lambda: BoolV(True)), ("ff", lambda: BoolV(False))),
    "nat": (("0", lambda: NatV(0)), ("3", lambda: NatV(3))),
    "real": (("0", lambda: rat_value(0)), ("1/2", lambda: rat_value(Fraction(1, 2))),
             ("sqrt2", lambda: RealV(sqrt_code(2)))),
    "interval": (("0", lambda: rat_value(0)),
                 ("1/2", lambda: rat_value(Fraction(1, 2)))),
}


def _pool(sort) -> tuple:
    """(label, maker) pairs for the arguments of one sort; an array is empty
    or holds the first and last element of its element sort's pool."""
    if sort.kind != "array":
        return SCALARS[sort.name]
    (l0, m0), (l1, m1) = SCALARS[sort.elem.name][0], SCALARS[sort.elem.name][-1]
    return (("[]", lambda: ArrV(sort.elem, ())),
            (f"[{l0},{l1}]", lambda: ArrV(sort.elem, (m0(), m1()))))


def _rule_algebra(name: str):
    if name == "codes(IN*)":
        registry = CodeRegistry()
        return code_algebra(get_algebra("IN*"), registry), registry
    return get_algebra(name), None


def _rule_key(v) -> str:
    """The value key, with a non-constant real as its approximation at
    2^-APPROX_BITS (a code's identity cannot be recorded)."""
    if isinstance(v, RealV) and not v.code.is_const:
        return f"approx {v.code.approx(APPROX_BITS, Fuel(APPROX_FUEL))}"
    if isinstance(v, ArrV):
        return "[" + ", ".join(_rule_key(x) for x in v.items) + "]"
    return repr(value_key(v))


def _outcome(r) -> str:
    if r is DIV:
        return "div"
    if r is FUEL_OUT:
        return "fuel"
    return _rule_key(r)


def _run_rule(alg_name: str, rule: str) -> dict:
    """Every argument combination at every budget of RULE_FUELS, in order,
    on one fresh algebra (and registry, whose indices are then fixed)."""
    alg, registry = _rule_algebra(alg_name)
    sym = alg.signature.symbol(rule)
    combos = [()]
    for s in sym.arg_sorts:
        combos = [c + ((s, p),) for c in combos for p in _pool(s)]
    cases = []
    for combo in combos:
        for fuel in RULE_FUELS:
            args = tuple(make() for _, (_, make) in combo)
            if registry is not None:
                args = tuple(encode_input(v, s, registry)
                             for v, (s, _) in zip(args, combo))
            budget = Fuel(fuel)
            r = apply(alg, rule, args, budget)
            cases.append({"args": ",".join(label for _, (label, _) in combo),
                          "fuel": fuel, "outcome": _outcome(r),
                          "fuel_remaining": budget.remaining})
    return {"algebra": alg_name, "rule": rule, "cases": cases}


def _rule_grid():
    for name in RULE_ALGEBRAS:
        alg, _ = _rule_algebra(name)
        for rule in sorted(alg.signature.symbols):
            yield name, rule


ENUM_GRID = list(_grid(True))
DET_GRID = list(_grid(False))
BOUNDARY_GRID = list(_boundary_grid())
GRID = ENUM_GRID + DET_GRID + BOUNDARY_GRID
RULE_GRID = list(_rule_grid())


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_grid(golden):
    # each case's record names its run, so only the count is left to check
    assert len(golden) == len(GRID) + len(RULE_GRID)


@pytest.mark.parametrize("idx", range(len(ENUM_GRID)),
                         ids=[_case_id(c) for c in ENUM_GRID])
def test_enumerate_matches_golden(golden, idx):
    assert _run(*GRID[idx]) == golden[idx]


@pytest.mark.parametrize("idx", range(len(ENUM_GRID), len(ENUM_GRID) + len(DET_GRID)),
                         ids=[_case_id(c) for c in DET_GRID])
def test_dovetail_oracle_match_golden(golden, idx):
    assert _run(*GRID[idx]) == golden[idx]


@pytest.mark.parametrize("idx", range(len(GRID) - len(BOUNDARY_GRID), len(GRID)),
                         ids=[_case_id(c) for c in BOUNDARY_GRID])
def test_fuel_boundary_matches_golden(golden, idx):
    assert _run(*GRID[idx]) == golden[idx]


@pytest.mark.parametrize("idx", range(len(RULE_GRID)),
                         ids=[f"{a}-{r}" for a, r in RULE_GRID])
def test_rule_matches_golden(golden, idx):
    assert _run_rule(*RULE_GRID[idx]) == golden[len(GRID) + idx]


@pytest.mark.parametrize("make, last", BOUNDARIES,
                         ids=[repr(make()) for make, _ in BOUNDARIES])
def test_fuel_boundary_is_the_least_budget_that_completes(make, last):
    def outcome(fuel):
        res = _run("fuel_edges", make(), (2,), fuel)
        del res["fuel"], res["fuel_remaining"]
        return res

    ample = outcome(100_000)
    assert outcome(last) == ample and outcome(last - 1) != ample


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_enum_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    rows = [json.dumps(_run(*c)) for c in GRID]
    rows += [json.dumps(_run_rule(*c)) for c in RULE_GRID]
    FIXTURE.write_text("[\n" + ",\n".join(rows) + "\n]\n")
    print(f"wrote {len(rows)} cases to {FIXTURE}")
