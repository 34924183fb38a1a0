"""Counting loops: Oracle and Dovetail take a counting loop's whole iterations
at once (`interp._counting_loop`), and must end every run exactly as the loop
walked node by node would: the same values, flags, diagnostics in order, and
fuel left, at every budget around each iteration boundary.

The node-by-node run is the same program compiled with the recogniser
patched to find no loop. It runs on an algebra of its own, since a
procedure's compiled code is kept per algebra."""

from fractions import Fraction
from itertools import product

import pytest

from whilecc import interp
from whilecc.algebra import (DIV, AlgebraError, SHARED_NATS, get_algebra,
                             interval_value, value_key)
from whilecc.codes import ConstCode, Fuel
from whilecc.interp import (_LOOP, Dovetail, Enumerate, Oracle, eval_proc,
                            initial_state, nat_value)
from whilecc.lang import parse
from whilecc.lang.ast import While
from whilecc.programs import load

STRATEGIES = (Dovetail(0), Dovetail(1), Oracle(2))
PREFIX = 4  # steps: the four assignments before the loop
NAMES = "jab"  # the counter, then up to two more incremented variables


def _succ(v: str, c: int) -> str:
    return "succ(" * c + v + ")" * c


def loop_program(incs: tuple, counter_first: bool, literal: int = None):
    """A procedure that counts j from j0 below e (or below the literal) while
    it adds incs[i] to each further variable; the tail after the loop reads
    a choose, so each strategy answers in its own way."""
    names = NAMES[:len(incs) + 1]
    body = [f"{v} := {_succ(v, c)}" for v, c in zip(names[1:], incs)]
    body.insert(0 if counter_first else len(body), "j := succ(j)")
    bound = "e" if literal is None else str(literal)
    src = f"""algebra N
func count
in j0: nat, a0: nat, b0: nat, e: nat
out j: nat, a: nat, b: nat, c: nat
begin
  j := j0; a := a0; b := b0; c := 0;
  while j < {bound} do {"; ".join(body)} od;
  c := choose z : z < 3;
  a := succ(a)
end"""
    return parse(src)


def outcome(p, alg, args, strat, budget):
    fuel = Fuel(budget)
    res = eval_proc(p, args, alg, strat, fuel)
    values = [tuple(map(value_key, v if isinstance(v, tuple) else (v,)))
              for v in res.values]
    return (values, res.proven_divergent, res.truncated, res.diagnostics,
            fuel.remaining)


@pytest.fixture
def walked(monkeypatch):
    """Run a procedure node by node, on an algebra of its own."""
    plain = {}

    def run(p, args, strat, budget):
        name = p.algebra_name
        alg = plain.get(name) or plain.setdefault(name, get_algebra(name))
        with monkeypatch.context() as m:
            m.setattr(interp, "_counting_loop", lambda s: None)
            return outcome(p, alg, args, strat, budget)

    return run


def has_loop_node(p, alg, enum: bool = False) -> bool:
    """Whether p's code on alg has a summed loop: Enumerate's code if enum,
    else the one Oracle and Dovetail share."""
    return any(node.kind == _LOOP for node in p.compiled[alg][enum].nodes)


LOOPS = [(incs, first) for n in (0, 1, 2)
         for incs in product((1, 2, 3), repeat=n) for first in (True, False)]
STARTS = [(0, 3), (5, 5), (7, 2), (SHARED_NATS - 2, SHARED_NATS + 2)]


@pytest.mark.parametrize("incs, counter_first", LOOPS)
@pytest.mark.parametrize("literal", (False, True))
def test_a_summed_loop_ends_every_run_as_its_node_walk(incs, counter_first,
                                                       literal, walked):
    alg = get_algebra("N")
    steps = 2 + 2 + sum(1 + c for c in incs)  # K = 2 + sum(1 + c), j's c = 1
    for j0, e in STARTS:
        p = loop_program(incs, counter_first, e if literal else None)
        # a and b start past SHARED_NATS too, once j does
        args = tuple(nat_value(x) for x in (j0, 3 * j0 + 1, 2 * j0, e))
        rounds = max(0, e - j0)
        budgets = {PREFIX + r * steps + d for r in range(rounds + 2)
                   for d in (-1, 0, 1, 2)} | {0, 1, 10_000}
        for strat, budget in product(STRATEGIES, sorted(budgets)):
            got = outcome(p, alg, args, strat, budget)
            assert got == walked(p, args, strat, budget), (j0, e, strat, budget)
        assert has_loop_node(p, alg)


def test_a_summed_loop_ends_with_its_counts(walked):
    # 100 000 rounds at once: j reaches e, and a grows by 2 a round
    alg = get_algebra("N")
    p = loop_program((2,), True)
    big = SHARED_NATS + 5
    args = tuple(nat_value(x) for x in (3, big, 0, 100_003))
    fuel = Fuel(1_000_000)
    res = eval_proc(p, args, alg, Dovetail(0), fuel)
    (j, a, b, _), = res.values
    assert (j.n, a.n, b.n) == (100_003, big + 2 * 100_000 + 1, 0)
    assert not res.maybe_divergent
    assert outcome(p, alg, args, Dovetail(0), 1_000_000) == walked(
        p, args, Dovetail(0), 1_000_000)


@pytest.mark.parametrize("name, n", [("exp_approx", 2), ("log2_search", 20),
                                     ("isqrt_search", 10),
                                     ("least_divisor", 15)])
def test_the_stdlib_loops_end_every_run_as_their_node_walks(name, n, walked):
    # every budget up to 400 steps, past the loops at these inputs, and the
    # budgets around a whole run; a Dovetail run of the last three then
    # searches its choose for thousands of steps
    p, alg = load(name)
    args = (nat_value(n),)
    if name == "exp_approx":
        args += (interval_value(ConstCode(Fraction(1, 2))),)
    for strat in (Dovetail(0), Oracle(2)):
        full = 10_000_000 - outcome(p, alg, args, strat, 10_000_000)[4]
        for budget in sorted(set(range(400)) | set(range(full - 1, full + 3))):
            assert outcome(p, alg, args, strat, budget) == walked(
                p, args, strat, budget), (strat, budget)
    assert has_loop_node(p, alg)


def test_enumerate_walks_a_counting_loop_node_by_node():
    alg = get_algebra("N")
    p = loop_program((2,), False)
    args = tuple(nat_value(x) for x in (0, 0, 0, 4))
    res = eval_proc(p, args, alg, Enumerate(8), Fuel(1_000))
    assert not has_loop_node(p, alg, enum=True)
    assert sorted(tuple(v.n for v in t) for t in res.values) == [
        (4, 9, 0, c) for c in range(3)]


NEAR_MISSES = {
    "the counter is under succ (horner)":
        "while succ(j) < e do j := succ(j) od",
    "the counter steps by 2": "while j < e do j := succ(succ(j)) od",
    "the counter is not stepped": "while j < e do a := succ(a) od",
    "a body that reads another variable":
        "while j < e do a := succ(b); j := succ(j) od",
    "a body that assigns the bound":
        "while j < e do e := succ(e); j := succ(j) od",
    "a concurrent assignment": "while j < e do a, j := succ(a), succ(j) od",
    "a variable assigned twice":
        "while j < e do a := succ(a); a := succ(a); j := succ(j) od",
    "a bound that is the counter": "while j < j do j := succ(j) od",
    "a guard that is not less_nat": "while not (e < j) do j := succ(j) od",
    "a body with a skip": "while j < e do skip; j := succ(j) od",
}


@pytest.mark.parametrize("loop", NEAR_MISSES.values(), ids=NEAR_MISSES.keys())
def test_a_near_miss_is_walked_node_by_node(loop):
    alg = get_algebra("N")
    p = parse(f"""algebra N
func f in n: nat out j: nat aux a: nat, b: nat, e: nat
begin e := n; {loop} end""")
    [s] = [s for s in interp._seq_parts(p.body) if isinstance(s, While)]
    assert interp._counting_loop(s) is None
    eval_proc(p, (nat_value(0),), alg, Dovetail(), Fuel(100))
    assert not has_loop_node(p, alg)


# ---------------------------------------------------------------------------
# out and aux defaults, built once per procedure and algebra


def test_defaults_are_built_once_per_algebra(monkeypatch):
    alg = get_algebra("N")
    p = loop_program((1,), True)
    built = []
    default_value = alg.default_value
    monkeypatch.setattr(alg, "default_value",
                        lambda s: built.append(s) or default_value(s))
    args = tuple(nat_value(x) for x in (0, 0, 0, 2))
    for strat in (Dovetail(), Oracle(1), Enumerate(4), Dovetail()):
        eval_proc(p, args, alg, strat, Fuel(1_000))
    assert len(built) == len(p.out_vars) + len(p.aux_vars) == 4
    # the junk overlay is per run, and leaves the kept defaults as they were
    junk = {"a": nat_value(7), "j0": nat_value(9)}
    sigma = initial_state(p, alg, args, junk)
    assert sigma.get("a").n == 7 and sigma.get("j0").n == 0
    assert initial_state(p, alg, args).get("a").n == 0
    with pytest.raises(AlgebraError, match="input e expects sort nat"):
        initial_state(p, alg, args[:3] + (get_algebra("RN").real_literal(1),))


def test_a_default_that_does_not_converge_raises_on_every_run():
    alg = get_algebra("N")
    alg.interp["zero_nat"] = lambda fuel: DIV
    p = loop_program((1,), True)
    args = tuple(nat_value(x) for x in (0, 0, 0, 2))
    for _ in range(2):
        with pytest.raises(AlgebraError, match="did not converge"):
            eval_proc(p, args, alg, Dovetail(), Fuel(1_000))
    assert alg not in p.defaults
