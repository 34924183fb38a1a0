"""Report plumbing, env-var fuel default, and resource-cap behavior."""

import inspect
import json

from whilecc import codes, interp, reals, tracking
from whilecc.report import Report
from whilecc.algebra import rat_value, NatV
from whilecc.codes import Fuel
from whilecc.interp import Enumerate, comp_tree_stage, State
from whilecc.programs import load


def test_report_lines_and_summary():
    rep = Report("demo")
    rep.add(True, "check-a", "sample-1", "fine")
    rep.add(False, "check-b", "sample-2", "broke")
    lines = rep.lines()
    assert lines[0].startswith("PASS check-a sample-1")
    assert lines[1].startswith("FAIL check-b sample-2")
    assert not rep.ok and len(rep.failures) == 1
    doc = json.loads(rep.to_json())
    assert doc["total"] == 2 and doc["failed"] == 1
    # reports speak of sampled verification, never of proof
    assert doc["scope"] == "verified on samples"


def test_fuel_env_default(monkeypatch, capsys):
    from whilecc import cli
    monkeypatch.setenv(cli.FUEL_ENV, "1234")
    ap = cli.build_parser()
    ns = ap.parse_args(["run", "--program", "pivot3", "--input", "(1,1,1)"])
    assert ns.fuel == 1234


def test_comp_tree_node_cap_truncates_not_crashes():
    p, alg = load("pivot3")
    sigma = State({"x1": rat_value(1), "x2": rat_value(1), "x3": rat_value(1),
                   "i": NatV(0)})
    tree = comp_tree_stage(p.body, sigma, 4, alg, Enumerate(8, max_depth=1), fuel=Fuel(1_000_000))
    def any_truncated(t):
        return t.truncated or any(any_truncated(c) for c in t.children)
    assert any_truncated(tree)


def test_no_fuel_parameter_has_a_default():
    # every budget is the caller's: a defaulted `fuel` would be a hidden one
    fns = [interp.comp_tree_stage]
    for mod in (codes, reals, tracking):
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", "") != mod.__name__:
                continue
            if inspect.isfunction(obj):
                fns.append(obj)
            elif inspect.isclass(obj):
                fns += [m for n, m in vars(obj).items()
                        if inspect.isfunction(m) and not n.startswith("_")]
    todo = [codes.ECode]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        fns += [vars(cls)[m] for m in ("approx", "interval") if m in vars(cls)]
    assert len(fns) > 40
    defaulted = [f.__qualname__ for f in fns
                 if "fuel" in inspect.signature(f).parameters
                 and inspect.signature(f).parameters["fuel"].default
                 is not inspect.Parameter.empty]
    assert defaulted == []
    assert not hasattr(codes, "SESSION_FUEL")
