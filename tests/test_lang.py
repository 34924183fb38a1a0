"""Parser, desugaring, validation diagnostics, and round-tripping."""

from fractions import Fraction

import pytest

from whilecc.lang import (parse, parse_program, auto_init, validate_star,
                          WccError)
from whilecc.lang.ast import (Assign, Seq, While, Choose, App, Lit,
                              Skip, Div)
from whilecc.lang.parser import pretty_program
from whilecc.programs import stdlib


def rt(src):
    """parse . pretty . parse round trip; returns the first parse."""
    prog = parse_program(src)
    again = parse_program(pretty_program(prog))
    for name, p in prog.procedures.items():
        q = again.procedures[name]
        assert p.body == q.body, name
        assert p.in_vars == q.in_vars and p.out_vars == q.out_vars
    return prog


def test_stdlib_programs_parse_validate_and_roundtrip():
    for name, entry in stdlib().items():
        prog = rt(entry.source)
        assert entry.proc_name in prog.procedures, name


def test_pivot_procedure_type():
    p = stdlib()["pivot3"].procedure()
    assert [s.name for _, s in p.in_vars] == ["real", "real", "real"]
    assert [s.name for _, s in p.out_vars] == ["nat"]


def test_minimal_func():
    p = parse("algebra RN\nfunc f in a: real out b: real begin b := a end")
    assert isinstance(p.body, Seq)  # init was prepended
    init = p.body.s1
    assert isinstance(init, Assign) and set(init.lhs) == {"b"}


def test_input_assignment_diagnostic():
    with pytest.raises(WccError) as e:
        parse("algebra RN\nfunc f in a: real out b: real begin a := 1 end")
    assert "input assigned" in str(e.value)


def test_distinct_diagnostics():
    cases = {
        "algebra RN\nfunc f in a: real, a: real out b: real begin b := 1 end":
            "duplicate",
        "algebra RN\nfunc f out b: real begin b := c end": "unknown variable",
        "algebra RN\nfunc f out b: real begin b := 1 + true end": "sort",
        "algebra RN\nfunc f out b: nat begin b := choose z : z end":
            "expected sort bool",
        "algebra RN\nfunc f out b: real begin b, b := 1, 2 end": "distinct",
        "algebra RN\nfunc f out b: real begin b := 1, 2 end": "arity",
    }
    for src, needle in cases.items():
        with pytest.raises(WccError) as e:
            parse(src)
        assert needle in str(e.value), src


def test_unknown_algebra_and_sort():
    with pytest.raises(WccError):
        parse("algebra ZFC\nfunc f out b: real begin b := 1 end")
    with pytest.raises(WccError):
        parse("algebra RN\nfunc f out b: ordinal begin skip end")


def test_auto_init_idempotent():
    src = "algebra RN\nfunc f in a: real out b: real aux c: nat begin b := a end"
    p = parse(src)
    again = auto_init(p)
    assert again.body == p.body
    init = p.body.s1
    assert set(init.lhs) == {"b", "c"}


def test_initialisation_covers_out_and_aux_with_defaults(RNs):
    src = """algebra RN*
func f in a: real out b: real aux xs: real*, k: nat
begin
  b := a
end"""
    p = parse(src)
    init = p.body.s1
    by_name = dict(zip(init.lhs, init.rhs))
    assert by_name["b"] == Lit(Fraction(0), p.var_sorts["b"])
    assert by_name["k"] == Lit(0, p.var_sorts["k"])
    assert isinstance(by_name["xs"], App) and by_name["xs"].sym.name == "Null_real"


def test_for_loop_desugars_to_while():
    src = """algebra RN
func f in n: nat out s: nat aux k: nat
begin
  for k := 0 to n do s := succ(s) od
end"""
    p = parse(src)
    body = p.body.s2  # past the init
    # k := 0 ; end := n ; while ...
    assert isinstance(body, Seq)
    assert isinstance(body.s1, Assign) and body.s1.lhs == ("k",)
    w = body.s2.s2
    assert isinstance(w, While)
    assert w.b.sym.name == "not"


def test_choose_pair_sugar():
    src = """algebra RN
func f out x: nat, y: nat
begin
  x, y := choose z1, z2 : eq_nat(pair(z1, z2), 11)
end"""
    p = parse(src)
    # desugared to: k := choose z: ...fst/snd...; x, y := fst(k), snd(k)
    stmts = p.body
    inner = stmts.s2
    assert isinstance(inner, Seq)
    first, second = inner.s1, inner.s2
    assert isinstance(first, Assign) and isinstance(first.rhs[0], Choose)
    assert isinstance(second, Assign)
    assert [t.sym.name for t in second.rhs] == ["fst", "snd"]


def test_choose_rational_sugar():
    src = """algebra RN
func f out q: real
begin
  q := choose rational r : dist(r, 1/2) < 1/4
end"""
    p = parse(src)
    assign = p.body.s2
    t = assign.rhs[0]
    assert isinstance(t, App) and t.sym.name == "rat"
    assert isinstance(t.args[0], Choose)
    # the bound variable occurs only through rat(.)
    body = t.args[0].body
    assert "rat" in repr(body)


def test_literal_sugar_equals_explicit_closed_term():
    from whilecc.interp import Dovetail, eval_proc
    from whilecc.codes import Fuel
    lit = parse("algebra RN\nfunc f out b: real begin b := 3 end")
    explicit = parse("algebra RN\nfunc f out b: real begin "
                     "b := one_real() + (one_real() + one_real()) end")
    from whilecc.algebra import get_algebra
    rn = get_algebra("RN")
    v1 = eval_proc(lit, (), rn, Dovetail(), Fuel(1000)).values[0]
    v2 = eval_proc(explicit, (), rn, Dovetail(), Fuel(1000)).values[0]
    assert v1.code.value == v2.code.value == 3


def test_rational_literal_folding():
    p = parse("algebra RN\nfunc f out b: real begin b := 3/4 - 1/4 end")
    assert p.body.s2.rhs[0] == Lit(Fraction(1, 2), p.var_sorts["b"])


def test_fraction_literal_operand_round_trips():
    # printed bare, `x * 1/2` would re-parse as (x * 1) / 2
    prog = rt("algebra RN\nfunc f in x: real out b: real\n"
              "begin b := x * (1/2) - x / (3/4) end")
    rhs = prog.proc().body.s2.rhs[0]
    assert rhs.args[0].args[1] == Lit(Fraction(1, 2), rhs.sort)


def test_comparison_sugar_resolution():
    p = parse("algebra RN\nfunc f in a: real out b: bool begin b := a <> 0 end")
    t = p.body.s2.rhs[0]
    assert t.sym.name == "not" and t.args[0].sym.name == "eq_real"
    p = parse("algebra RN\nfunc f in k: nat out b: bool begin b := k <= 4 end")
    t = p.body.s2.rhs[0]
    assert t.sym.name == "not" and t.args[0].sym.name == "less_nat"


def test_validate_star():
    exp = stdlib()["exp_approx"].procedure()
    assert validate_star(exp) is exp  # nat input allowed by default
    with pytest.raises(WccError):
        validate_star(exp, strict=True)  # flagged under strict sigma-only i/o
    bisect = stdlib()["root_bisect"].procedure()
    assert validate_star(bisect) is bisect
    with pytest.raises(WccError):
        validate_star(bisect, strict=True)  # starred input
    src = """algebra RN*
func f in a: real out xs: real*
begin
  xs := Newlength(xs, 2)
end"""
    with pytest.raises(WccError) as e:
        validate_star(parse(src))
    assert "starred" in str(e.value)


def test_aux_starred_and_nat_allowed():
    src = """algebra RN*
func f in a: real out b: real aux choices: nat*, k: nat
begin
  b := a
end"""
    p = parse(src)
    assert validate_star(p) is p


def test_skip_div_statements():
    p = parse("algebra RN\nfunc f out b: real begin skip; div; b := 1 end")
    seq = p.body.s2
    assert isinstance(seq.s1, Skip)
    assert isinstance(seq.s2.s1, Div)


def test_choose_in_term_position():
    p = parse("algebra RN\nfunc f out k: nat begin k := succ(choose z : eq_nat(z, 3)) end")
    t = p.body.s2.rhs[0]
    assert t.sym.name == "succ" and isinstance(t.args[0], Choose)


def test_interval_embedding_coercion():
    src = """algebra IN
func f in x: interval out b: bool
begin
  b := x < 1/2
end"""
    p = parse(src)
    t = p.body.s2.rhs[0]
    assert t.sym.name == "less_real"
    assert t.args[0].sym.name == "i_I"


def test_interval_operand_meets_real_operand_through_i_I():
    # an interval variable compared with a real one, on either side, is
    # embedded by i_I (Parser._coerce_interval)
    src = ("algebra IN\nfunc f in x: interval, y: real out b: bool, c: bool\n"
           "begin\n  b := x < y;\n  c := y < x\nend")
    assert pretty_program(parse_program(src)) == (
        "algebra IN\n\nfunc f\nin x: interval, y: real\nout b: bool, c: bool\n"
        "begin\n  b, c := false, false;\n  b := (i_I(x) < y);\n"
        "  c := (y < i_I(x))\nend\n")


# The four choose forms, rational or plain, with one binder or two, each as
# the parser desugared it before its four cases were folded into one path.
# The expected texts pin the fresh names ch_k/ch_z/ch_pair and their order.
_CHOOSE_FORMS = {
    "rational": (
        "q := choose rational r : dist(r, x) < 1/4",
        "",
        "  q, a, b, m, i := 0, 0, 0, 0, 0;\n"
        "  q := rat((choose ch_k0 : (dist(rat(ch_k0), x) < (1/4))))\n"),
    "rational pair": (
        "a, b := choose rational a0, b0 :\n"
        "  (a0 < b0) andthen (dist(a0, choose rational r : dist(r, b0) < 1/8) < 1/2)",
        "aux ch_pair2: nat\n",
        "  q, a, b, m, i, ch_pair2 := 0, 0, 0, 0, 0, 0;\n"
        "  ch_pair2 := (choose ch_z0 : ((rat(fst(ch_z0)) < rat(snd(ch_z0))) "
        "andthen (dist(rat(fst(ch_z0)), rat((choose ch_k1 : "
        "(dist(rat(ch_k1), rat(snd(ch_z0))) < (1/8))))) < (1/2))));\n"
        "  a, b := rat(fst(ch_pair2)), rat(snd(ch_pair2))\n"),
    "plain": (
        "m := choose k : less_nat(k, choose k : eq_nat(k, 2))",
        "",
        "  q, a, b, m, i := 0, 0, 0, 0, 0;\n"
        "  m := (choose k : (k < (choose k : (k = 2))))\n"),
    "plain pair": (
        "m, i := choose z1, z2 : eq_nat(pair(z1, z2), 11)",
        "aux ch_pair1: nat\n",
        "  q, a, b, m, i, ch_pair1 := 0, 0, 0, 0, 0, 0;\n"
        "  ch_pair1 := (choose ch_z0 : (pair(fst(ch_z0), snd(ch_z0)) = 11));\n"
        "  m, i := fst(ch_pair1), snd(ch_pair1)\n"),
}


@pytest.mark.parametrize("form", sorted(_CHOOSE_FORMS))
def test_choose_forms_desugar_as_recorded(form):
    stmt, aux, body = _CHOOSE_FORMS[form]
    decls = "in x: real\nout q: real, a: real, b: real, m: nat, i: nat\n"
    prog = parse_program(f"algebra RN\nfunc f {decls}begin\n  {stmt}\nend")
    assert pretty_program(prog) == (
        f"algebra RN\n\nfunc f\n{decls}{aux}begin\n{body}end\n")
