"""The batch runner: exit codes, output formats, reproducibility."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import whilecc
from whilecc.cli import main, parse_literal, parse_strategy, UsageError
from whilecc.programs.oracles import exp_partial_sum


# the exact value of the n=4 exponential stage at x=1, computed by the
# direct-summation oracle (sum_{i<=32} 1/i!)
EXP_N4_AT_1 = exp_partial_sum(1, 32)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_exp_exact_value(capsys):
    code, out, err = run_cli(capsys, "run", "--program", "exp_approx",
                             "--n", "4", "--input", "1")
    assert code == 0, err
    assert f"value {EXP_N4_AT_1}" in out
    assert "flags none" in out
    assert "exit 0" in out


@pytest.fixture
def str_digit_limit():
    """Python's default limit on the digits of an int converted to text."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_a_long_exact_value_prints_its_digit_counts(capsys, str_digit_limit):
    # the n = 9 stage sums 1025 terms: its numerator and denominator have
    # 4363 digits each, too many for str(); the value prints their counts
    q = exp_partial_sum(Fraction(37, 53), 1024)
    assert 10 ** 4362 <= q.numerator < 10 ** 4363
    assert 10 ** 4362 <= q.denominator < 10 ** 4363
    want = "<4363 digits>/<4363 digits> (2.00995675627)"
    args = ("--program", "exp_approx", "--n", "9", "--input", "37/53",
            "--fuel", "100000")
    code, out, err = run_cli(capsys, "run", *args)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == [f"value {want}", "flags none"]
    code, out, err = run_cli(capsys, "run", *args, "--format", "json-lines")
    assert (code, err) == (0, "")
    assert json.loads(out.splitlines()[0]) == {"value": want}
    code, out, err = run_cli(capsys, "sweep", *args, "--seeds", "0",
                             "--format", "json-lines")
    assert (code, err) == (0, "")
    assert json.loads(out.splitlines()[0])["values"] == [want]
    code, out, err = run_cli(capsys, "sweep", *args, "--seeds", "0")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"  {want}: 1"


def test_run_pivot_divergent_exit_2(capsys):
    code, out, _ = run_cli(capsys, "run", "--program", "pivot3",
                           "--input", "(0, 0, 0)", "--fuel", "1000")
    assert code == 2
    assert "value (none)" in out
    # each candidate of the guard's domain 1..3 ties with an exact 0
    assert "flags divergence-proven" in out and "fuel_used=11 " in out


def test_run_pivot_converged(capsys):
    code, out, _ = run_cli(capsys, "run", "--program", "pivot3",
                           "--input", "(0, 3.5, 0)")
    assert code == 0
    assert "value 2" in out


def test_unknown_flag_exit_1(capsys):
    code, _, _ = run_cli(capsys, "run", "--program", "pivot3", "--bogus", "1")
    assert code == 1


def test_seed_is_a_run_option_only(capsys):
    # sweep takes its seeds from --seeds; a --seed there is a usage error
    code, _, err = run_cli(capsys, "sweep", "--program", "exp_approx",
                           "--input", "1", "--ns", "2", "--seeds", "0..1",
                           "--seed", "7")
    assert code == 1 and "--seed" in err
    code, out, _ = run_cli(capsys, "run", "--program", "exp_approx",
                           "--n", "2", "--input", "1", "--seed", "7")
    assert code == 0 and "exit 0" in out


def test_run_rejects_abbreviated_options(capsys):
    # `--prog`/`--inp` are not taken for `--program`/`--input`
    code, out, err = run_cli(capsys, "run", "--prog", "choose_near",
                             "--inp", "1/3, 4")
    assert code == 1 and out == "" and "--prog" in err
    code, out, _ = run_cli(capsys, "run", "--program", "choose_near",
                           "--input", "1/3, 4")
    assert code == 0 and out.startswith("value 1/3 ")


@pytest.mark.parametrize("argv, env, says", [
    (("run", "--strategy", "oracle:x"), None, "'x'"),
    (("run", "--strategy", "dovetail:x"), None, "'x'"),
    (("run", "--strategy", "enumerate:a:b"), None, "'a'"),
    (("run", "--strategy", "enumerate:0:5"), None, "positive"),
    (("run", "--fuel", "-1"), None, "-1"),
    (("sweep", "--seeds", "a..b"), None, "'a'"),
    (("sweep", "--seeds", "0..1..2"), None, "'1..2'"),
    (("sweep", "--ns", "x"), None, "'x'"),
    (("run",), "lots", "WHILECC_FUEL_DEFAULT"),
    (("run",), "-5", "-5"),
])
def test_bad_numbers_are_one_error_line(capsys, monkeypatch, argv, env, says):
    # a malformed number is a usage error: one `error:` line and status 1,
    # not a traceback
    if env is not None:
        monkeypatch.setenv("WHILECC_FUEL_DEFAULT", env)
    code, out, err = run_cli(capsys, argv[0], "--program", "pivot3",
                             "--input", "0, 3/2, 0", *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and says in err


@pytest.mark.parametrize("command, option", [
    ("run", "--seed=-5"), ("run", "--strategy=dovetail:-5"),
    ("sweep", "--seeds=-7,7"), ("sweep", "--seeds=-9..-7"),
])
def test_a_negative_dovetail_seed_is_one_error_line(capsys, command, option):
    # a Dovetail seeded -s would repeat the run seeded s (and a sweep would
    # count it as a second witness), so a negative seed is a usage error
    code, out, err = run_cli(capsys, command, "--program", "root_bisect",
                             "--input", "[-2, 0, 1]", "--n", "3", option)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dovetail seed must be non-negative" in err


def test_a_negative_oracle_seed_is_one_error_line(capsys):
    # an Oracle seeded -s would propose the answers seeded s
    code, out, err = run_cli(capsys, "run", "--program", "pivot3",
                             "--input", "0, 3/2, 0", "--strategy", "oracle:-5")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "oracle seed must be non-negative" in err


def test_missing_program_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", "--program", "no_such_prog",
                           "--input", "1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv, says", [
    (lambda d: ("--program", str(d / "id.wcc"), "--proc", "nope"), "'nope'"),
    (lambda d: ("--program", str(d)), "Is a directory"),
    (lambda d: ("--program", str(d / "bin.wcc")), "not UTF-8 text"),
], ids=["unknown-proc", "directory", "not-utf8"])
def test_an_unknown_proc_or_an_unreadable_program_is_one_error_line(
        capsys, tmp_path, argv, says):
    # a procedure the file does not define, or a --program that names a
    # directory or a file that is not UTF-8 text, is a usage error: one
    # `error:` line, not a traceback
    (tmp_path / "id.wcc").write_text(
        "algebra N\nfunc id in x: nat out y: nat begin y := x end\n")
    (tmp_path / "bin.wcc").write_bytes(b"algebra N\n\xd0\x00\n")
    code, out, err = run_cli(capsys, "run", *argv(tmp_path), "--input", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and says in err


def test_bad_input_literal_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", "--program", "pivot3",
                           "--input", "(zebra, 1, 2)")
    assert code == 1


def test_json_lines_format(capsys):
    code, out, _ = run_cli(capsys, "run", "--program", "exp_approx",
                           "--n", "2", "--input", "1/2",
                           "--format", "json-lines")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert any("value" in l for l in lines)
    assert lines[-1]["exit"] == 0


def test_run_prints_diagnostics_in_order(capsys):
    args = ("run", "--program", "pivot3", "--input", "0,0,0",
            "--strategy", "enumerate:8:10000")
    code, out, _ = run_cli(capsys, *args)
    assert code == 2
    lines = out.splitlines()
    notes = [f"diag choose candidate {k}: divergent guard" for k in (1, 2, 3)]
    assert lines[lines.index("flags divergence-proven") + 1:][:3] == notes
    assert run_cli(capsys, *args)[1] == out
    code, out, _ = run_cli(capsys, *args, "--format", "json-lines")
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["diagnostics"] == [n[len("diag "):] for n in notes]


def test_reproducibility_byte_identical(capsys):
    args = ("run", "--program", "root_bisect_fa", "--n", "3",
            "--input", "0", "--strategy", "dovetail:7", "--fuel", "2000000")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_named_code_input(capsys):
    code, out, _ = run_cli(capsys, "run", "--program", "choose_near",
                           "--input", "sqrt2, 2")
    assert code == 0
    assert "value" in out


def test_named_code_runs_are_byte_identical_in_one_process(capsys):
    # each run builds its own registry, so a run never reuses the sqrt2
    # levels an earlier one computed; a fresh process prints the same
    args = ("run", "--program", "choose_near", "--input", "sqrt2, 3")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second
    src = os.path.dirname(os.path.dirname(whilecc.__file__))
    fresh = subprocess.run([sys.executable, "-m", "whilecc.cli", *args],
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src})
    assert (fresh.returncode, fresh.stdout) == first[:2]


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("args", [
    ("run", "--program", "choose_near", "--input", "1/3, 4"),
    ("sweep", "--program", "exp_approx", "--input", "1", "--ns", "2",
     "--seeds", "0..1")])
def test_a_closed_stdout_ends_with_status_1_and_nothing_on_stderr(
        args, unbuffered):
    # stdout is a pipe whose read end is already closed, so the first write
    # fails: in print when unbuffered, else in the flush before exit
    src = os.path.dirname(os.path.dirname(whilecc.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        child = subprocess.run([sys.executable, "-m", "whilecc.cli", *args],
                               stdout=w, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(w)
    assert (child.returncode, child.stderr) == (1, b"")


def test_a_run_started_with_no_stdout_completes_quietly():
    # with file descriptor 1 closed, Python has no sys.stdout and print
    # writes nothing: the run completes with its own status
    src = os.path.dirname(os.path.dirname(whilecc.__file__))
    child = subprocess.run(
        ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m",
         "whilecc.cli", "run", "--program", "choose_near", "--input", "1/3, 4"],
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    assert (child.returncode, child.stderr) == (0, b"")


def test_code_value_renders_on_what_the_run_left(capsys):
    # the run takes 14 steps and rendering sqrt2 + 1 to 2^-32 two more
    args = ("run", "--program", "scaled_sum", "--input", "sqrt2, 1")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "value ~2.41421356 (code)" in out
    assert "fuel_used=14 " in out
    code, out, _ = run_cli(capsys, *args, "--fuel", "15")
    assert code == 0  # the run converged cleanly; rendering is not the run
    assert out.splitlines()[0] == \
        "value (code: fuel ran out rendering it to 2^-32)"
    assert "stats outcomes=1 fuel_used=14 fuel_budget=15" in out
    code, out, _ = run_cli(capsys, *args, "--fuel", "15",
                           "--format", "json-lines")
    assert json.loads(out.splitlines()[0]) == \
        {"value": "(code: fuel ran out rendering it to 2^-32)"}


def test_array_input_runs_bisection(capsys):
    code, out, _ = run_cli(capsys, "run", "--program", "root_bisect",
                           "--n", "3", "--input", "[-2, 0, 1]",
                           "--fuel", "3000000")
    assert code == 0
    assert "value" in out


def test_sweep_census_distinct_roots(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--program", "root_bisect_fa",
                           "--input", "0", "--ns", "3", "--seeds", "0..14",
                           "--fuel", "3000000")
    assert code == 0
    tail = out.strip().splitlines()
    census_line = [l for l in tail if l.startswith("distinct values:")][0]
    assert int(census_line.split(":")[1]) >= 2


def test_sweep_choose_free_single_cluster(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--program", "exp_approx",
                           "--input", "1/2", "--ns", "2", "--seeds", "0..4")
    assert code == 0
    census_line = [l for l in out.strip().splitlines()
                   if l.startswith("distinct values:")][0]
    assert int(census_line.split(":")[1]) == 1


def test_sweep_monotone_deviation_in_n(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--program", "exp_approx",
                           "--input", "1", "--ns", "1..5", "--seeds", "0",
                           "--format", "json-lines")
    assert code == 0
    cells = [json.loads(l) for l in out.strip().splitlines()][:-1]
    # a 400-bit enclosure keeps the oracle floor far below every stage error
    lo, hi = __import__("whilecc.programs.oracles",
                        fromlist=["exp_enclosure"]).exp_enclosure(1, bits=400)
    devs = []
    for cell in cells:
        frac = cell["values"][0].split(" ")[0]
        devs.append(abs(Fraction(frac) - lo))
    assert devs == sorted(devs, reverse=True)
    for cell, dev in zip(cells, devs):
        assert dev < Fraction(1, 1 << cell["n"])


def test_sweep_prints_diagnostics_under_each_cell(capsys):
    # fuel 300 completes the n=2 stage and runs out inside the n=3 one
    args = ("sweep", "--program", "exp_approx", "--input", "1",
            "--ns", "2..3", "--seeds", "0", "--fuel", "300")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n=2 seed=0 ") and "flags=none" in lines[0]
    assert lines[1].startswith("n=3 seed=0 ") and "truncated" in lines[1]
    assert lines[2] == "diag statement evaluation: fuel exhausted"
    assert lines[3].startswith("distinct values:")
    assert run_cli(capsys, *args)[1] == out
    code, out, _ = run_cli(capsys, *args, "--format", "json-lines")
    cells = [json.loads(l) for l in out.strip().splitlines()][:-1]
    assert [c["diagnostics"] for c in cells] == [
        [], ["statement evaluation: fuel exhausted"]]
    assert run_cli(capsys, *args, "--format", "json-lines")[1] == out


def test_parse_literal_forms():
    assert parse_literal("3/4") == Fraction(3, 4)
    assert parse_literal("3.5") == Fraction(7, 2)
    assert parse_literal("(1, 2)") == (Fraction(1), Fraction(2))
    assert parse_literal("[1, 1/2]") == [Fraction(1), Fraction(1, 2)]
    assert parse_literal("sqrt2") == "sqrt2"
    with pytest.raises(UsageError):
        parse_literal("1/0")


def test_parse_strategy_forms():
    from whilecc.interp import Dovetail, Oracle, Enumerate
    assert isinstance(parse_strategy("dovetail", None), Dovetail)
    assert parse_strategy("dovetail:9", None).seed == 9
    assert isinstance(parse_strategy("oracle:3", None), Oracle)
    e = parse_strategy("enumerate:16:5000", None)
    assert isinstance(e, Enumerate) and e.max_nat == 16
    with pytest.raises(UsageError):
        parse_strategy("quantum", None)
