"""Batch runner: parse, run, sweep seeds and precisions, emit reports.

    whilecc run --program exp_approx --n 4 --input 1
    whilecc run --program path/to/file.wcc --proc name --input "(0, 3.5, 0)"
    whilecc sweep --program root_bisect --input "[-2, 0, 1]" --n 3 --seeds 0..49

Exit status: 0 for a clean converged run, 2 when divergence remains
possible, 1 for usage, parse, or input errors. Identical configurations
print byte-identical reports.

`--fuel` bounds the whole command: a non-constant real output is rendered
on what the run left of it, and its value line says so when that runs out.
`fuel_used` counts the run alone. Each run builds its own code registry, so
no run reuses the levels an earlier one computed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .algebra import (Value, BoolV, NatV, RealV, ArrV, get_algebra,
                      rat_value, interval_value, AlgebraError)
from .codes import Fuel, CodeRegistry, ConstCode, OutOfFuel
from .interp import Dovetail, Enumerate, Oracle, eval_proc
from .lang import parse_program, WccError
from .programs import stdlib, StdlibError
from .signature import Sort

FUEL_ENV = "WHILECC_FUEL_DEFAULT"
DEFAULT_FUEL = 2_000_000


class UsageError(Exception):
    pass


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _dovetail(seed) -> Dovetail:
    try:
        return Dovetail(seed)
    except ValueError as e:  # a negative seed
        raise UsageError(str(e)) from None


def parse_strategy(spec: str, seed):
    parts = spec.split(":")
    kind = parts[0]
    if kind == "dovetail":
        if len(parts) == 2:
            seed = _int(parts[1], "the dovetail seed")
        elif len(parts) > 2:
            raise UsageError("strategy dovetail takes at most one seed field")
        return _dovetail(seed)
    if kind == "oracle":
        if len(parts) != 2:
            raise UsageError("strategy oracle needs a seed: oracle:<seed>")
        return Oracle(_int(parts[1], "the oracle seed"))
    if kind == "enumerate":
        if len(parts) != 3:
            raise UsageError("strategy enumerate:<maxnat>:<depth>")
        try:
            return Enumerate(_int(parts[1], "maxnat"), _int(parts[2], "depth"))
        except ValueError as e:  # a bound that is not positive
            raise UsageError(str(e)) from None
    raise UsageError(f"unknown strategy {spec!r}")


# input literals: naturals, rationals p/q, decimals, named codes,
# tuples (a, b), arrays [a, b]

def parse_literal(text: str):
    text = text.strip()
    if not text:
        raise UsageError("empty input literal")
    if text.startswith("("):
        if not text.endswith(")"):
            raise UsageError("unbalanced tuple literal")
        return tuple(parse_literal(p) for p in _split_top(text[1:-1]))
    if text.startswith("["):
        if not text.endswith("]"):
            raise UsageError("unbalanced array literal")
        return [parse_literal(p) for p in _split_top(text[1:-1])]
    if text in ("sqrt2", "e"):
        return text
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"unparseable input literal {text!r}") from None


def _split_top(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or parts:
        parts.append("".join(cur))
    return [p for p in (p.strip() for p in parts) if p]


def to_value(lit, sort: Sort, registry: CodeRegistry) -> Value:
    if isinstance(lit, str):  # named code
        code = registry.code(registry.named(lit))
        if sort.kind == "real":
            return RealV(code)
        if sort.kind == "interval":
            return interval_value(code)
        raise UsageError(f"named code {lit!r} cannot fill sort {sort.name}")
    if isinstance(lit, Fraction):
        if sort.kind == "nat":
            if lit.denominator != 1 or lit < 0:
                raise UsageError(f"{lit} is not a natural number")
            return NatV(int(lit))
        if sort.kind == "real":
            return rat_value(lit)
        if sort.kind == "interval":
            return interval_value(ConstCode(lit))
        if sort.kind == "bool":
            return BoolV(lit != 0)
        raise UsageError(f"literal {lit} cannot fill sort {sort.name}")
    if isinstance(lit, list):
        if sort.kind != "array":
            raise UsageError(f"array literal cannot fill sort {sort.name}")
        return ArrV(sort.elem, tuple(to_value(x, sort.elem, registry) for x in lit))
    raise UsageError(f"cannot interpret input {lit!r} for sort {sort.name}")


def load_program(spec: str, proc_name):
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                prog = parse_program(fh.read())
        except OSError as e:  # a directory, say
            raise UsageError(f"cannot read {spec}: {e.strerror}") from None
        except UnicodeDecodeError as e:
            raise UsageError(f"{spec} is not UTF-8 text: {e.reason} "
                             f"at byte {e.start}") from None
        try:
            proc = prog.proc(proc_name)
        except KeyError:
            raise UsageError(f"{spec} defines no procedure {proc_name!r}; "
                             f"it defines {', '.join(prog.procedures)}") from None
        return proc, get_algebra(prog.algebra_name)
    try:
        entry = stdlib()[spec]
    except KeyError:
        raise UsageError(f"{spec!r} is neither a file nor a stdlib program") from None
    if proc_name not in (None, entry.proc_name):
        raise UsageError(f"stdlib program {spec} defines {entry.proc_name!r}")
    return entry.load()


def make_inputs(proc, lits, registry: CodeRegistry) -> tuple:
    if len(lits) == 1 and isinstance(lits[0], tuple) and len(proc.in_vars) > 1:
        lits = list(lits[0])  # a single tuple literal carries the whole input
    if len(lits) != len(proc.in_vars):
        raise UsageError(f"{proc.name} takes {len(proc.in_vars)} inputs, "
                         f"got {len(lits)}")
    return tuple(to_value(lit, s, registry) for lit, (_, s) in zip(lits, proc.in_vars))


def _decimal(q: Fraction, digits: int) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = (q.numerator * 10 ** digits) // q.denominator
    intpart, frac = divmod(scaled, 10 ** digits)
    return f"{sign}{intpart}.{str(frac).zfill(digits)}"


def render_value(v: Value, digits: int, fuel: Fuel) -> str:
    """v to `digits` decimals; a non-constant code is approximated on `fuel`."""
    if isinstance(v, NatV):
        return str(v.n)
    if isinstance(v, BoolV):
        return "tt" if v.b else "ff"
    if isinstance(v, RealV):
        if v.code.is_const:
            q = v.code.value
            return f"{q} ({_decimal(q, digits)})"
        try:
            q = v.code.approx(digits * 4, fuel)
        except OutOfFuel:
            return f"(code: fuel ran out rendering it to 2^-{digits * 4})"
        return f"~{_decimal(q, digits)} (code)"
    if isinstance(v, ArrV):
        return "[" + ", ".join(render_value(x, digits, fuel) for x in v.items) + "]"
    if isinstance(v, tuple):
        return "(" + ", ".join(render_value(x, digits, fuel) for x in v) + ")"
    return repr(v)


def run_once(proc, alg, args, strat, fuel_steps):
    """The outcome set, the fuel the run used, and the rendering budget:
    what the run left of `fuel_steps`."""
    fuel = Fuel(fuel_steps)
    res = eval_proc(proc, args, alg, strat, fuel)
    return res, fuel_steps - fuel.remaining, fuel


def cmd_run(ns) -> int:
    proc, alg = load_program(ns.program, ns.proc)
    lits = _split_top(ns.input) if ns.input else []
    lits = [parse_literal(t) for t in lits]
    if ns.n is not None:
        lits = [Fraction(ns.n)] + lits
    args = make_inputs(proc, lits, CodeRegistry())
    strat = parse_strategy(ns.strategy, ns.seed)
    res, used, fuel = run_once(proc, alg, args, strat, ns.fuel)
    digits = (ns.n or 6) + 2
    rendered = [render_value(v, digits, fuel) for v in res.values]
    lines = [f"value {r}" for r in rendered]
    if not res.values:
        lines.append("value (none)")
    flag_bits = []
    if res.proven_divergent:
        flag_bits.append("divergence-proven")
    if res.truncated:
        flag_bits.append("truncated")
    lines.append("flags " + (",".join(flag_bits) if flag_bits else "none"))
    lines += [f"diag {msg}" for msg in res.diagnostics]
    lines.append(f"stats outcomes={len(res.values)} fuel_used={used} "
                 f"fuel_budget={ns.fuel}")
    exit_code = 0 if (res.values and not res.maybe_divergent) else 2
    if ns.format == "json-lines":
        for r in rendered:
            print(json.dumps({"value": r}, sort_keys=True))
        print(json.dumps({"flags": flag_bits, "diagnostics": res.diagnostics,
                          "outcomes": len(res.values), "fuel_used": used,
                          "exit": exit_code}, sort_keys=True))
    else:
        print("\n".join(lines))
        print(f"exit {exit_code}")
    return exit_code


def _parse_int_list(spec: str) -> list[int]:
    out = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, _, hi = chunk.partition("..")
            out.extend(range(_int(lo, "a bound"), _int(hi, "a bound") + 1))
        elif chunk:
            out.append(_int(chunk, "a list entry"))
    if not out:
        raise UsageError(f"empty list {spec!r}")
    return out


def cmd_sweep(ns) -> int:
    proc, alg = load_program(ns.program, ns.proc)
    base_lits = [parse_literal(t) for t in _split_top(ns.input)] if ns.input else []
    seeds = _parse_int_list(ns.seeds)
    strats = [_dovetail(seed) for seed in seeds]  # every seed checked first
    ns_list = _parse_int_list(ns.ns) if ns.ns else [int(ns.n)] if ns.n is not None else [4]
    cells = []
    census: dict[str, int] = {}
    for n in ns_list:
        for seed, strat in zip(seeds, strats):
            args = make_inputs(proc, [Fraction(n)] + base_lits, CodeRegistry())
            res, used, fuel = run_once(proc, alg, args, strat, ns.fuel)
            rendered = [render_value(v, n + 2, fuel) for v in res.values]
            for key in rendered:
                census[key] = census.get(key, 0) + 1
            cells.append({
                "n": n, "seed": seed,
                "values": rendered,
                "flags": {"proven_divergent": res.proven_divergent,
                          "truncated": res.truncated},
                "diagnostics": res.diagnostics,
                "fuel_used": used,
            })
    cells.sort(key=lambda c: (c["n"], c["seed"]))
    doc = {"cells": cells,
           "distinct_values": dict(sorted(census.items())),
           "distinct_count": len(census)}
    if ns.format == "json-lines":
        for cell in cells:
            print(json.dumps(cell, sort_keys=True))
        print(json.dumps({"distinct_values": doc["distinct_values"],
                          "distinct_count": doc["distinct_count"]}, sort_keys=True))
    else:
        for cell in cells:
            flags = [k for k, v in cell["flags"].items() if v]
            print(f"n={cell['n']} seed={cell['seed']} "
                  f"values={cell['values']} flags={flags or 'none'} "
                  f"fuel_used={cell['fuel_used']}")
            for msg in cell["diagnostics"]:
                print(f"diag {msg}")
        print(f"distinct values: {doc['distinct_count']}")
        for k, v in doc["distinct_values"].items():
            print(f"  {k}: {v}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="whilecc", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    default_fuel = _int(os.environ.get(FUEL_ENV, str(DEFAULT_FUEL)), FUEL_ENV)

    def common(p):
        p.add_argument("--program", required=True,
                       help="path to a .wcc file or a stdlib program name")
        p.add_argument("--proc", default=None, help="procedure name")
        p.add_argument("--input", default="", help="comma-separated literals")
        p.add_argument("--n", type=int, default=None,
                       help="precision input, prepended to --input")
        p.add_argument("--fuel", type=int, default=default_fuel)
        p.add_argument("--format", choices=("text", "json-lines"), default="text")

    # no abbreviations: one silently changes meaning once a new option
    # shares its prefix (in `sweep`, `--seed` would stand for `--seeds`)
    runp = sub.add_parser("run", help="run one procedure", allow_abbrev=False)
    common(runp)
    runp.add_argument("--seed", type=int, default=None,
                      help="dovetail seed when --strategy gives none")
    runp.add_argument("--strategy", default="dovetail",
                      help="dovetail[:seed] | oracle:seed | enumerate:maxnat:depth")
    sweepp = sub.add_parser("sweep", help="sweep seeds and precisions",
                            allow_abbrev=False)
    common(sweepp)
    sweepp.add_argument("--seeds", default="0..9", help="e.g. 0..49 or 1,2,3")
    sweepp.add_argument("--ns", default=None, help="precision list, e.g. 1..10")
    return ap


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        if ns.fuel < 0:
            raise UsageError(f"the fuel budget must be non-negative, got {ns.fuel}")
        code = cmd_run(ns) if ns.command == "run" else cmd_sweep(ns)
        if sys.stdout is not None:  # None when started with no stdout
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except SystemExit as e:  # argparse has printed its usage error or help
        return 1 if e.code not in (0, None) else 0
    except BrokenPipeError:
        # the reader closed standard output: end quietly, with stdout on
        # devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, WccError, StdlibError, AlgebraError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
