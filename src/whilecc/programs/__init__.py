"""Shipped example programs and the approximability checking harness."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable, Optional

from ..algebra import (PartialAlgebra, Value, NatV, RealV, ArrV, get_algebra,
                       rat_value, nat_value, interval_value)
from ..codes import Fuel, ConstCode
from ..interp import Dovetail, Enumerate, Oracle, eval_proc, OutcomeSet
from ..lang import parse_program, Procedure
from ..report import Report
from . import oracles


class StdlibError(Exception):
    pass


@dataclass
class StdlibEntry:
    name: str
    source: str
    algebra: str
    proc_name: str
    kind: str
    contract: str
    oracle: str
    notes: str = ""

    def procedure(self) -> Procedure:
        return parse_program(self.source).proc(self.proc_name)

    def load(self) -> tuple[Procedure, PartialAlgebra]:
        return self.procedure(), get_algebra(self.algebra)


def _asset(name: str) -> str:
    return resources.files(__package__).joinpath("stdlib", name).read_text()


_STDLIB: Optional[dict[str, StdlibEntry]] = None


def stdlib() -> dict[str, StdlibEntry]:
    global _STDLIB
    if _STDLIB is None:
        manifest = json.loads(_asset("manifest.json"))
        _STDLIB = {
            name: StdlibEntry(
                name=name, source=_asset(meta["file"]), algebra=meta["algebra"],
                proc_name=meta["proc"], kind=meta["kind"],
                contract=meta["contract"], oracle=meta["oracle"],
                notes=meta.get("notes", ""))
            for name, meta in manifest.items()
        }
        for entry in _STDLIB.values():
            entry.procedure()  # every shipped program parses and validates
    return _STDLIB


def load(name: str) -> tuple[Procedure, PartialAlgebra]:
    try:
        return stdlib()[name].load()
    except KeyError:
        raise StdlibError(f"no stdlib program {name!r}") from None


def real_array(values) -> ArrV:
    from ..signature import REAL
    return ArrV(REAL, tuple(rat_value(v) for v in values))


# ---------------------------------------------------------------------------
# approximability checks (single- and many-valued)


@dataclass
class ApproxReport:
    """Per (input, n) rows; deviations are exact rationals and divergence
    flags are never dropped."""

    name: str
    rows: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.rows)

    def add(self, **row) -> None:
        self.rows.append(row)

    def failures(self):
        return [r for r in self.rows if not r["ok"]]


def _certified_deviation(v: Value, enclosure: tuple[Fraction, Fraction]) -> Fraction:
    """Upper bound on |v - F| for a rational output and an oracle enclosure."""
    from ..codes import rat_dist
    if not isinstance(v, RealV) or not v.code.is_const:
        raise StdlibError("deviation check expects exact rational outputs")
    lo, hi = enclosure
    return max(rat_dist(v.code.value, lo), rat_dist(v.code.value, hi))


def check_single_approx(P: Procedure, alg: PartialAlgebra,
                        enclosure_fn: Callable[[Fraction], tuple],
                        inputs, n_range, make_args=None,
                        strat=None, fuel_steps: int = 2_000_000,
                        out_of_domain=(), name: str = "single-approx") -> ApproxReport:
    """Check P_n(x) excludes divergence and lands in B(F(x), 2^-n) on the
    in-domain inputs, and is consistent with divergence off the domain
    (strict mode counts fuel exhaustion as consistent there)."""
    strat = strat or Dovetail()
    make_args = make_args or (lambda x, n: (nat_value(n), rat_value(x)))
    rep = ApproxReport(name)
    for x in inputs:
        target = enclosure_fn(Fraction(x))
        for n in n_range:
            res = eval_proc(P, make_args(x, n), alg, strat, Fuel(fuel_steps))
            tol = Fraction(1, 1 << n)
            devs = [_certified_deviation(v, target) for v in res.values]
            ok = (not res.maybe_divergent and res.values
                  and all(d < tol for d in devs))
            rep.add(input=x, n=n, outcomes=len(res.values),
                    max_deviation=max(devs, default=None),
                    flags={"proven_divergent": res.proven_divergent,
                           "truncated": res.truncated},
                    ok=bool(ok))
    for x in out_of_domain:
        for n in n_range:
            res = eval_proc(P, make_args(x, n), alg, strat, Fuel(fuel_steps))
            ok = not res.values and res.maybe_divergent
            rep.add(input=x, n=n, outcomes=len(res.values),
                    max_deviation=None,
                    flags={"proven_divergent": res.proven_divergent,
                           "truncated": res.truncated},
                    ok=bool(ok), out_of_domain=True)
    return rep


def check_multi_approx(P: Procedure, alg: PartialAlgebra,
                       targets_fn: Callable[[object], list],
                       inputs, n_range, make_args,
                       seeds=range(50), fuel_steps: int = 2_000_000,
                       name: str = "multi-approx") -> ApproxReport:
    """Two-sided ball-inclusion check for a many-valued target.

    Direction one (every output within 2^-n of some target output) is checked
    on every dovetail-seed run; the coverage direction is reported as
    per-target hit counts across the seed sweep, since the full outcome set
    is only explored up to the sweep.
    """
    rep = ApproxReport(name)
    for x in inputs:
        targets = [t if isinstance(t, tuple) else (Fraction(t), Fraction(t))
                   for t in targets_fn(x)]
        for n in n_range:
            tol = Fraction(1, 1 << n)
            hits = [0] * len(targets)
            outputs = []
            flags = {"proven_divergent": False, "truncated": False}
            for seed in seeds:
                res = eval_proc(P, make_args(x, n), alg, Dovetail(seed),
                                Fuel(fuel_steps))
                flags["proven_divergent"] |= res.proven_divergent
                flags["truncated"] |= res.truncated
                for v in res.values:
                    outputs.append(v)
            ok = bool(outputs)
            for v in outputs:
                dists = [_enclosure_distance(v, t) for t in targets]
                near = [i for i, d in enumerate(dists) if d < tol]
                if near:
                    for i in near:
                        hits[i] += 1
                else:
                    ok = False
            rep.add(input=x, n=n, outcomes=len(outputs),
                    distinct_targets_hit=sum(1 for h in hits if h),
                    target_hits=hits, flags=flags, ok=bool(ok))
    return rep


def _enclosure_distance(v: Value, enclosure: tuple) -> Fraction:
    lo, hi = enclosure
    q = v.code.value
    if lo <= q <= hi:
        return Fraction(0)
    return min(abs(q - lo), abs(q - hi))


def bracket_holds(coeffs, v: Fraction, n: int) -> bool:
    """The returned value carries a bracket: the polynomial changes sign
    inside (v - 2^-(n-1), v + 2^-(n-1))."""
    h = Fraction(1, 1 << (n - 1)) if n >= 1 else Fraction(2)
    roots = oracles.poly_simple_roots(coeffs, v - h, v + h, prec_bits=n + 8,
                                      grid_denom=max(64, 1 << (n + 2)))
    return bool(roots)


# ---------------------------------------------------------------------------
# continuity probe (sampled search, must succeed on the shipped programs)


def continuity_probe(P: Procedure, alg: PartialAlgebra, make_args,
                     a: Fraction, n: int, eps_exp: int,
                     delta_exps=range(1, 21), samples: int = 10,
                     strat=None, fuel_steps: int = 2_000_000,
                     clamp=None) -> Optional[int]:
    """Search a delta in {2^-1 .. 2^-20} such that sampled points within
    delta of `a` all yield an outcome within 2^-eps_exp of a fixed outcome
    at `a`. Returns the found exponent, None on failure."""
    strat = strat or Dovetail()
    base = eval_proc(P, make_args(a, n), alg, strat, Fuel(fuel_steps))
    if not base.values:
        return None
    b = base.values[0].code.value
    eps = Fraction(1, 1 << eps_exp)
    for dexp in delta_exps:
        delta = Fraction(1, 1 << dexp)
        good = True
        for j in range(1, samples + 1):
            sign = 1 if j % 2 else -1
            x = a + sign * delta * j / (samples + 1)
            x = x if clamp is None else clamp(x)
            res = eval_proc(P, make_args(x, n), alg, strat, Fuel(fuel_steps))
            if not any(abs(v.code.value - b) < eps for v in res.values):
                good = False
                break
        if good:
            return dexp
    return None
