"""Runtime tracing of the whilecc layers, from outside the library.

The tracer replaces public entry points of each layer with timing wrappers
while it is installed and restores them afterwards; nothing under ``src/`` is
edited. Coarse spans (jobs, procedure runs, lift levels, parses, algebra
builds) are kept in memory with name, start, end and parent and written out
at the end of the run. Fine spans (algebra rules, code arithmetic, code
approximation) are too many to keep one by one, so they are folded into
per-name call counts, inclusive time and self time as they close. Self time
is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from whilecc import algebra, codes, interp, lang, programs, reals, tracking

COMPARE_RULES = ("eq_real", "less_real")
ARITH_FUNCS = ("add_codes", "mul_codes", "neg_code", "abs_diff_code", "inv_code")


def _bits(q) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


def ast_nodes(program) -> int:
    """Statements plus terms over every procedure of a parsed program."""
    count = 0
    todo = [p.body for p in program.procedures.values()]
    while todo:
        node = todo.pop()
        count += 1
        if isinstance(node, lang.Seq):
            todo += (node.s1, node.s2)
        elif isinstance(node, lang.If):
            todo += (node.b, node.then, node.els)
        elif isinstance(node, lang.While):
            todo += (node.b, node.body)
        elif isinstance(node, lang.Assign):
            todo += node.rhs
        elif isinstance(node, lang.App):
            todo += node.args
        elif isinstance(node, lang.Choose):
            todo.append(node.body)
    return count


class CountingFuel(codes.Fuel):
    """A job budget that counts the sub-budgets a dovetailed choose spawns,
    one per guard evaluation."""

    __slots__ = ("counters",)

    def __init__(self, steps: int, counters):
        super().__init__(steps)
        self.counters = counters

    def spawn(self, cap: int) -> codes.Fuel:
        self.counters["choose_guard_evals"] += 1
        return super().spawn(cap)


class CountingDovetail(interp.Dovetail):
    """Dovetail search that counts its stages (one `visit` per stage); the
    fresh copy `eval_proc` takes shares the counters."""

    def __init__(self, seed=None, counters=None):
        super().__init__(seed)
        self.counters = counters

    def visit(self, stage: int) -> int:
        self.counters["choose_stages"] += 1
        return super().visit(stage)

    def fresh(self):
        return CountingDovetail(self.seed, self.counters)


@contextmanager
def patched(patches):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


class FuelLedger:
    """Records the budgets `soundness_lift` creates for its level runs, whose
    Fuel objects the caller never sees."""

    def __init__(self):
        self.fuels: list = []
        ledger = self.fuels

        class LedgerFuel(codes.Fuel):
            __slots__ = ("start",)

            def __init__(self, steps, parent=None):
                super().__init__(steps, parent)
                self.start = steps
                ledger.append(self)

        self.fuel_class = LedgerFuel

    def take_used(self) -> int:
        used = sum(f.start - f.remaining for f in self.fuels)
        self.fuels.clear()
        return used

    def installed(self):
        return patched([(tracking, "Fuel", self.fuel_class)])


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.stack = [[0.0, None]]  # frames: [child time, coarse span id]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans: list[tuple] = []
        self.rat_bits_max = 0

    # -- span recording ----------------------------------------------------

    @contextmanager
    def span(self, name):
        """A coarse span: recorded whole, and folded like the fine ones."""
        stack = self.stack
        parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
        span_id = len(self.spans)
        self.spans.append(None)  # the id is taken now, the record made on close
        frame = [0.0, span_id]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            stack[-1][0] += t1 - t0
            self.calls[name] += 1
            self.total[name] += t1 - t0
            self.self_time[name] += t1 - t0 - frame[0]
            self.spans[span_id] = (span_id, name, t0 - self.origin, t1 - self.origin, parent)

    def coarse(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def fine(self, name, fn):
        stack, clock = self.stack, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time

        def wrapper(*args):
            frame = [0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                d = clock() - t0
                stack.pop()
                stack[-1][0] += d
                calls[name] += 1
                total[name] += d
                self_time[name] += d - frame[0]

        wrapper.traced = True
        return wrapper

    # -- layer wrappers ----------------------------------------------------

    def _arith(self, fn):
        inner = self.fine("codes.arith", fn)

        def wrapper(*args):
            result = inner(*args)
            code = result[0] if isinstance(result, tuple) else result
            if code is not None and code.is_const:
                bits = _bits(code.value)
                if bits > self.rat_bits_max:
                    self.rat_bits_max = bits
            return result

        return wrapper

    def _approx(self, fn):
        inner = self.fine("codes.approx", fn)
        counters = self.counters

        def approx(code, n, fuel=None):
            if n in code._cache:
                counters["approx_cache_hits"] += 1
            result = inner(code, n, fuel)
            bits = _bits(result)
            if bits > self.rat_bits_max:
                self.rat_bits_max = bits
            return result

        return approx

    def _choose(self, fn):
        counters = self.counters

        def wrapper(*args):
            result = fn(*args)
            if result is not interp.FUEL_OUT and result is not interp.DIV:
                counters["choose_resolutions"] += 1
            return result

        return wrapper

    def wrap_algebra(self, alg) -> None:
        """Wrap every rule of an algebra built while the tracer is installed,
        keeping the unboxed `fast_fn` fast path of each rule."""
        for name, rule in list(alg.interp.items()):
            if getattr(rule, "traced", False):
                continue  # shared with an already wrapped algebra
            span = "algebra.compare" if name in COMPARE_RULES else "algebra.rule"
            wrapped = self.fine(span, rule)
            fast = getattr(rule, "fast_fn", None)
            if fast is not None:
                wrapped.fast_fn = self.fine(span, fast)
            alg.interp[name] = wrapped

    def _parsed(self, program):
        self.counters["ast_nodes"] += ast_nodes(program)

    def installed(self):
        build = "algebra.build"
        patches = [
            (programs, "parse_program",
             self.coarse("lang.parse", programs.parse_program, self._parsed)),
            (programs, "stdlib", self.coarse(build, programs.stdlib)),
            (programs, "get_algebra",
             self.coarse(build, programs.get_algebra, self.wrap_algebra)),
            (tracking, "code_algebra",
             self.coarse(build, tracking.code_algebra, self.wrap_algebra)),
            (interp, "eval_proc", self.coarse("interp.eval_proc", interp.eval_proc)),
            (interp, "_dovetail_choose", self._choose(interp._dovetail_choose)),
            (tracking, "eval_proc", self.coarse("tracking.level", tracking.eval_proc)),
            (tracking, "soundness_lift",
             self.coarse("tracking.soundness_lift", tracking.soundness_lift)),
            (reals, "ecode_eval", self.coarse("reals.ecode_eval", reals.ecode_eval)),
            (codes.ECode, "approx", self._approx(codes.ECode.approx)),
        ]
        for module in (algebra, tracking):
            for fname in ARITH_FUNCS:
                patches.append((module, fname, self._arith(getattr(module, fname))))
        return patched(patches)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counters": dict(self.counters),
                "rat_bits_max": self.rat_bits_max}

    def reset(self) -> None:
        """Start a new phase: clear aggregates and counters, keep the spans."""
        for agg in (self.calls, self.total, self.self_time, self.counters):
            agg.clear()
        self.rat_bits_max = 0

    def write(self, path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"aggregates": self.snapshot(), **extra}) + "\n")

