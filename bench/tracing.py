"""Span tracing and per-layer metrics for the benchmark's traced run.

The tracer wraps the public functions of each skewlines module from the
outside.  A function is replaced everywhere the package binds it, including
the modules that imported it by name, so calls made between modules are
recorded too.  Spans (name, start, end, parent, report id) stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the time of its child spans.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from typing import Callable

# (span name, module, attribute); "Class.method" names a method
SPANS = (
    ("fields.inv", "skewlines.fields", "FieldElement.inv"),
    ("matrices.proj_normalize", "skewlines.matrices", "proj_normalize"),
    ("matrices.proj_order", "skewlines.matrices", "proj_order"),
    ("matrices.moebius_apply", "skewlines.matrices", "moebius_apply"),
    ("configs.transversal_compute", "skewlines.configs", "transversal_compute"),
    ("configs.predict_abelian", "skewlines.configs", "predict_abelian"),
    ("groupoid.generator_set", "skewlines.groupoid", "generator_set"),
    ("groupoid.group_closure", "skewlines.groupoid", "group_closure"),
    ("groupoid.classify", "skewlines.groupoid", "classify"),
    ("groupoid.eigratio_check", "skewlines.groupoid", "eigratio_check"),
    ("orbits.orbit_full", "skewlines.orbits", "orbit_full"),
    ("orbits.orbit_geometric", "skewlines.orbits", "orbit_geometric"),
    ("analyze.analyze", "skewlines.analyze", "analyze"),
    ("analyze.to_json", "skewlines.analyze", "AnalysisReport.to_json"),
    ("analyze.serialize", "workloads", "serialize"),
    ("cli.main", "skewlines.cli", "main"),
    ("families.build_family", "skewlines.families", "build_family"),
)

# calls counted, without a span of their own, against the innermost open span
COUNTS = (
    ("matrices.proj_mul", "skewlines.matrices", "ProjElem.__mul__"),
    ("orbits.candidate", "skewlines.orbits", "point_on_line"),
)

# what a span keeps of its call beyond its times
INFO = {
    "fields.inv": lambda args, out: (args[0].field.spec, args[0].nums, args[0].den),
    "groupoid.group_closure": lambda args, out: (out.order, out.budget),
    "orbits.orbit_full": lambda args, out: out.total_size,
    "orbits.orbit_geometric": lambda args, out: out.total_size,
}

ORBIT_SPANS = ("orbits.orbit_full", "orbits.orbit_geometric")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, report id, info)
        self.stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self.report = None
        self.pass_no = 0
        self.counts: Counter = Counter()  # (counted name, innermost span name)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        info = INFO.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # filled in when the span closes
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                kept = info(args, out) if info is not None and out is not None else None
                spans[idx] = (name, start, end, parent, self.report, kept)
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[(name, stack[-1][1] if stack else None)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every listed function wherever the loaded modules bind it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "skewlines" or n.startswith("skewlines.") or n == "workloads"]
        for kind, table in ((self._span, SPANS), (self._counter, COUNTS)):
            for name, module, attr in table:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._replace(cls, meth, kind(name, cls.__dict__[meth]))
                    continue
                original = getattr(owner, attr)
                wrapped = kind(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def root(self, report_id: str, fn: Callable):
        """Run one report under a root span carrying its pass and its id."""
        self.report = f"{self.pass_no}/{report_id}"
        try:
            return self._span("report", fn)()
        finally:
            self.report = None

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\treport\n")
            for i, (name, start, end, parent, report, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{report}\n")

    def layer_totals(self, lo: int, hi: int) -> dict:
        """Calls, inclusive seconds and self seconds per span name in spans[lo:hi]."""
        child = [0.0] * (hi - lo)
        for name, start, end, parent, _, _ in self.spans[lo:hi]:
            if parent >= lo:
                child[parent - lo] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans[lo:hi]):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return out

    def pass_metrics(self, lo: int, hi: int, counts: Counter) -> dict:
        """Per-layer metrics of one traced pass: spans[lo:hi] and its counts."""
        tot = self.layer_totals(lo, hi)

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0))[0]

        def incl(name):
            return tot.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return tot.get(name, (0, 0.0, 0.0))[2]

        window = self.spans[lo:hi]
        inv_keys = {s[5] for s in window if s[0] == "fields.inv"}
        closures = [s[5] for s in window if s[0] == "groupoid.group_closure"]
        orbit_sizes = [s[5] for s in window if s[0] in ORBIT_SPANS]
        products = counts[("matrices.proj_mul", "groupoid.group_closure")]
        steps = sum(counts[("orbits.candidate", name)] for name in ORBIT_SPANS)
        return {
            "fields.inv_calls": calls("fields.inv"),
            "fields.inv_distinct_ratio": _ratio(len(inv_keys), calls("fields.inv")),
            "fields.inv_s": incl("fields.inv"),
            "matrices.proj_normalize_calls": calls("matrices.proj_normalize"),
            "matrices.proj_normalize_self_s": own("matrices.proj_normalize"),
            "matrices.proj_order_calls": calls("matrices.proj_order"),
            "matrices.proj_order_s": incl("matrices.proj_order"),
            "matrices.moebius_apply_calls": calls("matrices.moebius_apply"),
            "configs.transversal_s": incl("configs.transversal_compute"),
            "configs.predict_abelian_s": incl("configs.predict_abelian"),
            "groupoid.generator_set_calls": calls("groupoid.generator_set"),
            "groupoid.generator_set_s": incl("groupoid.generator_set"),
            "groupoid.eigratio_s": incl("groupoid.eigratio_check"),
            "groupoid.closure_s": incl("groupoid.group_closure"),
            "groupoid.closure_products": products,
            "groupoid.closure_new_ratio": _ratio(sum(o - 1 for o, _ in closures), products),
            "groupoid.classify_s": incl("groupoid.classify"),
            "groupoid.budget_used_ratio": max((o / b for o, b in closures), default=0.0),
            "orbits.orbit_full_s": incl("orbits.orbit_full"),
            "orbits.orbit_geometric_s": incl("orbits.orbit_geometric"),
            "orbits.steps": steps,
            "orbits.new_point_ratio": _ratio(sum(n - 1 for n in orbit_sizes), steps),
            "analyze.self_s": own("analyze.analyze") + own("analyze.to_json")
                              + own("analyze.serialize"),
            "cli.main_s": incl("cli.main"),
            "cli.self_s": own("cli.main"),
        }


def field_kernel_us(sl, configs, operands_per_config: int = 24,
                    calls: int = 20, budget: int = 256) -> tuple[float, float]:
    """Median microseconds per inv and per mul on entries of the closures.

    The operands are the nonzero matrix entries of the first ``budget``
    closure elements of each configuration, so the field kinds follow the
    workload.  Runs untraced.
    """
    clock = time.perf_counter

    def per_call(fn, *args):
        start = clock()
        for _ in range(calls):
            fn(*args)
        return (clock() - start) / calls * 1e6

    inv, mul = [], []
    for cfg in configs:
        closure = sl.group_closure(sl.generator_set(cfg), budget=budget)
        seen = {}
        for g in closure.elements:
            for x in g.rep.entries():
                if x:
                    seen.setdefault(x.sort_key(), x)
        pool = [seen[k] for k in sorted(seen)]
        ops = pool[::max(len(pool) // operands_per_config, 1)][:operands_per_config]
        inv += [per_call(x.inv) for x in ops]
        mul += [per_call(x.__mul__, y) for x, y in zip(ops, ops[1:] + ops[:1])]
    return statistics.median(inv), statistics.median(mul)
