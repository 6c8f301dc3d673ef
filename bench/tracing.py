"""Span tracer for the traced run, applied from outside the program.

`Tracer.install` wraps every public module-level function of each `oscurve`
module, plus the methods in METHODS, and rebinds the wrapper wherever an
`oscurve` module namespace binds the original, so call sites written as
`from .polyops import poly_gcd` are traced too.  Each call becomes a span
(name, start, end, parent, case id) kept in flat arrays and written out by
`write` when the run ends.  `QuadExt` arithmetic is counted, not spanned.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

# (module, class, attribute, span name) for methods that get spans
METHODS = (
    ("groebner", "Ideal", "groebner_basis", "groebner.Ideal.groebner_basis"),
    ("rings", "Polynomial", "__mul__", "rings.Polynomial.mul"),
    ("rings", "Polynomial", "__rmul__", "rings.Polynomial.mul"),
    ("rings", "Polynomial", "substitute", "rings.Polynomial.substitute"),
    ("rings", "PolyMatrix", "det", "rings.PolyMatrix.det"),
)
QUADEXT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
)

# Per-layer metrics: (name, unit, better, the end-to-end metric and workload
# it should move).  Every `<span>.calls` and `<span>.self_s` is computed from
# the spans; the rest are derived in `layer_metrics`.
LAYER_METRICS = (
    ("polyops.poly_gcd.calls", "count", "lower", "census wall_s, success_ratio (n=7, a=1000)"),
    ("polyops.poly_gcd.self_s", "s", "lower", "census wall_s, success_ratio (n=7, a=1000)"),
    ("polyops.poly_gcd.max_coeff_bits", "bits", "lower", "census wall_s, success_ratio (n=7, a=1000)"),
    ("polyops.squarefree_part.self_s", "s", "lower", "census wall_s, success_ratio (n=7, a=1000)"),
    ("polyops.repeated_factor_part.self_s", "s", "lower", "classify wall_s, success_ratio"),
    ("polyops.certify_squarefree_by_restriction.calls", "count", "lower", "census case_p50_ms"),
    ("polyops.certify_squarefree_by_restriction.hit_ratio", "ratio", "higher", "census case_p50_ms"),
    ("polyops.matrix_rank.self_s", "s", "lower", "classify case_p50_ms"),
    ("groebner.buchberger.calls", "count", "lower", "census and golden wall_s"),
    ("groebner.buchberger.self_s", "s", "lower", "census and golden wall_s"),
    ("groebner.Ideal.groebner_basis.calls", "count", "lower", "census and golden wall_s"),
    ("groebner.gb_cache_hit_ratio", "ratio", "higher", "census and golden wall_s"),
    ("groebner.saturate.calls", "count", "lower", "census wall_s"),
    ("groebner.saturate.self_s", "s", "lower", "census wall_s"),
    ("groebner.saturate.general_route_share", "ratio", "lower", "census wall_s"),
    ("groebner.eliminate.self_s", "s", "lower", "golden wall_s"),
    ("groebner.zero_dim_radical.self_s", "s", "lower", "census wall_s"),
    ("groebner.hilbert_function.self_s", "s", "lower", "census wall_s"),
    ("census.has_multiplicity_at_least.self_s", "s", "lower", "census wall_s"),
    ("census.support_sites.self_s", "s", "lower", "census wall_s"),
    ("census.double_point_census.self_s", "s", "lower", "census wall_s"),
    ("rational_curves.implicitize.calls", "count", "lower", "census case_p50_ms"),
    ("rational_curves.implicitize.self_s", "s", "lower", "census case_p50_ms"),
    ("rational_curves.project_scheme.self_s", "s", "lower", "golden wall_s"),
    ("classifier.classify_double_point.calls", "count", "lower", "classify case_p50_ms"),
    ("classifier.classify_double_point.self_s", "s", "lower", "classify case_p50_ms"),
    ("classifier.normalize_at_point.self_s", "s", "lower", "classify case_p50_ms"),
    ("classifier.steps", "count", "lower", "classify case_p50_ms"),
    ("intersection.graph_intersection_multiplicity.calls", "count", "lower", "classify case_p50_ms"),
    ("intersection.graph_intersection_multiplicity.self_s", "s", "lower", "classify case_p50_ms"),
    ("intersection.truncated_local_multiplicity.self_s", "s", "lower", "classify case_p50_ms"),
    ("qfields.squarefree_core.calls", "count", "lower", "classify wall_s"),
    ("qfields.squarefree_core.self_s", "s", "lower", "classify wall_s"),
    ("qfields.QuadExt.ops", "count", "lower", "classify wall_s"),
    ("rings.Polynomial.mul.calls", "count", "lower", "wall_s on all three workloads"),
    ("rings.Polynomial.mul.self_s", "s", "lower", "wall_s on all three workloads"),
    ("rings.Polynomial.substitute.self_s", "s", "lower", "wall_s on all three workloads"),
    ("rings.PolyMatrix.det.self_s", "s", "lower", "wall_s on all three workloads"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall_s / untraced wall_s - 1"),
)


def coefficient_bits(poly) -> int:
    """Largest bit length of a numerator or denominator among the coefficients
    (both rational parts of a quadratic-extension coefficient)."""
    best = 0
    for c in poly.terms.values():
        parts = (c.a, c.b) if hasattr(c, "d") else (c,)
        for part in parts:
            q = Fraction(part)
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        covered, reach = 0.0, starts[i]
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], ends[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(ends[i] - starts[i] - covered)
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.case_names: list[str] = []
        self.counters: Counter = Counter()  # keyed by (case id, counter name)
        self.max_gcd_bits: dict[int, int] = {}
        self._stack: list[int] = []
        self._case_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_case(self, case_name: str) -> int:
        self._case_id = len(self.case_names)
        self.case_names.append(case_name)
        return self._case_id

    def _wrap(self, fn, span_name: str):
        name_id = self._name_id(span_name)
        on_return = _ON_RETURN.get(span_name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.case.append(self._case_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_return:
                on_return(self, args, result)
            return result

        return traced

    def _count(self, fn, counter: str):
        def counted(*args, **kwargs):
            self.counters[self._case_id, counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap the program; `remove` restores every original binding."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if (name == "oscurve" or name.startswith("oscurve.")) and mod is not None
        }
        replacements = {}
        for name, mod in modules.items():
            short = name.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                # generator functions would be timed only while creating
                # the generator; the program has no public ones
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == name
                    and not inspect.isgeneratorfunction(obj)
                ):
                    replacements[obj] = self._wrap(obj, f"{short}.{attr}")
        for name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._patch(mod, attr, replacements[obj])
        for short, cls_name, attr, span_name in METHODS:
            cls = getattr(modules[f"oscurve.{short}"], cls_name)
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], span_name))
        quad = modules["oscurve.qfields"].QuadExt
        for attr in QUADEXT_OPS:
            self._patch(quad, attr, self._count(quad.__dict__[attr], "qfields.QuadExt.ops"))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, case_ids) -> dict[str, float]:
        """Per-layer metrics over the spans of the given cases."""
        case_ids = set(case_ids)
        keep = [i for i, c in enumerate(self.case) if c in case_ids]
        index = {i: k for k, i in enumerate(keep)}
        starts = [self.start[i] for i in keep]
        ends = [self.end[i] for i in keep]
        parents = [index.get(self.parent[i], -1) for i in keep]
        names = [self.names[self.name[i]] for i in keep]
        selfs = self_times(starts, ends, parents)
        calls: Counter = Counter(names)
        self_s: Counter = Counter()
        for n, s in zip(names, selfs):
            self_s[n] += s
        gb_spans = [k for k, n in enumerate(names) if n == "groebner.Ideal.groebner_basis"]
        computed = {parents[k] for k, n in enumerate(names) if n == "groebner.buchberger"}
        counts = Counter()
        for (case, counter), value in self.counters.items():
            if case in case_ids:
                counts[counter] += value
        out = {}
        for metric, _, _, _ in LAYER_METRICS:
            span, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls[span]
            elif stat == "self_s":
                out[metric] = self_s[span]
        out["polyops.poly_gcd.max_coeff_bits"] = max(
            (self.max_gcd_bits.get(c, 0) for c in case_ids), default=0
        )
        certify = "polyops.certify_squarefree_by_restriction"
        out[f"{certify}.hit_ratio"] = _ratio(counts["certified"], calls[certify])
        out["groebner.gb_cache_hit_ratio"] = _ratio(
            sum(1 for k in gb_spans if k not in computed), len(gb_spans)
        )
        out["groebner.saturate.general_route_share"] = _ratio(
            calls["groebner.saturate_general"], calls["groebner.saturate"]
        )
        out["classifier.steps"] = counts["classifier.steps"]
        out["qfields.QuadExt.ops"] = counts["qfields.QuadExt.ops"]
        return out

    def write(self, path):
        """All spans as gzipped JSON lines: a header with the name and case
        tables, then one [name, start, end, parent, case] row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            header = {
                "names": self.names,
                "cases": self.case_names,
                "fields": ["name", "start", "end", "parent", "case"],
            }
            fh.write(json.dumps(header) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.case):
                fh.write(json.dumps(row) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _record_gcd_bits(tracer: Tracer, args, result):
    bits = max(coefficient_bits(p) for p in (*args[:2], result))
    case = tracer._case_id
    tracer.max_gcd_bits[case] = max(tracer.max_gcd_bits.get(case, 0), bits)


def _record_certified(tracer: Tracer, args, result):
    if result:
        tracer.counters[tracer._case_id, "certified"] += 1


def _record_steps(tracer: Tracer, args, result):
    tracer.counters[tracer._case_id, "classifier.steps"] += len(result[1])


_ON_RETURN = {
    "polyops.poly_gcd": _record_gcd_bits,
    "polyops.certify_squarefree_by_restriction": _record_certified,
    "classifier.classify_double_point": _record_steps,
}
