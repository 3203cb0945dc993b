"""In-memory spans around ktk's public functions, and the per-layer metrics.

Wrappers are installed only for a traced pass and removed afterwards, so the
untraced passes run ktk's own code objects.  A wrapper replaces every
binding of a function in the loaded ``ktk`` modules (``ktk.solver.prolong``
and ``ktk.equations.prolong`` are one function bound twice), or the class
attribute for a method.  Spans record name, start, end, parent and the id of
the CLI operation they belong to; they stay in memory until ``dump``.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass, field


def _terms_product(args, result) -> int:
    return len(args[0].terms) * len(args[1].terms)


def _first_len(args, result) -> int:
    return len(args[0])


def _result_len(args, result) -> int:
    return len(result)


# span name, module, attribute ("Class.method" for methods), counter, count
TARGETS = (
    ("solver.solve_basis", "ktk.solver", "solve_basis", None, None),
    ("solver.unknown_labels", "ktk.solver", "unknown_labels", "solver.unknowns", _result_len),
    ("solver.span_dim", "ktk.solver", "span_dim", "solver.span_dim.rows", _first_len),
    ("solver.verify_basis", "ktk.solver", "verify_basis", None, None),
    ("solver.in_rational_span", "ktk.solver", "in_rational_span",
     "solver.in_rational_span.columns", _first_len),
    ("operators.conformal_symmetry_operator", "ktk.operators",
     "conformal_symmetry_operator", None, None),
    ("operators.weyl_mul", "ktk.operators", "weyl_mul",
     "operators.weyl_mul.term_pairs", _terms_product),
    ("operators.divide_by_principal", "ktk.operators", "divide_by_principal", None, None),
    ("operators.check_symmetry", "ktk.operators", "check_symmetry", None, None),
    ("equations.conformal_residual", "ktk.equations", "conformal_residual", None, None),
    ("equations.killing_residual", "ktk.equations", "killing_residual", None, None),
    ("tensors.traceless_project", "ktk.tensors", "traceless_project", None, None),
    ("exactalg.Poly.mul", "ktk.exactalg", "Poly.__mul__", None, None),
    ("exactalg.Poly.diff", "ktk.exactalg", "Poly.diff", None, None),
    ("tensors.Basis.to_json", "ktk.tensors", "Basis.to_json", None, None),
    ("tensors.Basis.from_json", "ktk.tensors", "Basis.from_json", None, None),
)

TOP = "cli.main"

# Per-layer metric, unit, and the end-to-end metric and workload it should
# move.  A name ending in calls/s/self_s/p50_ms reads the span named by the
# rest; any other name is a counter.
PER_LAYER = (
    ("solver.solve_basis.calls", "count", "wall_s on basis-conformal"),
    ("solver.solve_basis.self_s", "s", "wall_s on basis-conformal"),
    ("solver.unknowns", "count", "wall_s on basis-conformal"),
    ("solver.span_dim.s", "s", "wall_s on verify-conformal"),
    ("solver.span_dim.rows", "count", "wall_s on verify-conformal"),
    ("solver.verify_basis.self_s", "s", "wall_s on verify-conformal"),
    ("solver.in_rational_span.calls", "count", "wall_s on opcheck-conformal"),
    ("solver.in_rational_span.s", "s", "wall_s on opcheck-conformal"),
    ("solver.in_rational_span.columns", "count", "wall_s on opcheck-conformal"),
    ("operators.conformal_symmetry_operator.calls", "count",
     "wall_s and peak_rss_mib on opcheck-conformal"),
    ("operators.conformal_symmetry_operator.s", "s",
     "wall_s and peak_rss_mib on opcheck-conformal"),
    ("operators.conformal_symmetry_operator.p50_ms", "ms",
     "wall_s and peak_rss_mib on opcheck-conformal"),
    ("operators.weyl_mul.calls", "count", "wall_s and peak_rss_mib on opcheck-conformal"),
    ("operators.weyl_mul.s", "s", "wall_s and peak_rss_mib on opcheck-conformal"),
    ("operators.weyl_mul.term_pairs", "count", "wall_s and peak_rss_mib on opcheck-conformal"),
    ("operators.divide_by_principal.calls", "count",
     "wall_s and peak_rss_mib on opcheck-conformal"),
    ("operators.divide_by_principal.s", "s", "wall_s and peak_rss_mib on opcheck-conformal"),
    ("operators.check_symmetry.s", "s", "wall_s and peak_rss_mib on opcheck-conformal"),
    ("operators.completion_frac", "ratio", "wall_s and peak_rss_mib on opcheck-conformal"),
    ("equations.conformal_residual.s", "s", "wall_s on verify-conformal"),
    ("equations.killing_residual.calls", "count", "wall_s on verify-conformal"),
    ("equations.killing_residual.s", "s", "wall_s on verify-conformal"),
    ("tensors.traceless_project.calls", "count", "wall_s on verify-conformal"),
    ("tensors.traceless_project.s", "s", "wall_s on verify-conformal"),
    ("exactalg.Poly.mul.calls", "count", "wall_s on verify-conformal"),
    ("exactalg.Poly.mul.s", "s", "wall_s on verify-conformal"),
    ("exactalg.Poly.diff.calls", "count", "wall_s on verify-conformal"),
    ("exactalg.Poly.diff.s", "s", "wall_s on verify-conformal"),
    ("tensors.Basis.to_json.s", "s", "wall_s on basis-conformal"),
    ("tensors.Basis.from_json.s", "s", "wall_s on opcheck-conformal and verify-conformal"),
    ("cli.main.self_s", "s", "wall_s on basis-conformal"),
    ("trace_overhead_frac", "ratio", "none: traced against untraced in-process pass time"),
    ("trace_coverage_frac", "ratio", "none: top-level span time over in-process pass time"),
)

_SPAN_FIELDS = ("calls", "s", "self_s", "p50_ms")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    op: int


class Tracer:
    """Records nested spans; one operation id per top-level span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self):
        """A top-level span under a fresh operation id."""
        self._op += 1
        span = self._open(TOP)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, counter=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter:
                self.counters[counter] += count(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans],
                    "counters": dict(self.counters),
                },
                fh,
            )


def _ktk_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ktk" or name.startswith("ktk."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target in the loaded ktk modules; restore them on exit."""
    patches = []
    try:
        for name, module, attr, counter, count in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(name, raw.__func__, counter, count))
                else:
                    new = tracer.wrap(name, raw, counter, count)
                patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(owner, attr)
            wrapper = tracer.wrap(name, orig, counter, count)
            for mod in _ktk_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(kids, s.start, s.end)
        for s, kids in zip(spans, children)
    ]


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


def aggregate(spans: list[Span]) -> dict[str, SpanStats]:
    stats: dict[str, SpanStats] = collections.defaultdict(SpanStats)
    for span, own in zip(spans, self_times(spans)):
        st = stats[span.name]
        st.calls += 1
        st.s += span.end - span.start
        st.self_s += own
        st.durations.append(span.end - span.start)
    return stats


def layer_metrics(tracer: Tracer, traced: list[float], untraced: list[float]) -> dict:
    """Per-layer metrics, each per traced pass.

    ``traced`` and ``untraced`` are in-process pass times: the sum over the
    pass's operations of the time around each CLI entry call.
    """
    passes = len(traced)
    stats = aggregate(tracer.spans)
    top = sum(st.end - st.start for st in tracer.spans if st.parent < 0)
    csop = stats["operators.conformal_symmetry_operator"].calls
    special = {
        "operators.completion_frac":
            stats["solver.in_rational_span"].calls / csop if csop else 0.0,
        "trace_overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1,
        "trace_coverage_frac": top / sum(traced),
    }
    out = {}
    for metric, unit, _ in PER_LAYER:
        if metric in special:
            value = special[metric]
        else:
            span, _, fld = metric.rpartition(".")
            if fld not in _SPAN_FIELDS:
                value = tracer.counters[metric] / passes
            elif fld == "p50_ms":
                durations = stats[span].durations
                value = statistics.median(durations) * 1e3 if durations else 0.0
            else:
                value = getattr(stats[span], fld) / passes
        out[metric] = {"value": value, "unit": unit}
    return out
