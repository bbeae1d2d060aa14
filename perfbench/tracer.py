"""In-memory spans for the traced benchmark run.

A span records name, start, end, the span that caused it (parent) and the
task it belongs to. Spans stay in memory until the run ends. The untraced
run uses ``NULL_TRACER``, whose spans cost one no-op context manager.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    task: str | None
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "task": self.task, "parent": self.parent,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class NullTracer:
    """Tracing off: spans do nothing."""

    _NULL = nullcontext()
    task = None

    def span(self, name, **attrs):
        return self._NULL


NULL_TRACER = NullTracer()


class Tracer:
    """Tracing on. With ``memory_names`` set, a span of one of those names
    that is not nested in another traced-memory span records its
    ``tracemalloc`` peak as ``attrs["peak_mb"]``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task: str | None = None
        self.memory_names: frozenset = frozenset()
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name, **attrs):
        sp = Span(len(self.spans), name, self.task,
                  self._stack[-1].id if self._stack else None, 0.0, attrs=dict(attrs))
        self.spans.append(sp)
        self._stack.append(sp)
        measure = name in self.memory_names and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if measure:
                sp.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            self._stack.pop()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children (union of the child intervals, clipped)."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for ch in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, sp.start), min(ch.end, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sp.id] = sp.duration - covered
    return out


def has_ancestor(spans: list[Span], sp: Span, name: str) -> bool:
    p = sp.parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _tableau_mb(lp) -> float:
    """Size of the dense simplex tableau for ``lp``: one row per constraint
    plus the cost row; columns for the split free variables, the slacks,
    the artificials (equality rows and inequality rows with negative bound)
    and the right-hand side."""
    m = 0 if lp.lhs_ineq is None else lp.lhs_ineq.shape[0]
    me = 0 if lp.lhs_eq is None else lp.lhs_eq.shape[0]
    n_art = me + (0 if lp.rhs_ineq is None else int((lp.rhs_ineq < 0.0).sum()))
    return (m + me + 1) * (2 * lp.n_vars + m + n_art + 1) * 8 / 1e6


@contextmanager
def wrapped_layers(tracer: Tracer):
    """Wrap the public functions through which one layer reaches another, in
    the caller's module namespace, for the duration of the block: the LP
    solver as seen by ``predual`` and ``markov``, and ``whitney_lambda`` as
    seen by ``predual``. Originals are restored on exit."""
    import ckomega.markov as markov
    import ckomega.predual as predual

    def traced_solve(solve):
        def solve_with_span(lp):
            with tracer.span("simplex.solve", rows=lp.n_rows, tableau_mb=_tableau_mb(lp)) as sp:
                sol = solve(lp)
                sp.attrs["pivots"] = sol.iterations
            return sol
        return solve_with_span

    def traced_lambda(fn):
        def lambda_with_span(field, ctx):
            m = len(field)
            with tracer.span("whitney.lambda", pairs=m * (m - 1) // 2):
                return fn(field, ctx)
        return lambda_with_span

    saved = [(predual, "solve", predual.solve), (markov, "solve", markov.solve),
             (predual, "whitney_lambda", predual.whitney_lambda)]
    predual.solve = traced_solve(saved[0][2])
    markov.solve = traced_solve(saved[1][2])
    predual.whitney_lambda = traced_lambda(saved[2][2])
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
