"""Spans and counters for the traced pass of the metagrid benchmark.

The benchmark never edits the program.  ``instrument`` wraps each layer
entry point by rebinding module attributes: every ``metagrid`` module that
holds the original function (the defining module and each module that
imported the name) gets the wrapper, and the function ``instrument``
returns puts the originals back.  A wrapper opens a span, calls the
original, closes the span and records the layer's counts.

Spans stay in memory until the benchmark ends.  A span's self time is its
duration minus the durations of its direct children, so the self times of
one cell's spans add up to the duration of its root span.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (defining module, attribute, span name).  The harness itself opens the
# two simulator spans: "simulator.run_scenario" around each cell and
# "simulator.adapter" around each scheduler adapter call.
ENTRY_POINTS = (
    ("metagrid.relaxed", "build_relaxed", "relaxed.build"),
    ("metagrid.relaxed", "solve_relaxed", "relaxed.solve"),
    ("metagrid.relaxed", "_model_arrays", "relaxed.assemble"),
    ("metagrid.relaxed", "linprog", "relaxed.highs"),
    ("metagrid.mmc", "modified_min_cost", "mmc.consolidate"),
    ("metagrid.greedy", "greedy_schedule", "greedy.schedule"),
    ("metagrid.ga", "run_ga", "ga.run"),
    ("metagrid.ga", "mutate", "ga.mutate"),
    ("metagrid.ga", "decode_schedule", "ga.decode"),
    ("metagrid.model", "build_schedule", "model.build_schedule"),
)

SPAN_NAMES = (
    "simulator.run_scenario",
    "simulator.adapter",
    *(span for _, _, span in ENTRY_POINTS),
)


@dataclass(slots=True)
class Span:
    name: str
    cell: int
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float | None = None
    child_s: float = 0.0  # summed duration of the direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span stack plus named counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.cell = -1
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.cell, parent, self.clock()))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        end = self.clock()
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self._open.pop()
        span = self.spans[index]
        span.end = end
        if span.parent >= 0:
            self.spans[span.parent].child_s += end - span.start

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def calls(self) -> Counter[str]:
        return Counter(s.name for s in self.spans)

    def self_times(self, scale=None) -> dict[str, float]:
        """Summed self time per span name; ``scale`` maps a cell to the
        factor its times are multiplied by."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_s * (scale[span.cell] if scale else 1.0)
        return out

    def inclusive_times(self, scale=None) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.duration * (scale[span.cell] if scale else 1.0)
        return out

    def by_cell(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            out[span.cell].append(span)
        return out


def accounting_errors(spans: list[Span], all_spans: list[Span], tol: float = 1e-6) -> list[str]:
    """Problems with one cell's spans: it must have exactly one root, every
    span must be closed and lie inside its parent, and the self times must
    add up to the root's duration."""
    problems = []
    roots = [s for s in spans if s.parent < 0]
    if len(roots) != 1:
        return [f"expected one root span, found {len(roots)}"]
    for span in spans:
        if span.end is None:
            problems.append(f"span {span.name} never closed")
            continue
        if span.parent >= 0:
            parent = all_spans[span.parent]
            if parent.end is None or span.start < parent.start or span.end > parent.end:
                problems.append(f"span {span.name} lies outside its parent {parent.name}")
    if problems:
        return problems
    root = roots[0].duration
    total = sum(s.self_s for s in spans)
    if abs(total - root) > tol * max(root, 1e-3):
        problems.append(f"self times sum to {total!r} s, root span lasts {root!r} s")
    return problems


def _rebind(original, wrapper, restore: list) -> None:
    for name, module in list(sys.modules.items()):
        if name != "metagrid" and not name.startswith("metagrid."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                restore.append((module, attr, original))
                setattr(module, attr, wrapper)


def _spanned(tracer: Tracer, span: str, fn, after=None):
    def wrapper(*args, **kwargs):
        index = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _after_build(tracer, args, kwargs, model) -> None:
    force = kwargs["force_dummy"] if "force_dummy" in kwargs else len(args) > 3 and args[3]
    if force:
        tracer.count("relaxed.force_dummy_builds")


def _after_solve(tracer, args, kwargs, alloc) -> None:
    model = args[0] if args else kwargs["model"]
    tracer.count("relaxed.vars", len(model.pair_order))


def _after_assemble(tracer, args, kwargs, arrays) -> None:
    _, a_ub, _, a_eq, _, _ = arrays
    tracer.count("relaxed.rows", a_eq.shape[0] + (a_ub.shape[0] if a_ub is not None else 0))


def _after_highs(tracer, args, kwargs, res) -> None:
    if res.x is not None:
        tracer.count("relaxed.highs_vars", len(res.x))
        tracer.count("relaxed.highs_vars_used", int((abs(res.x) > 0.5).sum()))
    tracer.count("relaxed.highs_nodes", getattr(res, "mip_node_count", 0) or 0)


def _after_ga(tracer, args, kwargs, result) -> None:
    tracer.count("ga.iterations", result.iterations_used)
    if result.best_fitness < result.seed_fitness - 1e-12:
        tracer.count("ga.improved")


AFTER = {
    "relaxed.build": _after_build,
    "relaxed.solve": _after_solve,
    "relaxed.assemble": _after_assemble,
    "relaxed.highs": _after_highs,
    "ga.run": _after_ga,
}


def _mmc_wrapper(tracer: Tracer, fn, stats_type):
    """Pass an ``MmcStats`` when the caller gave none, so the consolidation
    counts are collected; the schedule does not depend on it."""
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        stats = bound.arguments.get("stats")
        if stats is None:
            stats = bound.arguments["stats"] = stats_type()
        before = (stats.steps, stats.displacements, stats.parked)
        index = tracer.open("mmc.consolidate")
        try:
            result = fn(*bound.args, **bound.kwargs)
        finally:
            tracer.close(index)
        tracer.count("mmc.steps", stats.steps - before[0])
        tracer.count("mmc.displacements", stats.displacements - before[1])
        tracer.count("mmc.parked", stats.parked - before[2])
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def instrument(tracer: Tracer):
    """Wrap every entry point in ``ENTRY_POINTS``; returns a function that
    undoes the rebinding."""
    restore: list = []
    for module_name, attr, span in ENTRY_POINTS:
        original = getattr(sys.modules[module_name], attr)
        if span == "mmc.consolidate":
            wrapper = _mmc_wrapper(tracer, original, sys.modules["metagrid.mmc"].MmcStats)
        else:
            wrapper = _spanned(tracer, span, original, AFTER.get(span))
        _rebind(original, wrapper, restore)

    def undo() -> None:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)

    return undo
