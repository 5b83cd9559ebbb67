"""Spans and call counters around hypoalarm's public functions.

A `Tracer` wraps every public function of the layer modules from outside the
package and rebinds the name in every hypoalarm module that holds it, so a
call made through ``from .cart import grow_tree`` is recorded as well as one
made through ``hypoalarm.cart.grow_tree``. `install` and `uninstall` swap the
wrappers in and out; nothing under ``src/`` knows about them.

Functions named in `SPAN_FUNCTIONS` are layer boundaries and get one span per
call. Every other public function is hot (called per sample, per instance or
per tree node) and gets only a call count and a total time; that time is
charged to the innermost open span so self times stay exact. A hot function
must not call a span function, or its time would be subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("cgm_data", "features", "cart", "evaluation", "synth", "cli")

SPAN_FUNCTIONS = frozenset({
    "synth.generate_cohort",
    "cgm_data.parse_cgm_file",
    "cgm_data.series_to_csv",
    "features.build_instances",
    "features.meal_episodes",
    "features.write_feature_csv",
    "features.read_feature_csv",
    "cart.grow_tree",
    "cart.prune_to_depth",
    "evaluation.cross_validate",
    "evaluation.select_best_run",
    "evaluation.select_best_tree",
    "evaluation.evaluate_per_patient",
    "evaluation.missed_event_analysis",
    "evaluation.one_way_anova",
    "cli.main",
})


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    op: object           # operation id set by the caller
    hot_s: float = 0.0   # time of hot calls made directly inside this span
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals and
    the hot-call time charged to it."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[i]):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered - span.hot_s)
    return out


def _cli_span_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


class Tracer:
    """Records spans and hot-call counters while installed.

    `inspectors` maps a span function name to ``f(args, kwargs, result)``
    returning counts to attach to the span (samples parsed, nodes grown...).
    Inspection runs after the span has closed and its time is charged to the
    enclosing span like a hot call, so it inflates no self time.
    """

    def __init__(self, inspectors=None):
        self.spans: list[Span] = []
        self.hot: dict = {}  # (op, name) -> [calls, seconds]
        self.op = None
        self._open: list[int] = []
        self._hot_depth = [0]
        self._cells: dict = {}  # name -> [calls, seconds] of the installed operation
        self._inspectors = inspectors or {}
        self._bindings = self._wrap_all()

    def install(self, op) -> None:
        """Swap the wrappers in; what they record belongs to operation `op`."""
        self.op = op
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)
        for name, cell in self._cells.items():
            if cell[0]:
                self.hot[(self.op, name)] = list(cell)
                cell[:] = [0, 0.0]

    def _wrap_all(self):
        package = importlib.import_module("hypoalarm")
        modules = [package] + [importlib.import_module(f"hypoalarm.{layer}") for layer in LAYERS]
        bindings = []
        for layer in LAYERS:
            module = importlib.import_module(f"hypoalarm.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in SPAN_FUNCTIONS:
                    wrapper = self._span_wrapper(name, fn)
                else:
                    wrapper = self._hot_wrapper(name, fn)
                for holder in modules:
                    if getattr(holder, attr, None) is fn:
                        bindings.append((holder, attr, fn, wrapper))
        return bindings

    def _span_wrapper(self, name, fn):
        spans, open_ = self.spans, self._open
        inspector = self._inspectors.get(name)
        name_of = _cli_span_name if name == "cli.main" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            span = Span(label, 0.0, 0.0, open_[-1] if open_ else -1, self.op)
            open_.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
            if inspector is not None:
                span.counts = inspector(args, kwargs, result)
                if open_:
                    spans[open_[-1]].hot_s += perf_counter() - span.end
            return result

        return wrapper

    def _hot_wrapper(self, name, fn):
        spans, open_, depth = self.spans, self._open, self._hot_depth
        cell = self._cells[name] = [0, 0.0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[0] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                depth[0] -= 1
                cell[0] += 1
                cell[1] += elapsed
                if not depth[0] and open_:
                    spans[open_[-1]].hot_s += elapsed

        return wrapper


def totals_by_round(tracer: Tracer, round_of) -> dict:
    """Per-round sums keyed by metric name.

    For every span name: ``<name>.calls``, ``<name>.busy_s`` and
    ``<name>.self_s``; for every hot function: ``<name>.calls`` and
    ``<name>.busy_s``; plus the sum of every count the inspectors attached.
    `round_of` maps an operation id to its round.
    """
    rounds: dict = defaultdict(lambda: defaultdict(int))
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        totals = rounds[round_of(span.op)]
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.busy_s"] += span.end - span.start
        totals[f"{span.name}.self_s"] += own
        for key, value in span.counts.items():
            totals[key] += value
    for (op, name), (calls, seconds) in tracer.hot.items():
        totals = rounds[round_of(op)]
        totals[f"{name}.calls"] += calls
        totals[f"{name}.busy_s"] += seconds
    return rounds
