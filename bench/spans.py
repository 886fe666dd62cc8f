"""Span tracer that wraps renydiv's public functions from outside the package.

Tracing patches names in the renydiv module namespaces for the duration of a
traced iteration and restores them afterwards, so untraced iterations run the
unmodified code. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


def _equality_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else None)
    return "asymptotics.equality_test_paired" if mode == "paired" else "asymptotics.equality_test"


# (module, function, span name); a callable name picks the span name per call
FUNCTIONS = [
    ("io", "parse_count_table", "io.parse_count_table"),
    ("io", "dumps_report", "io.dumps_report"),
    ("cli", "run_cli", "cli.run_cli"),
    ("cli", "load_sim_config", "cli.load_sim_config"),
    ("pipeline", "diversity_pipeline", "pipeline.diversity_pipeline"),
    ("pipeline", "filter_noise", "pipeline.filter_noise"),
    ("asymptotics", "entropy_ci", "asymptotics.entropy_ci"),
    ("asymptotics", "hill_ci", "asymptotics.hill_ci"),
    ("asymptotics", "divergence_ci", "asymptotics.divergence_ci"),
    ("asymptotics", "equality_test", _equality_span),
    ("asymptotics", "uniformity_test", "asymptotics.uniformity_test"),
    ("projections", "projection_w_moments", "projections.projection_w_moments"),
    ("projections", "v_moments_independent", "projections.v_moments_independent"),
    ("projections", "ld_diagnostic", "projections.ld_diagnostic"),
    ("measures", "power_sum", "measures.power_sum"),
    ("measures", "cross_power_sum", "measures.cross_power_sum"),
    ("montecarlo", "sample_joint", "montecarlo.sample_joint"),
    ("montecarlo", "simulate_statistic", "montecarlo.simulate_statistic"),
    ("montecarlo", "coverage_experiment", "montecarlo.coverage_experiment"),
    ("montecarlo", "ks_distance_normal", "montecarlo.ks_distance_normal"),
    ("powerlaw", "powerlaw_pmf", "powerlaw.powerlaw_pmf"),
]
# constructors are traced through __post_init__, which holds their validation
CLASSES = [
    ("distributions", "ProbVector"),
    ("counts", "CountVector"),
    ("counts", "JointCountTable"),
]

SPAN_NAMES = ([name for _, _, name in FUNCTIONS if isinstance(name, str)]
              + ["asymptotics.equality_test", "asymptotics.equality_test_paired"]
              + [f"{module}.{cls}" for module, cls in CLASSES])


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    iteration: int | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class _CountingMath:
    """Stands in for `math` in a module namespace and counts fsum elements."""

    def __init__(self, sizes: list):
        self._sizes = sizes

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, values):
        values = values if isinstance(values, list) else list(values)
        self._sizes.append(len(values))  # list.append is atomic across threads
        return math.fsum(values)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.fsum_sizes: list[int] = []
        self.iteration: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; worker threads start their own root spans."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.iteration))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            return self.run(span, fn, *args, **kwargs)
        return traced

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Patch every renydiv namespace that binds a traced name."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "renydiv" or key.startswith("renydiv.")]
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"renydiv.{module}"], attr)
            traced = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)
        for module, cls_name in CLASSES:
            cls = getattr(sys.modules[f"renydiv.{module}"], cls_name)
            self._patch(cls, "__post_init__",
                        self._wrap(cls.__post_init__, f"{module}.{cls_name}"))
        counting = _CountingMath(self.fsum_sizes)
        for mod in modules:
            if vars(mod).get("math") is math:
                self._patch(mod, "math", counting)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.id, s.name, s.start_ns, s.end_ns, s.parent, s.iteration]
                       for s in self.spans], fh)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0, s.start_ns
        for c in sorted(children[s.id], key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, cursor), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration_ns - covered
    return out


def self_time_errors(spans) -> list[str]:
    """Check that self times of each span tree add up to its root's duration."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    totals = defaultdict(int)
    for s in spans:
        root = s
        while root.parent is not None:
            root = by_id[root.parent]
        totals[root.id] += own[s.id]
    return [f"self times of tree {root_id} ({by_id[root_id].name}) sum to {total} ns, "
            f"root lasts {by_id[root_id].duration_ns} ns"
            for root_id, total in totals.items() if total != by_id[root_id].duration_ns]


def self_test() -> list[str]:
    """Self-time arithmetic on a fixed tree with known answers."""
    spans = [Span(1, "root", 0, 100, None, 0), Span(2, "a", 10, 40, 1, 0),
             Span(3, "a1", 20, 30, 2, 0), Span(4, "b", 50, 90, 1, 0)]
    expect = {1: 30, 2: 20, 3: 10, 4: 40}
    errors = self_time_errors(spans)
    if self_times(spans) != expect:
        errors.append(f"self times {self_times(spans)} != {expect}")
    return errors


def layer_totals(spans) -> dict:
    """Per span name: inclusive seconds of its outermost spans, and call count."""
    by_id = {s.id: s for s in spans}
    seconds, calls = defaultdict(float), defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        parent = s.parent
        while parent is not None and by_id[parent].name != s.name:
            parent = by_id[parent].parent
        if parent is None:
            seconds[s.name] += s.duration_ns / 1e9
    return {"s": seconds, "calls": calls}


def self_seconds(spans, name: str) -> float:
    own = self_times(spans)
    return sum(own[s.id] for s in spans if s.name == name) / 1e9


def durations_under(spans, name: str, ancestor: str) -> list[float]:
    """Seconds of each `name` span that has an `ancestor` span above it."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        parent = s.parent
        while parent is not None and by_id[parent].name != ancestor:
            parent = by_id[parent].parent
        if parent is not None:
            out.append(s.duration_ns / 1e9)
    return out


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0
