"""Spans around calls into pairsphere's layers, recorded from outside src/.

A traced run rebinds public functions in the modules that look them up at
call time (module globals, or function-local `from .x import y` imports).
Each call becomes a span: name, start, end, parent and the phase it ran in.
Spans stay in memory; `layer_metrics` turns them into per-round figures.

Work done inside a wrapper after the call returns (counting, output checks)
runs on a paused clock, so neither the span nor its parents nor the round
time include it.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module that looks the function up, function name, span name = layer.function)
WRAPPED = [
    ("pairsphere.tune", "detect_once", "tune.detect_once"),
    ("pairsphere.tune", "run_experiment", "tune.run_experiment"),
    ("pairsphere.tune", "grid_search", "tune.grid_search"),
    ("pairsphere.tune", "generate", "generators.generate"),
    ("pairsphere.generators", "generate", "generators.generate"),
    ("pairsphere.tune", "build_base_query", "queries.build_base_query"),
    ("pairsphere.queries", "build_base_query", "queries.build_base_query"),
    ("pairsphere.tune", "build_query", "queries.build_query"),
    ("pairsphere.queries", "apply_granularity_heuristic", "queries.apply_granularity_heuristic"),
    ("pairsphere.queries", "walk_distribution", "graph.walk_distribution"),
    ("pairsphere.queries", "jaccard_vector", "graph.jaccard_vector"),
    ("pairsphere.graph", "jaccard_vector", "graph.jaccard_vector"),
    ("pairsphere.queries", "combine", "geometry.combine"),
    ("pairsphere.geometry", "combine", "geometry.combine"),
    ("pairsphere.tune", "louvain_project", "solver.louvain_project"),
    ("pairsphere.tune", "evaluate", "solver.evaluate"),
    ("pairsphere.clustering", "pearson_correlation", "clustering.pearson_correlation"),
]


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    phase: str
    end: float = math.nan
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._paused = 0.0
        self._after: dict[str, object] = {}

    def now(self) -> float:
        """perf_counter minus all time spent in untimed blocks."""
        return time.perf_counter() - self._paused

    @contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def on_return(self, span_name: str, hook) -> None:
        """Call hook(span, args, kwargs, result) on a paused clock after each call."""
        self._after[span_name] = hook

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, self.now(), self._stack[-1] if self._stack else None, self.phase)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = self.now()
            hook = self._after.get(name)
            if hook is not None:
                with self.untimed():
                    hook(span, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), span_name))


def _self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest whole percentile with at least ten
    values above it, given at least 40 values; else (100, max)."""
    n = len(values)
    if n < 40:
        return 100.0, max(values)
    pct = math.floor(100.0 * (n - 10) / n)
    return float(pct), statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round layer figures from the spans of `rounds` identical rounds.

    Times and counts are totals per round (set-up spans of the generator
    added once). Solve percentiles use, for each solve of a round, its median
    duration over the rounds.
    """
    spans = tracer.spans
    own = _self_times(spans)
    sums: dict[str, list] = {}  # key -> [set-up total, total over all rounds]
    layer_self: dict[str, float] = {}

    for s, self_s in zip(spans, own):
        if s.phase == "round":
            slot = 1
            layer = s.name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s / rounds
        elif s.phase == "setup" and s.name == "generators.generate":
            slot = 0
        else:
            continue
        items = {"total_s": s.duration, "self_s": self_s, **s.info}
        for key, val in items.items():
            sums.setdefault(f"{s.name}.{key}", [0, 0])[slot] += val

    def g(key):
        setup, total = sums.get(key, (0, 0))
        return setup + total / rounds

    solves = [s for s in spans if s.phase == "round" and s.name == "solver.louvain_project"]
    per_solve = len(solves) // rounds
    solve_times = [
        statistics.median(solves[r * per_solve + i].duration for r in range(rounds))
        for i in range(per_solve)
    ]
    solve_s = g("solver.louvain_project.total_s")
    tail_pct, tail_s = _tail(solve_times)
    return {
        "generators.generate_s": g("generators.generate.total_s"),
        "generators.edges": g("generators.generate.edges"),
        "graph.walk_s": g("graph.walk_distribution.total_s"),
        "graph.walk_pairs": g("graph.walk_distribution.pairs"),
        "graph.jaccard_s": g("graph.jaccard_vector.total_s"),
        "queries.base_s": g("queries.build_base_query.self_s") + g("queries.build_query.self_s"),
        "queries.correction_s": g("queries.apply_granularity_heuristic.total_s"),
        "queries.support_pairs": max(s.info["pairs"] for s in solves),
        "queries.query_mb": max(s.info["query_bytes"] for s in solves) / 2**20,
        "geometry.combine_s": g("geometry.combine.total_s"),
        "solver.solve_s": solve_s,
        "solver.solves": float(per_solve),
        "solver.solve_p50_s": statistics.median(solve_times),
        "solver.solve_tail_s": tail_s,
        "solver.solve_tail_pct": tail_pct,
        "solver.support_pairs_per_s": g("solver.louvain_project.pairs") / solve_s,
        "solver.nodes_per_s": g("solver.louvain_project.nodes") / solve_s,
        "solver.communities": g("solver.louvain_project.communities"),
        "solver.evaluate_s": g("solver.evaluate.total_s"),
        "clustering.pearson_s": g("clustering.pearson_correlation.total_s"),
        "tune.self_s": layer_self.get("tune", 0.0),
        "layer_self_total_s": sum(layer_self.values()),  # for trace.unaccounted_s
    }
