"""Experiment harness: batched generate -> detect -> evaluate runs, boxplot
summaries, and grid search over the (jaccard, degree) combination coefficients.

Rows are keyed by (query label, sample index) and merged deterministically, so
worker count never changes output content. Per-run failures become rows with
an error tag; the batch keeps going.
"""

from __future__ import annotations

import csv
import io
import json
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._util import atomic_write_text, derive_seed
from .clustering import (
    DegeneratePartitionError,
    DetectionResult,
    Partition,
    evaluate,
    partition_latitude,
    query_correlation_distance,
)
from .generators import GeneratorSpec, generate
from .graph import Graph
from .queries import QuerySpec, build_base_query, build_query, check_latitude_rule, linear_combination_queries
from .solver import louvain_project

RESULT_COLUMNS = [
    "query",
    "sample",
    "seed",
    "error",
    "rho",
    "latitude_C",
    "latitude_T",
    "d_a_qC",
    "d_a_qT",
    "d_cc_qT",
    "granularity_error",
    "excess_ratio",
    "connected",
    "n_isolated",
    "query_ms",
    "solve_ms",
]

TIMING_COLUMNS = ("query_ms", "solve_ms")


@dataclass
class ExperimentPlan:
    generator: GeneratorSpec
    queries: list[QuerySpec]
    repeats: int = 1
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if not self.queries:
            raise ValueError("plan needs at least one query spec")
        labels = set()
        for spec in self.queries:  # rows and summaries are keyed by label
            if spec.label in labels:
                raise ValueError(f"two queries share the label {spec.label!r}; set name to tell them apart")
            labels.add(spec.label)


@dataclass
class RunRow:
    query: str
    sample: int
    seed: int
    error: str = ""
    result: DetectionResult | None = None
    connected: bool | None = None
    n_isolated: int | None = None

    def as_record(self) -> dict:
        rec = {c: None for c in RESULT_COLUMNS}
        rec.update(
            query=self.query,
            sample=self.sample,
            seed=self.seed,
            error=self.error,
            connected=None if self.connected is None else int(self.connected),
            n_isolated=self.n_isolated,
        )
        if self.result is not None:
            for key, val in asdict(self.result).items():
                if key in rec and key != "seed":
                    rec[key] = val
        return rec


def detect_once(
    G: Graph,
    spec: QuerySpec,
    planted: Partition | None = None,
    seed: int = 0,
    base=None,
) -> tuple[Partition, DetectionResult]:
    """Build the query, project it, and evaluate the detected partition.

    A given `base` (the spec's query before granularity handling) is used
    instead of building it; query_ms then times only the correction.
    """
    t0 = time.perf_counter()
    q = build_query(G, spec, planted, base=base)
    t1 = time.perf_counter()
    detected = louvain_project(q, seed=seed)
    t2 = time.perf_counter()
    res = evaluate(
        q,
        detected,
        planted,
        seed=seed,
        query_ms=(t1 - t0) * 1e3,
        solve_ms=(t2 - t1) * 1e3,
    )
    return detected, res


def resolve_means(plan: ExperimentPlan) -> list[QuerySpec]:
    """Replace means-mode heuristics with fixed values estimated from pilot
    samples of the plan's generator (mean reference latitude and mean meridian
    angle of the base query)."""
    out = []
    for spec in plan.queries:
        if spec.heuristic != "means":
            out.append(spec)
            continue
        lams, thetas = [], []
        for p in range(spec.pilots):
            G, T = generate(plan.generator, derive_seed(plan.master_seed, "pilot", p))
            q = build_base_query(G, spec)
            lams.append(partition_latitude(T))
            thetas.append(query_correlation_distance(q, T))
        out.append(
            replace(
                spec,
                heuristic="fixed",
                lam_t=float(np.mean(lams)),
                theta=float(np.mean(thetas)),
                name=spec.label,
            )
        )
    return out


def _graph_health(G: Graph) -> tuple[bool, int]:
    import scipy.sparse.csgraph as csgraph

    n_isolated = int((G.degrees == 0).sum())
    n_comp = csgraph.connected_components(G.adjacency_csr(), directed=False, return_labels=False)
    return n_comp == 1, n_isolated


def _run_sample(args) -> list[RunRow]:
    plan, queries, sample = args
    rows: list[RunRow] = []
    try:
        G, T = generate(plan.generator, derive_seed(plan.master_seed, "sample", sample))
    except Exception as exc:  # noqa: BLE001 - recorded, batch continues
        return [
            RunRow(spec.label, sample, 0, error=f"generate: {exc}") for spec in queries
        ]
    connected, n_isolated = _graph_health(G)
    # each base query is built once and dropped after the last spec that uses it
    last_use = {spec.base_key(): qi for qi, spec in enumerate(queries)}
    base_cache: dict = {}
    for qi, spec in enumerate(queries):
        seed = derive_seed(plan.master_seed, "solve", sample, qi)
        key = spec.base_key()
        try:
            if key not in base_cache:
                t0 = time.perf_counter()
                base_cache[key] = (build_base_query(G, spec), time.perf_counter() - t0)
            base, base_secs = base_cache.pop(key) if last_use[key] == qi else base_cache[key]
            _, res = detect_once(G, spec, T, seed=seed, base=base)
            res.query_ms += base_secs * 1e3  # row's query time: base plus correction
            rows.append(
                RunRow(spec.label, sample, seed, result=res,
                       connected=connected, n_isolated=n_isolated)
            )
        except Exception as exc:  # noqa: BLE001
            rows.append(
                RunRow(spec.label, sample, seed, error=str(exc),
                       connected=connected, n_isolated=n_isolated)
            )
        base = None  # only the cache keeps a base, and only while a later spec needs it
    return rows


@dataclass
class ExperimentResult:
    rows: list[RunRow]
    summary: dict

    def records(self) -> list[dict]:
        return [r.as_record() for r in self.rows]


def _map(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks], in a process pool when workers > 1; either way
    the results keep task order."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _write_files(out_dir, files: dict) -> dict:
    """Write {key: (file name, text)} into out_dir, made if missing; returns {key: path}."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for key, (name, text) in files.items():
        paths[key] = os.path.join(out_dir, name)
        atomic_write_text(paths[key], [text])
    return paths


def run_experiment(plan: ExperimentPlan) -> ExperimentResult:
    """Run every (sample, query) cell; summary holds per-query boxplot stats."""
    queries = resolve_means(plan)
    per_sample = _map(_run_sample, [(plan, queries, s) for s in range(plan.repeats)], plan.workers)
    # each sample's rows come in query order
    rows = [row for sample_rows in per_sample for row in sample_rows]
    return ExperimentResult(rows, summarize(rows))


def _boxplot(values: list[float]) -> dict:
    values = sorted(values)
    qs = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {
        "min": values[0],
        "q1": qs[0],
        "median": statistics.median(values),
        "q3": qs[2],
        "max": values[-1],
        "mean": statistics.fmean(values),
        "count": len(values),
    }


def summarize(rows: list[RunRow]) -> dict:
    """Per-query boxplot statistics for every numeric metric, plus the excess
    tally (runs where the solver landed farther from the query than the
    planted clustering)."""
    out: dict = {}
    by_query: dict[str, list[RunRow]] = {}
    for row in rows:
        by_query.setdefault(row.query, []).append(row)
    for label, group in by_query.items():
        stats: dict = {"runs": len(group), "errors": sum(1 for r in group if r.error)}
        for metric in ("rho", "granularity_error", "latitude_C", "excess_ratio", "d_a_qC"):
            vals = [
                getattr(r.result, metric)
                for r in group
                if r.result is not None and getattr(r.result, metric) is not None
            ]
            if vals:
                stats[metric] = _boxplot(vals)
        excess = [
            r.result.excess_ratio
            for r in group
            if r.result is not None and r.result.excess_ratio is not None
        ]
        if excess:
            stats["excess_positive_fraction"] = sum(1 for e in excess if e > 0) / len(excess)
            stats["excess_max"] = max(excess)
        out[label] = stats
    return out


def rows_to_csv(rows: list[RunRow], drop_timing: bool = False) -> str:
    cols = [c for c in RESULT_COLUMNS if not (drop_timing and c in TIMING_COLUMNS)]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        rec = row.as_record()
        writer.writerow({c: _fmt(rec[c]) for c in cols})
    return buf.getvalue()


def _fmt(val):
    if val is None:
        return ""
    if isinstance(val, float):
        return format(val, ".12g")
    return val


def write_experiment_outputs(result: ExperimentResult, out_dir) -> dict:
    """Write results.csv, its JSON mirror and results_summary.json; returns the file paths."""
    return _write_files(out_dir, {
        "csv": ("results.csv", rows_to_csv(result.rows)),
        "json": ("results.json", json.dumps(result.records(), indent=1)),
        "summary": ("results_summary.json", json.dumps(result.summary, indent=1)),
    })


# -- grid search -------------------------------------------------------------------


def default_cj_grid() -> list[float]:
    return [round(0.1 * i, 10) for i in range(11)]  # 0 .. 1


def default_cd_grid() -> list[float]:
    return [round(-6.0 + 0.5 * i, 10) for i in range(13)]  # -6 .. 0


@dataclass
class GridSearchPlan:
    generator: GeneratorSpec
    cj_grid: list[float] = field(default_factory=default_cj_grid)
    cd_grid: list[float] = field(default_factory=default_cd_grid)
    train_size: int = 15
    val_size: int = 20
    # (edges, membership) path pairs; when given they replace the generator
    # as the training/validation source
    train_files: list[tuple[str, str]] | None = None
    val_files: list[tuple[str, str]] | None = None
    master_seed: int = 0
    workers: int = 1
    rule: str = "corrected"

    def __post_init__(self):
        if not self.cj_grid or not self.cd_grid:
            raise ValueError("grids must be non-empty")
        if self.train_size < 1 and not self.train_files:
            raise ValueError("need at least one training sample")
        if self.val_size < 1 and not self.val_files:
            raise ValueError("need at least one validation sample")
        check_latitude_rule(self.rule)


@dataclass
class GridCell:
    c_j: float
    c_d: float
    median_rho: float
    mean_rho: float
    n_runs: int


@dataclass
class GridSearchResult:
    best: GridCell
    cells: list[GridCell]
    validation_rhos: list[float]
    validation_median: float


def _grid_sources(plan: GridSearchPlan, files, size: int, key: str) -> list[tuple[Graph, Partition]]:
    """(graph, planted) pairs: the given external files, else `size` samples
    of the plan's generator."""
    if files:
        from .generators import load_external

        return [load_external(e, m) for e, m in files]
    return [generate(plan.generator, derive_seed(plan.master_seed, key, i)) for i in range(size)]


def _grid_spec(c_j: float, c_d: float, rule: str) -> QuerySpec:
    return QuerySpec("linear", c_j=c_j, c_d=c_d, heuristic="exact", rule=rule)


def _grid_rho(G: Graph, spec: QuerySpec, T: Partition, seed: int, base=None) -> float:
    """rho of one detection; a trivial detected partition has none and fails."""
    _, res = detect_once(G, spec, T, seed=seed, base=base)
    if res.rho is None:
        raise DegeneratePartitionError("correlation undefined for a trivial partition")
    return res.rho


def _train_worker(args):
    """All grid cells for one training sample, in grid order, on the cells of
    linear_combination_queries; one task per sample keeps pickling overhead
    proportional to the sample count."""
    G, T, seed, cj_grid, cd_grid, rule = args
    return [
        _grid_rho(G, _grid_spec(c_j, c_d, rule), T, seed, base)
        for c_j, c_d, base in linear_combination_queries(G, cj_grid, cd_grid)
    ]


def grid_search(plan: GridSearchPlan) -> GridSearchResult:
    """Evaluate the corrected linear-combination query on every grid cell over
    a shared training set; re-evaluate the winner on the validation set."""
    train = _grid_sources(plan, plan.train_files, plan.train_size, "train")
    tasks = [
        (G, T, derive_seed(plan.master_seed, "train-solve", idx),
         plan.cj_grid, plan.cd_grid, plan.rule)
        for idx, (G, T) in enumerate(train)
    ]
    rho_matrix = np.asarray(_map(_train_worker, tasks, plan.workers))  # (samples, cells)
    cells = []
    pos = 0
    for c_j in plan.cj_grid:
        for c_d in plan.cd_grid:
            cell_rhos = rho_matrix[:, pos].tolist()
            pos += 1
            cell = GridCell(
                c_j,
                c_d,
                float(statistics.median(cell_rhos)),
                float(statistics.fmean(cell_rhos)),
                len(cell_rhos),
            )
            cells.append(cell)
    # winner = max median rho, ties broken by max mean rho, then grid order
    best = max(cells, key=lambda cell: (cell.median_rho, cell.mean_rho))
    spec = _grid_spec(best.c_j, best.c_d, plan.rule)
    val_rhos = [
        _grid_rho(G, spec, T, derive_seed(plan.master_seed, "val-solve", i))
        for i, (G, T) in enumerate(_grid_sources(plan, plan.val_files, plan.val_size, "val"))
    ]
    return GridSearchResult(
        best=best,
        cells=cells,
        validation_rhos=val_rhos,
        validation_median=float(statistics.median(val_rhos)),
    )


def heatmap_csv(result: GridSearchResult) -> str:
    buf = io.StringIO()
    buf.write("c_j,c_d,median_rho,mean_rho,n_runs\n")
    for cell in result.cells:
        buf.write(
            f"{cell.c_j:g},{cell.c_d:g},{cell.median_rho:.12g},{cell.mean_rho:.12g},{cell.n_runs}\n"
        )
    return buf.getvalue()


def write_grid_outputs(result: GridSearchResult, out_dir) -> dict:
    """Write heatmap.csv and gridsearch_report.json; returns the file paths."""
    report = {
        "best_c_j": result.best.c_j,
        "best_c_d": result.best.c_d,
        "train_median_rho": result.best.median_rho,
        "train_mean_rho": result.best.mean_rho,
        "validation_median_rho": result.validation_median,
        "validation_rhos": result.validation_rhos,
    }
    return _write_files(out_dir, {
        "heatmap": ("heatmap.csv", heatmap_csv(result)),
        "report": ("gridsearch_report.json", json.dumps(report, indent=1)),
    })
