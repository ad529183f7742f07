import json
from pathlib import Path

import numpy as np
import pytest

from pairsphere import tune
from pairsphere.clustering import DegeneratePartitionError, Partition
from pairsphere.generators import GeneratorSpec
from pairsphere.queries import QuerySpec
from pairsphere.tune import (
    ExperimentPlan,
    GridSearchPlan,
    detect_once,
    grid_search,
    heatmap_csv,
    resolve_means,
    rows_to_csv,
    run_experiment,
    write_experiment_outputs,
    write_grid_outputs,
)


def _tiny_plan(**kw):
    gen = GeneratorSpec("ppm", n=40, k=4, lambda_in=6, lambda_out=1)
    queries = [
        QuerySpec("markov", t=1, isolated="zero", name="ms_t1"),
        QuerySpec("markov", t=1, isolated="zero", heuristic="exact", name="ms_t1_fix"),
    ]
    return ExperimentPlan(gen, queries, **kw)


def test_smoke_two_rows():
    plan = _tiny_plan(repeats=1, master_seed=3)
    result = run_experiment(plan)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.error == ""
        assert row.result.rho is not None
        assert row.result.latitude_C is not None
        assert row.result.d_a_qC is not None
        assert row.result.solve_ms is not None
    assert {r.query for r in result.rows} == {"ms_t1", "ms_t1_fix"}


def test_reproducible_tables_and_worker_invariance():
    plan_a = _tiny_plan(repeats=4, master_seed=11, workers=1)
    plan_b = _tiny_plan(repeats=4, master_seed=11, workers=2)
    rows_a = run_experiment(plan_a).rows
    rows_b = run_experiment(plan_b).rows
    # rows come samples x specs, in plan order, at any worker count
    order = [(s, spec.label) for s in range(4) for spec in plan_a.queries]
    assert [(r.sample, r.query) for r in rows_a] == order
    assert [(r.sample, r.query) for r in rows_b] == order
    csv_a = rows_to_csv(rows_a, drop_timing=True)
    csv_b = rows_to_csv(rows_b, drop_timing=True)
    assert csv_a == csv_b
    csv_c = rows_to_csv(run_experiment(_tiny_plan(repeats=4, master_seed=12)).rows, drop_timing=True)
    assert csv_a != csv_c


def test_error_rows_recorded_not_raised():
    # isolated="error" on a generator that routinely has isolated nodes
    gen = GeneratorSpec("ppm", n=30, k=3, lambda_in=1.0, lambda_out=0.1)
    queries = [QuerySpec("markov", t=1, name="strict")]
    plan = ExperimentPlan(gen, queries, repeats=6, master_seed=0)
    result = run_experiment(plan)
    assert len(result.rows) == 6
    errs = [r for r in result.rows if r.error]
    assert errs, "expected at least one isolated-node failure at this density"
    assert any("isolated" in r.error for r in errs)
    stats = result.summary["strict"]
    assert stats["errors"] == len(errs)


def test_base_query_cache_tells_cc_weights_apart():
    """Two cc specs in one plan build their own queries: row b is the same
    whether the spec before it is another cc spec or an er-modularity one."""
    gen = GeneratorSpec("ppm", n=6, k=2, lambda_in=1.5, lambda_out=1)
    a = QuerySpec("cc", w_plus={(0, 1): 1.0, (2, 3): 1.0}, w_minus={(0, 5): 1.0}, name="a")
    b = QuerySpec("cc", w_plus={(0, 1): 1.0, (1, 2): 2.0}, w_minus={(3, 4): 1.5}, name="b")
    x = QuerySpec("er-modularity", name="x")
    rows = {}
    for first in (a, x):
        res = run_experiment(ExperimentPlan(gen, [first, b], repeats=1, master_seed=4))
        rows[first.name] = [r for r in res.rows if r.query == "b"]
    assert rows["a"][0].error == ""
    assert rows_to_csv(rows["a"], drop_timing=True) == rows_to_csv(rows["x"], drop_timing=True)


def test_means_mode_resolves_to_fixed():
    gen = GeneratorSpec("ppm", n=40, k=4, lambda_in=6, lambda_out=1)
    q = QuerySpec("markov", t=1, isolated="zero", heuristic="means", pilots=3, name="ms_means")
    plan = ExperimentPlan(gen, [q], repeats=2, master_seed=5)
    resolved = resolve_means(plan)
    assert resolved[0].heuristic == "fixed"
    assert 0 < resolved[0].lam_t < np.pi
    assert 0 <= resolved[0].theta <= np.pi / 2
    result = run_experiment(plan)
    assert all(r.error == "" for r in result.rows)


def test_summary_boxplot_fields():
    plan = _tiny_plan(repeats=5, master_seed=2)
    result = run_experiment(plan)
    stats = result.summary["ms_t1_fix"]["rho"]
    assert stats["min"] <= stats["q1"] <= stats["median"] <= stats["q3"] <= stats["max"]
    assert stats["count"] == 5


def test_outputs_written_atomically(tmp_path):
    plan = _tiny_plan(repeats=2, master_seed=1)
    result = run_experiment(plan)
    paths = write_experiment_outputs(result, tmp_path)
    header = Path(paths["csv"]).read_text().splitlines()[0].split(",")
    assert header[:4] == ["query", "sample", "seed", "error"]
    records = json.loads(Path(paths["json"]).read_text())
    assert len(records) == 4
    assert json.loads(Path(paths["summary"]).read_text())


def test_detect_once_runs():
    from pairsphere.generators import generate

    G, T = generate(GeneratorSpec("ppm", n=40, k=4, lambda_in=6, lambda_out=1), 3)
    C, res = detect_once(G, QuerySpec("er-modularity", gamma=1.0, heuristic="exact"), T, seed=1)
    assert res.rho is not None and res.query_ms is not None
    assert C.n == 40


# -- grid search ----------------------------------------------------------------


def test_grid_one_by_one():
    plan = GridSearchPlan(
        generator=GeneratorSpec("ppm", n=30, k=3, lambda_in=6, lambda_out=1),
        cj_grid=[0.5],
        cd_grid=[-1.0],
        train_size=2,
        val_size=2,
        master_seed=4,
    )
    res = grid_search(plan)
    assert len(res.cells) == 1
    assert res.best.c_j == 0.5 and res.best.c_d == -1.0
    assert res.validation_median is not None


def test_grid_heatmap_shape_and_order():
    plan = GridSearchPlan(
        generator=GeneratorSpec("ppm", n=30, k=3, lambda_in=6, lambda_out=1),
        cj_grid=[0.0, 0.5],
        cd_grid=[-1.0, -0.5, 0.0],
        train_size=2,
        val_size=1,
        master_seed=4,
    )
    res = grid_search(plan)
    text = heatmap_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == "c_j,c_d,median_rho,mean_rho,n_runs"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert (first[0], first[1]) == ("0", "-1")


def test_grid_selection_tie_break_deterministic():
    plan = GridSearchPlan(
        generator=GeneratorSpec("ppm", n=40, k=4, lambda_in=7, lambda_out=0.5),
        cj_grid=[0.0, 0.2],
        cd_grid=[-0.5],
        train_size=3,
        val_size=1,
        master_seed=6,
    )
    a = grid_search(plan)
    b = grid_search(plan)
    assert (a.best.c_j, a.best.c_d) == (b.best.c_j, b.best.c_d)
    # winner maximizes (median, mean) in grid order
    key = max((c.median_rho, c.mean_rho) for c in a.cells)
    assert (a.best.median_rho, a.best.mean_rho) == key


def _singletons_after(monkeypatch, real_calls):
    """Make tune's solver return singletons once `real_calls` solves ran."""
    solve = tune.louvain_project
    calls = []

    def patched(q, *args, **kwargs):
        calls.append(q.n)
        if len(calls) > real_calls:
            return Partition.singletons(q.n)
        return solve(q, *args, **kwargs)

    monkeypatch.setattr(tune, "louvain_project", patched)


@pytest.mark.parametrize("real_calls", [0, 2], ids=["training", "validation"])
def test_grid_undefined_rho_raises(monkeypatch, real_calls):
    # a trivial detected partition has no rho: a training cell (first solve)
    # or a validation sample (after the 2 training solves) raises, never
    # puts None into the medians
    _singletons_after(monkeypatch, real_calls)
    plan = GridSearchPlan(
        generator=GeneratorSpec("ppm", n=30, k=3, lambda_in=6, lambda_out=1),
        cj_grid=[0.5],
        cd_grid=[-1.0],
        train_size=2,
        val_size=1,
        master_seed=4,
    )
    with pytest.raises(DegeneratePartitionError):
        grid_search(plan)


def test_grid_outputs(tmp_path):
    plan = GridSearchPlan(
        generator=GeneratorSpec("ppm", n=30, k=3, lambda_in=6, lambda_out=1),
        cj_grid=[0.0],
        cd_grid=[0.0],
        train_size=2,
        val_size=1,
        master_seed=4,
    )
    res = grid_search(plan)
    paths = write_grid_outputs(res, tmp_path)
    report = json.loads(Path(paths["report"]).read_text())
    assert "best_c_j" in report and "validation_median_rho" in report


def test_plan_validation():
    gen = GeneratorSpec("ppm", n=30, k=3)
    with pytest.raises(ValueError):
        ExperimentPlan(gen, [], repeats=1)
    with pytest.raises(ValueError):
        ExperimentPlan(gen, [QuerySpec("markov")], repeats=0)
    with pytest.raises(ValueError):
        GridSearchPlan(generator=gen, cj_grid=[], cd_grid=[0.0])
    with pytest.raises(ValueError, match="validation"):
        GridSearchPlan(generator=gen, val_size=0)
