import hashlib
import json
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pairsphere import geometry, tune
from pairsphere._util import derive_seed
from pairsphere.clustering import DegeneratePartitionError, Partition, write_membership
from pairsphere.generators import GeneratorSpec, generate
from pairsphere.graph import write_edges
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


def test_grid_cells_share_one_layout_per_c_j(monkeypatch):
    """The cells of one c_j share the support layout of its sparse part, so
    a training sample builds one layout per c_j, whichever cell solves first."""
    rows, grid_rho = geometry._rows, tune._grid_rho
    built, bases = [], []

    def counted_rows(n, ids):
        built.append(ids.size)
        return rows(n, ids)

    def captured_rho(G, spec, T, seed, base=None):
        bases.append((spec.c_j, base))
        return grid_rho(G, spec, T, seed, base)

    monkeypatch.setattr(geometry, "_rows", counted_rows)
    monkeypatch.setattr(tune, "_grid_rho", captured_rho)
    cj_grid, cd_grid = [0.0, 0.3, 1.0], [-1.5, 0.0, 0.5]
    G, T = generate(GeneratorSpec("ppm", n=40, k=4, lambda_in=5, lambda_out=2), 0)
    tune._train_worker((G, T, 7, cj_grid, cd_grid, "corrected"))
    assert len(built) == len(cj_grid)
    for c_j in cj_grid:
        layouts = {id(base.support_rows()) for cj, base in bases if cj == c_j}
        assert len(layouts) == 1
    assert len(built) == len(cj_grid)  # asking the bases again built nothing


# rows_to_csv(..., drop_timing=True) of the two samples below, as the harness
# wrote them while every sample kept all its base queries to its end
RUN_SAMPLE_CSV_SHA = "6bdbf988ff55aa0eb09407e4176fbbfd95d598533890df5b41b0123ec8669099"


def test_run_sample_builds_each_base_once_and_frees_it_after_its_last_spec(monkeypatch):
    queries = [
        QuerySpec("markov", t=1, isolated="zero", name="raw_t1"),
        QuerySpec("markov", t=2, isolated="zero", name="raw_t2"),
        QuerySpec("markov", t=1, isolated="zero", heuristic="fixed", lam_t=1.4, theta=0.5, name="fix_t1"),
        QuerySpec("markov", t=2, isolated="zero", heuristic="exact", name="exact_t2"),
        QuerySpec("markov", t=3, isolated="zero", name="raw_t3"),
    ]
    plan = ExperimentPlan(GeneratorSpec("ppm", n=60, k=4, lambda_in=5, lambda_out=3), queries, master_seed=17)
    build, detect = tune.build_base_query, tune.detect_once
    built, detected = [], []

    def only_needed_bases_live(spec):
        later = {s.base_key() for s in queries[queries.index(spec):]}
        live = {key for key, ref in built if ref() is not None}
        assert live <= later, f"{spec.name}: a base outlived its last spec"

    def counted_build(G, spec):
        only_needed_bases_live(spec)
        q = build(G, spec)
        built.append((spec.base_key(), weakref.ref(q)))
        return q

    def checked_detect(G, spec, *args, **kwargs):
        only_needed_bases_live(spec)
        detected.append(spec.name)
        return detect(G, spec, *args, **kwargs)

    monkeypatch.setattr(tune, "build_base_query", counted_build)
    monkeypatch.setattr(tune, "detect_once", checked_detect)
    rows = []
    for sample in range(2):
        built.clear()
        rows += tune._run_sample((plan, queries, sample))
        assert [key for key, _ in built] == [queries[i].base_key() for i in (0, 1, 4)]
        assert all(ref() is None for _, ref in built)
    assert detected == [spec.name for spec in queries] * 2
    assert all(row.error == "" for row in rows)
    text = rows_to_csv(rows, drop_timing=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_SAMPLE_CSV_SHA


# sha256 of heatmap_csv + repr(validation_rhos) for the plan below, recorded
# while each grid cell's training query was built by hand in tune
GRID_PIN_SHA = "abeb66a30e58605720fea036c85568655bd1ea3fb5aabf2b48dccb89fe5bc4dc"


def test_grid_pinned():
    plan = GridSearchPlan(
        generator=GeneratorSpec("ppm", n=40, k=4, lambda_in=4, lambda_out=3),
        cj_grid=[0.0, 0.3, 1.0],
        cd_grid=[-1.5, 0.0, 0.5],
        train_size=2,
        val_size=2,
        master_seed=7,
    )
    res = grid_search(plan)
    text = heatmap_csv(res) + repr(res.validation_rhos)
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_PIN_SHA


def test_grid_on_files_matches_the_generator(tmp_path):
    """The grid fed the files of its generator's samples gives the grid's
    bytes, and an external spec loads one graph whatever the seed."""
    gen = GeneratorSpec("ppm", n=60, k=3, lambda_in=6, lambda_out=2)
    plan = GridSearchPlan(gen, cj_grid=[0.0, 0.5], cd_grid=[-1.0, 0.0], train_size=2, val_size=2, master_seed=5)
    files = {}
    for key in ("train", "val"):
        files[key] = []
        for i in range(2):
            G, T = generate(gen, derive_seed(plan.master_seed, key, i))
            paths = (str(tmp_path / f"{key}{i}.edges"), str(tmp_path / f"{key}{i}.membership"))
            write_edges(paths[0], G)
            write_membership(paths[1], T)
            files[key].append(paths)
    res = grid_search(plan)
    on_files = grid_search(replace(plan, train_files=files["train"], val_files=files["val"]))
    assert heatmap_csv(on_files) == heatmap_csv(res)
    assert on_files.validation_rhos == res.validation_rhos

    edge_file, membership_file = files["val"][1]
    spec = GeneratorSpec("external", edge_file=edge_file, membership_file=membership_file)
    assert spec.to_flat() == {"family": "external", "edge_file": edge_file, "membership_file": membership_file}
    want, T = generate(gen, derive_seed(plan.master_seed, "val", 1))
    for seed in (0, 9):
        G, planted = generate(spec, seed)
        assert G.n == want.n and np.array_equal(G.edges, want.edges)
        assert planted == T


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
    twins = [
        [QuerySpec("ppm", p_in=0.3, p_out=0.1), QuerySpec("ppm", p_in=0.4, p_out=0.1)],
        [QuerySpec("cl-modularity", heuristic="fixed", lam_t=lam, theta=0.3) for lam in (1.0, 1.2)],
    ]
    for pair in twins:  # rows and summaries are keyed by label, so these would merge
        with pytest.raises(ValueError, match=f"two queries share the label '{pair[0].label}'; set name"):
            ExperimentPlan(gen, pair)
        ExperimentPlan(gen, [replace(spec, name=f"q{i}") for i, spec in enumerate(pair)])
    with pytest.raises(ValueError):
        GridSearchPlan(generator=gen, cj_grid=[], cd_grid=[0.0])
    with pytest.raises(ValueError, match="validation"):
        GridSearchPlan(generator=gen, val_size=0)
    with pytest.raises(ValueError, match="unknown latitude rule 'nope'; pick one of"):
        GridSearchPlan(generator=gen, rule="nope")
