"""The benchmark's traced run rebinds module globals listed in
bench/tracing.py; every one must still exist, or `--trace 1` crashes."""

import importlib
import pathlib
import statistics
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
import tracing  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


def test_traced_functions_resolve():
    assert tracing.WRAPPED
    for module_name, attr, _ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_grid_search_call_routing(monkeypatch):
    """The traced grid-desk check counts one solve and one rho per training
    cell and per validation sample, training first: every detection goes
    through tune.louvain_project and clustering.pearson_correlation once."""
    from pairsphere import clustering, tune
    from pairsphere.generators import GeneratorSpec

    solves, rhos = [], []
    solve, pearson = tune.louvain_project, clustering.pearson_correlation

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def counted_pearson(*args, **kwargs):
        rhos.append(pearson(*args, **kwargs))
        return rhos[-1]

    monkeypatch.setattr(tune, "louvain_project", counted_solve)
    monkeypatch.setattr(clustering, "pearson_correlation", counted_pearson)
    plan = tune.GridSearchPlan(
        GeneratorSpec("ppm", n=40, k=4, lambda_in=6, lambda_out=1),
        cj_grid=[0.0, 0.5], cd_grid=[-1.0, 0.0],
        train_size=2, val_size=1, master_seed=5, workers=1,
    )
    res = tune.grid_search(plan)
    cells = len(plan.cj_grid) * len(plan.cd_grid)
    ops = plan.train_size * cells + plan.val_size
    assert len(solves) == ops
    assert len(rhos) == ops
    for c, cell in enumerate(res.cells):  # training: sample-major, cells in grid order
        vals = [rhos[s * cells + c] for s in range(plan.train_size)]
        assert cell.median_rho == statistics.median(vals)
        assert cell.mean_rho == statistics.fmean(vals)
    assert rhos[plan.train_size * cells:] == res.validation_rhos


def test_walk_result_has_pair_ids():
    """The traced markov-batch run counts walk pairs from the return value of
    queries.walk_distribution through its `.pair_ids`."""
    from pairsphere import queries
    from pairsphere.graph import Graph

    out = queries.walk_distribution(Graph.from_edges(3, [(0, 1), (1, 2)]), 2)
    assert out.pair_ids.tolist() == [1]  # two steps on the path 0-1-2 link only 0 and 2
