"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and appending it to acceptance_runlog.txt next to this file.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the log lines).
The benchmark batches (criteria 8-10, 12) take a few minutes; everything is
seeded and deterministic.

Criterion 11 uses rings of s=5 cliques on both sides of the resolution-limit
threshold: merging adjacent cliques helps the raw equator query only when
1 - s*s*m/N > 0, i.e. 550/(25k-5) < 1, k > 22.2.  At k=20 the raw projection
is the planted cliques; at k=25 it overmerges, and the match-planted latitude
rule recovers the cliques.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from pairsphere.clustering import (
    Partition,
    pearson_correlation,
    query_alignment,
    query_angular_distance,
    query_correlation_distance,
    relative_granularity_error,
)
from pairsphere.generators import GeneratorSpec, generate, ring_of_cliques
from pairsphere.geometry import (
    angular_distance,
    correlation_distance,
    inner,
    latitude,
    parallel_projection,
)
from pairsphere.graph import Graph
from pairsphere.queries import (
    QuerySpec,
    apply_granularity_heuristic,
    cl_modularity_query,
    binary_ppm_query,
    er_modularity_query,
    heuristic_latitude,
    markov_stability_query,
)
from pairsphere.solver import exact_project, louvain_project, max_single_move_gain
from pairsphere.tune import ExperimentPlan, GridSearchPlan, grid_search, run_experiment

from helpers import (
    all_partitions,
    binary_ppm_loglik,
    clm_objective,
    corclust_objective,
    dense_adjacency,
    dense_of,
    erm_objective,
    markov_trace_objective,
    nontrivial_membership,
    random_graph_edges,
    random_sl_vector,
    same_ranking,
)

RUNLOG = os.path.join(os.path.dirname(__file__), "acceptance_runlog.txt")
WORKERS = 2


def _log(line: str) -> None:
    print(line)
    with open(RUNLOG, "a") as fh:
        fh.write(line + "\n")


@pytest.fixture(scope="session", autouse=True)
def _fresh_runlog():
    with open(RUNLOG, "w") as fh:
        fh.write(f"acceptance run {time.strftime('%Y-%m-%d %H:%M:%S')}\n")
    yield


def _criterion(num: int, ok: bool, detail: str) -> None:
    _log(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 1: geometry vs dense references ------------------------------------


def test_criterion_01_geometry_dense_oracle():
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    worst = 0.0
    prev = None
    for trial in range(500):
        n = int(rng.integers(4, 65))
        x = random_sl_vector(rng, n, sparse_density=0.25)
        dx = dense_of(x)
        nx = np.linalg.norm(dx)
        if nx == 0:
            continue
        # inner + norm
        rel = abs(inner(x, x) - nx * nx) / (nx * nx)
        worst = max(worst, rel)
        # latitude
        lat_ref = math.acos(np.clip(-dx.sum() / (nx * math.sqrt(dx.size)), -1, 1))
        worst = max(worst, abs(latitude(x) - lat_ref) / max(lat_ref, 1e-9))
        if prev is not None and prev[0].n == n:
            y, dy = prev
            da_ref = math.acos(np.clip(dx @ dy / (nx * np.linalg.norm(dy)), -1, 1))
            worst = max(worst, abs(angular_distance(x, y) - da_ref) / max(da_ref, 1e-9))
            cx, cy = dx - dx.mean(), dy - dy.mean()
            if np.linalg.norm(cx) > 1e-9 * nx and np.linalg.norm(cy) > 1e-9 * np.linalg.norm(dy):
                r = cx @ cy / (np.linalg.norm(cx) * np.linalg.norm(cy))
                dcc_ref = math.acos(np.clip(r, -1, 1))
                worst = max(worst, abs(correlation_distance(x, y) - dcc_ref) / max(dcc_ref, 1e-9))
        # parallel projection
        lam = float(rng.uniform(0.1, math.pi - 0.1))
        cx = dx - dx.mean()
        if np.linalg.norm(cx) > 1e-9 * nx:
            proj_ref = math.sin(lam) * math.sqrt(dx.size) / np.linalg.norm(cx) * cx - math.cos(lam)
            got = dense_of(parallel_projection(x, lam))
            worst = max(worst, np.abs(got - proj_ref).max() / max(np.abs(proj_ref).max(), 1e-9))
        prev = (x, dx)
    took = time.perf_counter() - t0
    _criterion(1, worst <= 1e-9 and took < 10.0,
               f"500 random vectors, worst relative error {worst:.2e}, {took:.1f}s (< 10s)")


# -- criterion 2: meridian angle equals pair-count correlation ---------------------


def test_criterion_02_meridian_angle_equals_pair_count_correlation():
    from pairsphere.clustering import as_pair_vector

    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 51))
        C = Partition(nontrivial_membership(rng, n))
        T = Partition(nontrivial_membership(rng, n))
        via_angle = math.cos(correlation_distance(as_pair_vector(C), as_pair_vector(T)))
        via_counts = pearson_correlation(C, T)
        worst = max(worst, abs(via_angle - via_counts))
    _criterion(2, worst <= 1e-10, f"1000 partition pairs, worst |cos d_cc - rho| = {worst:.2e}")


# -- criterion 3: ranking equivalences ---------------------------------------------


def _valid_graph(rng, n, p=0.55):
    # 0 < m < N keeps every query family non-degenerate (a complete graph
    # makes the gamma=1 density query the zero vector)
    while True:
        G = Graph.from_edges(n, random_graph_edges(rng, n, p))
        if 2 <= G.m < G.N and np.all(G.degrees > 0):
            return G


def test_criterion_03_ranking_equivalences():
    rng = np.random.default_rng(30)
    t0 = time.perf_counter()
    checked = 0
    for trial in range(50):
        n = int(rng.integers(4, 8))
        G = _valid_graph(rng, n)
        A = dense_adjacency(n, G.edges)
        parts = [np.array(m) for m in all_partitions(n)]
        partitions = [Partition(m) for m in parts]

        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        t = int(rng.integers(1, 4))
        p_in, p_out = 0.7, 0.2
        w_plus = {(i, j): float(rng.random()) for i in range(n) for j in range(i + 1, n)}
        w_minus = {(i, j): float(rng.random()) for i in range(n) for j in range(i + 1, n)}

        from pairsphere.queries import correlation_clustering_query

        cases = [
            (er_modularity_query(G, gamma), [erm_objective(A, m, gamma) for m in parts]),
            (cl_modularity_query(G, gamma), [clm_objective(A, m, gamma) for m in parts]),
            (markov_stability_query(G, t), [markov_trace_objective(A, m, t) for m in parts]),
            (
                correlation_clustering_query(w_plus, w_minus, n),
                [corclust_objective(w_plus, w_minus, m, n) for m in parts],
            ),
            (binary_ppm_query(G, p_in, p_out), [binary_ppm_loglik(A, m, p_in, p_out) for m in parts]),
        ]
        for q, originals in cases:
            by_distance = [-query_angular_distance(q, C) for C in partitions]
            assert same_ranking(originals, by_distance), f"trial {trial} n={n}"
            checked += 1
    took = time.perf_counter() - t0
    _criterion(3, checked == 250 and took < 120.0,
               f"{checked} (graph, objective) orderings identical incl. ties, {took:.1f}s (< 2min)")


# -- criterion 4: analytic query latitude ------------------------------------------


def test_criterion_04_er_latitude_formula():
    rng = np.random.default_rng(40)
    worst = 0.0
    for gamma in (0.1, 0.5, 2.0, 5.0):
        for _ in range(20):
            n = int(rng.integers(6, 30))
            G = _valid_graph(rng, n, p=0.4)
            analytic = math.atan2(math.sqrt((G.N - G.m) / G.m), gamma - 1.0)
            geometric = latitude(er_modularity_query(G, gamma))
            worst = max(worst, abs(analytic - geometric))
    _criterion(4, worst <= 1e-10, f"4 gammas x 20 graphs, worst |analytic - geometric| = {worst:.2e}")


# -- criterion 5: granularity-correction closed form --------------------------------


def test_criterion_05_heuristic_closed_form():
    worst_end = 0.0
    for lam_t in np.linspace(0.05, math.pi - 0.05, 25):
        worst_end = max(worst_end, abs(heuristic_latitude(lam_t, 0.0) - lam_t))
        worst_end = max(worst_end, abs(heuristic_latitude(lam_t, math.pi / 2) - math.pi / 2))
    rng = np.random.default_rng(50)
    worst_eq = 0.0
    count = 0
    while count < 200:
        fam = ("ppm", "hppm")[count % 2]
        kw = dict(n=120, lambda_in=6, lambda_out=2)
        if fam == "ppm":
            kw["k"] = int(rng.choice([6, 10]))
        G, T = generate(GeneratorSpec(fam, **kw), int(rng.integers(1 << 30)))
        method = count % 3
        if method == 0:
            q = er_modularity_query(G, 1.0)
        elif method == 1:
            q = cl_modularity_query(G, 1.0)
        else:
            if np.any(G.degrees == 0):
                continue
            q = markov_stability_query(G, 2)
        theta = query_correlation_distance(q, T)
        if theta > math.pi / 2:
            continue
        q_star = apply_granularity_heuristic(q, T)
        worst_eq = max(worst_eq, abs(query_angular_distance(q_star, T) - theta))
        count += 1
    ok = worst_end <= 1e-12 and worst_eq <= 1e-9
    _criterion(5, ok,
               f"endpoint identities to {worst_end:.1e}; |d_a(q*,T) - theta| <= {worst_eq:.2e} on 200 pairs")


# -- criterion 6: exhaustive local optimality ---------------------------------------


def test_criterion_06_local_optimality():
    rng = np.random.default_rng(60)
    worst = -math.inf
    for trial in range(100):
        kind = trial % 3
        if kind == 0:
            n = int(rng.integers(20, 201))
            q = random_sl_vector(rng, n, sparse_density=min(1.0, 8.0 / n))
        elif kind == 1:
            n = int(rng.integers(60, 201))
            n -= n % 4
            G, T = generate(GeneratorSpec("ppm", n=n, k=4, lambda_in=6, lambda_out=2),
                            int(rng.integers(1 << 30)))
            q = er_modularity_query(G, float(rng.choice([0.5, 1.0, 2.0])))
        else:
            n = int(rng.integers(60, 201))
            n -= n % 4
            G, T = generate(GeneratorSpec("ppm", n=n, k=4, lambda_in=6, lambda_out=2),
                            int(rng.integers(1 << 30)))
            q = markov_stability_query(G, int(rng.integers(1, 4)), isolated="zero")
        C = louvain_project(q, seed=trial)
        eps = 1e-12 * q.norm() * math.sqrt(q.N)
        slack = max_single_move_gain(q, C) - eps
        worst = max(worst, slack)
    _criterion(6, worst <= 0.0, f"100 solves; worst residual single-move gain above eps: {worst:.2e}")


# -- criterion 7: small-instance optimality rate -------------------------------------


def test_criterion_07_exact_oracle_bound():
    rng = np.random.default_rng(0)
    hits = 0
    checked = 0
    worst_ratio = math.inf
    for trial in range(100):
        n = int(rng.integers(4, 9))
        q = random_sl_vector(rng, n, sparse_density=0.35)
        best = exact_project(q)
        got = louvain_project(q, seed=trial, restarts=5)
        ob = query_alignment(q, best)
        og = query_alignment(q, got)
        assert og <= ob + 1e-9
        if abs(og - ob) <= 1e-9:
            hits += 1
        if ob > 1e-12:
            checked += 1
            worst_ratio = min(worst_ratio, og / ob)
    ok = worst_ratio >= 0.9
    _criterion(7, ok,
               f"objective ratio >= {worst_ratio:.4f} on {checked} positive-optimum cases; "
               f"exact optimum found in {hits}/100 runs")


# -- criteria 8-10: benchmark batches -------------------------------------------------

PPM_SPEC = GeneratorSpec("ppm", n=1000, k=50, lambda_in=6.0, lambda_out=2.0)


@pytest.fixture(scope="session")
def markov_ppm_batch():
    queries = [
        QuerySpec("markov", t=t, isolated="zero", heuristic="exact", name=f"fix_t{t}")
        for t in (1, 2, 3, 4, 5)
    ]
    plan = ExperimentPlan(PPM_SPEC, queries, repeats=50, master_seed=88, workers=WORKERS)
    t0 = time.perf_counter()
    result = run_experiment(plan)
    _log(f"run log: criterion 8 batch (PPM, 50 samples, t=1..5, corrected) took "
         f"{time.perf_counter() - t0:.0f}s at full scale")
    return result


@pytest.fixture(scope="session")
def heuristic_benefit_batches():
    out = {}
    for family in ("ppm", "hppm", "dcppm"):
        kw = dict(n=1000, lambda_in=6.0, lambda_out=2.0)
        if family in ("ppm", "dcppm"):
            kw["k"] = 50
        gen = GeneratorSpec(family, **kw)
        queries = []
        for t in (2, 3):
            queries.append(QuerySpec("markov", t=t, isolated="zero", name=f"raw_t{t}"))
            queries.append(
                QuerySpec("markov", t=t, isolated="zero", heuristic="exact", name=f"fix_t{t}")
            )
        plan = ExperimentPlan(gen, queries, repeats=50, master_seed=99, workers=WORKERS)
        t0 = time.perf_counter()
        out[family] = run_experiment(plan)
        _log(f"run log: criterion 9 batch ({family}, 50 samples, t=2,3, raw+corrected) "
             f"took {time.perf_counter() - t0:.0f}s")
    return out


def test_criterion_08_ppm_markov_reproduction(markov_ppm_batch):
    medians = {}
    for t in (1, 2, 3, 4, 5):
        stats = markov_ppm_batch.summary[f"fix_t{t}"]
        assert stats["errors"] == 0
        medians[t] = stats["rho"]["median"]
    ok = all(m >= 0.97 for m in medians.values())
    detail = ", ".join(f"t={t}: {m:.4f}" for t, m in medians.items())
    _criterion(8, ok, f"median rho over 50 PPM samples {detail} (all >= 0.97)")


def test_criterion_09_heuristic_benefit(heuristic_benefit_batches):
    ok = True
    details = []
    for family, result in heuristic_benefit_batches.items():
        for t in (2, 3):
            raw = result.summary[f"raw_t{t}"]
            fix = result.summary[f"fix_t{t}"]
            raw_rows = [r for r in result.rows if r.query == f"raw_t{t}" and r.result]
            fix_rows = [r for r in result.rows if r.query == f"fix_t{t}" and r.result]
            med_abs_raw = float(np.median([abs(r.result.granularity_error) for r in raw_rows]))
            med_abs_fix = float(np.median([abs(r.result.granularity_error) for r in fix_rows]))
            rho_raw = raw["rho"]["median"]
            rho_fix = fix["rho"]["median"]
            case_ok = med_abs_fix < med_abs_raw and rho_fix >= rho_raw
            ok = ok and case_ok
            details.append(
                f"{family} t={t}: |gerr| {med_abs_fix:.3f}<{med_abs_raw:.3f}, "
                f"rho {rho_fix:.3f}>={rho_raw:.3f}"
            )
    _criterion(9, ok, "; ".join(details))


def test_criterion_10_excess_statistic(markov_ppm_batch, heuristic_benefit_batches):
    excess = []
    for r in markov_ppm_batch.rows:
        if r.result and r.result.excess_ratio is not None:
            excess.append(r.result.excess_ratio)
    for result in heuristic_benefit_batches.values():
        for r in result.rows:
            if r.query.startswith("fix_") and r.result and r.result.excess_ratio is not None:
                excess.append(r.result.excess_ratio)
    excess = np.asarray(excess)
    frac_pos = float((excess > 0).mean())
    worst = float(excess.max())
    ok = worst <= 0.02 and frac_pos < 0.10
    _criterion(10, ok,
               f"{excess.size} corrected-mode runs: max excess {worst:.5f} (<= 2%), "
               f"positive fraction {frac_pos:.3f} (< 10%)")


# -- criterion 11: ring-of-cliques fixture --------------------------------------------

RING_S = 5
RING_BELOW_K = 20  # below the merge threshold k > 22.2
RING_ABOVE_K = 25  # above it


def _ring_merge_gain(G: Graph, s: int) -> float:
    """Half the change in alignment with the equator query A - m/N when two
    adjacent s-cliques merge; the raw query overmerges iff it is positive."""
    return 1.0 - s * s * G.m / G.N


def test_criterion_11a_ring_raw_equator_overmerges():
    G, T = ring_of_cliques(RING_BELOW_K, RING_S)
    gain_below = _ring_merge_gain(G, RING_S)
    recovered = louvain_project(er_modularity_query(G, 1.0), seed=1202) == T

    G, T = ring_of_cliques(RING_ABOVE_K, RING_S)
    gain_above = _ring_merge_gain(G, RING_S)
    q = er_modularity_query(G, 1.0)
    C = louvain_project(q, seed=1202)
    gerr = relative_granularity_error(C, T)
    a_C, a_T = query_alignment(q, C), query_alignment(q, T)
    ok = gain_below < 0.0 and recovered and gain_above > 0.0 and gerr > 0.0 and a_C > a_T
    _criterion(11, ok,
               f"raw equator query: k={RING_BELOW_K} merge gain {gain_below:+.4f}, "
               f"projection is the cliques: {recovered}; k={RING_ABOVE_K} merge gain "
               f"{gain_above:+.4f}, granularity error {gerr:+.4f}, "
               f"<q,C> {a_C:.4f} vs <q,T> {a_T:.4f}")


def test_criterion_11b_ring_match_planted_recovers():
    G, T = ring_of_cliques(RING_ABOVE_K, RING_S)
    q = er_modularity_query(G, 1.0)
    q_match = apply_granularity_heuristic(q, T, rule="match-planted")
    C = louvain_project(q_match, seed=1202)
    rho = pearson_correlation(C, T)
    again = louvain_project(q_match, seed=1202)
    # rho = 1 exactly when C == T; compare partitions, since the float rho of
    # identical partitions rounds to just below 1 at this size.
    ok = C == T and again == C
    _criterion(11, ok,
               f"match-planted latitude rule on the {RING_ABOVE_K}-clique ring: "
               f"rho = {rho:.4f}, deterministic")


# -- criterion 12: grid search at desk scale ------------------------------------------


def test_criterion_12_grid_search_desk_scale():
    plan = GridSearchPlan(
        generator=GeneratorSpec("ppm", n=200, k=10, lambda_in=6.0, lambda_out=2.0),
        train_size=15,
        val_size=20,
        master_seed=777,
        workers=WORKERS,
    )
    t0 = time.perf_counter()
    result = grid_search(plan)
    from pairsphere.tune import heatmap_csv

    rows = heatmap_csv(result).strip().splitlines()
    n_cells = len(rows) - 1
    gap = abs(result.validation_median - result.best.median_rho)
    ok = n_cells == 11 * 13 and gap <= 0.05
    _criterion(
        12,
        ok,
        f"heatmap {n_cells} rows (= 143); winner (c_j={result.best.c_j:g}, c_d={result.best.c_d:g}) "
        f"train median {result.best.median_rho:.4f} vs validation {result.validation_median:.4f} "
        f"(gap {gap:.4f} <= 0.05); {time.perf_counter() - t0:.0f}s",
    )


@pytest.mark.skipif(
    "PAIRSPHERE_ABCD_DIR" not in os.environ,
    reason="external benchmark files not supplied (set PAIRSPHERE_ABCD_DIR)",
)
def test_criterion_12_external_benchmark_reproduction():
    """Reproduction against externally generated benchmark files (expects
    <dir>/train_XX.edges/.membership and <dir>/val_XX.edges/.membership):
    the winning cell's train/validation medians should land near 0.993/0.973."""
    root = os.environ["PAIRSPHERE_ABCD_DIR"]

    def file_pairs(prefix):
        out = []
        i = 0
        while os.path.exists(os.path.join(root, f"{prefix}_{i:02d}.edges")):
            out.append(
                (os.path.join(root, f"{prefix}_{i:02d}.edges"),
                 os.path.join(root, f"{prefix}_{i:02d}.membership"))
            )
            i += 1
        return out

    train, val = file_pairs("train"), file_pairs("val")
    if not train or not val:
        pytest.skip("no train/val files found")
    plan = GridSearchPlan(
        generator=GeneratorSpec("external"),
        train_files=train,
        val_files=val,
        master_seed=777,
        workers=WORKERS,
    )
    result = grid_search(plan)
    ok = (
        abs(result.best.median_rho - 0.993) <= 0.02
        and abs(result.validation_median - 0.973) <= 0.02
    )
    _criterion(
        12,
        ok,
        f"external benchmark: train median {result.best.median_rho:.4f} (target 0.993 +- 0.02), "
        f"validation {result.validation_median:.4f} (target 0.973 +- 0.02)",
    )
