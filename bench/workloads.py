"""One benchmark workload in one fresh process; started by run.py.

    python3 bench/workloads.py --workload NAME --seed N --seconds S \
        --mode setup|timed --trace 0|1 --t0 MONOTONIC [--toy]

Set-up runs from process start (`--t0`, the parent's CLOCK_MONOTONIC reading
taken just before it spawned this process) to the first timed operation:
imports, one small warm-up call per entry point, and input generation. In
`timed` mode whole rounds of the same operations then run until their total
time reaches --seconds, and the outputs are checked after the timed part.
The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import checks
import tracing
from reference import REF_S, SpeedClock, reference_s

SRC = Path(__file__).resolve().parent.parent / "src"


def _seed(*key) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _call(fn, ops: int):
    """Run one entry-point call; returns (output or None, failed ops, errors).

    A solve that warns "cap reached" did not converge and counts as failed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, the run goes on
            return None, ops, [f"{type(exc).__name__}: {exc}"]
    caps = sum("cap reached" in str(w.message) for w in caught)
    return out, min(ops, caps), []


class DetectLarge:
    """tune.detect_once on in-memory PPM, HPPM and DCPPM samples (three of
    each): cl-modularity (gamma=1) on all, markov t=2 on PPM and HPPM, all
    exact-corrected. One solve's time varies by a third with the node order
    alone, so a round needs 15 detections to be steady from seed to seed. The
    t=2 walk support of a DCPPM sample follows its largest hub (52k to 420k
    pairs over 20 seeds at n=2000), which would make peak memory a draw of
    the hub; walk memory is measured on markov-batch instead."""

    def __init__(self, seed: int, toy: bool):
        from pairsphere.generators import GeneratorSpec
        from pairsphere.queries import QuerySpec

        self.seed = seed
        n = 200 if toy else 2000
        cl_mod = QuerySpec("cl-modularity", gamma=1.0, heuristic="exact")
        markov = QuerySpec("markov", t=2, isolated="zero", heuristic="exact")
        families = [
            (GeneratorSpec("ppm", n=n, k=n // 20, lambda_in=6.0, lambda_out=2.0), [cl_mod, markov]),
            (GeneratorSpec("hppm", n=n, lambda_in=6.0, lambda_out=2.0), [cl_mod, markov]),
            (GeneratorSpec("dcppm", n=n, k=n // 20, lambda_in=6.0, lambda_out=2.0), [cl_mod]),
        ]
        self.gens = [(g, specs) for g, specs in families for _ in range(3)]
        self.warm_specs = [cl_mod, markov]
        self.jobs = []  # (sample index, spec, graph, planted)

    def warm_up(self):
        from pairsphere import generators, tune

        G, T = generators.generate(generators.GeneratorSpec("ppm", n=60, k=3), 0)
        for spec in self.warm_specs:
            tune.detect_once(G, spec, T, seed=0)

    def prepare(self):
        from pairsphere import generators

        for i, (gen, specs) in enumerate(self.gens):
            G, T = generators.generate(gen, _seed(self.seed, i))
            self.jobs += [(i, j, spec, G, T) for j, spec in enumerate(specs)]

    def _detect(self, job):
        from pairsphere import tune

        i, j, spec, G, T = job
        solve_seed = _seed(self.seed, i, j)
        return _call(lambda: tune.detect_once(G, spec, T, seed=solve_seed), 1)

    def run_round(self):
        outs, failed, errors = [], 0, []
        for job in self.jobs:
            out, f, e = self._detect(job)
            outs.append(out)
            failed += f
            errors += e
        return outs, len(outs), failed, errors

    def repeat(self, first) -> bool:
        """Run the first detection once more (a round takes a whole run)."""
        return self.same(first[:1], [self._detect(self.jobs[0])[0]])

    def same(self, a, b) -> bool:
        return all(
            (x is None and y is None) or (x is not None and y is not None and x[0] == y[0])
            for x, y in zip(a, b)
        )

    def rhos(self, outs):
        return [o[1].rho for o in outs if o is not None and o[1].rho is not None]

    def check(self, outs):
        from pairsphere.queries import build_query

        fails = []
        for (i, j, spec, G, T), out in zip(self.jobs, outs):
            if out is None:
                continue
            C, res = out
            where = f"sample {i} {spec.label}"
            fails += [f"{where}: {m}" for m in checks.check_detection(C.membership, T.membership, res.rho, res.granularity_error)]
            q = build_query(G, spec, T)
            fails += [f"{where}: {m}" for m in checks.check_local_optimum(q, C.membership)]
        return fails


class MarkovBatch:
    """The walk-stability experiment through tune.run_experiment, workers=1:
    PPM n=1000, k=50, markov t=1..5, raw and exact-corrected."""

    def __init__(self, seed: int, toy: bool):
        from pairsphere.generators import GeneratorSpec
        from pairsphere.queries import QuerySpec
        from pairsphere.tune import ExperimentPlan

        n, k, tmax, repeats = (200, 10, 2, 1) if toy else (1000, 50, 5, 2)
        queries = []
        for t in range(1, tmax + 1):
            queries.append(QuerySpec("markov", t=t, isolated="zero", name=f"raw_t{t}"))
            queries.append(QuerySpec("markov", t=t, isolated="zero", heuristic="exact", name=f"fix_t{t}"))
        gen = GeneratorSpec("ppm", n=n, k=k, lambda_in=6.0, lambda_out=2.0)
        self.plan = ExperimentPlan(gen, queries, repeats=repeats, master_seed=seed, workers=1)
        self.warm_plan = ExperimentPlan(
            GeneratorSpec("ppm", n=60, k=3), queries[:2], repeats=1, master_seed=0, workers=1
        )
        self.ops = repeats * len(queries)

    def warm_up(self):
        from pairsphere import tune

        tune.run_experiment(self.warm_plan)

    def prepare(self):
        pass

    def run_round(self):
        from pairsphere import tune

        out, failed, errors = _call(lambda: tune.run_experiment(self.plan), self.ops)
        if out is not None:
            failed = min(self.ops, failed + sum(1 for r in out.rows if r.error))
        return out, self.ops, failed, errors

    def same(self, a, b) -> bool:
        from pairsphere.tune import rows_to_csv

        if a is None or b is None:
            return a is b
        return rows_to_csv(a.rows, drop_timing=True) == rows_to_csv(b.rows, drop_timing=True)

    def repeat(self, first) -> bool:
        return self.same(first, self.run_round()[0])

    def rhos(self, out):
        if out is None:
            return []
        return [r.result.rho for r in out.rows if r.result is not None and r.result.rho is not None]

    def check(self, out):
        if out is None:
            return []
        fails = [f"{r.query} sample {r.sample}: {r.error}" for r in out.rows if r.error]
        if len(out.rows) != self.ops:
            fails.append(f"{len(out.rows)} rows, expected {self.ops}")
        fixed = [r.result.rho for r in out.rows if r.query.startswith("fix_") and r.result]
        raw = [r.result.granularity_error for r in out.rows if r.query.startswith("raw_") and r.result]
        if None in fixed or not fixed or statistics.median(fixed) < 0.97:
            fails.append(f"corrected rows: median rho {fixed} below 0.97")
        if None in raw or not raw or statistics.median(raw) <= 0.0:
            fails.append(f"raw rows: median granularity error {raw} not above 0")
        return fails


class GridDesk:
    """tune.grid_search on desk-scale PPM (n=200, k=10) over the full 11x13
    (c_j, c_d) grid, two training and 20 validation samples, workers=1."""

    def __init__(self, seed: int, toy: bool):
        from pairsphere.generators import GeneratorSpec
        from pairsphere.tune import GridSearchPlan

        gen = GeneratorSpec("ppm", n=200, k=10, lambda_in=6.0, lambda_out=2.0)
        grid = dict(cj_grid=[0.0, 0.5], cd_grid=[-1.0, 0.0]) if toy else {}
        self.plan = GridSearchPlan(gen, train_size=2, val_size=20, master_seed=seed, workers=1, **grid)
        self.warm_plan = GridSearchPlan(
            GeneratorSpec("ppm", n=60, k=3), cj_grid=[0.5], cd_grid=[-1.0],
            train_size=1, val_size=1, master_seed=0, workers=1,
        )
        self.cells = len(self.plan.cj_grid) * len(self.plan.cd_grid)
        self.ops = self.plan.train_size * self.cells + self.plan.val_size
        self.pearson_seen: list[float] = []

    def warm_up(self):
        from pairsphere import tune

        tune.grid_search(self.warm_plan)

    def prepare(self):
        pass

    def run_round(self):
        from pairsphere import tune

        self.pearson_seen = []
        out, failed, errors = _call(lambda: tune.grid_search(self.plan), self.ops)
        return out, self.ops, failed, errors

    def same(self, a, b) -> bool:
        from pairsphere.tune import heatmap_csv

        if a is None or b is None:
            return a is b
        return heatmap_csv(a) == heatmap_csv(b) and a.validation_rhos == b.validation_rhos

    def repeat(self, first) -> bool:
        seen = self.pearson_seen  # the traced check reads the first round's
        out = self.run_round()[0]
        self.pearson_seen = seen
        return self.same(first, out)

    def rhos(self, out):
        return [] if out is None else list(out.validation_rhos)

    def check(self, out):
        from pairsphere.tune import heatmap_csv

        if out is None:
            return []
        plan = self.plan
        fails = []
        lines = heatmap_csv(out).splitlines()
        want = [(cj, cd) for cj in plan.cj_grid for cd in plan.cd_grid]
        if lines[0] != "c_j,c_d,median_rho,mean_rho,n_runs" or len(lines) != len(want) + 1:
            fails.append(f"heatmap has {len(lines) - 1} rows, expected {len(want)}")
        for line, (cj, cd) in zip(lines[1:], want):
            f = line.split(",")
            if (float(f[0]), float(f[1])) != (cj, cd) or int(f[4]) != plan.train_size:
                fails.append(f"heatmap row {line!r}: expected cell ({cj}, {cd}) with n_runs {plan.train_size}")
        best = None
        for cell in out.cells:  # first cell with the largest (median, mean) in grid order
            if best is None or (cell.median_rho, cell.mean_rho) > (best.median_rho, best.mean_rho):
                best = cell
        if best is not out.best:
            fails.append(f"winner ({out.best.c_j}, {out.best.c_d}) is not the argmax ({best.c_j}, {best.c_d})")
        if len(out.validation_rhos) != plan.val_size or out.validation_median != statistics.median(out.validation_rhos):
            fails.append(f"validation median {out.validation_median} of {out.validation_rhos}")
        if self.pearson_seen:
            fails += self._check_traced(out)
        return fails

    def _check_traced(self, out):
        """Rebuild every cell's median and mean from the rho of each training
        solve, as seen by the traced pearson_correlation wrapper."""
        seen = self.pearson_seen
        train = self.plan.train_size
        if len(seen) != self.ops:
            return [f"traced run saw {len(seen)} rho values, expected {self.ops}"]
        fails = []
        best = None
        for c, cell in enumerate(out.cells):
            vals = [seen[s * self.cells + c] for s in range(train)]
            med, mean = statistics.median(vals), statistics.fmean(vals)
            if abs(med - cell.median_rho) > checks.METRIC_TOL or abs(mean - cell.mean_rho) > checks.METRIC_TOL:
                fails.append(f"cell ({cell.c_j}, {cell.c_d}): program {cell.median_rho}/{cell.mean_rho}, recomputed {med}/{mean}")
            if best is None or (med, mean) > best[0]:
                best = ((med, mean), cell)
        if best[1] is not out.best:
            fails.append("winner differs from the argmax over recomputed cells")
        if seen[train * self.cells:] != out.validation_rhos:
            fails.append("validation rho values differ from the traced ones")
        return fails


WORKLOADS = {"detect-large": DetectLarge, "markov-batch": MarkovBatch, "grid-desk": GridDesk}


def install_tracer(workload, failures: list[str]):
    """Wrap pairsphere's layers; the solve, evaluate and pearson wrappers also
    check every partition they see."""
    tracer = tracing.Tracer()

    def on_generate(span, args, kwargs, out):
        span.info["edges"] = out[0].m

    def on_walk(span, args, kwargs, out):
        span.info["pairs"] = out.pair_ids.size

    def on_solve(span, args, kwargs, C):
        q = args[0]
        span.info.update(
            pairs=q.pair_ids.size,
            nodes=q.n,
            communities=C.k,
            query_bytes=q.pair_ids.nbytes + q.values.nbytes + sum(t.factor.nbytes for t in q.terms),
        )
        failures.extend(f"traced solve n={q.n}: {m}" for m in checks.check_local_optimum(q, C.membership))

    def on_evaluate(span, args, kwargs, res):
        detected = args[1]
        planted = args[2] if len(args) > 2 else kwargs.get("planted")
        if planted is not None:
            msgs = checks.check_detection(detected.membership, planted.membership, res.rho, res.granularity_error)
            failures.extend(f"traced evaluate: {m}" for m in msgs)

    def on_pearson(span, args, kwargs, rho):
        own, _ = checks.pair_metrics(args[0].membership, args[1].membership)
        msg = checks.compare_metric("rho", rho, own)
        if msg:
            failures.append(f"traced pearson_correlation: {msg}")
        if isinstance(workload, GridDesk):
            workload.pearson_seen.append(rho)

    tracer.on_return("generators.generate", on_generate)
    tracer.on_return("graph.walk_distribution", on_walk)
    tracer.on_return("solver.louvain_project", on_solve)
    tracer.on_return("solver.evaluate", on_evaluate)
    tracer.on_return("clustering.pearson_correlation", on_pearson)
    tracer.install()
    return tracer


def install_speed_samples(speed: SpeedClock) -> None:
    """Sample the machine speed after solves: every workload spends most of
    its time in solves, which tune looks up as tune.louvain_project."""
    from pairsphere import tune

    solve = tune.louvain_project

    def sampled(*args, **kwargs):
        out = solve(*args, **kwargs)
        speed.maybe_sample()
        return out

    tune.louvain_project = sampled


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import pairsphere

    if Path(pairsphere.__file__).resolve().parent != SRC / "pairsphere":
        print(f"pairsphere imported from {pairsphere.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, args.toy)
    workload.warm_up()
    failures: list[str] = []
    tracer = install_tracer(workload, failures) if args.trace else None
    workload.prepare()
    setup_raw_s = time.monotonic() - args.t0
    ref_s = reference_s()
    setup_s = setup_raw_s * REF_S / ref_s
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    timer = tracer or tracing.Tracer()  # without install(), only a clock that can pause
    clock = timer.now
    speed = SpeedClock(ref_s, timer)
    install_speed_samples(speed)
    if tracer:
        tracer.phase = "round"
    rounds: list[float] = []
    rounds_raw: list[float] = []
    attempted = failed = 0
    first = None
    deterministic = True
    while True:
        speed.restart()
        start = speed.total
        t0 = clock()
        out, att, fail, errors = workload.run_round()
        rounds_raw.append(clock() - t0)
        speed.sample()
        rounds.append(speed.total - start)
        attempted += att
        failed += fail
        if first is None:
            first = out
            failures.extend(errors)
        elif not workload.same(first, out):
            deterministic = False
        if sum(rounds_raw) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.phase = "check"
    if len(rounds) == 1:
        deterministic = workload.repeat(first)
    if not deterministic:
        failures.append("a later round gave other outputs than the first from the same inputs and seeds")
    failures.extend(workload.check(first))
    rhos = workload.rhos(first)
    if not rhos:
        failures.append("no detection has a defined rho")
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "rounds": rounds,
        "rounds_raw": rounds_raw,
        "kernel_s": [min(speed.refs), statistics.median(speed.refs), max(speed.refs)],
        "peak_rss_mb": peak_rss_mb,
        "rho_median": statistics.median(rhos) if rhos else 0.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, len(rounds_raw))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
