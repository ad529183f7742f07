"""Command-line front end.

Subcommands: generate, detect, evaluate, experiment, grid-search, ring-demo.
Exit codes: 0 success, 1 domain error (bad data/degenerate inputs, or an
experiment whose every run failed), 2 usage or config error. Every subcommand
honors --seed; omitting it draws one and prints it so any run can be
reproduced after the fact.

Experiment/grid-search plans are flat `key = value` config files with sections
(configparser syntax). Schema:

  [generator]           family = ppm|hppm|dcppm|ring|external, n, k, s,
                        lambda_in, lambda_out, delta, s_min, s_max, tau,
                        edge_file, membership_file
  [experiment]          repeats, workers (the master seed comes from --seed)
  [query <name>]        method = er-modularity|cl-modularity|markov|ppm|cc|linear
                        gamma, t, isolated = error|zero, p_in, p_out,
                        c_a, c_j, c_d, c_1,
                        heuristic = off|exact|fixed:<lat>,<theta>|means:<pilots>,
                        rule = corrected|match-planted|min-distance
  [grid]                cj = <start:stop:step>, cd = <start:stop:step>,
                        train_size, val_size, workers, rule

Detection results are written as JSON with keys rho, latitude_C, latitude_T,
d_a_qC, d_a_qT, d_cc_qT, granularity_error, excess_ratio, seed, solve_ms,
query_ms.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import secrets
import sys
from dataclasses import asdict

from ._util import atomic_write_text
from .clustering import pearson_correlation, read_membership, write_membership
from .generators import GeneratorSpec, generate
from .graph import read_edges, write_edges
from .queries import LATITUDE_RULES, METHODS, QuerySpec
from .tune import (
    ExperimentPlan,
    GridSearchPlan,
    default_cd_grid,
    default_cj_grid,
    detect_once,
    grid_search,
    run_experiment,
    write_experiment_outputs,
    write_grid_outputs,
)


class UsageError(Exception):
    """Bad flags or config: exit code 2."""


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbelow(2**31)
    print(f"seed: {seed} (drawn; pass --seed {seed} to reproduce)")
    return seed


def _parse_heuristic(text: str) -> dict:
    if text == "off" or text == "exact":
        return {"heuristic": text}
    if text.startswith("fixed:"):
        try:
            lat, theta = (float(x) for x in text[len("fixed:") :].split(","))
        except ValueError as exc:
            raise UsageError("fixed heuristic needs --heuristic fixed:<lat>,<theta>") from exc
        return {"heuristic": "fixed", "lam_t": lat, "theta": theta}
    if text.startswith("means:"):
        try:
            pilots = int(text[len("means:") :])
        except ValueError as exc:
            raise UsageError("means heuristic needs --heuristic means:<pilots>") from exc
        return {"heuristic": "means", "pilots": pilots}
    raise UsageError(f"unknown heuristic mode {text!r}")


def _query_spec_from_args(args) -> QuerySpec:
    heur = _parse_heuristic(args.heuristic)
    if heur["heuristic"] == "means":
        raise UsageError("means mode needs a generator; use the experiment subcommand")
    if heur["heuristic"] == "exact" and args.planted is None:
        raise UsageError("--heuristic exact needs --planted <membership file>")
    return QuerySpec(
        method=args.method,
        gamma=args.gamma,
        t=args.t,
        p_in=args.pin,
        p_out=args.pout,
        c_j=args.cj,
        c_d=args.cd,
        c_1=args.c1,
        rule=args.latitude_rule,
        **heur,
    )


def _generator_spec_from_args(args) -> GeneratorSpec:
    return GeneratorSpec(
        family=args.family,
        n=args.n,
        k=args.k,
        s=args.s,
        lambda_in=args.lin,
        lambda_out=args.lout,
        delta=args.delta,
        s_min=args.smin,
        s_max=args.smax,
        tau=args.tau,
    )


def cmd_generate(args) -> int:
    seed = _resolve_seed(args)
    spec = _generator_spec_from_args(args)
    G, T = generate(spec, seed)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, args.name)
    write_edges(stem + ".edges", G)
    write_membership(stem + ".membership", T)
    meta = dict(spec.to_flat(), seed=seed, n=G.n, m=G.m, communities=T.k)
    atomic_write_text(stem + ".meta", "".join(f"{k} = {v}\n" for k, v in meta.items()))
    print(f"wrote {stem}.edges ({G.n} nodes, {G.m} edges), .membership, .meta")
    return 0


def cmd_detect(args) -> int:
    seed = _resolve_seed(args)
    spec = _query_spec_from_args(args)
    G, id_map = read_edges(args.graph)
    planted = None
    if args.planted:
        planted = read_membership(args.planted, n=G.n, id_map=id_map)
    detected, res = detect_once(G, spec, planted, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, args.name)
    write_membership(stem + ".membership", detected, id_map)
    atomic_write_text(stem + ".result.json", json.dumps(asdict(res), indent=1) + "\n")
    print(f"detected {detected.k} communities (seed {seed})")
    for key, val in asdict(res).items():
        if val is not None and key not in ("seed",):
            print(f"  {key} = {val:.6g}" if isinstance(val, float) else f"  {key} = {val}")
    return 0


def cmd_evaluate(args) -> int:
    G, id_map = read_edges(args.graph)
    detected = read_membership(args.membership, n=G.n, id_map=id_map)
    planted = read_membership(args.planted, n=G.n, id_map=id_map) if args.planted else None
    out = {}
    if planted is not None:
        out["rho"] = pearson_correlation(detected, planted)
    from .clustering import partition_latitude, relative_granularity_error

    out["latitude_C"] = partition_latitude(detected)
    if planted is not None:
        out["latitude_T"] = partition_latitude(planted)
        out["granularity_error"] = relative_granularity_error(detected, planted)
    print(json.dumps(out, indent=1))
    return 0


def _require_keys(section, allowed, context):
    for key in section:
        if key not in allowed:
            raise UsageError(f"unknown config key [{context}] {key}")


def _generator_from_config(cfg) -> GeneratorSpec:
    if "generator" not in cfg:
        raise UsageError("config needs a [generator] section")
    g = cfg["generator"]
    allowed = {
        "family", "n", "k", "s", "lambda_in", "lambda_out",
        "delta", "s_min", "s_max", "tau", "edge_file", "membership_file",
    }
    _require_keys(g, allowed, "generator")
    try:
        return GeneratorSpec(
            family=g.get("family", "ppm"),
            n=g.getint("n", 0),
            k=g.getint("k") if "k" in g else None,
            s=g.getint("s") if "s" in g else None,
            lambda_in=g.getfloat("lambda_in", 6.0),
            lambda_out=g.getfloat("lambda_out", 2.0),
            delta=g.getfloat("delta", 2.5),
            s_min=g.getint("s_min", 10),
            s_max=g.getint("s_max", 100),
            tau=g.getfloat("tau", 2.5),
            edge_file=g.get("edge_file", None),
            membership_file=g.get("membership_file", None),
        )
    except ValueError as exc:
        raise UsageError(f"[generator] {exc}") from exc


def _queries_from_config(cfg) -> list[QuerySpec]:
    out = []
    for name in cfg.sections():
        if not name.startswith("query"):
            continue
        sec = cfg[name]
        allowed = {
            "method", "gamma", "t", "isolated", "p_in", "p_out",
            "c_a", "c_j", "c_d", "c_1", "heuristic", "rule",
        }
        _require_keys(sec, allowed, name)
        heur_text = sec.get("heuristic", "off")
        try:
            heur = _parse_heuristic(heur_text)
            spec = QuerySpec(
                method=sec.get("method", ""),
                gamma=sec.getfloat("gamma", 1.0),
                t=sec.getint("t", 1),
                isolated=sec.get("isolated", "error"),
                p_in=sec.getfloat("p_in") if "p_in" in sec else None,
                p_out=sec.getfloat("p_out") if "p_out" in sec else None,
                c_a=sec.getfloat("c_a", 1.0),
                c_j=sec.getfloat("c_j", 0.0),
                c_d=sec.getfloat("c_d", 0.0),
                c_1=sec.getfloat("c_1", 0.0),
                rule=sec.get("rule", "corrected"),
                name=name.split(None, 1)[1] if " " in name else name,
                **heur,
            )
        except ValueError as exc:
            raise UsageError(f"[{name}] {exc}") from exc
        out.append(spec)
    if not out:
        raise UsageError("config needs at least one [query <name>] section")
    return out


def _read_config(path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise UsageError(f"malformed config: {exc}") from exc
    return cfg


def cmd_experiment(args) -> int:
    seed = _resolve_seed(args)
    cfg = _read_config(args.config)
    gen = _generator_from_config(cfg)
    queries = _queries_from_config(cfg)
    exp = cfg["experiment"] if "experiment" in cfg else {}
    if exp:
        _require_keys(exp, {"repeats", "workers"}, "experiment")
    try:
        repeats = int(exp.get("repeats", 1))
        workers = args.workers or int(exp.get("workers", 1))
        plan = ExperimentPlan(gen, queries, repeats=repeats, master_seed=seed, workers=workers)
    except ValueError as exc:
        raise UsageError(f"[experiment] {exc}") from exc
    result = run_experiment(plan)
    paths = write_experiment_outputs(result, args.out)
    _print_summary(result.summary)
    print(f"rows: {len(result.rows)} -> {paths['csv']}")
    if all(row.error for row in result.rows):  # outputs kept: the error column says why
        print(f"error: every run failed; see the error column of {paths['csv']}", file=sys.stderr)
        return 1
    return 0


def _print_summary(summary: dict) -> None:
    for label, stats in summary.items():
        line = f"{label}: runs={stats['runs']} errors={stats['errors']}"
        if "rho" in stats:
            line += f" median_rho={stats['rho']['median']:.4f}"
        if "granularity_error" in stats:
            line += f" median_gran_err={stats['granularity_error']['median']:+.4f}"
        print(line)


def _parse_grid(text: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"grid spec {text!r} must be <start:stop:step>") from exc
    if step <= 0 or stop < start:
        raise UsageError(f"bad grid range {text!r}")
    count = int(round((stop - start) / step)) + 1
    return [round(start + i * step, 10) for i in range(count)]


def cmd_grid_search(args) -> int:
    seed = _resolve_seed(args)
    cfg = _read_config(args.config)
    gen = _generator_from_config(cfg)
    grid = cfg["grid"] if "grid" in cfg else {}
    if grid:
        _require_keys(grid, {"cj", "cd", "train_size", "val_size", "workers", "rule"}, "grid")
    try:
        plan = GridSearchPlan(
            generator=gen,
            cj_grid=_parse_grid(grid["cj"]) if "cj" in grid else default_cj_grid(),
            cd_grid=_parse_grid(grid["cd"]) if "cd" in grid else default_cd_grid(),
            train_size=int(grid.get("train_size", 15)),
            val_size=int(grid.get("val_size", 20)),
            master_seed=seed,
            workers=args.workers or int(grid.get("workers", 1)),
            rule=grid.get("rule", "corrected"),
        )
    except ValueError as exc:
        raise UsageError(f"[grid] {exc}") from exc
    result = grid_search(plan)
    paths = write_grid_outputs(result, args.out)
    print(
        f"best cell: c_j={result.best.c_j:g} c_d={result.best.c_d:g} "
        f"train median rho={result.best.median_rho:.4f} "
        f"validation median rho={result.validation_median:.4f}"
    )
    print(f"heatmap -> {paths['heatmap']}")
    return 0


def cmd_ring_demo(args) -> int:
    seed = _resolve_seed(args)
    from .generators import ring_of_cliques

    G, T = ring_of_cliques(args.k, args.s)
    print(f"ring of cliques: k={args.k} s={args.s} -> n={G.n}, m={G.m}")
    rows = []
    raw = QuerySpec("er-modularity", gamma=args.gamma)
    rows.append(("raw gamma=%g" % args.gamma, *_ring_run(G, T, raw, seed)))
    for rule in LATITUDE_RULES:
        spec = QuerySpec("er-modularity", gamma=args.gamma, heuristic="exact", rule=rule)
        rows.append((rule, *_ring_run(G, T, spec, seed)))
    print(f"{'query':<16} {'rho':>8} {'gran_err':>10} {'k_detected':>10}")
    for name, rho, gerr, k in rows:
        rho_s = f"{rho:.4f}" if rho is not None else "n/a"
        gerr_s = f"{gerr:+.4f}" if gerr is not None else "n/a"
        print(f"{name:<16} {rho_s:>8} {gerr_s:>10} {k:>10}")
    return 0


def _ring_run(G, T, spec, seed):
    detected, res = detect_once(G, spec, T, seed=seed)
    return res.rho, res.granularity_error, detected.k


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pairsphere", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a benchmark graph with a planted partition")
    gen.add_argument("--family", required=True, choices=["ppm", "hppm", "dcppm", "ring"])
    gen.add_argument("--n", type=int, default=0)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--s", type=int, default=None)
    gen.add_argument("--lin", type=float, default=6.0, help="expected intra-community degree")
    gen.add_argument("--lout", type=float, default=2.0, help="expected inter-community degree")
    gen.add_argument("--delta", type=float, default=2.5)
    gen.add_argument("--smin", type=int, default=10)
    gen.add_argument("--smax", type=int, default=100)
    gen.add_argument("--tau", type=float, default=2.5)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default=".")
    gen.add_argument("--name", default="sample")
    gen.set_defaults(func=cmd_generate)

    det = sub.add_parser("detect", help="detect communities in a graph file")
    det.add_argument("--graph", required=True)
    det.add_argument("--method", required=True, choices=[m for m in METHODS if m != "cc"])
    det.add_argument("--gamma", type=float, default=1.0)
    det.add_argument("--t", type=int, default=1)
    det.add_argument("--pin", type=float, default=None)
    det.add_argument("--pout", type=float, default=None)
    det.add_argument("--cj", type=float, default=0.0)
    det.add_argument("--cd", type=float, default=0.0)
    det.add_argument("--c1", type=float, default=0.0)
    det.add_argument("--planted", default=None, help="membership file with the reference partition")
    det.add_argument("--heuristic", default="off", help="off | exact | fixed:<lat>,<theta> | means:<k>")
    det.add_argument("--latitude-rule", default="corrected", choices=list(LATITUDE_RULES))
    det.add_argument("--seed", type=int, default=None)
    det.add_argument("--out", default=".")
    det.add_argument("--name", default="detected")
    det.set_defaults(func=cmd_detect)

    ev = sub.add_parser("evaluate", help="compare a detected membership against a reference")
    ev.add_argument("--graph", required=True)
    ev.add_argument("--membership", required=True)
    ev.add_argument("--planted", default=None)
    ev.set_defaults(func=cmd_evaluate, seed=0)

    exp = sub.add_parser("experiment", help="run a generate->detect->evaluate batch from a config")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", default="experiment_out")
    exp.add_argument("--workers", type=int, default=None)
    exp.add_argument("--seed", type=int, default=None)
    exp.set_defaults(func=cmd_experiment)

    gs = sub.add_parser("grid-search", help="tune linear-combination coefficients on a generator")
    gs.add_argument("--config", required=True)
    gs.add_argument("--out", default="gridsearch_out")
    gs.add_argument("--workers", type=int, default=None)
    gs.add_argument("--seed", type=int, default=None)
    gs.set_defaults(func=cmd_grid_search)

    ring = sub.add_parser("ring-demo", help="granularity-fix strategies on the ring of cliques")
    ring.add_argument("--k", type=int, default=20)
    ring.add_argument("--s", type=int, default=5)
    ring.add_argument("--gamma", type=float, default=1.0)
    ring.add_argument("--seed", type=int, default=None)
    ring.set_defaults(func=cmd_ring_demo)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
