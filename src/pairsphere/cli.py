"""Command-line front end.

Subcommands: generate, detect, evaluate, experiment, grid-search, ring-demo.
Exit codes: 0 success, 1 domain error (bad data/degenerate inputs, or an
experiment whose every run failed), 2 usage or config error. Every subcommand
honors --seed, an integer in [0, 2^32); omitting it draws one and prints it
so any run can be reproduced after the fact.

Experiment/grid-search plans are flat `key = value` config files with sections
(configparser syntax). Schema:

  [generator]           family = ppm|hppm|dcppm|ring|external, n, k, s,
                        lambda_in, lambda_out, delta, s_min, s_max, tau,
                        edge_file, membership_file
  [experiment]          repeats, workers (the master seed comes from --seed)
  [query <name>]        method = er-modularity|cl-modularity|markov|ppm|linear
                        gamma, t, isolated = error|zero, p_in, p_out,
                        c_a, c_j, c_d, c_1,
                        heuristic = off|exact|fixed:<lat>,<theta>|means:<pilots>,
                        rule = corrected|match-planted|min-distance
  [grid]                cj = <start:stop:step>, cd = <start:stop:step>,
                        train_size, val_size, workers, rule

Unset keys and flags take the defaults of the dataclass they fill: GeneratorSpec
([generator], generate), QuerySpec ([query], detect), ExperimentPlan
([experiment]) and GridSearchPlan ([grid]).

Detection results are written as JSON with keys rho, latitude_C, latitude_T,
d_a_qC, d_a_qT, d_cc_qT, granularity_error, excess_ratio, seed, solve_ms,
query_ms.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import secrets
import sys
from dataclasses import MISSING, asdict, fields, replace

from ._util import atomic_write_text
from .clustering import pearson_correlation, read_membership, write_membership
from .generators import GeneratorSpec, generate
from .graph import read_edges, write_edges
from .queries import LATITUDE_RULES, METHODS, QuerySpec
from .tune import (
    ExperimentPlan,
    GridSearchPlan,
    detect_once,
    grid_search,
    run_experiment,
    write_experiment_outputs,
    write_grid_outputs,
)


class UsageError(Exception):
    """Bad flags or config: exit code 2."""


def _seed(text: str) -> int:
    """Every --seed: an integer in [0, 2^32), as numpy takes and derive_seed keeps it; else a usage error."""
    if not (text.isascii() and text.isdigit() and int(text) < 2**32):
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2^32), not {text!r}")
    return int(text)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbelow(2**31)
    print(f"seed: {seed} (drawn; pass --seed {seed} to reproduce)")
    return seed


def _parse_heuristic(text: str) -> dict:
    """Expand a heuristic value (a flag's or a config key's) into the fields
    QuerySpec checks; a bad form is a ValueError, reported as a usage error."""
    if text == "off" or text == "exact":
        return {"heuristic": text}
    if text.startswith("fixed:"):
        try:
            lat, theta = (float(x) for x in text[len("fixed:") :].split(","))
        except ValueError as exc:
            raise ValueError(f"fixed heuristic needs the form fixed:<lat>,<theta>, not {text!r}") from exc
        return {"heuristic": "fixed", "lam_t": lat, "theta": theta}
    if text.startswith("means:"):
        try:
            pilots = int(text[len("means:") :])
        except ValueError as exc:
            raise ValueError(f"means heuristic needs the form means:<pilots>, not {text!r}") from exc
        return {"heuristic": "means", "pilots": pilots}
    raise ValueError(f"unknown heuristic mode {text!r}")


_CONVERTERS = {"int": int, "float": float, "str": str}


def _read_spec(cls, given: dict, section: str | None = None, exclude=(), **fixed):
    """`cls(**fixed, **given)`: a field set in neither keeps its dataclass default.

    `given` maps field names to flag values (section None) or to the text of a
    config section's keys, converted by the field's annotation (int, float,
    str or X | None); `heuristic` text expands by _parse_heuristic. A key that
    is not a field of `cls`, or is in `exclude`, is a usage error, and so is a
    ValueError while reading the flags or a section.
    """
    types = {f.name: f.type for f in fields(cls) if f.name not in exclude}
    kwargs = dict(fixed)
    try:
        for key, value in given.items():
            if key not in types:
                raise UsageError(f"unknown config key [{section}] {key}")
            if key == "heuristic":
                kwargs.update(_parse_heuristic(value))
            elif isinstance(value, str):
                kwargs[key] = _CONVERTERS[types[key].removesuffix(" | None")](value)
            else:
                kwargs[key] = value
        for f in fields(cls):
            if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
                raise UsageError(f"missing config key [{section}] {f.name}")
        return cls(**kwargs)
    except ValueError as exc:
        raise UsageError(f"[{section}] {exc}" if section else str(exc)) from exc


def _flags(args, cls, exclude=()) -> dict:
    """The flags given on the command line that fill fields of `cls`."""
    return {
        f.name: getattr(args, f.name)
        for f in fields(cls)
        if f.name not in exclude and getattr(args, f.name, None) is not None
    }


def _section(cfg, name: str) -> dict:
    return dict(cfg[name]) if name in cfg else {}


def cmd_generate(args) -> int:
    seed = _resolve_seed(args)
    spec = _read_spec(GeneratorSpec, _flags(args, GeneratorSpec))
    G, T = generate(spec, seed)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, args.name)
    write_edges(stem + ".edges", G)
    write_membership(stem + ".membership", T)
    meta = dict(spec.to_flat(), seed=seed, n=G.n, m=G.m, communities=T.k)
    atomic_write_text(stem + ".meta", [f"{k} = {v}\n" for k, v in meta.items()])
    print(f"wrote {stem}.edges ({G.n} nodes, {G.m} edges), .membership, .meta")
    return 0


def cmd_detect(args) -> int:
    seed = _resolve_seed(args)
    if (args.heuristic or "").startswith("means"):
        raise UsageError("means mode needs a generator; use the experiment subcommand")
    if args.heuristic == "exact" and args.planted is None:
        raise UsageError("--heuristic exact needs --planted <membership file>")
    spec = _read_spec(QuerySpec, _flags(args, QuerySpec, exclude=("name",)))  # --name: output stem
    G, id_map = read_edges(args.graph)
    planted = None
    if args.planted:
        planted = read_membership(args.planted, n=G.n, id_map=id_map)
    detected, res = detect_once(G, spec, planted, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, args.name)
    write_membership(stem + ".membership", detected, id_map)
    atomic_write_text(stem + ".result.json", [json.dumps(asdict(res), indent=1) + "\n"])
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


def _generator_from_config(cfg) -> GeneratorSpec:
    if "generator" not in cfg:
        raise UsageError("config needs a [generator] section")
    return _read_spec(GeneratorSpec, _section(cfg, "generator"), "generator")


# QuerySpec fields a [query] section cannot set: `heuristic` and the header set them
_QUERY_EXCLUDED = ("lam_t", "theta", "pilots", "name")


def _queries_from_config(cfg) -> list[QuerySpec]:
    out = [
        _read_spec(QuerySpec, _section(cfg, sec), sec, _QUERY_EXCLUDED, name=sec.split(None, 1)[-1])
        for sec in cfg.sections()
        if sec.startswith("query")
    ]
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
    if cfg.defaults():  # configparser would copy these keys into every section
        raise UsageError(f"[DEFAULT] is not supported; set {', '.join(cfg.defaults())} in its own section")
    return cfg


def _experiment_plan(path, flags: dict, seed: int) -> ExperimentPlan:
    """The plan of an experiment config; `flags` (--workers) win over its keys."""
    cfg = _read_config(path)
    exp = {**_section(cfg, "experiment"), **flags}
    return _read_spec(
        ExperimentPlan, exp, "experiment", ("generator", "queries", "master_seed"),
        generator=_generator_from_config(cfg), queries=_queries_from_config(cfg), master_seed=seed,
    )


def cmd_experiment(args) -> int:
    seed = _resolve_seed(args)
    result = run_experiment(_experiment_plan(args.config, _flags(args, ExperimentPlan), seed))
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
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(f"grid range {text!r} must be finite")
    if step <= 0 or stop < start:
        raise UsageError(f"bad grid range {text!r}")
    count = math.floor((stop - start) / step + 1e-9) + 1  # no value past stop
    return [round(start + i * step, 10) for i in range(count)]


def _grid_plan(path, flags: dict, seed: int) -> GridSearchPlan:
    """The plan of a grid-search config; `flags` (--workers) win over its keys."""
    cfg = _read_config(path)
    gen = _generator_from_config(cfg)
    grid = {**_section(cfg, "grid"), **flags}
    ranges = {f"{key}_grid": _parse_grid(grid.pop(key)) for key in ("cj", "cd") if key in grid}
    return _read_spec(
        GridSearchPlan, grid, "grid",
        ("generator", "cj_grid", "cd_grid", "train_files", "val_files", "master_seed"),
        generator=gen, master_seed=seed, **ranges,
    )


def cmd_grid_search(args) -> int:
    seed = _resolve_seed(args)
    result = grid_search(_grid_plan(args.config, _flags(args, GridSearchPlan), seed))
    paths = write_grid_outputs(result, args.out)
    print(
        f"best cell: c_j={result.best.c_j:g} c_d={result.best.c_d:g} "
        f"train median rho={result.best.median_rho:.4f} "
        f"validation median rho={result.validation_median:.4f}"
    )
    print(f"heatmap -> {paths['heatmap']}")
    return 0


def cmd_ring_demo(args) -> int:
    rings = [_read_spec(GeneratorSpec, {"family": "ring", "k": k, "s": args.s}) for k in args.k]  # before any output
    raw = _read_spec(QuerySpec, _flags(args, QuerySpec), method="er-modularity")
    seed = _resolve_seed(args)
    for ring in rings:
        G, T = generate(ring, seed)
        print(f"ring of cliques: k={ring.k} s={ring.s} -> n={G.n}, m={G.m}")
        rows = [(f"raw gamma={raw.gamma:g}", *_ring_run(G, T, raw, seed))]
        for rule in LATITUDE_RULES:
            spec = replace(raw, heuristic="exact", rule=rule)
            rows.append((rule, *_ring_run(G, T, spec, seed)))
        print(f"{'query':<16} {'rho':>8} {'gran_err':>10} {'k_detected':>10}")
        for name, rho, gerr, k_detected in rows:
            rho_s = f"{rho:.4f}" if rho is not None else "n/a"
            gerr_s = f"{gerr:+.4f}" if gerr is not None else "n/a"
            print(f"{name:<16} {rho_s:>8} {gerr_s:>10} {k_detected:>10}")
    return 0


def _ring_run(G, T, spec, seed):
    detected, res = detect_once(G, spec, T, seed=seed)
    return res.rho, res.granularity_error, detected.k


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pairsphere", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a benchmark graph with a planted partition")
    gen.add_argument("--family", required=True, choices=["ppm", "hppm", "dcppm", "ring"])
    gen.add_argument("--n", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--s", type=int)
    gen.add_argument("--lin", dest="lambda_in", type=float, help="expected intra-community degree")
    gen.add_argument("--lout", dest="lambda_out", type=float, help="expected inter-community degree")
    gen.add_argument("--delta", type=float)
    gen.add_argument("--smin", dest="s_min", type=int)
    gen.add_argument("--smax", dest="s_max", type=int)
    gen.add_argument("--tau", type=float)
    gen.add_argument("--seed", type=_seed, default=None)
    gen.add_argument("--out", default=".")
    gen.add_argument("--name", default="sample")
    gen.set_defaults(func=cmd_generate)

    det = sub.add_parser("detect", help="detect communities in a graph file")
    det.add_argument("--graph", required=True)
    det.add_argument("--method", required=True, choices=METHODS)
    det.add_argument("--gamma", type=float)
    det.add_argument("--t", type=int)
    det.add_argument("--pin", dest="p_in", type=float)
    det.add_argument("--pout", dest="p_out", type=float)
    det.add_argument("--cj", dest="c_j", type=float)
    det.add_argument("--cd", dest="c_d", type=float)
    det.add_argument("--c1", dest="c_1", type=float)
    det.add_argument("--planted", default=None, help="membership file with the reference partition")
    det.add_argument("--heuristic", help="off | exact | fixed:<lat>,<theta> | means:<k>")
    det.add_argument("--latitude-rule", dest="rule", choices=list(LATITUDE_RULES))
    det.add_argument("--seed", type=_seed, default=None)
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
    exp.add_argument("--seed", type=_seed, default=None)
    exp.set_defaults(func=cmd_experiment)

    gs = sub.add_parser("grid-search", help="tune linear-combination coefficients on a generator")
    gs.add_argument("--config", required=True)
    gs.add_argument("--out", default="gridsearch_out")
    gs.add_argument("--workers", type=int, default=None)
    gs.add_argument("--seed", type=_seed, default=None)
    gs.set_defaults(func=cmd_grid_search)

    ring = sub.add_parser("ring-demo", help="granularity-fix strategies on the ring of cliques")
    ring.add_argument("--k", type=int, nargs="+", default=[20], help="one or more clique counts, run in order")
    ring.add_argument("--s", type=int, default=5)
    ring.add_argument("--gamma", type=float)
    ring.add_argument("--seed", type=_seed, default=None)
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
