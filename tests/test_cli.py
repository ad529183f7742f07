import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from pairsphere import _kernel, cli, tune
from pairsphere.cli import main
from pairsphere.clustering import read_membership
from pairsphere.generators import GeneratorSpec, generate
from pairsphere.geometry import PairVector
from pairsphere.graph import read_edges
from pairsphere.queries import QuerySpec


def run(argv):
    return main(argv)


def test_generate_writes_three_files(tmp_path, capsys):
    code = run([
        "generate", "--family", "ppm", "--n", "100", "--k", "5",
        "--lin", "6", "--lout", "2", "--seed", "1", "--out", str(tmp_path), "--name", "g",
    ])
    assert code == 0
    for ext in (".edges", ".membership", ".meta"):
        assert (tmp_path / f"g{ext}").exists()
    meta = (tmp_path / "g.meta").read_text()
    assert "seed = 1" in meta and "family = ppm" in meta


def test_generate_deterministic(tmp_path):
    for name in ("a", "b"):
        run([
            "generate", "--family", "ppm", "--n", "60", "--k", "3",
            "--lin", "5", "--lout", "1", "--seed", "9", "--out", str(tmp_path), "--name", name,
        ])
    assert (tmp_path / "a.edges").read_text() == (tmp_path / "b.edges").read_text()
    assert (tmp_path / "a.membership").read_text() == (tmp_path / "b.membership").read_text()


def test_generate_ring_fixture(tmp_path):
    code = run(["generate", "--family", "ring", "--k", "10", "--s", "4",
                "--seed", "0", "--out", str(tmp_path), "--name", "ring"])
    assert code == 0
    G, _ = read_edges(tmp_path / "ring.edges")
    assert (G.n, G.m) == (40, 10 * 6 + 10)


def test_generate_meta_takes_spec_defaults(tmp_path):
    code = run(["generate", "--family", "hppm", "--n", "200", "--seed", "3",
                "--out", str(tmp_path), "--name", "h"])
    assert code == 0
    spec = GeneratorSpec("hppm", n=200)
    G, T = generate(spec, 3)
    meta = dict(spec.to_flat(), seed=3, n=G.n, m=G.m, communities=T.k)
    assert (tmp_path / "h.meta").read_text() == "".join(f"{k} = {v}\n" for k, v in meta.items())


def test_generate_bad_params_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    # k not dividing n; a dcppm weight exponent of 2, whose weights have no finite mean
    for flags in (["--family", "ppm", "--n", "10", "--k", "3"], ["--family", "dcppm", "--n", "60", "--k", "3", "--tau", "2"]):
        code = run(["generate", *flags, "--seed", "0", "--out", str(out)])
        assert code == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


def _two_triangles(tmp_path):
    edges = tmp_path / "tri.edges"
    edges.write_text("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    planted = tmp_path / "tri.membership"
    planted.write_text("0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n")
    return edges, planted


def test_detect_two_triangles(tmp_path):
    edges, planted = _two_triangles(tmp_path)
    code = run([
        "detect", "--graph", str(edges), "--method", "er-modularity", "--gamma", "1",
        "--planted", str(planted), "--seed", "3", "--out", str(tmp_path), "--name", "det",
    ])
    assert code == 0
    detected = read_membership(tmp_path / "det.membership")
    assert detected.membership.tolist() == [0, 0, 0, 1, 1, 1]
    res = json.loads((tmp_path / "det.result.json").read_text())
    assert res["rho"] == pytest.approx(1.0)
    assert res["seed"] == 3
    assert res["solve_ms"] is not None


NO_LIBRARY = "the compiled library did not load: no C compiler (cc) on PATH"


def test_detect_without_the_library_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_kernel, "_loaded", (None, "no C compiler (cc) on PATH"))
    edges, _ = _two_triangles(tmp_path)
    code = run(["detect", "--graph", str(edges), "--method", "er-modularity", "--out", str(tmp_path), "--name", "det"])
    assert code == 1
    assert f"error: {NO_LIBRARY}" in capsys.readouterr().err
    assert not (tmp_path / "det.membership").exists()


def test_detect_exits_1_when_the_query_norm_overflows(tmp_path, monkeypatch, capsys):
    edges, _ = _two_triangles(tmp_path)
    overflowing = PairVector.from_pairs(6, {(0, 1): 1e300, (2, 3): 1e300})
    monkeypatch.setattr(tune, "build_query", lambda *args, **kwargs: overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow in the norm
        code = run(["detect", "--graph", str(edges), "--method", "er-modularity", "--seed", "0",
                    "--out", str(tmp_path), "--name", "det"])
    assert code == 1
    assert "error: the query's norm inf is not finite" in capsys.readouterr().err
    assert not (tmp_path / "det.membership").exists()


def test_detect_result_json_key_order(tmp_path):
    edges, planted = _two_triangles(tmp_path)
    run(["detect", "--graph", str(edges), "--method", "er-modularity", "--planted", str(planted),
         "--seed", "3", "--out", str(tmp_path), "--name", "det"])
    res = json.loads((tmp_path / "det.result.json").read_text())
    assert list(res) == [
        "rho", "latitude_C", "latitude_T", "d_a_qC", "d_a_qT", "d_cc_qT",
        "granularity_error", "excess_ratio", "seed", "solve_ms", "query_ms",
    ]


def test_detect_markov_equals_cl_gamma1(tmp_path):
    run(["generate", "--family", "ppm", "--n", "80", "--k", "4", "--lin", "6",
         "--lout", "1", "--seed", "5", "--out", str(tmp_path), "--name", "g"])
    for name, method, extra in (
        ("m1", "markov", ["--t", "1"]),
        ("c1", "cl-modularity", ["--gamma", "1"]),
    ):
        code = run(["detect", "--graph", str(tmp_path / "g.edges"), "--method", method,
                    *extra, "--seed", "11", "--out", str(tmp_path), "--name", name])
        assert code == 0
    a = (tmp_path / "m1.membership").read_text()
    b = (tmp_path / "c1.membership").read_text()
    assert a == b


def test_detect_flags_not_given_keep_spec_defaults(tmp_path, monkeypatch):
    edges, _ = _two_triangles(tmp_path)
    specs = []
    real = cli.detect_once
    monkeypatch.setattr(cli, "detect_once", lambda G, spec, *a, **kw: specs.append(spec) or real(G, spec, *a, **kw))
    code = run(["detect", "--graph", str(edges), "--method", "er-modularity",
                "--seed", "0", "--out", str(tmp_path), "--name", "stem"])
    assert code == 0 and (tmp_path / "stem.membership").exists()
    assert specs == [QuerySpec("er-modularity")]  # --name is the output stem, not spec.name
    run(["detect", "--graph", str(edges), "--method", "linear", "--cj", "0.5", "--cd", "-1",
         "--c1", "0.2", "--latitude-rule", "min-distance", "--heuristic", "fixed:1.2,0.5",
         "--seed", "0", "--out", str(tmp_path)])
    assert specs[1] == QuerySpec("linear", c_j=0.5, c_d=-1.0, c_1=0.2, rule="min-distance",
                                 heuristic="fixed", lam_t=1.2, theta=0.5)


def test_detect_exact_heuristic_needs_planted(tmp_path, capsys):
    edges, _ = _two_triangles(tmp_path)
    code = run(["detect", "--graph", str(edges), "--method", "er-modularity",
                "--heuristic", "exact", "--seed", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "planted" in capsys.readouterr().err


def test_detect_means_mode_is_usage_error(tmp_path, capsys):
    edges, _ = _two_triangles(tmp_path)
    code = run(["detect", "--graph", str(edges), "--method", "markov",
                "--heuristic", "means:5", "--seed", "0", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [["--method", "ppm"], ["--method", "markov", "--t", "0"], ["--method", "cl-modularity", "--gamma", "nan"]]
    + [["--method", "markov", "--heuristic", fixed] for fixed in ("fixed:5,0.3", "fixed:nan,0.3", "fixed:1,2.5")]
    + [["--method", "linear", "--cj", "nan"], ["--method", "linear", "--cd", "inf"]],
    ids=["ppm-without-pin", "t-0", "gamma-nan", "fixed-lat-past-pi", "fixed-lat-nan", "fixed-theta-past-half-pi",
         "linear-cj-nan", "linear-cd-inf"],
)
def test_detect_flag_breaking_a_spec_rule_is_usage_error(tmp_path, capsys, flags):
    """Exit 2 before the graph is read: the graph path does not exist."""
    out = tmp_path / "out"
    code = run(["detect", "--graph", str(tmp_path / "missing.edges"), *flags, "--seed", "0", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error" in captured.err
    assert not out.exists()


def test_detect_isolated_node_domain_error(tmp_path, capsys):
    # a dropped self-loop leaves node 2 isolated while keeping ids contiguous
    iso = tmp_path / "iso.edges"
    iso.write_text("0 1\n1 3\n0 3\n4 3\n2 2\n")
    with pytest.warns(UserWarning):
        G, _ = read_edges(iso)
    assert G.n == 5 and G.degrees[2] == 0
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(["detect", "--graph", str(iso), "--method", "markov", "--t", "1",
                    "--seed", "0", "--out", str(tmp_path)])
    assert code == 1
    assert "isolated" in capsys.readouterr().err


def test_generate_detect_roundtrip_with_isolated_nodes(tmp_path):
    run(["generate", "--family", "ppm", "--n", "100", "--k", "5", "--lin", "2",
         "--lout", "1", "--seed", "2", "--out", str(tmp_path), "--name", "g"])
    G, mapping = read_edges(tmp_path / "g.edges")
    assert (G.n, mapping) == (100, None)
    assert (G.degrees == 0).any()
    code = run(["detect", "--graph", str(tmp_path / "g.edges"),
                "--planted", str(tmp_path / "g.membership"),
                "--method", "cl-modularity", "--gamma", "1", "--heuristic", "exact",
                "--seed", "0", "--out", str(tmp_path), "--name", "det"])
    assert code == 0


def test_detect_writes_token_ids(tmp_path, capsys):
    edges = tmp_path / "tok.edges"
    edges.write_text("a b\nb c\na c\nx y\ny z\nx z\n")
    planted = tmp_path / "tok.membership"
    planted.write_text("a p\nb p\nc p\nx q\ny q\nz q\n")
    code = run(["detect", "--graph", str(edges), "--method", "er-modularity", "--gamma", "1",
                "--planted", str(planted), "--seed", "3", "--out", str(tmp_path), "--name", "det"])
    assert code == 0
    lines = (tmp_path / "det.membership").read_text().splitlines()
    assert [line.split()[0] for line in lines] == list("abcxyz")
    capsys.readouterr()
    code = run(["evaluate", "--graph", str(edges), "--membership", str(tmp_path / "det.membership"),
                "--planted", str(planted)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["rho"] == 1.0


def test_detect_seed_printed_when_omitted(tmp_path, capsys):
    edges, _ = _two_triangles(tmp_path)
    code = run(["detect", "--graph", str(edges), "--method", "er-modularity",
                "--out", str(tmp_path), "--name", "noseed"])
    assert code == 0
    out = capsys.readouterr().out
    assert "seed:" in out and "--seed" in out


def test_evaluate_subcommand(tmp_path, capsys):
    edges, planted = _two_triangles(tmp_path)
    code = run(["evaluate", "--graph", str(edges), "--membership", str(planted),
                "--planted", str(planted)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rho"] == pytest.approx(1.0)
    assert out["granularity_error"] == 0.0


EXPERIMENT_CFG = """
[generator]
family = ppm
n = 40
k = 4
lambda_in = 6
lambda_out = 1

[experiment]
repeats = 2

[query ms1]
method = markov
t = 1
isolated = zero

[query ms1fix]
method = markov
t = 1
isolated = zero
heuristic = exact
"""


def test_experiment_subcommand(tmp_path, capsys):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(EXPERIMENT_CFG)
    out_dir = tmp_path / "out"
    code = run(["experiment", "--config", str(cfg), "--out", str(out_dir), "--seed", "4"])
    assert code == 0
    text = (out_dir / "results.csv").read_text()
    assert text.count("\n") == 1 + 4  # header + 2 repeats x 2 queries
    assert "ms1fix" in text
    stdout = capsys.readouterr().out
    assert "median_rho" in stdout


def test_experiment_without_the_library_records_the_reason(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernel, "_loaded", (None, "no C compiler (cc) on PATH"))
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(EXPERIMENT_CFG)
    code = run(["experiment", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "4"])
    assert code == 1
    with open(tmp_path / "out" / "results.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4 and all(row["error"] == f"generate: {NO_LIBRARY}" for row in rows)


def test_generate_without_the_library_exits_1(tmp_path, monkeypatch, capsys):
    """Every graph's adjacency is built by the compiled library."""
    monkeypatch.setattr(_kernel, "_loaded", (None, "no C compiler (cc) on PATH"))
    code = run(["generate", "--family", "ppm", "--n", "40", "--k", "4", "--lin", "6", "--lout", "1",
                "--seed", "5", "--out", str(tmp_path), "--name", "g"])
    assert code == 1
    assert f"error: {NO_LIBRARY}" in capsys.readouterr().err
    assert not (tmp_path / "g.edges").exists()


def test_experiment_worker_count_does_not_change_content(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(EXPERIMENT_CFG)
    texts = []
    for workers, name in ((1, "o1"), (2, "o2")):
        run(["experiment", "--config", str(cfg), "--out", str(tmp_path / name),
             "--seed", "4", "--workers", str(workers)])
        rows = (tmp_path / name / "results.csv").read_text().splitlines()
        # timing columns differ run to run; strip the last two fields
        texts.append(["," .join(r.split(",")[:-2]) for r in rows])
    assert texts[0] == texts[1]


def test_experiment_means_heuristic_config(tmp_path):
    cfg = tmp_path / "means.cfg"
    cfg.write_text(
        EXPERIMENT_CFG.replace("heuristic = exact", "heuristic = means:3")
    )
    out_dir = tmp_path / "mo"
    code = run(["experiment", "--config", str(cfg), "--out", str(out_dir), "--seed", "6"])
    assert code == 0
    assert "ms1fix" in (out_dir / "results.csv").read_text()


def test_detect_ppm_method(tmp_path):
    edges, planted = _two_triangles(tmp_path)
    code = run(["detect", "--graph", str(edges), "--method", "ppm",
                "--pin", "0.9", "--pout", "0.1", "--planted", str(planted),
                "--seed", "2", "--out", str(tmp_path), "--name", "ppmdet"])
    assert code == 0
    detected = read_membership(tmp_path / "ppmdet.membership")
    assert detected.membership.tolist() == [0, 0, 0, 1, 1, 1]


def test_experiment_malformed_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(EXPERIMENT_CFG + "\n[query broken]\nmethod = markov\nbogus_key = 1\n")
    code = run(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "1"])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_experiment_missing_config_exit_2(tmp_path, capsys):
    code = run(["experiment", "--config", str(tmp_path / "nope.cfg"), "--seed", "1"])
    assert code == 2


def test_experiment_default_section_exit_2(tmp_path, capsys):
    shipped = Path(__file__).resolve().parents[1] / "configs" / "ppm_markov_quick.cfg"
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("[DEFAULT]\nworkers = 1\n\n" + shipped.read_text())
    out_dir = tmp_path / "o"
    code = run(["experiment", "--config", str(cfg), "--out", str(out_dir), "--seed", "1"])
    assert code == 2
    assert "[DEFAULT] is not supported; set workers in its own section" in capsys.readouterr().err
    assert not out_dir.exists()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_builds_its_plan(path):
    text = path.read_text()
    if "[grid]" in text:
        command, plan = "grid-search", cli._grid_plan(path, {}, seed=0)
        assert plan.cj_grid and plan.cd_grid
    else:
        command, plan = "experiment", cli._experiment_plan(path, {}, seed=0)
        assert plan.queries
    assert f"# Run: pairsphere {command} --config configs/{path.name} " in text


def test_markov_configs_differ_only_in_the_generator():
    ppm = cli._experiment_plan(CONFIGS / "ppm_markov.cfg", {}, seed=0)
    for family, k in (("hppm", None), ("dcppm", 50)):
        plan = cli._experiment_plan(CONFIGS / f"{family}_markov.cfg", {}, seed=0)
        assert plan.generator == GeneratorSpec(family, n=1000, k=k)
        assert replace(plan, generator=ppm.generator) == ppm
    names = [f"{kind}_t{t}" for t in range(1, 6) for kind in ("raw", "fix")]
    assert [q.name for q in ppm.queries] == names


def test_python_dash_m_runs_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "pairsphere", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "grid-search" in proc.stdout


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("n = 40\nk = 4\nlambda_in = 6", "n = 6\nk = 2\nlambda_in = 3", "p_in"),
        ("k = 4", "k = 3", "divide"),
        ("heuristic = exact", "heuristic = means:0", "pilot"),
        ("repeats = 2", "repeats = 0", "repeats"),
        ("repeats = 2", "repeats = two", "[experiment]"),
        ("family = ppm\nn = 40\nk = 4", "family = ring\nk = 2\ns = 4", "k >= 3"),
        ("family = ppm\nn = 40\nk = 4", "family = hppm\nn = 40\ns_min = 30\ns_max = 10",
         "[generator] community sizes need 2 <= s_min <= s_max"),
        ("repeats = 2", "repeats = 2\nseed = 3", "[experiment] seed"),
        ("t = 1\nisolated = zero\nheuristic", "t = 1\npilots = 3\nheuristic", "[query ms1fix] pilots"),
        ("method = markov\nt = 1\nisolated = zero\n\n", "method = ppm\np_out = 0.1\n\n",
         "[query ms1] ppm method needs p_in and p_out"),
        ("method = markov\nt = 1\nisolated = zero\n\n", "method = cc\n\n", "[query ms1] unknown method 'cc'"),
        ("heuristic = exact", "heuristic = fixed:7,0.3", "[query ms1fix] fixed heuristic needs"),
        ("heuristic = exact", "heuristic = bogus", "[query ms1fix] unknown heuristic mode 'bogus'"),
        ("heuristic = exact", "heuristic = fixed:1", "[query ms1fix] fixed heuristic needs the form fixed:<lat>,<theta>"),
        ("heuristic = exact", "heuristic = exact\nrule = nope",
         "usage error: [query ms1fix] unknown latitude rule 'nope'"),
        ("[query ms1fix]", "[query  ms1]", "two queries share the label 'ms1'; set name"),
        ("family = ppm\nn = 40\nk = 4", "family = dcppm\nn = 40\nk = 4\ntau = 2",
         "usage error: [generator] weight exponent must exceed 2"),
    ],
    ids=["p_in-above-1", "k-not-dividing-n", "means-without-pilots", "repeats-0", "repeats-not-int",
         "ring-k-below-3", "hppm", "experiment-unknown-key", "query-pilots-key", "ppm-without-p_in",
         "cc-without-weights", "fixed-lat-past-pi", "unknown-heuristic", "fixed-one-number", "unknown-rule",
         "query-name-twice", "dcppm-tau-2"],
)
def test_experiment_config_that_cannot_run_exit_2(tmp_path, capsys, old, new, message):
    cfg = tmp_path / "bad.cfg"
    assert old in EXPERIMENT_CFG
    cfg.write_text(EXPERIMENT_CFG.replace(old, new))
    out_dir = tmp_path / "o"
    code = run(["experiment", "--config", str(cfg), "--out", str(out_dir), "--seed", "1"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_experiment_where_every_run_fails_exit_1(tmp_path, capsys):
    # no 30-node sample can hold this inter-community rate (p_out > 1), which
    # depends on the sampled community sizes, so only generation can tell
    cfg = tmp_path / "doomed.cfg"
    cfg.write_text(
        "[generator]\nfamily = hppm\nn = 30\nlambda_in = 2\nlambda_out = 40\n"
        "s_min = 10\ns_max = 15\n\n[query ms1]\nmethod = markov\nt = 1\nisolated = zero\n"
    )
    out_dir = tmp_path / "o"
    code = run(["experiment", "--config", str(cfg), "--out", str(out_dir), "--seed", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "runs=1 errors=1" in captured.out
    assert "every run failed" in captured.err
    rows = (out_dir / "results.csv").read_text().splitlines()
    assert len(rows) == 2
    assert "generate:" in rows[1]


GRID_CFG = """
[generator]
family = ppm
n = 30
k = 3
lambda_in = 6
lambda_out = 1

[grid]
cj = 0:0.5:0.5
cd = -0.5:0:0.5
train_size = 2
val_size = 1
"""


def test_grid_search_subcommand(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(GRID_CFG)
    out_dir = tmp_path / "gout"
    code = run(["grid-search", "--config", str(cfg), "--out", str(out_dir), "--seed", "2"])
    assert code == 0
    lines = (out_dir / "heatmap.csv").read_text().strip().splitlines()
    assert lines[0] == "c_j,c_d,median_rho,mean_rho,n_runs"
    assert len(lines) == 1 + 4
    assert "best cell" in capsys.readouterr().out


def test_grid_search_range_stops_at_its_end(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(GRID_CFG.replace("cj = 0:0.5:0.5", "cj = 0:0.9:0.6"))
    out_dir = tmp_path / "gout"
    code = run(["grid-search", "--config", str(cfg), "--out", str(out_dir), "--seed", "2"])
    assert code == 0
    rows = (out_dir / "heatmap.csv").read_text().strip().splitlines()[1:]
    assert sorted({float(row.split(",")[0]) for row in rows}) == [0.0, 0.6]


@pytest.mark.parametrize(
    "text, values",
    [("0:1:0.6", [0.0, 0.6]), ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]), ("1:1:0.5", [1.0]),
     ("0:1:0.1", [round(0.1 * i, 10) for i in range(11)]),
     ("-6:0:0.5", [round(-6.0 + 0.5 * i, 10) for i in range(13)])],
)
def test_parse_grid(text, values):
    assert cli._parse_grid(text) == values


@pytest.mark.parametrize("text", ["0:inf:0.5", "0:nan:0.5", "-inf:0:0.5", "nan:1:0.5", "0:1:inf", "0:1:nan"])
def test_grid_search_non_finite_range_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(GRID_CFG.replace("cj = 0:0.5:0.5", f"cj = {text}"))
    out_dir = tmp_path / "gout"
    code = run(["grid-search", "--config", str(cfg), "--out", str(out_dir), "--seed", "2"])
    assert code == 2
    assert f"usage error: grid range {text!r} must be finite" in capsys.readouterr().err
    assert not out_dir.exists()


def test_grid_search_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(GRID_CFG + "cj_grid = 0:1:0.5\n")
    out_dir = tmp_path / "gout"
    code = run(["grid-search", "--config", str(cfg), "--out", str(out_dir), "--seed", "2"])
    assert code == 2
    assert "unknown config key [grid] cj_grid" in capsys.readouterr().err
    assert not out_dir.exists()


def test_grid_search_unknown_rule_exit_2(tmp_path, capsys, monkeypatch):
    """An unknown latitude rule is a usage error found before any training
    sample is generated."""

    def no_sample(*args):
        raise AssertionError("a sample was generated")

    monkeypatch.setattr(tune, "generate", no_sample)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(GRID_CFG + "rule = nope\n")
    out_dir = tmp_path / "gout"
    code = run(["grid-search", "--config", str(cfg), "--out", str(out_dir), "--seed", "2"])
    assert code == 2
    assert "usage error: [grid] unknown latitude rule 'nope'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_grid_search_without_validation_samples_exit_2(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(GRID_CFG.replace("val_size = 1", "val_size = 0"))
    out_dir = tmp_path / "gout"
    code = run(["grid-search", "--config", str(cfg), "--out", str(out_dir), "--seed", "2"])
    assert code == 2
    assert "validation" in capsys.readouterr().err
    assert not out_dir.exists()


def test_ring_demo_runs(tmp_path, capsys):
    code = run(["ring-demo", "--k", "6", "--s", "4", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "match-planted" in out and "rho" in out


def test_ring_demo_several_k_print_each_block_in_order(capsys):
    outs = []
    for ks in (["5", "10"], ["5"], ["10"]):
        assert run(["ring-demo", "--k", *ks, "--s", "5", "--seed", "7"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] + outs[2]
    assert outs[0].count("ring of cliques") == 2


def test_ring_demo_bad_k_fails_before_any_output(capsys):
    """A ring that breaks the spec rule is a usage error, as in generate,
    found before the drawn seed or any ring is printed."""
    for flags in (["--k", "5", "2", "--seed", "7"], ["--k", "5", "--s", "1"]):
        assert run(["ring-demo", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error: ring of cliques needs k >= 3 and s >= 2" in captured.err


def test_ring_demo_bad_gamma_is_usage_error(capsys):
    for gamma in ("-1", "nan"):
        assert run(["ring-demo", "--k", "5", "--gamma", gamma, "--seed", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err


SEEDED_COMMANDS = {
    "generate": ["generate", "--family", "ppm", "--n", "60", "--k", "3", "--out", "out"],
    "detect": ["detect", "--graph", "g.edges", "--method", "er-modularity", "--out", "out"],
    "experiment": ["experiment", "--config", "exp.ini", "--out", "out"],
    "grid-search": ["grid-search", "--config", "grid.ini", "--out", "out"],
    "ring-demo": ["ring-demo", "--k", "5"],
}


@pytest.mark.parametrize("seed", ["-1", str(2**32), "1.5"])
@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_a_seed_outside_the_range_is_a_usage_error(command, seed, tmp_path, monkeypatch, capsys):
    """Every --seed takes an integer in [0, 2^32) and nothing else: a usage
    error (exit 2) that names the range, before any file is read or written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run([*SEEDED_COMMANDS[command], "--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed must be an integer in [0, 2^32)" in captured.err
    assert not any(tmp_path.iterdir())


def test_the_largest_seed_is_taken(tmp_path):
    code = run(["generate", "--family", "ppm", "--n", "60", "--k", "3", "--seed", str(2**32 - 1),
                "--out", str(tmp_path), "--name", "g"])
    assert code == 0 and f"seed = {2**32 - 1}" in (tmp_path / "g.meta").read_text()
