"""pairsphere benchmark: one workload, end to end or traced by layer.

    python3 bench/run.py --workload detect-large|markov-batch|grid-desk \
        --seed N --seconds S --trace 0|1

Every measurement runs in a fresh child process (bench/workloads.py), one
after the other, single-threaded (OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1,
no process pool) and with bytecode writing off: no child writes __pycache__,
so in a checkout without one each child compiles the package. With --trace 0 the command reports the end-to-end
metrics: setup_s is the median over SETUP_RUNS processes (the timed one and
SETUP_RUNS - 1 that stop after set-up); run_s is the median round time of
the timed process. Both are normalised to the machine's measured speed (see
bench/reference.py); the raw wall times, the timed child's own set-up and
the reference kernel's times are printed beside them on one line
"<workload> raw {json}". With --trace 1 an untraced and then a traced timed
child run, and the per-layer metrics are reported, with the tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
DEADLINE_S = 170.0
# workload names, metric names and units are those of BENCHMARK.json
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


class ChildFailed(RuntimeError):
    pass


def run_child(args, mode: str, trace: int, deadline: float) -> dict:
    env = dict(
        os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--trace", str(trace),
    ]
    if args.toy:
        cmd.append("--toy")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child passed the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(args, deadline: float):
    timed = run_child(args, "timed", 0, deadline)
    setups = [timed] + [run_child(args, "setup", 0, deadline) for _ in range(SETUP_RUNS - 1)]
    print(f"{args.workload} raw " + json.dumps({
        "setup_s": statistics.median(c["setup_raw_s"] for c in setups),
        "run_s": statistics.median(timed["rounds_raw"]),
        "setup_s_timed_child": timed["setup_s"],
        "kernel_s_min_median_max": timed["kernel_s"],
    }))
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in setups),
        "run_s": statistics.median(timed["rounds"]),
        "peak_rss_mb": timed["peak_rss_mb"],
        "rho_median": timed["rho_median"],
    }
    return [timed], metrics, BENCH["end_to_end"]


def per_layer(args, deadline: float):
    plain = run_child(args, "timed", 0, deadline)
    traced = run_child(args, "timed", 1, deadline)
    layers = traced["layers"]
    run_s = statistics.median(traced["rounds"])
    metrics = dict(layers)
    metrics["trace.run_s"] = run_s
    metrics["trace.overhead_s"] = run_s - statistics.median(plain["rounds"])
    # spans are raw wall time, so the raw rounds are what they must add up to
    metrics["trace.unaccounted_s"] = statistics.fmean(traced["rounds_raw"]) - layers["layer_self_total_s"]
    return [plain, traced], metrics, BENCH["per_layer"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in BENCH["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy-size inputs, for the smoke check only")
    args = ap.parse_args()

    if not (ROOT / "src" / "pairsphere" / "__init__.py").is_file():
        print(f"no pairsphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        children, metrics, listed = (per_layer if args.trace else end_to_end)(args, deadline)
    except ChildFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    failures = [msg for c in children for msg in c["failures"]]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for msg in failures:
        print(f"CHECK FAILED {args.workload}: {msg}", file=sys.stderr)
    rounds = [len(c["rounds"]) for c in children]
    print(f"{args.workload} seed={args.seed} rounds={rounds} attempted={attempted} failed={failed}")
    for m in listed:
        print(f"{args.workload} {m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
