"""Run-to-run spread of the end-to-end metrics, in two alternated sets.

    python3 bench/steadiness.py

Runs every workload of BENCHMARK.json RUNS times in each of SETS sets, for
BENCHMARK.json's run_seconds. Set s uses seeds s*1000+1 .. s*1000+RUNS. The
sets alternate run by run (and which set goes first alternates too), so slow
drift of the machine lands on both. For every workload, set and metric it
prints the median, the quartiles and the spread (q3 - q1) / median, and how
much the last set's median is worse than the first's, as a share of the
first. Beside the normalised times it gives the same figures for the raw
wall times and for the timed child's set-up alone, and the range of the
reference kernel's times. Raw results go to OUT as JSON.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
SETS = 2
OUT = HERE / "results" / "steadiness.json"


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, correct={result['correct']}")
    prefix = f"{workload} raw "
    result["raw"] = next(json.loads(ln[len(prefix):]) for ln in lines if ln.startswith(prefix))
    return result


def row(workload: str, name: str, sets: list[list[float]], better: str, bound) -> str:
    cells, medians = [], []
    for vals in sets:
        q1, med, q3 = statistics.quantiles(vals, n=4)
        medians.append(med)
        cells.append(f"{med:10.5g} [{q1:.5g}, {q3:.5g}] {(q3 - q1) / med:6.2%}")
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (medians[-1] - medians[0]) / medians[0]
    bound_s = f"{bound:5.2f}" if bound is not None else "    -"
    return f"{workload:13} {name:20} {bound_s} " + " | ".join(cells) + f" | {worse:7.2%}"


def main() -> int:
    workloads = [w["name"] for w in BENCH["workloads"]]
    results: dict = {w: [[] for _ in range(SETS)] for w in workloads}
    for i in range(RUNS):
        order = list(range(SETS))
        if i % 2:
            order.reverse()
        for s in order:
            for w in workloads:
                seed = s * 1000 + i + 1
                res = run_once(w, seed)
                results[w][s].append({"seed": seed, **res})
                print(f"set {s} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
                    + f" raw={json.dumps(res['raw'])}", flush=True)

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(results, indent=1))
    print(f"\n{'workload':13} {'metric':20} bound " + " | ".join(
        f"set {s}: median [q1, q3] spread" for s in range(SETS)) + " | worse")
    for w in workloads:
        for m in BENCH["end_to_end"]:
            sets = [[r["metrics"][m["name"]]["value"] for r in results[w][s]] for s in range(SETS)]
            print(row(w, m["name"], sets, m["better"], m["bound"]))
        for key in ("setup_s", "run_s", "setup_s_timed_child"):
            sets = [[r["raw"][key] for r in results[w][s]] for s in range(SETS)]
            name = key if key == "setup_s_timed_child" else f"raw {key}"
            print(row(w, name, sets, "lower", None))
        kernel = [k for s in range(SETS) for r in results[w][s] for k in r["raw"]["kernel_s_min_median_max"]]
        shares = {s: sorted({(r["failed"], r["attempted"]) for r in results[w][s]}) for s in range(SETS)}
        print(f"{w:13} reference kernel {min(kernel):.4g}..{max(kernel):.4g} s; failed/attempted per set: {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
