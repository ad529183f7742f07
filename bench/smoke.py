"""Seconds-long check of the benchmark's output form, at toy size.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json with --toy for one second, untraced
and traced, and checks that the last stdout line has exactly the keys
correct/attempted/failed/metrics, that `correct` is true, and that the
metrics are exactly the end_to_end (or per_layer) names with their units and
finite numeric values. It also runs a copy of the benchmark alone (no
sources next to it) and expects a non-zero exit without a result line.
Not part of the test suite; the figures at toy size mean nothing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_output(stdout: str, expected: list[dict]) -> list[str]:
    result = json.loads(stdout.strip().splitlines()[-1])
    errs = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        errs.append("correct is not true")
    att, fail = result.get("attempted"), result.get("failed")
    if not (isinstance(att, int) and isinstance(fail, int) and att >= 1 and 0 <= fail <= att):
        errs.append(f"attempted={att!r} failed={fail!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        errs.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            errs.append(f"{m['name']}: {got}")
    return errs


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable] + bench["command"][1:]
    failures = 0
    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = subprocess.run(
                cmd + ["--workload", w["name"], "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            errs = [f"exit {proc.returncode}"] if proc.returncode else []
            errs += check_output(proc.stdout, expected) if proc.stdout.strip() else ["no output"]
            failures += bool(errs)
            print(f"{w['name']} trace={trace}: {'ok' if not errs else '; '.join(errs)}")

    bare = HERE / "results" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        cmd + ["--workload", bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    bare_ok = proc.returncode != 0 and not proc.stdout.strip()
    failures += not bare_ok
    print(f"without sources: exit {proc.returncode}, {'ok' if bare_ok else 'expected a non-zero exit and no output'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
