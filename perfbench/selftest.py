"""Self-test of the benchmark: every workload at its smallest rung, untraced
and traced, must pass its checks and emit exactly the metrics that
BENCHMARK.json lists, with their units.  Without `src/treepart` next to it
the benchmark must fail without printing a result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--rungs", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(units))
                extra = sorted(set(units) - set(wanted[trace]))
                problems.append(f"{where}: missing {missing}, unlisted {extra}, or units differ")
            print(f"{where}: {len(units)} metrics, attempted {result['attempted']}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(Path(bare), spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without src/ the benchmark must fail without a result")
        print(f"without src/: exit {proc.returncode}")

    for p in problems:
        print("PROBLEM", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
