"""Print every metric of every workload in two tables; run from the repository root.

    python3 perfbench/report.py [--seed 0] [--seconds 35]

Runs run.py once untraced and once traced per workload. The first table
holds the end-to-end metrics, error_rate included (failed calls over
attempted calls, a ratio); the second holds the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def table(title: str, results: dict[str, dict]) -> None:
    names = list(results)
    print(f"\n{title}")
    print(f"{'metric':34s}" + "".join(f"{n:>16s}" for n in names) + "  unit")
    for metric, first in next(iter(results.values()))["metrics"].items():
        cells = "".join(f"{results[n]['metrics'][metric]['value']:>16.6g}" for n in names)
        print(f"{metric:34s}{cells}  {first['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)

    end_to_end, per_layer, ok = {}, {}, True
    for name in WORKLOADS:
        result, notes = run(name, args.seed, args.seconds, 0)
        result["metrics"]["error_rate"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
        end_to_end[name] = result
        print(f"{name}: " + "; ".join(n for n in notes if n.startswith("run_s")))
        per_layer[name], _ = run(name, args.seed, args.seconds, 1)
        ok &= result["correct"] and per_layer[name]["correct"]
    table("end-to-end (untraced)", end_to_end)
    table("per-layer (traced run)", per_layer)
    print(f"\noutput and tracer checks: {'all passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
