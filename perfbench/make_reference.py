"""Regenerate reference/<workload>.json, the outputs the benchmark checks.

Run from the repository root, at a commit whose outputs are known good:

    python3 perfbench/make_reference.py [workload ...]

For every data seed in the pool, the workload's input is generated, one
`run-all` call runs in this process, and check.summarize reduces its out
dir to the reference entry for that seed.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # the thread count run.py gives the program
sys.path[:0] = [SRC, HERE]

from check import ENTRY_TOL, header_problems, summarize  # noqa: E402
from qkgene import cli  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS, write_input_csv  # noqa: E402


def main(names: list[str]) -> int:
    work = os.path.join(HERE, ".work", "reference")
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        seeds = {}
        for seed in range(POOL_SIZE):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            csv_path = os.path.join(work, "input.csv")
            out_dir = os.path.join(work, "out")
            write_input_csv(workload, seed, csv_path)
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                rc = cli.main(workload.cli_args(csv_path, out_dir, seed))
            if rc != 0:
                raise SystemExit(f"{name} seed {seed}: run-all exited with {rc}")
            found = header_problems(out_dir, workload.selection)
            if found:
                raise SystemExit(f"{name} seed {seed}: {found}")
            seeds[str(seed)] = summarize(out_dir, workload.selection)
            print(f"{name} seed {seed}: ok", file=sys.stderr)
        with open(os.path.join(HERE, "reference", f"{name}.json"), "w") as fh:
            json.dump({"workload": name, "entry_tol": ENTRY_TOL, "seeds": seeds}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
