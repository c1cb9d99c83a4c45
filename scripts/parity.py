"""Artifact hashes of `qkgene run-all` over every pool seed of benchmark workloads.

    python3 scripts/parity.py colon_select kernel_exact --work /tmp/parity > parity.json

For each named workload in perfbench/workloads.py and each of its POOL_SIZE
data seeds, the script writes that seed's input CSV to <work>/input.csv,
runs `run-all` in-process into a fresh <work>/out and records the exit code
and the sha256 of every artifact. The config hash written into every
artifact includes both paths, so run both commits with the same --work.
The JSON on stdout is keyed workload -> seed: two commits produce
byte-identical artifacts exactly when `diff` finds no difference between
their outputs. Like the benchmark, the script pins BLAS and OpenMP to one
thread.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_hashes(workload, seed: int, work: Path) -> dict:
    from qkgene import cli
    from workloads import write_input_csv

    data = work / "input.csv"
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    write_input_csv(workload, seed, str(data))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(workload.cli_args(str(data), str(out), seed))
    files = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"exit": code, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", metavar="WORKLOAD")
    parser.add_argument("--work", default=os.path.join(tempfile.gettempdir(), "qkgene-parity"),
                        help="directory holding the fixed input and out paths")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from run import THREAD_VARS
    from workloads import POOL_SIZE, WORKLOADS

    for var in THREAD_VARS:
        os.environ[var] = "1"  # read when numpy's BLAS loads, on the first qkgene import

    unknown = [name for name in args.workloads if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    result = {
        name: {str(seed): seed_hashes(WORKLOADS[name], seed, work) for seed in range(POOL_SIZE)}
        for name in args.workloads
    }
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    failed = sum(entry["exit"] != 0 for runs in result.values() for entry in runs.values())
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
