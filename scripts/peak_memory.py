"""Peak memory of `qkgene run-all` on one benchmark workload's input.

    python3 scripts/peak_memory.py kernel_exact --seed 0 --work /tmp/peak
    python3 scripts/peak_memory.py colon_select --set pca.k=20

Writes the input CSV of the named workload in perfbench/workloads.py for one
pool data seed to <work>/input.csv, then calls `run-all` on it twice,
in-process, into a fresh <work>/out each time. Each --set KEY=VALUE is
passed to `run-all` after the workload's own settings, so it overrides
them. The first call is untraced: its wall time is printed in seconds, and
`ru_maxrss` read after it is the process's resident peak, interpreter and
imports included. The second call runs under `tracemalloc`, whose peak is
what that one call allocated at most (numpy arrays included), with every
cache the first call filled already warm. Both memory figures are printed
in MiB, all in one JSON object. Like the benchmark, the script pins BLAS
and OpenMP to one thread. It changes nothing outside <work>.
"""
import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="a workload name from perfbench/workloads.py")
    parser.add_argument("--seed", type=int, default=0, help="data seed of the input (default 0)")
    parser.add_argument("--work", default=os.path.join(tempfile.gettempdir(), "qkgene-peak"),
                        help="directory holding the input and out paths")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="a run-all setting applied after the workload's (repeatable)")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from run import THREAD_VARS
    from workloads import WORKLOADS, write_input_csv

    for var in THREAD_VARS:
        os.environ[var] = "1"  # read when numpy's BLAS loads, on the first qkgene import
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    from qkgene import cli

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    data, out = work / "input.csv", work / "out"
    write_input_csv(workload, args.seed, str(data))
    run_args = workload.cli_args(str(data), str(out), args.seed)
    for item in args.set:
        run_args += ["--set", item]

    def call() -> int:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(run_args)

    start = time.perf_counter()
    codes = [call()]
    wall_s = time.perf_counter() - start
    maxrss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    tracemalloc.start()
    try:
        codes.append(call())
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    json.dump({"workload": args.workload, "seed": args.seed, "set": args.set, "exit": codes,
               "wall_s": round(wall_s, 3), "tracemalloc_peak_mib": round(peak_mib, 2),
               "ru_maxrss_mib": round(maxrss_mib, 1)}, sys.stdout)
    sys.stdout.write("\n")
    return 1 if any(codes) else 0


if __name__ == "__main__":
    raise SystemExit(main())
