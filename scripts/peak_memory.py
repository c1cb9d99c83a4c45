"""Peak memory of `qkgene run-all` on one benchmark workload's input.

    python3 scripts/peak_memory.py kernel_exact --seed 0 --work /tmp/peak
    python3 scripts/peak_memory.py colon_select --set pca.k=20
    python3 scripts/peak_memory.py kernel_exact --seed 3 --calls 40

Writes the input CSV of the named workload in perfbench/workloads.py for one
pool data seed to <work>/input.csv, then calls `run-all` on it twice,
in-process, into a fresh <work>/out each time. Each --set KEY=VALUE is
passed to `run-all` after the workload's own settings, so it overrides
them. The first call is untraced: its wall time is printed in seconds, and
`ru_maxrss` read after it is the process's resident peak, interpreter and
imports included. The second call runs under `tracemalloc`, whose peak is
what that one call allocated at most (numpy arrays included), with every
cache the first call filled already warm. Both memory figures are printed
in MiB, all in one JSON object.

With --calls N it instead repeats what a benchmark run's worker does:
N untraced calls that cycle through the four pool inputs of run seed
--seed (written to <work>/input<j>.csv), each into an emptied <work>/out
that is hashed after the call (perfbench/check.py's digest_dir), and
prints `ru_maxrss` in MiB after every call. Resident-size drift that only
shows over repeated calls with those reads in between shows here.

Like the benchmark, the script pins BLAS and OpenMP to one thread. It
changes nothing outside <work>.
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
    parser.add_argument("--seed", type=int, default=0,
                        help="data seed of the input, or with --calls the run seed (default 0)")
    parser.add_argument("--work", default=os.path.join(tempfile.gettempdir(), "qkgene-peak"),
                        help="directory holding the input and out paths")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="a run-all setting applied after the workload's (repeatable)")
    parser.add_argument("--calls", type=int, metavar="N",
                        help="make N untraced calls as a benchmark worker does (N >= 1)")
    args = parser.parse_args(argv)
    if args.calls is not None and args.calls < 1:
        parser.error("--calls must be at least 1")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from run import THREAD_VARS
    from workloads import WORKLOADS, data_seeds, write_input_csv

    for var in THREAD_VARS:
        os.environ[var] = "1"  # read when numpy's BLAS loads, on the first qkgene import
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    from qkgene import cli

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    seeds = data_seeds(args.seed) if args.calls else [args.seed]
    runs = []
    for j, seed in enumerate(seeds):
        data = work / (f"input{j}.csv" if args.calls else "input.csv")
        write_input_csv(workload, seed, str(data))
        run_args = workload.cli_args(str(data), str(out), seed)
        for item in args.set:
            run_args += ["--set", item]
        runs.append(run_args)

    def call(run_args) -> int:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(run_args)

    def maxrss_mib() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    report = {"workload": args.workload, "seed": args.seed, "set": args.set}
    if args.calls:
        from check import digest_dir

        codes, rss = [], []
        for i in range(args.calls):
            codes.append(call(runs[i % len(runs)]))
            digest_dir(str(out))
            rss.append(round(maxrss_mib(), 1))
        report.update({"data_seeds": seeds, "exit": codes, "ru_maxrss_mib": rss})
    else:
        start = time.perf_counter()
        codes = [call(runs[0])]
        wall_s = time.perf_counter() - start
        rss = maxrss_mib()
        tracemalloc.start()
        try:
            codes.append(call(runs[0]))
            peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        report.update({"exit": codes, "wall_s": round(wall_s, 3),
                       "tracemalloc_peak_mib": round(peak_mib, 2),
                       "ru_maxrss_mib": round(rss, 1)})
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 1 if any(codes) else 0


if __name__ == "__main__":
    raise SystemExit(main())
