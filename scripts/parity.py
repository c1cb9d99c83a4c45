"""Artifact hashes of `qkgene run-all` over every pool seed of benchmark workloads.

    python3 scripts/parity.py colon_select kernel_exact --work /tmp/parity > parity.json

For each named workload in perfbench/workloads.py (all of them when none is
named) and each of its POOL_SIZE data seeds, the script writes that seed's
input CSV to <work>/input.csv, runs `run-all` in-process into a fresh
<work>/out and records the exit code and the sha256 of every artifact.
The config hash written into every artifact includes both paths, so run
both commits with the same --work.
The JSON on stdout is keyed workload -> seed: two commits produce
byte-identical artifacts exactly when `diff` finds no difference between
their outputs. Like the benchmark, the script pins BLAS and OpenMP to one
thread.

    python3 scripts/parity.py --work /tmp/parity --against parity.json

With --against OLD.json the script hashes the named workloads as above and
compares them with OLD.json, the stdout of an earlier run (made with the
same --work): it prints one line per differing (workload, seed, artifact),
an exit code that changed counting as the artifact `exit`, then an
identical-seed count per workload, and exits 1 on any difference.

    python3 scripts/parity.py --check kernel_exact colon_select

With --check the script instead compares each seed's artifacts with the
stored reference, perfbench/reference/<workload>.json, through perfbench's
check.py (artifact set, config_hash stamps, exact counts and mask, kernels
and AUC within their tolerances). It reads the references and changes
nothing, prints one line per failing seed and a pass count per workload,
and exits 1 if any seed fails. Use it when outputs may move within
tolerance, so that equal hashes cannot show a change correct.
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


def run_seed(workload, seed: int, work: Path) -> tuple[int, Path]:
    """Exit code of `run-all` on the seed's input, and its out dir."""
    from qkgene import cli
    from workloads import write_input_csv

    data = work / "input.csv"
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    write_input_csv(workload, seed, str(data))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(workload.cli_args(str(data), str(out), seed))
    return code, out


def seed_hashes(workload, seed: int, work: Path) -> dict:
    code, out = run_seed(workload, seed, work)
    files = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"exit": code, "files": files}


def seed_problems(workload, seed: int, work: Path, reference: dict) -> list[str]:
    from check import header_problems, problems, summarize

    code, out = run_seed(workload, seed, work)
    if code != 0:
        return [f"run-all exited with {code}"]
    if str(seed) not in reference:
        return ["no stored reference"]
    return (header_problems(str(out), workload.selection)
            or problems(summarize(str(out), workload.selection), reference[str(seed)]))


def check(names, work: Path) -> int:
    from workloads import POOL_SIZE, WORKLOADS

    failed = 0
    for name in names:
        with open(ROOT / "perfbench" / "reference" / f"{name}.json") as fh:
            reference = json.load(fh)["seeds"]
        passed = 0
        for seed in range(POOL_SIZE):
            found = seed_problems(WORKLOADS[name], seed, work, reference)
            for problem in found:
                print(f"{name} seed {seed}: {problem}")
            passed += not found
        print(f"{name}: {passed}/{POOL_SIZE} seeds match the reference")
        failed += POOL_SIZE - passed
    return 1 if failed else 0


def differences(result: dict, old: dict) -> list[tuple[str, str, str]]:
    """(workload, seed, artifact) for every artifact whose hash differs between
    result and old, or that only one of them has; `exit` for a changed exit code."""
    found = []
    for name, runs in result.items():
        for seed, entry in runs.items():
            before = old.get(name, {}).get(seed, {"exit": None, "files": {}})
            if entry["exit"] != before["exit"]:
                found.append((name, seed, "exit"))
            for artifact in sorted(entry["files"].keys() | before["files"].keys()):
                if entry["files"].get(artifact) != before["files"].get(artifact):
                    found.append((name, seed, artifact))
    return found


def against(result: dict, old_path: str) -> int:
    with open(old_path) as fh:
        old = json.load(fh)
    found = differences(result, old)
    for name, seed, artifact in found:
        print(f"{name} seed {seed}: {artifact} differs")
    for name, runs in result.items():
        differing = {seed for workload, seed, _ in found if workload == name}
        print(f"{name}: {len(runs) - len(differing)}/{len(runs)} seeds identical to {old_path}")
    return 1 if found else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="workloads to run (default: all of them)")
    parser.add_argument("--work", default=os.path.join(tempfile.gettempdir(), "qkgene-parity"),
                        help="directory holding the fixed input and out paths")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="check every seed against perfbench/reference instead of hashing")
    mode.add_argument("--against", metavar="OLD.json",
                      help="compare the hashes with an earlier run's output instead of printing")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from run import THREAD_VARS
    from workloads import POOL_SIZE, WORKLOADS

    for var in THREAD_VARS:
        os.environ[var] = "1"  # read when numpy's BLAS loads, on the first qkgene import

    args.workloads = args.workloads or list(WORKLOADS)
    unknown = [name for name in args.workloads if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    if args.check:
        return check(args.workloads, work)
    result = {
        name: {str(seed): seed_hashes(WORKLOADS[name], seed, work) for seed in range(POOL_SIZE)}
        for name in args.workloads
    }
    if args.against:
        return against(result, args.against)
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    failed = sum(entry["exit"] != 0 for runs in result.values() for entry in runs.values())
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
