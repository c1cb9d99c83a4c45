"""Closed-loop timing process: one client calling `qkgene.cli.main` in-process.

run.py starts this script in a fresh interpreter and passes a job file; the
script writes its measurements to the result file named in the job. Each
call writes into the same out path, which is emptied before the next call,
so every call creates its artifacts from scratch and its config hash (which
includes out.dir) stays the same. The first call on each input is kept as
that input's baseline; every later call must reproduce it byte for byte.

Untraced mode cycles through the inputs until the time is up and at least
`min_calls` calls ran. After each call it starts a fresh interpreter that
times `import qkgene.cli` (setup_s), so those samples span the run as the
call timings do. Traced mode uses the first input only: one untraced
warm-up call, then traced and untraced calls alternately, so the tracing
overhead is the difference of two medians taken side by side.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback

from check import digest_dir, dir_bytes
from qkgene import cli

IMPORT_PROBE = ("import time; t = time.perf_counter(); import qkgene.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Seconds a fresh interpreter needs to import qkgene.cli."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Loop:
    """Runs calls, checks each against its input's baseline, keeps timings."""

    def __init__(self, job: dict):
        self.job = job
        self.out_dir = job["out_dir"]
        self.baselines: dict[int, dict[str, str]] = {}
        self.calls: list[dict] = []
        self.devnull = open(os.devnull, "w")

    def close(self) -> None:
        self.devnull.close()

    def call(self, index: int, runner=None) -> dict:
        item = self.job["inputs"][index]
        shutil.rmtree(self.out_dir, ignore_errors=True)
        problem = None
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.devnull):
                rc = (runner or cli.main)(item["argv"])
        except Exception:  # a crash is one failed call, not the end of the run
            traceback.print_exc()
            rc = None
            problem = "raised"
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if rc != 0 and problem is None:
            problem = f"exit code {rc}"
        if problem is None:
            problem = self._check_determinism(index)
        record = {"input": index, "wall_s": wall, "cpu_s": cpu, "problem": problem}
        self.calls.append(record)
        if problem:
            print(f"call {len(self.calls)} on input {index}: {problem}", file=sys.stderr)
        return record

    def _check_determinism(self, index: int) -> str | None:
        digests = digest_dir(self.out_dir)
        if index not in self.baselines:
            self.baselines[index] = digests
            os.replace(self.out_dir, self.job["inputs"][index]["baseline_dir"])
            return None
        if digests != self.baselines[index]:
            changed = sorted(n for n in set(digests) | set(self.baselines[index])
                             if digests.get(n) != self.baselines[index].get(n))
            return f"artifacts differ from the first call: {changed}"
        return None


def run_untraced(loop: Loop, job: dict) -> dict:
    import_seconds()  # not counted: the first import compiles bytecode in a new checkout
    setup = []
    start = time.perf_counter()
    while True:
        loop.call(len(loop.calls) % len(job["inputs"]))
        setup.append(import_seconds())
        elapsed = time.perf_counter() - start
        if elapsed >= job["max_seconds"] or (
                elapsed >= job["seconds"] and len(loop.calls) >= job["min_calls"]):
            return {"setup_s": setup}


def run_traced(loop: Loop, job: dict) -> dict:
    from tracer import Tracer, combine

    loop.call(0)  # warm-up and determinism baseline
    tracer = Tracer()
    traced_wall, untraced_wall, untraced_cpu, per_call = [], [], [], []
    start = time.perf_counter()
    while True:
        tracer.install()
        try:
            record = loop.call(0, runner=lambda argv: tracer.trace_call(cli.main, argv))
            metrics = tracer.call_metrics()
        finally:
            tracer.uninstall()
        traced_wall.append(record["wall_s"])
        metrics["pipeline.artifact_bytes"] = (
            dir_bytes(loop.out_dir) if os.path.isdir(loop.out_dir) else 0)
        per_call.append(metrics)

        record = loop.call(0)
        untraced_wall.append(record["wall_s"])
        untraced_cpu.append(record["cpu_s"])
        elapsed = time.perf_counter() - start
        done = elapsed >= job["seconds"] and len(traced_wall) >= 2
        if done or elapsed >= job["max_seconds"]:
            break
    tracer.write(job["spans_path"])
    layers, mismatches = combine(per_call)
    return {"layers": layers, "count_mismatches": mismatches,
            "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
            "untraced_cpu_s": untraced_cpu}


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    loop = Loop(job)
    try:
        extra = (run_traced if job["trace"] else run_untraced)(loop, job)
    finally:
        loop.close()
        shutil.rmtree(loop.out_dir, ignore_errors=True)
    result = {"calls": loop.calls,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              **extra}
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
