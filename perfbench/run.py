"""End-to-end benchmark of `qkgene run-all`; run it from the repository root.

    python3 perfbench/run.py --workload colon_select --seed 0 --seconds 35 --trace 0

One run: generate the workload's input CSVs from the seed, then start
worker.py in a fresh process, which calls `qkgene.cli.main(["run-all", ...])`
in a closed loop from one client and, between calls, times fresh
interpreters importing `qkgene.cli` (setup_s). Afterwards every input's
first output is checked against the stored reference (check.py). With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it reports
the per-layer metrics of a traced run (tracer.py) and checks the tracer's
counts.

Human-readable lines come first; the last line of stdout is the JSON result.
Exits non-zero without a result when the program cannot be run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.getcwd()
SRC = os.path.join(REPO, "src")

TAIL_MARGIN = 10
MIN_CALLS = TAIL_MARGIN + 1  # the tail always has TAIL_MARGIN calls beyond it
MAX_LOOP_S = 120  # the worker's loop stops once it has run this long
WORKER_TIMEOUT_S = 160  # whole run stays under 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

PER_LAYER_UNITS = {
    "data_io.load_csv_s": "s",
    "data_io.input_bytes": "B",
    "optimizer.run_bhho_s": "s",
    "optimizer.fitness_evals": "count",
    "optimizer.fitness_s": "s",
    "optimizer.fitness_unique_ratio": "ratio",
    "sampling.smote_s": "s",
    "sampling.synthetic_rows": "count",
    "reduction.pca_fit_s": "s",
    "reduction.pca_transform_s": "s",
    "quantum.kernel_train_s": "s",
    "quantum.kernel_cross_s": "s",
    "quantum.circuits": "count",
    "quantum.gates": "count",
    "quantum.circuit_us": "us",
    "quantum.amp_bytes": "B",
    "quantum.unique_state_ratio": "ratio",
    "classifier.smo_s": "s",
    "classifier.support_vectors": "count",
    "classifier.rbf_s": "s",
    "classifier.psd_clip_s": "s",
    "classifier.predict_s": "s",
    "metrics.evaluate_s": "s",
    "pipeline.write_s": "s",
    "pipeline.artifact_bytes": "B",
    "pipeline.glue_s": "s",
    "process.cpu_s": "s",
    "trace.traced_run_s.p50": "s",
    "trace.untraced_run_s.p50": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    """One BLAS/OpenMP thread: a single-threaded baseline that stays steady on
    a shared machine and never asks for more threads than there are cores.
    Bytecode caching stays on, as for an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def environment(env: dict[str, str]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {var: env.get(var) for var in THREAD_VARS},
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic that still has
    TAIL_MARGIN samples above it; the maximum when there are too few."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_MARGIN if len(ordered) > TAIL_MARGIN else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def circuits_expected(workload, n_train: int, n_test: int) -> int:
    if workload.setting("qk.map") == "rbf":
        return 0
    if workload.setting("qk.mode") == "exact":
        return 2 * n_train + n_test
    return n_train * (n_train + 1) // 2 + n_test * n_train


def tracer_problems(workload, layers: dict, mismatches: list[str], summary: dict) -> list[str]:
    found = [f"{key} differs between traced calls on one input" for key in mismatches]
    want = circuits_expected(workload, summary["n_train"], summary["n_test"])
    if layers["quantum.circuits"] != want:
        found.append(f"quantum.circuits {layers['quantum.circuits']} != expected {want}")
    if (layers["optimizer.fitness_evals"] > 0) != workload.selection:
        found.append(f"optimizer.fitness_evals {layers['optimizer.fitness_evals']} "
                     f"does not match selection={workload.selection}")
    return found


def run_worker(job_path: str, env: dict[str, str]) -> int:
    """Run worker.py in its own process group; on timeout kill the group
    (the worker and any import probe it started) and wait for it."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                            env=env, cwd=REPO, start_new_session=True)
    try:
        return proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"worker killed after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return -signal.SIGKILL


def check_outputs(workload, seeds, inputs, reference) -> dict[int, list[str]]:
    """Problems per input, found in its first call's artifacts (every later
    call on that input already matched them byte for byte)."""
    from check import header_problems, problems, summarize

    failing = {}
    for j, (seed, item) in enumerate(zip(seeds, inputs)):
        if not os.path.isdir(item["baseline_dir"]):
            failing[j] = ["no successful call"]
            continue
        try:
            found = header_problems(item["baseline_dir"], workload.selection)
            if not found:
                item["summary"] = summarize(item["baseline_dir"], workload.selection)
                ref = reference.get(str(seed))
                found = (problems(item["summary"], ref) if ref is not None
                         else [f"no stored reference for data seed {seed}"])
        except (OSError, KeyError, ValueError) as exc:
            found = [f"unreadable artifacts: {exc!r}"]
        if found:
            failing[j] = found
    return failing


def end_to_end_metrics(result: dict) -> tuple[dict, list[str]]:
    walls = [c["wall_s"] for c in result["calls"]]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "run_s.p50": {"value": statistics.median(walls), "unit": "s"},
        "run_s.tail": {"value": tail_value, "unit": "s"},
        "setup_s": {"value": statistics.median(result["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
    }
    notes = [f"run_s: {len(walls)} calls; run_s.tail is percentile {tail_pct:.1f}",
             f"setup_s: median of {len(result['setup_s'])} fresh interpreters"]
    return metrics, notes


def per_layer_metrics(workload, result: dict, item: dict) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics of a traced run, its notes and tracer self-check problems."""
    layers = dict(result["layers"])
    found = []
    if "summary" in item:
        found = tracer_problems(workload, layers, result["count_mismatches"],
                                item["summary"])
    traced_p50 = statistics.median(result["traced_wall_s"])
    untraced_p50 = statistics.median(result["untraced_wall_s"])
    layers.update({
        "data_io.input_bytes": item["csv_bytes"],
        "process.cpu_s": statistics.median(result["untraced_cpu_s"]),
        "trace.traced_run_s.p50": traced_p50,
        "trace.untraced_run_s.p50": untraced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
    })
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    notes = [f"traced calls: {len(result['traced_wall_s'])}, untraced: "
             f"{len(result['untraced_wall_s'])} (plus one warm-up); times are medians "
             "over the traced calls",
             "quantum.amp_bytes is computed as gates x 2^n x 16 B x 2, not measured"]
    return metrics, notes, found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qkgene", "cli.py")):
        print(f"no qkgene sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS, data_seeds, write_input_csv

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference", f"{workload.name}.json")) as fh:
        reference = json.load(fh)["seeds"]

    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    results_dir = os.path.join(HERE, ".work", "results")
    work = os.path.join(HERE, ".work", f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results_dir, exist_ok=True)
    try:
        seeds = data_seeds(args.seed)[: 1 if args.trace else None]
        inputs = []
        for j, seed in enumerate(seeds):
            csv_path = os.path.join(work, f"input{j}.csv")
            write_input_csv(workload, seed, csv_path)
            inputs.append({"argv": workload.cli_args(csv_path, os.path.join(work, "out"), seed),
                           "baseline_dir": os.path.join(work, f"baseline{j}"),
                           "csv_bytes": os.path.getsize(csv_path)})

        env = child_env()
        env_record = environment(env)

        job = {"inputs": inputs, "out_dir": os.path.join(work, "out"),
               "seconds": args.seconds, "min_calls": MIN_CALLS,
               "max_seconds": MAX_LOOP_S, "trace": args.trace,
               "result_path": os.path.join(work, "result.json"),
               "spans_path": os.path.join(results_dir, f"{tag}.spans.jsonl")}
        job_path = os.path.join(work, "job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        returncode = run_worker(job_path, env)
        if returncode != 0:
            print(f"worker exited with code {returncode}", file=sys.stderr)
            return 1
        with open(job["result_path"]) as fh:
            result = json.load(fh)

        failing = check_outputs(workload, seeds, inputs, reference)
        calls = result["calls"]
        failed = sum(1 for c in calls if c["problem"] or c["input"] in failing)
        check_problems = [f"input {j} (data seed {seeds[j]}): {p}"
                          for j, found in failing.items() for p in found]
        if args.trace:
            metrics, notes, found = per_layer_metrics(workload, result, inputs[0])
            check_problems += found
            notes.insert(0, f"data seed {seeds[0]}")
        else:
            metrics, notes = end_to_end_metrics(result)
            notes += [f"data seeds {seeds}",
                      f"error_rate = {failed}/{len(calls)} = {failed / len(calls):.4f} ratio"]

        correct = not check_problems and failed == 0
        record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                  "environment": env_record, "setup_s": result.get("setup_s"),
                  "calls": calls, "metrics": metrics, "problems": check_problems}
        with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for p in check_problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0



if __name__ == "__main__":
    sys.exit(main())
