"""scripts/peak_memory.py: its --set overrides and the JSON it prints."""
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "peak_memory.py"


def test_set_overrides_the_workload_and_wall_time_is_printed(tmp_path):
    """colon_select sets pca.k=4; a later --set wins, and hho.t=2 keeps the
    two calls short."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "colon_select", "--seed", "1", "--work", str(tmp_path),
         "--set", "pca.k=3", "--set", "hho.t=2"],
        capture_output=True, text=True, check=True, timeout=300)
    report = json.loads(proc.stdout)
    assert report["set"] == ["pca.k=3", "hho.t=2"]
    assert report["exit"] == [0, 0]
    assert report["wall_s"] > 0 and report["tracemalloc_peak_mib"] > 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["pca_k"] == 3


def test_calls_cycle_the_run_seeds_inputs_and_report_rss_after_each(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "kernel_exact", "--seed", "1", "--work", str(tmp_path),
         "--calls", "5", "--set", "pca.k=4"],
        capture_output=True, text=True, check=True, timeout=300)
    report = json.loads(proc.stdout)
    assert report["data_seeds"] == [4, 5, 6, 7]
    assert report["exit"] == [0] * 5
    rss = report["ru_maxrss_mib"]
    assert len(rss) == 5 and rss == sorted(rss) and rss[0] > 0
    assert sorted(p.name for p in tmp_path.glob("input*.csv")) == [
        f"input{j}.csv" for j in range(4)]
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["pca_k"] == 4


def test_calls_must_be_positive(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "kernel_exact", "--work", str(tmp_path), "--calls", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "--calls must be at least 1" in proc.stderr
