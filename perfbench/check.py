"""Output checks for one `run-all` artifact directory.

`summarize` reduces an out dir to the values the stored reference keeps;
`problems` compares a summary with the reference and lists every mismatch.
make_reference.py and run.py both go through `summarize`, so the reference
and the check read the artifacts the same way.

Tolerances. Counts (confusion cells, selected_count, the mask) must match
exactly. Kernel entries may move by ENTRY_TOL, which admits reordered
float64 sums (errors near 1e-15 per entry) but not a different kernel:
a changed map, gamma or gate moves entries by 1e-3 or more. Kernels are
compared through bilinear sketches u'Kv with fixed +-1 vectors, whose
error is at most ENTRY_TOL * rows * cols, plus the Frobenius norm, whose
error is at most ENTRY_TOL * sqrt(rows * cols). AUC may move by one
concordant pair, 1 / (n_pos * n_neg), the most a near-tie reordered by
floating-point sums can change it.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

ENTRY_TOL = 1e-9
N_SKETCHES = 8
_SKETCH_SEED = 20220223
_COMMON_ARTIFACTS = ("kernel_cross.csv", "kernel_train.csv", "metrics.json",
                     "model.csv", "pca_model.csv", "roc.csv")
_SELECTION_ARTIFACTS = ("convergence.csv", "mask.csv")
_EXACT_KEYS = ("tp", "tn", "fp", "fn", "selected_count", "n_train", "n_test", "pca_k")


def _expected_artifacts(selection: bool) -> tuple[str, ...]:
    names = _COMMON_ARTIFACTS + (_SELECTION_ARTIFACTS if selection else ())
    return tuple(sorted(names))


def digest_dir(path: str) -> dict[str, str]:
    """sha256 of every file in an out dir, keyed by file name."""
    digests = {}
    for name in sorted(os.listdir(path)):
        h = hashlib.sha256()
        with open(os.path.join(path, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        digests[name] = h.hexdigest()
    return digests


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


def _load_kernel(path: str) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    rows, cols = table[:, 0].astype(int), table[:, 1].astype(int)
    K = np.full((rows.max() + 1, cols.max() + 1), np.nan)
    K[rows, cols] = table[:, 2]
    if np.isnan(K).any():
        raise ValueError(f"{path}: kernel entries missing")
    return K


def _sketch_vectors(n_rows: int, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([_SKETCH_SEED, n_rows, n_cols])
    u = rng.integers(0, 2, size=(N_SKETCHES, n_rows)) * 2.0 - 1.0
    v = rng.integers(0, 2, size=(N_SKETCHES, n_cols)) * 2.0 - 1.0
    return u, v


def kernel_summary(K: np.ndarray) -> dict:
    u, v = _sketch_vectors(*K.shape)
    return {
        "shape": list(K.shape),
        "sum": float(K.sum()),
        "sketches": [float(x) for x in np.einsum("ai,ij,aj->a", u, K, v)],
        "frobenius": float(np.linalg.norm(K)),
    }


def _mask_hex(path: str) -> str:
    """The selected column of mask.csv as packed bits in hex."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    bits = np.array([int(bit) for _gene, bit in rows[1:]], dtype=np.uint8)
    return f"{len(bits)}:" + np.packbits(bits).tobytes().hex()


def header_problems(out_dir: str, selection: bool) -> list[str]:
    """Artifact set and config_hash stamps: metrics.json's hash on every CSV."""
    names = tuple(sorted(os.listdir(out_dir)))
    if names != _expected_artifacts(selection):
        return [f"artifacts {names} != expected {_expected_artifacts(selection)}"]
    with open(os.path.join(out_dir, "metrics.json")) as fh:
        config_hash = json.load(fh).get("config_hash")
    found = []
    for name in names:
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(out_dir, name)) as fh:
            first = fh.readline().rstrip("\n")
        if first != f"# config_hash={config_hash}":
            found.append(f"{name}: first line {first!r} lacks config_hash={config_hash}")
    return found


def summarize(out_dir: str, selection: bool) -> dict:
    with open(os.path.join(out_dir, "metrics.json")) as fh:
        payload = json.load(fh)
    summary = {key: payload[key] for key in _EXACT_KEYS}
    summary["auc"] = payload["auc"]
    summary["n_pos_test"] = payload["tp"] + payload["fn"]
    summary["n_neg_test"] = payload["tn"] + payload["fp"]
    if selection:
        summary["mask"] = _mask_hex(os.path.join(out_dir, "mask.csv"))
    for name in ("kernel_train", "kernel_cross"):
        summary[name] = kernel_summary(_load_kernel(os.path.join(out_dir, name + ".csv")))
    return summary


def _kernel_problems(name: str, got: dict, ref: dict) -> list[str]:
    if got["shape"] != ref["shape"]:
        return [f"{name}: shape {got['shape']} != reference {ref['shape']}"]
    n_entries = ref["shape"][0] * ref["shape"][1]
    linear_tol = ENTRY_TOL * n_entries
    found = []
    pairs = [("sum", got["sum"], ref["sum"], linear_tol),
             ("frobenius", got["frobenius"], ref["frobenius"],
              ENTRY_TOL * math.sqrt(n_entries))]
    pairs += [(f"sketch[{a}]", g, r, linear_tol)
              for a, (g, r) in enumerate(zip(got["sketches"], ref["sketches"]))]
    for label, g, r, tol in pairs:
        if not abs(g - r) <= tol:
            found.append(f"{name}.{label}: {g!r} differs from reference {r!r} "
                         f"by more than {tol:.3g}")
    return found


def problems(summary: dict, ref: dict) -> list[str]:
    found = [f"{key}: {summary[key]!r} != reference {ref[key]!r}"
             for key in _EXACT_KEYS if summary[key] != ref[key]]
    if summary.get("mask") != ref.get("mask"):
        found.append("mask.csv: selected genes differ from reference")
    auc_tol = 1.0 / (ref["n_pos_test"] * ref["n_neg_test"]) + 1e-12
    if not abs(summary["auc"] - ref["auc"]) <= auc_tol:
        found.append(f"auc: {summary['auc']!r} vs reference {ref['auc']!r} "
                     f"(tolerance {auc_tol:.3g})")
    for name in ("kernel_train", "kernel_cross"):
        found += _kernel_problems(name, summary[name], ref[name])
    return found
