"""Span tracer that wraps qkgene's layer entry points from outside the package.

`install` replaces the module attributes that the pipeline resolves at call
time (`pipeline.load_csv`, `quantum.run_circuit`, ...) with timing wrappers
and `uninstall` puts the originals back, so nothing under src/ changes.
Spans (call, id, parent, name, start, end) stay in memory until `write`.
A span's self time is its duration minus the part of it its children cover.

Counts are taken at the same boundaries: circuits and gates at
`quantum.run_circuit`, embedded rows at `quantum.build_feature_map`, scored
masks at the closure `optimizer.make_fitness` returns, synthetic rows and
support vectors from the results of the oversampler and the SVM trainer.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
from qkgene import classifier, metrics, optimizer, pipeline, quantum, reduction

ROOT = "cli.main"

# (module, attribute, span name) for plain timing wrappers
_TIMED = (
    (pipeline, "load_csv", "data_io.load_csv"),
    (pipeline, "run_bhho", "optimizer.run_bhho"),
    (pipeline, "smote_oversample", "sampling.smote_oversample"),
    (reduction, "pca_fit", "reduction.pca_fit"),
    (reduction, "pca_transform", "reduction.pca_transform"),
    (reduction, "save_pca_model", "reduction.save_pca_model"),
    (quantum, "kernel_matrix", "quantum.kernel_matrix"),
    (quantum, "cross_kernel_matrix", "quantum.cross_kernel_matrix"),
    (quantum, "run_circuit", "quantum.run_circuit"),
    (classifier, "smo_train", "classifier.smo_train"),
    (classifier, "rbf_kernel_matrix", "classifier.rbf_kernel_matrix"),
    (classifier, "clip_kernel_psd", "classifier.clip_kernel_psd"),
    (classifier, "decision_function", "classifier.decision_function"),
    (classifier, "predict", "classifier.predict"),
    (metrics, "confusion", "metrics.confusion"),
    (metrics, "scores_from_confusion", "metrics.scores_from_confusion"),
    (metrics, "roc_auc", "metrics.roc_auc"),
    (pipeline, "_write_csv", "pipeline._write_csv"),
    (pipeline, "_write_metrics", "pipeline._write_metrics"),
)

# per-layer time metric -> the spans it sums (outermost ones only)
TIME_METRICS = {
    "data_io.load_csv_s": ("data_io.load_csv",),
    "optimizer.run_bhho_s": ("optimizer.run_bhho",),
    "optimizer.fitness_s": ("optimizer.fitness",),
    "sampling.smote_s": ("sampling.smote_oversample",),
    "reduction.pca_fit_s": ("reduction.pca_fit",),
    "reduction.pca_transform_s": ("reduction.pca_transform",),
    "quantum.kernel_train_s": ("quantum.kernel_matrix",),
    "quantum.kernel_cross_s": ("quantum.cross_kernel_matrix",),
    "classifier.smo_s": ("classifier.smo_train",),
    "classifier.rbf_s": ("classifier.rbf_kernel_matrix",),
    "classifier.psd_clip_s": ("classifier.clip_kernel_psd",),
    "classifier.predict_s": ("classifier.decision_function", "classifier.predict"),
    "metrics.evaluate_s": ("metrics.confusion", "metrics.scores_from_confusion",
                           "metrics.roc_auc"),
    "pipeline.write_s": ("pipeline._write_csv", "pipeline._write_metrics",
                         "reduction.save_pca_model"),
}

# counts that must repeat exactly between two traced calls on one input
EXACT_COUNTS = (
    "optimizer.fitness_evals", "optimizer.fitness_unique_ratio",
    "sampling.synthetic_rows", "quantum.circuits", "quantum.gates",
    "quantum.amp_bytes", "quantum.unique_state_ratio",
    "classifier.support_vectors", "pipeline.artifact_bytes",
)

_AMP_BYTES = 16  # one complex128 amplitude


@dataclass(frozen=True)
class Span:
    call: int
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _covered_ns(children: list[Span]) -> int:
    """Length of the union of the children's intervals."""
    total = 0
    reach = None
    for child in sorted(children, key=lambda s: s.start_ns):
        start = child.start_ns if reach is None else max(child.start_ns, reach)
        if child.end_ns > start:
            total += child.end_ns - start
        reach = child.end_ns if reach is None else max(reach, child.end_ns)
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {s.id: s.duration_ns - _covered_ns(children.get(s.id, [])) for s in spans}


class Tracer:
    """Owns the wrappers, the spans of every traced call and per-call counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []
        self.call = -1
        self.counts: Counter = Counter()
        self._masks: set[bytes] = set()
        self._rows: set[bytes] = set()

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(Span(self.call, span_id, parent, name, start, end))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _patch(self, module, attr: str, replacement) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _count_circuit(self, args, kwargs, _result) -> None:
        gates = _arg(args, kwargs, 0, "gates")
        n_qubits = _arg(args, kwargs, 1, "n_qubits")
        self.counts["quantum.circuits"] += 1
        self.counts["quantum.gates"] += len(gates)
        # each gate reads and writes every amplitude once
        self.counts["quantum.amp_bytes"] += len(gates) * (1 << n_qubits) * _AMP_BYTES * 2

    def _count_smote(self, args, kwargs, result) -> None:
        self.counts["sampling.synthetic_rows"] += (
            result.n_samples - _arg(args, kwargs, 0, "ds").n_samples)

    def _count_svm(self, _args, _kwargs, result) -> None:
        self.counts["classifier.support_vectors"] += len(result.support_indices)

    def _count_mask(self, args, kwargs, _result) -> None:
        self.counts["optimizer.fitness_evals"] += 1
        self._masks.add(np.asarray(_arg(args, kwargs, 0, "bits")).tobytes())

    def install(self) -> None:
        hooks = {"quantum.run_circuit": self._count_circuit,
                 "sampling.smote_oversample": self._count_smote,
                 "classifier.smo_train": self._count_svm}
        for module, attr, name in _TIMED:
            self._patch(module, attr,
                        self._wrap(name, getattr(module, attr), hooks.get(name)))

        make_fitness = optimizer.make_fitness

        def traced_make_fitness(*args, **kwargs):
            return self._wrap("optimizer.fitness", make_fitness(*args, **kwargs),
                              self._count_mask)

        self._patch(optimizer, "make_fitness", traced_make_fitness)

        build_feature_map = quantum.build_feature_map

        def traced_build_feature_map(spec, x):
            self._rows.add(np.asarray(x, dtype=np.float64).tobytes())
            return build_feature_map(spec, x)

        self._patch(quantum, "build_feature_map", traced_build_feature_map)

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- one traced call ----------------------------------------------------
    def trace_call(self, fn, *args):
        """Run fn(*args) as the root span of a new call and return its result."""
        self.call += 1
        self.counts = Counter()
        self._masks = set()
        self._rows = set()
        return self._wrap(ROOT, fn)(*args)

    def call_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the most recent call, in seconds and counts."""
        spans = [s for s in self.spans if s.call == self.call]
        by_id = {s.id: s for s in spans}
        out: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            total = sum(s.duration_ns for s in spans if s.name in names
                        and (s.parent is None or by_id[s.parent].name not in names))
            out[metric] = total / 1e9
        root = next(s for s in spans if s.name == ROOT)
        out["pipeline.glue_s"] = self_times_ns(spans)[root.id] / 1e9

        counts = self.counts
        for key in ("optimizer.fitness_evals", "sampling.synthetic_rows",
                    "quantum.circuits", "quantum.gates", "quantum.amp_bytes",
                    "classifier.support_vectors"):
            out[key] = counts[key]
        circuits = counts["quantum.circuits"]
        evals = counts["optimizer.fitness_evals"]
        out["optimizer.fitness_unique_ratio"] = len(self._masks) / evals if evals else 0.0
        out["quantum.unique_state_ratio"] = len(self._rows) / circuits if circuits else 0.0
        circuit_ns = sum(s.duration_ns for s in spans if s.name == "quantum.run_circuit")
        out["quantum.circuit_us"] = circuit_ns / circuits / 1e3 if circuits else 0.0
        return out

    def write(self, path: str) -> None:
        """Dump every span, with its self time, as one JSON object per line."""
        self_ns = self_times_ns(self.spans)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: (s.call, s.start_ns)):
                fh.write(json.dumps({"call": s.call, "id": s.id, "parent": s.parent,
                                     "name": s.name, "start_ns": s.start_ns,
                                     "end_ns": s.end_ns, "self_ns": self_ns[s.id]}))
                fh.write("\n")


def combine(per_call: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time over traced calls, and the counts of the first
    call with the names of those that differ in a later one."""
    combined = {key: statistics.median(c[key] for c in per_call) for key in per_call[0]}
    combined.update({key: per_call[0][key] for key in EXACT_COUNTS})
    mismatches = [key for key in EXACT_COUNTS
                  if any(c[key] != per_call[0][key] for c in per_call[1:])]
    return combined, mismatches
