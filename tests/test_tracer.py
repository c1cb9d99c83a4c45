"""perfbench/tracer.py driven in-process: the counts of a traced run-all.

The tracer wraps qkgene's module attributes by name and counts each
`quantum.run_circuit` call and the gates of its map, so the module is
imported read-only from perfbench/ and run as the benchmark runs it.
"""
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qkgene import classifier, cli, metrics, optimizer, pipeline, quantum, reduction
from qkgene.quantum import FeatureMapSpec
from qkgene.synth import planted_dataset

from oracles import build_feature_map_gatewise

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PATCHED_MODULES = (classifier, metrics, optimizer, pipeline, quantum, reduction)


def load_tracer():
    """perfbench/tracer.py as a module, leaving no bytecode under perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    ds = planted_dataset(40, 30, 4, shift=3.0, seed=5)
    path = tmp_path_factory.mktemp("tracer") / "data.csv"
    with open(path, "w") as fh:
        fh.write(",".join(ds.gene_names + ["label"]) + "\n")
        for row, label in zip(ds.features, ds.labels):
            fh.write(",".join([repr(float(v)) for v in row] + [str(int(label))]) + "\n")
    return str(path)


@pytest.mark.parametrize("selection", [True, False])
def test_traced_run_counts_one_circuit_per_embedded_row(tmp_path, csv_path, selection):
    """One traced run-all with gene selection at pca.k=3 and one with
    --no-selection: the tracer counts 2·n_train + n_test circuits, as many
    gates as the oracle's gate lists of those rows hold, and fitness
    evaluations exactly when selection runs. Uninstalling it restores every
    attribute it patched."""
    tracer_module = load_tracer()
    before = [dict(vars(module)) for module in PATCHED_MODULES]
    original_run = quantum.run_circuit
    argv = ["run-all", "--data", csv_path, "--out", str(tmp_path / "out"), "--seed", "3",
            "--set", "pca.k=3", "--set", "hho.n=4", "--set", "hho.t=3"]
    argv += [] if selection else ["--no-selection"]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert quantum.run_circuit is not original_run
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.trace_call(cli.main, argv)
        layers = tracer.call_metrics()
    finally:
        tracer.uninstall()
    assert code == 0
    for module, attrs in zip(PATCHED_MODULES, before):
        assert vars(module).keys() == attrs.keys(), module.__name__
        changed = [name for name, value in attrs.items() if vars(module)[name] is not value]
        assert not changed, (module.__name__, changed)

    summary = json.loads((tmp_path / "out" / "metrics.json").read_text())
    rows = 2 * summary["n_train"] + summary["n_test"]
    spec = FeatureMapSpec(summary["pca_k"], "zz", reps=3)
    assert summary["pca_k"] == 3
    assert layers["quantum.circuits"] == rows
    assert layers["quantum.gates"] == rows * len(build_feature_map_gatewise(spec, np.zeros(3)))
    assert (layers["optimizer.fitness_evals"] > 0) == selection
