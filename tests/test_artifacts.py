"""Artifact bytes and out-dir consistency.

The writers must reproduce, byte for byte, what csv.writer with repr-rendered
floats produced (tests/oracles.py keeps that rendering as the reference), and
a run must never leave a temp file, a stale selection artifact or a
metrics.json from an unfinished run in its out dir.
"""
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import csv_artifact_text, kernel_rows, pca_model_rows
from qkgene import pipeline
from qkgene.classifier import SvmModel
from qkgene.data_io import table_lines, write_csv
from qkgene.pipeline import PipelineConfig, config_hash, run_full
from qkgene.reduction import pca_fit, save_pca_model
from qkgene.synth import blobs_dataset, planted_dataset

HASH = "0123456789abcdef"
EDGE_VALUES = [0.0, -0.0, 1.0, 5e-324, 1e-300, 0.1 + 0.2, 1 / 3]
AWKWARD_NAMES = ["plain", "has,comma", 'has"quote', "has\nnewline", "cr\rlf\r\n",
                 '",\n"', " padded ", ""]


def read_text(path) -> str:
    with open(path, newline="") as fh:
        return fh.read()


def cfg_for(tmp_path, **overrides) -> PipelineConfig:
    base = dict(pca_k=2, seed=11, scale_hi=0.5, out_dir=str(tmp_path / "out"))
    base.update(overrides)
    return PipelineConfig(**base)


class TestByteFormat:
    @pytest.mark.parametrize("matrix", [np.array([[v]]) for v in EDGE_VALUES]
                             + [np.array([EDGE_VALUES]), np.array([EDGE_VALUES]).T,
                                np.random.default_rng(3).normal(size=(5, 9)) ** 3,
                                np.zeros((2, 0))])
    def test_kernel(self, tmp_path, matrix):
        pipeline._write_kernel(cfg_for(tmp_path), HASH, "kernel.csv", matrix)
        assert read_text(tmp_path / "out" / "kernel.csv") == csv_artifact_text(
            [f"config_hash={HASH}"], ["row", "col", "value"], kernel_rows(matrix))

    def test_model_and_roc(self, tmp_path):
        model = SvmModel(alphas=np.array([0.0, 1.0, 0.25, 1 / 3]), bias=-0.1 - 0.2,
                         support_indices=np.array([1, 2, 3]),
                         train_labels=np.array([1, -1, 1, -1]), c=1.0,
                         kkt_violation=5e-324)
        curve = [(float("inf"), 0.0, 0.0), (0.5, 1 / 3, 0.5), (-0.0, 1.0, 1.0)]
        cfg = cfg_for(tmp_path)
        pipeline._write_model(cfg, HASH, model)
        pipeline._write_roc(cfg, HASH, curve)
        support = [0, 1, 1, 1]
        rows = [(i, float(a), int(y), s) for i, (a, y, s)
                in enumerate(zip(model.alphas, model.train_labels, support))]
        assert read_text(tmp_path / "out" / "model.csv") == csv_artifact_text(
            [f"config_hash={HASH}", "c=1.0", f"bias={-0.1 - 0.2!r}", "kkt_violation=5e-324"],
            ["index", "alpha", "label", "support"], rows)
        assert read_text(tmp_path / "out" / "roc.csv") == csv_artifact_text(
            [f"config_hash={HASH}"], ["threshold", "fpr", "tpr"], curve)

    @pytest.mark.parametrize("comment", ["config_hash=deadbeef", ""])
    def test_pca_model(self, tmp_path, comment):
        model = pca_fit(np.random.default_rng(4).normal(size=(9, 5)), 3)
        save_pca_model(model, tmp_path / "pca.csv", header_comment=comment)
        assert read_text(tmp_path / "pca.csv") == csv_artifact_text(
            [comment] if comment else [], ["kind", "i", "j", "value"],
            pca_model_rows(model))

    def test_mask_names_are_quoted(self, tmp_path):
        bits = np.array([1, 0, 1, 1, 0, 1, 0, 1], dtype=np.int8)
        mask = pipeline.FeatureMask(bits)
        pipeline._write_mask(cfg_for(tmp_path), HASH, mask, AWKWARD_NAMES)
        assert read_text(tmp_path / "out" / "mask.csv") == csv_artifact_text(
            [f"config_hash={HASH}"], ["gene", "selected"],
            zip(AWKWARD_NAMES, bits.tolist()))

    def test_compare_names_are_quoted(self, tmp_path):
        header = ["kernel", "accuracy", "precision", "recall", "specificity", "f1", "auc"]
        rows = [dict(zip(header, [name, 0.1 + 0.2, 1.0, 0.0, 1 / 3, -0.0, 5e-324]))
                for name in AWKWARD_NAMES]
        pipeline._write_compare(cfg_for(tmp_path), HASH, rows, "feedface")
        assert read_text(tmp_path / "out" / "compare.csv") == csv_artifact_text(
            [f"config_hash={HASH}", "input_hash=feedface"], header,
            ([r[k] for k in header] for r in rows))

    @given(rows=st.lists(st.lists(st.one_of(st.text(), st.floats(), st.integers()),
                                  min_size=2, max_size=4), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_table_rows_match_csv_writer(self, tmp_path_factory, rows):
        # every artifact table has at least two columns; csv.writer quotes a
        # lone empty field, which no artifact row can be
        path = tmp_path_factory.mktemp("table") / "table.csv"
        write_csv(path, ["c=1"], ["a", "b"], table_lines(rows))
        assert read_text(path) == csv_artifact_text(["c=1"], ["a", "b"], rows)


class TestOutDirConsistency:
    def test_no_selection_rerun_removes_selection_artifacts(self, tmp_path):
        ds = planted_dataset(40, 12, 3, shift=3.0, seed=2)
        cfg = PipelineConfig(hho_hawks=5, hho_iters=5, pca_k=3, seed=2,
                             scale_hi=0.5, out_dir=str(tmp_path / "out"))
        run_full(cfg, use_selection=True, ds=ds)
        out = tmp_path / "out"
        assert (out / "mask.csv").exists() and (out / "convergence.csv").exists()

        cfg2 = PipelineConfig(hho_hawks=5, hho_iters=5, pca_k=3, seed=3,
                              scale_hi=0.5, out_dir=str(out))
        run_full(cfg2, use_selection=False, ds=ds)
        assert sorted(os.listdir(out)) == ["kernel_cross.csv", "kernel_train.csv",
                                           "metrics.json", "model.csv",
                                           "pca_model.csv", "roc.csv"]
        for name in os.listdir(out):
            if name.endswith(".csv"):
                first = read_text(out / name).split("\n", 1)[0]
                assert first == f"# config_hash={config_hash(cfg2)}", name

    def test_failed_write_leaves_no_temp_file_and_no_metrics(self, tmp_path, monkeypatch):
        ds = blobs_dataset(40, 2, separation=6.0, seed=7)
        cfg = cfg_for(tmp_path)
        run_full(cfg, use_selection=False, ds=ds)
        out = tmp_path / "out"
        assert (out / "metrics.json").exists()

        def failing_rows():
            yield "0,1.0,1,1\r\n"
            raise OSError("disk full")

        def failing_write_model(cfg, hash_text, model):
            pipeline._write_csv(os.path.join(cfg.out_dir, "model.csv"), [],
                                ["index", "alpha", "label", "support"], failing_rows())

        monkeypatch.setattr(pipeline, "_write_model", failing_write_model)
        with pytest.raises(OSError, match="disk full"):
            run_full(cfg, use_selection=False, ds=ds)
        names = os.listdir(out)
        assert "metrics.json" not in names
        assert not [n for n in names if ".tmp" in n], names
