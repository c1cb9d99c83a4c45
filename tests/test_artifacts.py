"""Artifact bytes and out-dir consistency.

The writers must reproduce, byte for byte, what csv.writer with repr-rendered
floats produced (tests/oracles.py keeps that rendering as the reference), and
a run must never leave a temp file, a stale selection artifact, a file of
another config or a metrics.json from an unfinished run in its out dir.
"""
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import csv_artifact_text, kernel_rows, pca_model_rows
from qkgene import cli, floatrepr, pipeline
from qkgene.classifier import SvmModel, rbf_kernel_matrix
from qkgene.data_io import long_format_lines, render, table_lines, write_csv
from qkgene.pipeline import PipelineConfig, config_hash, run
from qkgene.quantum import FeatureMapSpec, ShotConfig, kernel_matrix
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
    base = dict(pca_k=2, seed=11, scale_hi=0.5, selection_enabled=False,
                out_dir=str(tmp_path / "out"))
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


def oracle_chunks(matrix, prefix=()) -> list[str]:
    """The csv.writer text of each matrix row's lines, `prefix` fields first."""
    rows = [prefix + row for row in kernel_rows(matrix)]
    n_cols = matrix.shape[1]
    return [csv_artifact_text([], ["h"], rows[i * n_cols:(i + 1) * n_cols])[len("h\r\n"):]
            for i in range(matrix.shape[0] if n_cols else 0)]


def bit_symmetric(matrix) -> bool:
    bits = matrix.view(np.uint64)
    return matrix.shape[0] == matrix.shape[1] and np.array_equal(bits, bits.T)


def rbf_450() -> np.ndarray:
    """The training kernel's shape on the artifacts_rbf benchmark workload."""
    return rbf_kernel_matrix(np.random.default_rng(5).normal(size=(450, 8)), gamma=0.125)


def quantum_kernel(shots: ShotConfig | None) -> np.ndarray:
    X = np.random.default_rng(6).uniform(0, np.pi, size=(12, 3))
    return kernel_matrix(X, FeatureMapSpec(3, "zz", reps=2), shots)


ULP_PAIR = np.array([[1.0, 0.3], [np.nextafter(0.3, 1.0), 1.0]])


class TestLongFormatLines:
    """The symmetric fast path must write what rendering every entry writes."""

    @pytest.mark.parametrize("make", [
        lambda: np.array([[0.1 + 0.2]]),
        lambda: np.array([[1.0, 1 / 3], [1 / 3, 1.0]]),
        rbf_450,
        lambda: quantum_kernel(None),
        lambda: quantum_kernel(ShotConfig(64, 9)),
        lambda: np.array([[1.0, np.nan], [np.nan, 1.0]]),
        lambda: np.array([[np.inf, -np.inf, 5e-324], [-np.inf, -0.0, 1e300],
                          [5e-324, 1e300, np.nan]]),
    ], ids=["1x1", "2x2", "rbf_450", "exact", "sampled", "nan_pair", "inf_pairs"])
    def test_symmetric_matrices(self, make):
        matrix = make()
        assert bit_symmetric(matrix)
        assert list(long_format_lines(matrix)) == oracle_chunks(matrix)

    @pytest.mark.parametrize("matrix", [
        np.array([[1.0, -0.0], [0.0, 1.0]]),  # equal as floats, rendered differently
        np.array([[1.0, np.nan], [np.uint64(0x7FF8000000000001).view(np.float64), 1.0]]),
        ULP_PAIR,
        np.random.default_rng(7).normal(size=(5, 9)),
        np.zeros((3, 0)),
        np.zeros((0, 3)),
    ], ids=["signed_zero_pair", "nan_payloads", "one_ulp", "non_square", "no_cols", "no_rows"])
    def test_other_matrices(self, matrix):
        assert not bit_symmetric(matrix)
        assert list(long_format_lines(matrix)) == oracle_chunks(matrix)

    @pytest.mark.parametrize("matrix", [np.array([[0.5, 2.0]]), np.array([[0.5], [2.0]]),
                                        np.array([[2.0, -1.5], [-1.5, 0.25]]), ULP_PAIR])
    def test_prefix(self, matrix):
        expected = oracle_chunks(matrix, ("component",))
        assert list(long_format_lines(matrix, "component,")) == expected

    @given(square=st.integers(1, 7).flatmap(lambda n: arrays(np.float64, (n, n))))
    @settings(max_examples=200, deadline=None)
    def test_triu_plus_transpose(self, square):
        with np.errstate(over="ignore", invalid="ignore"):  # inf + -inf is nan
            matrix = np.triu(square) + np.triu(square).T
        assert list(long_format_lines(matrix)) == oracle_chunks(matrix)

    def test_pending_text_is_bounded(self):
        matrix = rbf_450()
        n = matrix.shape[0]
        longest = max(map(len, "".join(oracle_chunks(matrix)).splitlines(keepends=True)))
        # the mirrored lines of rows < i still waiting in rows > i peak at
        # i·(n - i) <= n²/4; a bytearray over-allocates by at most 1/8, and
        # one row chunk (with its value strings) is alive at a time
        bound = (n * n // 4) * longest * 9 // 8 + 4 * n * longest
        tracemalloc.start()
        try:
            for _chunk in long_format_lines(matrix):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


def rendered(values) -> str:
    """What `floatrepr.lines` writes for each value alone on a line."""
    values = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return "".join(floatrepr.lines([""], [""] * values.shape[1], values))


def expected(values) -> str:
    return "".join(f"{float(v)!r}\r\n" for v in np.asarray(values, dtype=np.float64).ravel())


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


class TestFloatRepr:
    """The vectorised renderer writes exactly repr(float(v)) for every float64."""

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, patterns):
        values = from_bits(patterns)
        assert rendered(values) == expected(values)

    def test_powers_of_two_and_ten(self):
        twos = [2.0 ** k for k in range(-1074, 1024)]
        tens = [float(f"1e{k}") for k in range(-323, 309)]
        values = np.array(twos + tens)
        for sign in (1.0, -1.0):
            assert rendered(sign * values) == expected(sign * values)

    def test_integers_near_two_to_the_53(self):
        near = [2.0 ** 53 + i for i in range(-40, 41)] + [2.0 ** 54 + 2 * i for i in range(-40, 41)]
        tens = [1e15 + i for i in range(-40, 41)] + [1e16 - i for i in range(1, 81)]
        values = np.array(near + tens)
        assert rendered(values) == expected(values)

    @pytest.mark.parametrize("values", [
        [1e-4, 9.999999999999999e-05, 1.0000000000000002e-4, 1e-5, 1.5e-5, 0.00012345678901234567],
        [1e16, 9999999999999998.0, 1.0000000000000002e16, 1e17, 123456789012345.67],
        [0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 12.5, 1234.5, 0.5, 5e-324 * 2 ** 52],
    ], ids=["fixed_to_exponent_below", "fixed_to_exponent_above", "point_positions"])
    def test_layout_switches(self, values):
        values = np.array(values)
        assert rendered(values) == expected(values)
        assert rendered(-values) == expected(-values)

    def test_zeros_subnormals_nan_and_inf(self):
        patterns = [0, 1 << 63, 1, 2, (1 << 52) - 1, (1 << 63) | 1, 0x000FFFFFFFFFFFFF,
                    0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
                    0x7FF0000000000001, 0xFFF8000000000001, 0x7FFFFFFFFFFFFFFF,
                    0x0010000000000000, 0x8010000000000000]
        values = from_bits(patterns * 3)
        assert rendered(values) == expected(values)

    def test_a_million_random_bit_patterns(self):
        rng = np.random.default_rng(20201)
        for _ in range(4):
            values = from_bits(rng.integers(0, 2**64, size=(500, 500), dtype=np.uint64,
                                            endpoint=False))
            heads, cols = [f"{i}," for i in range(500)], [f"{j}," for j in range(500)]
            assert list(floatrepr.lines(heads, cols, values)) == [
                "".join(f"{h}{c}{v!r}\r\n" for c, v in zip(cols, row.tolist()))
                for h, row in zip(heads, values)]

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4096), (2, 5000), (4097, 1), (70, 59)])
    def test_block_edges(self, shape):
        rng = np.random.default_rng(11)
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 20, size=shape)
        heads, cols = [f"r{i}," for i in range(shape[0])], [f"{j}," for j in range(shape[1])]
        assert list(floatrepr.lines(heads, cols, values)) == [
            "".join(f"{h}{c}{v!r}\r\n" for c, v in zip(cols, row.tolist()))
            for h, row in zip(heads, values)]

    def test_interleaved_and_wide_calls(self):
        """Generators running at the same time keep their buffers apart, and
        heads of one, two and six words lay out alike."""
        rng = np.random.default_rng(12)
        matrices = [rng.normal(size=(40, 300)), rng.normal(size=(30, 200)) * 1e6,
                    rng.normal(size=(9, 100))]
        prefixes = ["", "component,", "x" * 40 + ","]
        calls = [([f"{p}{i}," for i in range(len(m))], [f"{j}," for j in range(m.shape[1])], m)
                 for p, m in zip(prefixes, matrices)]
        gens = [floatrepr.lines(*call) for call in calls]
        chunks = [[] for _ in gens]
        for _ in range(40):  # one row from each generator in turn
            for gen, got in zip(gens, chunks):
                got.extend(itertools.islice(gen, 1))
        for (heads, cols, m), got in zip(calls, chunks):
            assert got == ["".join(f"{h}{c}{v!r}\r\n" for c, v in zip(cols, row.tolist()))
                           for h, row in zip(heads, m)]

    def test_heads_must_not_hold_nul(self):
        with pytest.raises(ValueError, match="NUL"):
            list(floatrepr.lines(["a\0,"], ["0,"], np.ones((1, 1))))

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float64(0.1 + 0.2), np.float64(-0.0),
                                       np.float64(np.nan), np.float64(-np.inf), 0.25])
    def test_render_writes_numpy_floats_as_floats(self, value):
        assert render(value) == repr(float(value))

    def test_table_rows_render_numpy_floats(self, tmp_path):
        rows = [(np.float64(0.5), np.float64(1 / 3)), (np.float64(-0.0), 2)]
        write_csv(tmp_path / "t.csv", [], ["a", "b"], table_lines(rows))
        assert read_text(tmp_path / "t.csv") == csv_artifact_text(
            [], ["a", "b"], [(0.5, 1 / 3), (-0.0, 2)])


class TestOutDirConsistency:
    def test_no_selection_rerun_removes_selection_artifacts(self, tmp_path):
        ds = planted_dataset(40, 12, 3, shift=3.0, seed=2)
        cfg = PipelineConfig(hho_hawks=5, hho_iters=5, pca_k=3, seed=2,
                             scale_hi=0.5, out_dir=str(tmp_path / "out"))
        run(cfg, "evaluate", ds=ds)
        out = tmp_path / "out"
        assert (out / "mask.csv").exists() and (out / "convergence.csv").exists()

        cfg2 = PipelineConfig(hho_hawks=5, hho_iters=5, pca_k=3, seed=3,
                              scale_hi=0.5, selection_enabled=False, out_dir=str(out))
        run(cfg2, "evaluate", ds=ds)
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
        run(cfg, "evaluate", ds=ds)
        out = tmp_path / "out"
        assert (out / "metrics.json").exists()

        def failing_rows():
            yield "0,1.0,1,1\r\n"
            raise OSError("disk full")

        def failing_write_model(cfg, hash_text, model):
            pipeline._write_csv(os.path.join(cfg.out_dir, "model.csv"), [],
                                ["index", "alpha", "label", "support"], failing_rows())

        monkeypatch.setattr(pipeline, "_write_model", failing_write_model)
        cfg2 = cfg_for(tmp_path, seed=12)
        with pytest.raises(OSError, match="disk full"):
            run(cfg2, "evaluate", ds=ds)
        # every artifact went before the first write: what is left is the
        # second config's, written in order up to the failed model.csv
        names = sorted(os.listdir(out))
        for name in names:
            first = read_text(out / name).split("\n", 1)[0]
            assert first == f"# config_hash={config_hash(cfg2)}", name
        assert names == ["kernel_cross.csv", "kernel_train.csv", "pca_model.csv"]

    @pytest.mark.parametrize("command, expected", [
        ("select", ["convergence.csv", "mask.csv"]),
        ("reduce", ["pca_model.csv"]),
        ("kernel", ["kernel_cross.csv", "kernel_train.csv"]),
        ("train", ["model.csv"]),
        ("evaluate", ["kernel_cross.csv", "kernel_train.csv", "metrics.json", "model.csv",
                      "pca_model.csv", "roc.csv"]),
        ("compare-kernels", ["compare.csv"]),
    ])
    def test_every_command_replaces_a_run_all_out_dir(self, tmp_path, command, expected):
        ds = planted_dataset(40, 12, 3, shift=3.0, seed=2)
        data = tmp_path / "data.csv"
        data.write_text("\n".join([",".join(ds.gene_names + ["label"])] + [
            ",".join([repr(float(v)) for v in row] + [str(int(y))])
            for row, y in zip(ds.features, ds.labels)]) + "\n")
        out = tmp_path / "out"
        common = ["--data", str(data), "--out", str(out), "--set", "pca.k=3",
                  "--set", "hho.n=5", "--set", "hho.t=5", "--set", "scale.hi=0.5"]
        assert cli.main(["run-all", "--seed", "42", *common]) == 0
        assert len(os.listdir(out)) == 8
        selection = [] if command == "select" else ["--no-selection"]
        assert cli.main([command, "--seed", "7", *selection, *common]) == 0
        assert sorted(os.listdir(out)) == expected
        hashes = set()
        for name in expected:
            first = read_text(out / name).split("\n", 1)[0]
            hashes.add(json.loads(first)["config_hash"] if name == "metrics.json"
                       else first.removeprefix("# config_hash="))
        seven = pipeline.parse_config({"data.path": str(data), "out.dir": str(out), "pca.k": "3",
                                       "hho.n": "5", "hho.t": "5", "scale.hi": "0.5",
                                       "seed": "7", "selection.enabled": str(not selection)})
        assert hashes == {config_hash(seven)}
