import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from qkgene import cli, optimizer, pipeline, quantum, reduction
from qkgene.data_io import LabeledDataset
from qkgene.errors import ConfigError
from qkgene.pipeline import (
    PipelineConfig,
    config_hash,
    load_config_file,
    parse_config,
    prepare,
    run,
    stage_seed,
)
from qkgene.synth import blobs_dataset, planted_dataset


def blob_config(tmp_path, **overrides):
    base = dict(pca_k=2, seed=11, scale_hi=0.5, out_dir=str(tmp_path / "out"))
    base.update(overrides)
    return PipelineConfig(**base)


def blob_data():
    return blobs_dataset(40, 2, separation=6.0, seed=7)


def dataset_to_csv(ds, path):
    names = ds.gene_names
    lines = [",".join(names) + ",label"]
    for row, label in zip(ds.features, ds.labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfigParsing:
    def test_dotted_keys_and_types(self):
        cfg = parse_config({
            "split.test_fraction": "0.3",
            "qk.map": "pauli_zyy",
            "qk.shots": "64",
            "smote.enabled": "false",
            "pipeline.pca_before_smote": "true",
            "scale.hi": "1.25",
        })
        assert cfg.test_fraction == 0.3
        assert cfg.qk_map == "pauli_zyy"
        assert cfg.qk_shots == 64
        assert cfg.smote_enabled is False
        assert cfg.pca_before_smote is True
        assert cfg.scale_hi == 1.25

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"qk.depth": "3"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"qk.shots": "many"})
        with pytest.raises(ConfigError):
            parse_config({"smote.enabled": "definitely"})

    def test_smote_targets_keys(self):
        cfg = parse_config({"smote.targets.1": "49", "smote.targets.-1": "31"})
        assert cfg.smote_targets == ((-1, 31), (1, 49))

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# comment line\n"
            "\n"
            "qk.map = rbf\n"
            "seed=3\n"
            "smote.targets.1 = 49\n"
        )
        mapping = load_config_file(path)
        cfg = parse_config(mapping)
        assert cfg.qk_map == "rbf"
        assert cfg.seed == 3
        assert cfg.smote_targets == ((1, 49),)

    def test_config_file_syntax_error(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("qk.map rbf\n")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            PipelineConfig(test_fraction=1.5)
        with pytest.raises(ConfigError):
            PipelineConfig(qk_map="fourier")
        with pytest.raises(ConfigError):
            PipelineConfig(scale_lo=2.0, scale_hi=1.0)
        with pytest.raises(ConfigError):
            PipelineConfig(psd_clip="maybe")

    def test_one_hawk_rejected_by_its_key(self, capsys):
        with pytest.raises(ConfigError, match=r"^hho\.n must be at least 2$"):
            parse_config({"hho.n": "1"})
        PipelineConfig(hho_hawks=2)
        code = cli.main(["select", "--data", "unused.csv", "--set", "hho.n=1"])
        assert code == 1
        assert capsys.readouterr().err == "config error: hho.n must be at least 2\n"


class TestHashAndSeeds:
    def test_hash_is_stable_and_sensitive(self):
        a = PipelineConfig(seed=1)
        b = PipelineConfig(seed=1)
        c = PipelineConfig(seed=2)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 16
        int(config_hash(a), 16)  # hex digest prefix

    def test_hash_covers_smote_targets(self):
        a = PipelineConfig()
        b = PipelineConfig(smote_targets=((1, 49), (-1, 31)))
        assert config_hash(a) != config_hash(b)

    def test_stage_seeds_distinct_and_deterministic(self):
        stages = ("split", "smote", "select", "fitness")
        seeds = [stage_seed(42, s) for s in stages]
        assert len(set(seeds)) == len(stages)
        assert seeds == [stage_seed(42, s) for s in stages]
        assert stage_seed(1, "split") != stage_seed(2, "split")

    def test_unknown_stage_rejected(self):
        with pytest.raises(KeyError):
            stage_seed(0, "mystery")


class TestRunSelect:
    def test_mask_artifact(self, tmp_path):
        ds = planted_dataset(40, 10, 2, shift=3.0, seed=0)
        cfg = PipelineConfig(hho_hawks=5, hho_iters=5, seed=0,
                             out_dir=str(tmp_path / "sel"))
        res = run(cfg, "select", ds=ds)
        mask, history = res.prep.mask, res.prep.history
        assert mask.selected_count >= 1
        assert len(history) == 5

        mask_path = tmp_path / "sel" / "mask.csv"
        lines = mask_path.read_text().splitlines()
        assert lines[0].startswith(f"# config_hash={config_hash(cfg)}")
        data_lines = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_lines) == 10  # one row per gene
        set_bits = sum(int(l.split(",")[1]) for l in data_lines)
        assert set_bits == mask.selected_count

    def test_rerun_byte_identical(self, tmp_path):
        ds = planted_dataset(40, 10, 2, shift=3.0, seed=1)
        cfg = PipelineConfig(hho_hawks=5, hho_iters=5, seed=1,
                             out_dir=str(tmp_path / "sel"))
        run(cfg, "select", ds=ds)
        first = {
            name: (tmp_path / "sel" / name).read_bytes()
            for name in ("mask.csv", "convergence.csv")
        }
        run(cfg, "select", ds=ds)
        for name, blob in first.items():
            assert (tmp_path / "sel" / name).read_bytes() == blob


class TestRunFull:
    def test_blob_accuracy(self, tmp_path):
        payload = run(blob_config(tmp_path), "evaluate", use_selection=False,
                      ds=blob_data()).metrics
        assert payload["accuracy"] >= 0.9
        assert payload["kernel"] == "zz"
        assert payload["use_selection"] is False
        assert payload["selected_count"] is None

    def test_rerun_identical_payload_and_bytes(self, tmp_path):
        cfg = blob_config(tmp_path)
        first = run(cfg, "evaluate", use_selection=False, ds=blob_data()).metrics
        metrics_path = tmp_path / "out" / "metrics.json"
        blob = metrics_path.read_bytes()
        second = run(cfg, "evaluate", use_selection=False, ds=blob_data()).metrics
        assert first == second
        assert metrics_path.read_bytes() == blob

    def test_artifacts_written(self, tmp_path):
        cfg = blob_config(tmp_path)
        run(cfg, "evaluate", use_selection=False, ds=blob_data())
        out = tmp_path / "out"
        for name in ("pca_model.csv", "kernel_train.csv", "kernel_cross.csv",
                     "model.csv", "roc.csv", "metrics.json"):
            assert (out / name).exists(), name
        assert not (out / "mask.csv").exists()

        header = (out / "kernel_train.csv").read_text().splitlines()[0]
        assert header == f"# config_hash={config_hash(cfg)}"

    def test_selection_adds_mask_artifacts(self, tmp_path):
        ds = planted_dataset(40, 12, 3, shift=3.0, seed=2)
        cfg = PipelineConfig(hho_hawks=5, hho_iters=5, pca_k=3, seed=2,
                             scale_hi=0.5, out_dir=str(tmp_path / "out"))
        payload = run(cfg, "evaluate", use_selection=True, ds=ds).metrics
        assert payload["selected_count"] >= 1
        assert (tmp_path / "out" / "mask.csv").exists()
        assert (tmp_path / "out" / "convergence.csv").exists()
        mask_lines = [
            l for l in (tmp_path / "out" / "mask.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert len(mask_lines) - 1 == 12  # header plus one row per input gene

    def test_payload_metrics_fields(self, tmp_path):
        payload = run(blob_config(tmp_path), "evaluate", use_selection=False,
                      ds=blob_data()).metrics
        for key in ("accuracy", "precision", "recall", "specificity", "f1",
                    "auc", "config_hash", "input_hash", "n_train", "n_test"):
            assert key in payload

    def test_metrics_json_is_canonical(self, tmp_path):
        cfg = blob_config(tmp_path)
        payload = run(cfg, "evaluate", use_selection=False, ds=blob_data()).metrics
        raw = (tmp_path / "out" / "metrics.json").read_text()
        assert raw == json.dumps(payload, sort_keys=True,
                                 separators=(",", ":")) + "\n"

    def test_sampled_mode_runs(self, tmp_path):
        cfg = blob_config(tmp_path, qk_mode="sampled", qk_shots=100)
        payload = run(cfg, "evaluate", use_selection=False, ds=blob_data()).metrics
        assert payload["mode"] == "sampled"
        assert 0.0 <= payload["accuracy"] <= 1.0

    def test_pca_before_smote_switch(self, tmp_path):
        cfg = blob_config(tmp_path, pca_before_smote=True)
        payload = run(cfg, "evaluate", use_selection=False, ds=blob_data()).metrics
        assert 0.0 <= payload["accuracy"] <= 1.0

    # sha256 of prepare()'s scaled train/test features and labels, per order
    PREPARED_GOLDEN = {
        False: "8502a0936ac9335c3275172127a90ed1137d98a574bab75358c976fee9934ad4",
        True: "f76e7d768daa07728e9ba6e075f5548053866759a8a91a34f11b0b4f271bd8df",
    }

    @pytest.mark.parametrize("pca_before_smote", [False, True])
    def test_prepared_data_is_pinned_for_both_orders(self, tmp_path, pca_before_smote):
        ds = planted_dataset(40, 12, 3, shift=2.0, seed=9, positive_fraction=0.7)
        cfg = PipelineConfig(pca_k=3, seed=4, out_dir=str(tmp_path / "out"),
                             pca_before_smote=pca_before_smote)
        prep = prepare(cfg, use_selection=False, ds=ds)
        assert prep.train.n_samples > 30  # SMOTE added rows
        digest = hashlib.sha256()
        for part in (prep.train, prep.test):
            digest.update(part.features.tobytes() + part.labels.tobytes())
        assert digest.hexdigest() == self.PREPARED_GOLDEN[pca_before_smote]

    def test_pca_k_clamped_to_data(self, tmp_path):
        cfg = blob_config(tmp_path, pca_k=50)
        payload = run(cfg, "evaluate", use_selection=False, ds=blob_data()).metrics
        assert payload["pca_k"] == 2  # only two input features exist


class TestLeakageAudit:
    def test_test_labels_never_touch_training(self, tmp_path):
        cfg = blob_config(tmp_path)
        prep = prepare(cfg, use_selection=False, ds=blob_data())
        k_train, k_cross = pipeline._kernels(cfg, prep)
        model = pipeline._train(cfg, k_train, prep.train.labels, cfg.qk_map)

        tampered = LabeledDataset(prep.test.features, -prep.test.labels)
        prep_tampered = pipeline.PreparedData(
            train=prep.train, test=tampered, mask=prep.mask,
            history=prep.history, pca=prep.pca,
            scaler=prep.scaler, k_effective=prep.k_effective,
            input_hash=prep.input_hash, gene_names=prep.gene_names,
        )
        k_train2, k_cross2 = pipeline._kernels(cfg, prep_tampered)
        model2 = pipeline._train(cfg, k_train2, prep_tampered.train.labels,
                                 cfg.qk_map)
        np.testing.assert_array_equal(k_train, k_train2)
        np.testing.assert_array_equal(k_cross, k_cross2)
        np.testing.assert_array_equal(model.alphas, model2.alphas)
        assert model.bias == model2.bias


class TestCompareKernels:
    def test_four_rows_shared_input(self, tmp_path):
        cfg = blob_config(tmp_path)
        result = run(cfg, "compare", use_selection=False, ds=blob_data())
        kinds = [row["kernel"] for row in result.rows]
        assert kinds == ["z", "zz", "pauli_zyy", "rbf"]
        assert len(result.prep.input_hash) == 16

        text = (tmp_path / "out" / "compare.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == f"# config_hash={config_hash(cfg)}"
        assert lines[1] == f"# input_hash={result.prep.input_hash}"
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == 4

    def test_separable_set_all_kernels_good(self, tmp_path):
        result = run(blob_config(tmp_path), "compare", use_selection=False,
                     ds=blob_data(), write=False)
        for row in result.rows:
            assert row["accuracy"] >= 0.8, row


class TestCli:
    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_run_all_success(self, tmp_path, capsys):
        csv_path = dataset_to_csv(blob_data(), tmp_path / "blobs.csv")
        code = self.run_cli(
            "run-all", "--data", str(csv_path), "--out", str(tmp_path / "out"),
            "--seed", "11", "--no-selection",
            "--set", "pca.k=2", "--set", "scale.hi=0.5",
            "--set", "data.positive_label=1",
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["accuracy"] >= 0.9
        assert (tmp_path / "out" / "metrics.json").exists()

    def test_select_command(self, tmp_path, capsys):
        ds = planted_dataset(40, 8, 2, shift=3.0, seed=0)
        csv_path = dataset_to_csv(ds, tmp_path / "planted.csv")
        code = self.run_cli(
            "select", "--data", str(csv_path), "--out", str(tmp_path / "sel"),
            "--set", "hho.n=5", "--set", "hho.t=4",
            "--set", "data.positive_label=1",
        )
        assert code == 0
        assert "genes" in capsys.readouterr().out
        assert (tmp_path / "sel" / "mask.csv").exists()

    def test_compare_command(self, tmp_path, capsys):
        csv_path = dataset_to_csv(blob_data(), tmp_path / "blobs.csv")
        code = self.run_cli(
            "compare-kernels", "--data", str(csv_path),
            "--out", str(tmp_path / "cmp"), "--seed", "11", "--no-selection",
            "--set", "pca.k=2", "--set", "scale.hi=0.5",
            "--set", "data.positive_label=1",
        )
        assert code == 0
        out_lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(out_lines) == 4

    def test_config_file_with_set_override(self, tmp_path, capsys):
        csv_path = dataset_to_csv(blob_data(), tmp_path / "blobs.csv")
        conf = tmp_path / "run.conf"
        conf.write_text(
            f"data.path={csv_path}\n"
            "data.positive_label=1\n"
            "pca.k=2\n"
            "scale.hi=0.5\n"
            "seed=3\n"
            f"out.dir={tmp_path / 'out'}\n"
        )
        code = self.run_cli("evaluate", "--config", str(conf),
                            "--no-selection", "--set", "seed=11")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # --set wins over the file: the run used seed 11, hashed into config
        cfg = parse_config({**load_config_file(conf), "seed": "11"})
        assert payload["config_hash"] == config_hash(cfg)

    def test_exit_code_config_error(self, tmp_path, capsys):
        code = self.run_cli("run-all", "--set", "qk.map=fourier",
                            "--data", "unused.csv")
        assert code == 1
        assert "config" in capsys.readouterr().err.lower()

    def test_exit_code_data_error(self, tmp_path, capsys):
        code = self.run_cli("run-all", "--data", str(tmp_path / "missing.csv"))
        assert code == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("body, reason", [
        ("g1,label\n1.0,caf\xe9\n2.0,bar\n3.0,caf\xe9\n", "byte 0xe9 at offset 16"),
        ('g1,label\n1.0,a\n"' + "9" * 140_000 + '",b\n', ":3: field larger than field limit"),
    ], ids=["latin-1", "oversized-field"])
    def test_unreadable_csv_is_a_data_error(self, tmp_path, capsys, body, reason):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes(body.encode("latin-1"))
        code = self.run_cli("run-all", "--data", str(csv_path),
                            "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"data error: {csv_path}")
        assert reason in err
        assert err.count("\n") == 1

    def test_exit_code_numerical_error(self, tmp_path, capsys):
        lines = ["g0,g1,label"]
        for i in range(12):
            lines.append(f"1.0,1.0,{1 if i % 2 else -1}")
        csv_path = tmp_path / "flat.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        code = self.run_cli(
            "reduce", "--data", str(csv_path), "--out", str(tmp_path / "out"),
            "--no-selection", "--set", "pca.k=2", "--set", "smote.enabled=false",
            "--set", "data.positive_label=1",
        )
        assert code == 3

    def test_out_of_memory_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        """A state array too large to allocate ends in one line that names
        pca.k, the key that sizes every state, not in a traceback."""
        def no_memory(X, spec):
            raise MemoryError("Unable to allocate 11.5 GiB for an array with shape "
                              "(46, 16777216) and data type complex128")

        monkeypatch.setattr(quantum, "_embedding_matrix", no_memory)
        csv_path = dataset_to_csv(blob_data(), tmp_path / "blobs.csv")
        code = self.run_cli(
            "run-all", "--data", str(csv_path), "--out", str(tmp_path / "out"),
            "--no-selection", "--set", "pca.k=2", "--set", "data.positive_label=1",
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure: out of memory (Unable to allocate 11.5 GiB")
        assert "pca.k" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("module, name, hint", [
        (optimizer, "init_population", "; lower hho.n to shrink the hawk population"),
        (reduction, "pca_fit", ""),
    ], ids=["gene-search", "other-stage"])
    def test_out_of_memory_names_the_key_of_its_stage(self, tmp_path, capsys, monkeypatch,
                                                       module, name, hint):
        """The out-of-memory line names the key that sizes the arrays of the
        stage that ran out, hho.n for the hawk population (pca.k for the
        quantum states is checked above), and no key for a stage that has
        none."""
        def no_memory(*_args):
            raise MemoryError("Unable to allocate 1.46 TiB")

        monkeypatch.setattr(module, name, no_memory)
        csv_path = dataset_to_csv(blob_data(), tmp_path / "blobs.csv")
        code = self.run_cli(
            "run-all", "--data", str(csv_path), "--out", str(tmp_path / "out"),
            "--set", "pca.k=2", "--set", "qk.map=z", "--set", "hho.n=4", "--set", "hho.t=2",
            "--set", "data.positive_label=1",
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"numerical failure: out of memory (Unable to allocate 1.46 TiB){hint}\n"

    @pytest.mark.parametrize("settings, code, line", [
        (["smote.k=40"], 2, "data error: smote.k=40 exceeds the 8 other rows in class -1"),
        (["smote.targets.1=2"], 2,
         "data error: smote.targets.1=2 is below class 1's current count 21"),
        (["smote.targets.7=10"], 2, "data error: smote.targets.7=10: class 7 is not in the data"),
        (["svm.max_passes=1", "svm.tol=1e-9", "svm.c=100"], 3,
         "numerical failure: SMO used its budget of 42 updates, svm.max_passes times 42 rows, "
         "with KKT violation 3.345e+00 > svm.tol 1e-09"),
    ], ids=["smote.k", "smote.targets-below-count", "smote.targets-absent-class", "svm-budget"])
    def test_stage_errors_name_their_keys(self, tmp_path, capsys, settings, code, line):
        """Errors that only the data can raise still name the keys to change."""
        ds = planted_dataset(40, 8, 2, shift=3.0, seed=0, positive_fraction=0.7)
        csv_path = dataset_to_csv(ds, tmp_path / "planted.csv")
        overrides = [arg for item in settings for arg in ("--set", item)]
        assert self.run_cli(
            "run-all", "--data", str(csv_path), "--out", str(tmp_path / "out"),
            "--no-selection", "--set", "pca.k=2", "--set", "data.positive_label=1", *overrides,
        ) == code
        assert capsys.readouterr().err == line + "\n"

    def test_bad_set_syntax(self, capsys):
        code = self.run_cli("run-all", "--set", "notakeyvalue")
        assert code == 1


@pytest.mark.slow
class TestColonScale:
    def test_full_scale_run(self, tmp_path):
        ds = planted_dataset(62, 2000, 10, shift=2.0, seed=0,
                             positive_fraction=40 / 62)
        assert ds.class_counts() == {1: 40, -1: 22}
        cfg = PipelineConfig(
            smote_targets=((1, 49), (-1, 31)),
            out_dir=str(tmp_path / "colon"),
        )
        tracemalloc.start()
        try:
            payload = run(cfg, "evaluate", use_selection=True, ds=ds).metrics
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload["n_train"] == 80
        assert payload["pca_k"] == 20
        # README "Memory and scale": the kernel stage peaks under
        # (max(n_train, n_test) + b + 3) states of 2^20 amplitudes, where a
        # 16 MiB state makes a block the minimum of 8 rows; 32 MiB covers the
        # other stages and the kernel matrices.
        states = max(payload["n_train"], payload["n_test"]) + quantum._CONJ_BLOCK_ROWS + 3
        assert peak < states * (16 << 20) + (32 << 20)

        kernel_lines = [
            l for l in
            (tmp_path / "colon" / "kernel_train.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert len(kernel_lines) - 1 == 80 * 80
