"""The config schema: pinned hashes, the README table, and what the CLI does
with every value a user can set.

Every config either runs or exits 1, 2 or 3; a config error is one stderr
line that names the user-facing key, never a traceback.
"""
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qkgene import cli, pipeline
from qkgene.data_io import PhaseScaler, SplitSpec
from qkgene.errors import ConfigError
from qkgene.optimizer import FitnessConfig, HhoParams
from qkgene.quantum import FeatureMapSpec, ShotConfig
from qkgene.sampling import SmoteConfig
from qkgene.pipeline import PipelineConfig, config_hash, parse_config

ROOT = Path(__file__).resolve().parents[1]
KEYS = sorted(pipeline._FIELDS)

# every key at a value other than its default
EVERY_KEY_SET = {
    "data.path": "data/colon.csv", "data.label_column": "class",
    "data.positive_label": "tumor", "split.test_fraction": "0.3",
    "split.stratified": "false", "selection.enabled": "false", "smote.enabled": "false",
    "smote.k": "3", "hho.n": "7", "hho.t": "9", "hho.lower": "-2.5", "hho.upper": "4.0",
    "hho.transfer": "v", "fitness.alpha": "0.9", "fitness.knn_k": "3",
    "fitness.val_fraction": "0.35", "pca.k": "6", "qk.map": "pauli_zyy", "qk.reps": "2",
    "qk.mode": "sampled", "qk.shots": "512", "qk.seed": "7", "svm.c": "2.5",
    "svm.tol": "0.0001", "svm.max_passes": "40", "svm.psd_clip": "on",
    "scale.lo": "-0.5", "scale.hi": "0.75", "pipeline.pca_before_smote": "true",
    "seed": "123", "out.dir": "runs/pinned",
}


def write_csv(path, n_rows: int, n_genes: int, seed: int = 0) -> str:
    """Two classes of alternating labels, shifted apart on every gene."""
    rng = np.random.default_rng(seed)
    labels = np.where(np.arange(n_rows) % 2 == 0, 1, -1)
    features = rng.normal(size=(n_rows, n_genes)) + labels[:, None]
    lines = [",".join([f"g{i}" for i in range(n_genes)] + ["label"])]
    lines += [",".join([repr(float(v)) for v in row] + [str(label)])
              for row, label in zip(features, labels)]
    Path(path).write_text("\n".join(lines) + "\n")
    return str(path)


def run_cli(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call.

    Warnings are printed to the captured stderr, as they would be in a
    terminal, so a warning before a config error counts as a second line.
    """
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        warnings.showwarning = show
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def config_hashes(out_dir) -> set[str]:
    """The config_hash of every artifact in out_dir."""
    found = set()
    for name in os.listdir(out_dir):
        if os.path.isdir(os.path.join(out_dir, name)):
            continue
        with open(os.path.join(out_dir, name)) as fh:
            if name == "metrics.json":
                found.add(json.load(fh)["config_hash"])
            else:
                first = fh.readline()
                assert first.startswith("# config_hash="), (name, first)
                found.add(first.strip()[len("# config_hash="):])
    return found


class TestPinnedHash:
    """Recorded when selection.enabled became a key and fitness.evaluator and
    qk.entanglement went: a change to the key set or to how values are
    written moves every artifact's config_hash header, and shows here."""

    def test_defaults(self):
        assert config_hash(PipelineConfig()) == "71f679d190dc8acc"

    def test_every_key_set(self):
        assert set(EVERY_KEY_SET) == set(KEYS)
        cfg = parse_config(EVERY_KEY_SET)
        for key in EVERY_KEY_SET:
            field = pipeline._FIELDS[key]
            assert getattr(cfg, field.name) != field.default, key
        assert config_hash(cfg) == "6380a676fc7b4604"

    def test_smote_targets(self):
        cfg = parse_config({"smote.targets.1": "49", "smote.targets.-1": "31"})
        assert config_hash(cfg) == "9d00cb505dec3957"


class TestHashCoversEveryKey:
    """Every artifact carries config_hash, so configs that differ in any one
    key, selection.enabled included, must stamp different hashes."""

    @pytest.mark.parametrize("key", KEYS + ["smote.targets.1"])
    def test_one_key_moves_the_hash(self, key):
        changed = parse_config({key: EVERY_KEY_SET.get(key, "49")})
        assert config_hash(changed) != config_hash(PipelineConfig())

    def test_run_all_with_and_without_selection_stamp_different_hashes(self, tmp_path):
        csv_path = write_csv(tmp_path / "data.csv", 16, 4)
        out = tmp_path / "out"
        stamps = []
        for flag in ([], ["--no-selection"]):
            argv = ["run-all", "--data", csv_path, "--out", str(out), "--set", "qk.map=rbf",
                    "--set", "hho.t=2", *flag]
            assert run_cli(argv)[0] == 0
            stamps.append(config_hashes(out))
        assert len(stamps[0]) == len(stamps[1]) == 1 and stamps[0] != stamps[1]


class TestSchema:
    def test_thirty_one_keys_each_with_a_field(self):
        assert len(KEYS) == 31
        names = {f.name for f in pipeline._FIELDS.values()}
        assert names | {"smote_targets"} == set(PipelineConfig.__dataclass_fields__)

    def test_readme_table_matches_schema(self):
        text = (ROOT / "README.md").read_text()
        section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for line in section.splitlines():
            if not line.startswith("| `"):
                continue
            key_cell, default_cell = [c.strip() for c in line.strip("|").split("|")[:2]]
            keys = re.findall(r"`([^`]+)`", key_cell)
            if keys == ["smote.targets.<class>"]:
                continue
            defaults = [d.strip().strip("`") for d in default_cell.split(" / ")]
            assert len(keys) == len(defaults), line
            documented.update(zip(keys, defaults))
        assert sorted(documented) == KEYS
        readme_text = {"—": "", "π": repr(math.pi)}
        for key, shown in documented.items():
            field = pipeline._FIELDS[key]
            value = getattr(parse_config({key: readme_text.get(shown, shown)}), field.name)
            assert value == field.default, (key, shown)

    def test_neighbour_counts_have_their_own_messages(self):
        with pytest.raises(ConfigError, match=r"^smote\.k must be at least 1$"):
            parse_config({"smote.k": "0"})
        with pytest.raises(ConfigError, match=r"^fitness\.knn_k must be at least 1$"):
            parse_config({"fitness.knn_k": "0"})

    INT_KEYS = ["fitness.knn_k", "hho.n", "hho.t", "pca.k", "qk.reps", "qk.seed",
                "qk.shots", "seed", "smote.k", "svm.max_passes"]

    def test_int_keys(self):
        assert [k for k in KEYS if pipeline._FIELDS[k].type == "int"] == self.INT_KEYS

    @pytest.mark.parametrize("key", INT_KEYS)
    def test_every_int_must_be_an_integer(self, key):
        """A library caller may pass numbers, not text. Floats, integral or
        not, and bools are one ConfigError that names the dotted key, not a
        TypeError inside run or a stage field's name; numpy integers pass."""
        for value in (3.0, 2.5, np.float64(4.0), True, False):
            with pytest.raises(ConfigError,
                               match=rf"^{re.escape(key)} must be an integer, got "
                                     rf"{re.escape(repr(value))}$"):
                parse_config({key: value})
        assert getattr(parse_config({key: np.int64(3)}), pipeline._FIELDS[key].name) == 3

    @pytest.mark.parametrize("key", [k for k in KEYS if pipeline._FIELDS[k].type == "float"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_every_float_must_be_finite(self, key, text):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite$"):
            parse_config({key: text})

    @pytest.mark.parametrize("settings_, message", [
        ({"hho.lower": "-1e308", "hho.upper": "1e308"}, "hho.upper - hho.lower must be finite"),
        ({"scale.lo": "-1e308", "scale.hi": "1e308"}, "scale.hi - scale.lo must be finite"),
        ({"hho.lower": "1", "hho.upper": "1"}, "hho.upper must exceed hho.lower"),
        ({"scale.lo": "2", "scale.hi": "1"}, "scale.hi must exceed scale.lo"),
    ])
    def test_cross_key_checks(self, settings_, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(settings_)


# stage-owned key -> the stage settings field that states its rule, and a
# value that breaks the rule
STAGE_OWNED = {
    "split.test_fraction": (SplitSpec, "test_fraction", 1.0),
    "smote.k": (SmoteConfig, "k_neighbors", 0),
    "hho.n": (HhoParams, "n_hawks", 1),
    "hho.t": (HhoParams, "max_iters", 0),
    "hho.transfer": (HhoParams, "transfer", "w"),
    "fitness.alpha": (FitnessConfig, "alpha", 1.5),
    "fitness.knn_k": (FitnessConfig, "knn_k", 0),
    "fitness.val_fraction": (FitnessConfig, "val_fraction", 0.0),
    "qk.reps": (FeatureMapSpec, "reps", 0),
    "qk.shots": (ShotConfig, "shots", 0),
    "qk.seed": (ShotConfig, "seed", -1),
}

# each stage settings class, with the fields it needs to construct
STAGE_SETTINGS = [(SplitSpec, {}), (SmoteConfig, {}), (HhoParams, {"n_hawks": 2, "max_iters": 1}),
                  (FitnessConfig, {}), (FeatureMapSpec, {"n_qubits": 2}), (ShotConfig, {}),
                  (PhaseScaler, {})]
NUMBER_FIELDS = [(cls, f.name) for cls, _base in STAGE_SETTINGS for f in dataclasses.fields(cls)
                 if f.type in ("int", "float")]

# every config key a stage consumes -> the stage settings field it sets
STAGE_KEYS = {
    "split.test_fraction": (SplitSpec, "test_fraction"),
    "split.stratified": (SplitSpec, "stratified"),
    "smote.k": (SmoteConfig, "k_neighbors"),
    "hho.n": (HhoParams, "n_hawks"), "hho.t": (HhoParams, "max_iters"),
    "hho.lower": (HhoParams, "lower_bound"), "hho.upper": (HhoParams, "upper_bound"),
    "hho.transfer": (HhoParams, "transfer"),
    "fitness.alpha": (FitnessConfig, "alpha"), "fitness.knn_k": (FitnessConfig, "knn_k"),
    "fitness.val_fraction": (FitnessConfig, "val_fraction"),
    "qk.reps": (FeatureMapSpec, "reps"),
    "qk.shots": (ShotConfig, "shots"), "qk.seed": (ShotConfig, "seed"),
    "scale.lo": (PhaseScaler, "lo"), "scale.hi": (PhaseScaler, "hi"),
}


class TestRuleHomes:
    """Each rule a stage consumes is stated once, on the stage settings field."""

    @pytest.mark.parametrize("key", sorted(STAGE_OWNED))
    def test_config_check_is_the_stage_fields_check(self, key):
        cls, name, _bad = STAGE_OWNED[key]
        stage = {f.name: f for f in dataclasses.fields(cls)}[name]
        assert pipeline._FIELDS[key].metadata["check"] is stage.metadata["check"]
        assert pipeline._FIELDS[key].metadata["rule"] is stage.metadata["rule"]

    @pytest.mark.parametrize("key", sorted(STAGE_OWNED))
    def test_config_and_stage_reject_alike(self, key):
        """One rule, two wordings: the config names the dotted key, the stage
        class its field."""
        cls, name, bad = STAGE_OWNED[key]
        rule = pipeline._FIELDS[key].metadata["rule"]
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{key} {rule}')}$"):
            parse_config({key: bad})
        base = dict(STAGE_SETTINGS)[cls]
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{name} {rule}')}$"):
            cls(**{**base, name: bad})

    def test_stage_keys_are_declared_on_their_stage_fields(self):
        declared = {key: (f.metadata["stage"], f.metadata["field"])
                    for key, f in pipeline._FIELDS.items() if "stage" in f.metadata}
        assert declared == STAGE_KEYS

    @pytest.mark.parametrize("key", sorted(STAGE_KEYS))
    def test_config_default_is_the_stage_fields_default(self, key):
        """hho.n and hho.t keep their own defaults: their stage fields have none."""
        cls, name = STAGE_KEYS[key]
        stage_default = cls.__dataclass_fields__[name].default
        own = {"hho.n": 10, "hho.t": 100}
        if key in own:
            assert stage_default is dataclasses.MISSING
        assert pipeline._FIELDS[key].default == own.get(key, stage_default)

    def test_run_hands_each_stage_its_settings(self, tmp_path, monkeypatch):
        """With every stage-owned key off its default, each stage gets the
        settings object built by hand from the keys, so no key reaches the
        wrong field (say hho.lower and hho.upper swapped)."""
        settings_ = {key: EVERY_KEY_SET[key] for key in STAGE_KEYS}
        settings_.update({"data.path": write_csv(tmp_path / "data.csv", 40, 16),
                          "out.dir": str(tmp_path / "out"), "seed": "123", "pca.k": "3",
                          "qk.map": "pauli_zyy", "qk.mode": "sampled",
                          "smote.targets.1": "30"})
        cfg = parse_config(settings_)
        assert all(getattr(cfg, pipeline._FIELDS[key].name) != pipeline._FIELDS[key].default
                   for key in STAGE_KEYS)
        calls = {}
        for module, name in [(pipeline, "stratified_split"), (pipeline, "run_bhho"),
                             (pipeline, "smote_oversample"), (pipeline.quantum, "kernel_matrix")]:
            def spy(*args, _name=name, _real=getattr(module, name)):
                calls[_name] = args
                return _real(*args)
            monkeypatch.setattr(module, name, spy)
        res = pipeline.run(cfg, "kernel")

        def seed(stage):
            return pipeline.stage_seed(123, stage)
        assert calls["stratified_split"][1] == SplitSpec(0.3, seed("split"), False,
                                                         key="split.test_fraction")
        assert calls["run_bhho"][1:] == (
            HhoParams(n_hawks=7, max_iters=9, lower_bound=-2.5, upper_bound=4.0,
                      seed=seed("select"), transfer="v"),
            FitnessConfig(alpha=0.9, knn_k=3, val_fraction=0.35, seed=seed("fitness")))
        assert calls["smote_oversample"][1] == SmoteConfig(k_neighbors=3, target_counts={1: 30},
                                                           seed=seed("smote"))
        assert calls["kernel_matrix"][1:] == (
            FeatureMapSpec(n_qubits=res.prep.k_effective, kind="pauli_zyy", reps=2),
            ShotConfig(shots=512, seed=7))
        assert (res.prep.scaler.lo, res.prep.scaler.hi) == (-0.5, 0.75)

    @pytest.mark.parametrize("cls, name", NUMBER_FIELDS, ids=lambda v: getattr(v, "__name__", v))
    def test_every_number_field_is_checked(self, cls, name):
        """An int field takes only integers and a float field only finite
        numbers, each error naming the field."""
        base = dict(STAGE_SETTINGS)[cls]
        if cls.__dataclass_fields__[name].type == "int":
            cases = [(v, f"{name} must be an integer, got {v!r}") for v in (2.5, True)]
        else:
            cases = [(v, f"{name} must be finite") for v in (math.nan, math.inf)]
        for value, message in cases:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                cls(**{**base, name: value})


    @pytest.mark.parametrize("make", [
        lambda lo, hi: HhoParams(2, 1, lower_bound=lo, upper_bound=hi), PhaseScaler,
    ], ids=["HhoParams", "PhaseScaler"])
    def test_overflowing_numpy_span_is_one_config_error(self, make):
        """A span of numpy floats too wide for a float is a ConfigError, not
        a RuntimeWarning first."""
        with pytest.raises(ConfigError, match=r" must be finite$"):
            make(np.float64(-1e308), np.float64(1e308))


class TestCliConfigErrors:
    @pytest.fixture
    def csv_path(self, tmp_path):
        return write_csv(tmp_path / "data.csv", 16, 4)

    @pytest.mark.parametrize("settings_, key", [
        (["seed=-1"], "seed"),
        (["qk.seed=-1", "qk.mode=sampled"], "qk.seed"),
        (["hho.lower=-inf"], "hho.lower"),
        (["hho.upper=inf"], "hho.upper"),
        (["svm.c=nan"], "svm.c"),
        (["svm.tol=nan"], "svm.tol"),
        (["scale.hi=inf"], "scale.hi"),
        (["fitness.alpha=2"], "fitness.alpha"),
        (["qk.mode=sampled", "qk.shots=1000000000000"], "qk.shots"),
    ])
    def test_bad_value_is_one_line_naming_its_key(self, tmp_path, csv_path, settings_, key):
        argv = ["run-all", "--data", csv_path, "--out", str(tmp_path / "out"),
                "--no-selection", "--set", "pca.k=2", "--set", "hho.t=2"]
        for item in settings_:
            argv += ["--set", item]
        code, _out, err = run_cli(argv)
        assert code == 1
        assert err.startswith(f"config error: {key} ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("settings_, message", [
        (["split.test_fraction=0.01"],
         "split.test_fraction 0.01 leaves class -1 absent from one side of the split"),
        (["split.test_fraction=0.01", "split.stratified=false"],
         "split.test_fraction 0.01 leaves one side of the split empty"),
        (["fitness.val_fraction=0.99"],
         "fitness.val_fraction 0.99 leaves class -1 absent from one side of the split"),
    ])
    def test_infeasible_split_is_one_line_naming_its_key(self, tmp_path, csv_path,
                                                         settings_, message):
        argv = ["run-all", "--data", csv_path, "--out", str(tmp_path / "out"),
                "--set", "pca.k=2", "--set", "hho.t=2"]
        for item in settings_:
            argv += ["--set", item]
        code, _out, err = run_cli(argv)
        assert (code, err) == (2, f"data error: {message}\n")

    def test_one_training_row_to_oversample_names_smote_and_split_keys(self, tmp_path):
        """Three -1 rows of ten, and a 0.6 test split leaves one of them to train on."""
        rows = [f"{i * 0.37 % 1:.3f},{i * 0.61 % 1:.3f},{1 if i < 7 else -1}" for i in range(10)]
        csv_path = tmp_path / "ten.csv"
        csv_path.write_text("\n".join(["g0,g1,label", *rows]) + "\n")
        code, _out, err = run_cli(["run-all", "--data", str(csv_path), "--out",
                                   str(tmp_path / "out"), "--no-selection", "--set", "pca.k=2",
                                   "--set", "split.test_fraction=0.6"])
        assert code == 2
        assert err.startswith("data error: class -1 ") and err.count("\n") == 1, err
        assert "smote.enabled" in err and "split.test_fraction" in err, err

    @pytest.mark.parametrize("setting, message", [
        ("data.label_column=99", "data.label_column=99 names no column of the 5-column header"),
        ("data.label_column=-6", "data.label_column=-6 names no column of the 5-column header"),
        ("data.label_column=foo",
         "data.label_column=foo names no column of the 5-column header"),
        ("data.positive_label=7", "{path}: data.positive_label=7 not in classes ['-1', '1']"),
    ], ids=["index", "negative_index", "name", "positive_label"])
    def test_label_error_is_one_line_naming_its_key(self, tmp_path, csv_path, setting, message):
        code, _out, err = run_cli(["run-all", "--data", csv_path, "--out", str(tmp_path / "out"),
                                   "--no-selection", "--set", "pca.k=2", "--set", setting])
        assert (code, err) == (2, f"data error: {message.format(path=csv_path)}\n")

    def test_effective_pca_k_above_qubit_limit_names_pca_k(self, tmp_path):
        csv_path = write_csv(tmp_path / "wide.csv", 48, 26)
        code, _out, err = run_cli(["kernel", "--data", csv_path, "--out", str(tmp_path / "out"),
                                   "--no-selection", "--set", "pca.k=30"])
        assert code == 1
        assert err == ("config error: effective pca.k 26 for the zz map: "
                       "n_qubits must lie in [1, 24]\n")

    @pytest.mark.parametrize("kind", ["zz", "pauli_zyy"])
    def test_one_gene_left_for_an_entangling_map_names_pca_k(self, tmp_path, kind):
        csv_path = write_csv(tmp_path / "narrow.csv", 16, 1)
        code, _out, err = run_cli(["run-all", "--data", csv_path, "--out", str(tmp_path / "out"),
                                   "--no-selection", "--set", f"qk.map={kind}"])
        assert code == 1
        assert err == (f"config error: effective pca.k 1 for the {kind} map: "
                       f"{kind} maps need at least 2 qubits\n")

    def test_config_file_not_utf8_is_one_line_naming_byte_and_offset(self, tmp_path):
        conf = tmp_path / "bad.cfg"
        conf.write_bytes(b"seed=1\ndata.path=caf\xe9.csv\n")
        code, _out, err = run_cli(["run-all", "--config", str(conf)])
        assert code == 1
        assert err == f"config error: {conf}: not utf-8 text: byte 0xe9 at offset 20\n"

    def test_config_file_byte_order_mark_is_dropped(self, tmp_path, csv_path):
        """A file saved as "UTF-8 with BOM" runs: its first key is read as
        written, not with U+FEFF in front."""
        conf = tmp_path / "bom.cfg"
        conf.write_bytes("\ufeffpca.k=2\n# a comment\nseed=5\n".encode())
        assert pipeline.load_config_file(conf) == {"pca.k": "2", "seed": "5"}
        code, _out, err = run_cli(["reduce", "--config", str(conf), "--data", csv_path,
                                   "--out", str(tmp_path / "out"), "--no-selection"])
        assert (code, err) == (0, "")

    def test_unwritable_out_dir_names_out_dir(self, tmp_path, csv_path):
        code, _out, err = run_cli(["reduce", "--data", csv_path, "--out", csv_path,
                                   "--no-selection", "--set", "pca.k=2"])
        assert code == 1
        assert err.startswith("config error: cannot write to out.dir: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["run-all", "--seed", "abc"],
         "bad value for seed: invalid literal for int() with base 10: 'abc'"),
        (["run-all", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_error_is_one_config_line(self, argv, message):
        """A usage error exits 1 (2 is a data error) with one line, not
        argparse's usage block; --seed's value is checked as the key seed."""
        assert run_cli(argv) == (1, "", f"config error: {message}\n")

    def test_no_selection_flag_is_the_selection_key(self, tmp_path, csv_path):
        """--no-selection configures exactly what --set selection.enabled=false does."""
        out = tmp_path / "out"
        base = ["run-all", "--data", csv_path, "--out", str(out), "--set", "pca.k=2"]
        artifacts = []
        for flag in (["--no-selection"], ["--set", "selection.enabled=false"]):
            assert run_cli(base + flag)[0] == 0
            artifacts.append({name: (out / name).read_bytes() for name in os.listdir(out)})
        assert artifacts[0] == artifacts[1] and "mask.csv" not in artifacts[0]

    def test_select_without_selection_names_the_key(self, tmp_path, csv_path):
        out = tmp_path / "out"
        code, _out, err = run_cli(["select", "--data", csv_path, "--out", str(out),
                                   "--set", "selection.enabled=false"])
        assert (code, err) == (1, "config error: selection.enabled=false leaves the select "
                                  "stage nothing to run\n")
        assert not out.exists()

    @pytest.fixture
    def synthetic_csv(self, tmp_path):
        """The 40 x 30 file of scripts/make_synthetic_csv.py."""
        main = runpy.run_path(str(ROOT / "scripts" / "make_synthetic_csv.py"))["main"]
        with contextlib.redirect_stdout(io.StringIO()):
            main(["--samples", "40", "--genes", "30", "--out", str(tmp_path / "d.csv")])
        return str(tmp_path / "d.csv")

    def test_non_finite_phases_stop_the_kernel_stage(self, tmp_path, synthetic_csv):
        """Pair phases of (1e300)^2 overflow to NaN states: exit 3 with one
        line at the kernel stage, not NaN alphas and a later data error."""
        code, _out, err = run_cli(["run-all", "--data", synthetic_csv, "--out",
                                   str(tmp_path / "out"), "--no-selection",
                                   "--set", "pca.k=3", "--set", "scale.hi=1e300"])
        assert (code, err) == (3, "numerical failure: statevector norm drifted to nan; "
                                  "lower scale.hi\n")
        assert not (tmp_path / "out").exists()

    def test_unstratified_split_that_drops_a_class_names_both_keys(self, tmp_path,
                                                                   synthetic_csv):
        code, _out, err = run_cli(["run-all", "--data", synthetic_csv, "--out",
                                   str(tmp_path / "out"), "--set", "split.stratified=false",
                                   "--set", "split.test_fraction=0.05"])
        assert code == 2 and err.startswith("data error: split.test_fraction 0.05 leaves class ")
        assert "split.stratified" in err and err.count("\n") == 1, err

    def test_seed_flag_is_the_seed_key(self, tmp_path, csv_path):
        """--seed N configures exactly what --set seed=N does, and --help
        still exits 0."""
        out = tmp_path / "out"
        base = ["reduce", "--data", csv_path, "--out", str(out), "--no-selection",
                "--set", "pca.k=2"]
        artifacts = []
        for flag in (["--seed", "7"], ["--set", "seed=7"]):
            assert run_cli(base + flag)[0] == 0
            artifacts.append({name: (out / name).read_bytes() for name in os.listdir(out)})
        assert artifacts[0] == artifacts[1] and artifacts[0]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["run-all", "--help"])
        assert exit_info.value.code == 0


# --- fuzz: random --set mixes over every key ---------------------------------

GARBAGE = ["", " ", "nan", "inf", "-inf", "1e309", "-1", "0", "1", "2", "-0.0", "0.5",
           "1e-320", "abc", "true", "None", "1,2", "0x10", "1_0"]
VALID = {
    "data.label_column": st.sampled_from(["label", "-1"]),
    "data.positive_label": st.sampled_from(["1", "-1"]),
    "split.test_fraction": st.floats(0.2, 0.5),
    "split.stratified": st.sampled_from(["true", "false", "no", "ON"]),
    "selection.enabled": st.sampled_from(["true", "false"]),
    "smote.enabled": st.sampled_from(["true", "false"]),
    "smote.k": st.integers(1, 6),
    "hho.n": st.integers(2, 6),
    "hho.t": st.integers(1, 3),
    "hho.lower": st.floats(-5, 0),
    "hho.upper": st.floats(0.5, 5),
    "hho.transfer": st.sampled_from(["s", "v"]),
    "fitness.alpha": st.floats(0, 1),
    "fitness.knn_k": st.integers(1, 6),
    "fitness.val_fraction": st.floats(0.1, 0.6),
    "pca.k": st.integers(1, 8),
    "qk.map": st.sampled_from(pipeline.KERNEL_CHOICES),
    "qk.reps": st.integers(1, 3),
    "qk.mode": st.sampled_from(["exact", "sampled"]),
    "qk.shots": st.integers(1, 64),
    "qk.seed": st.integers(0, 2**70),
    "svm.c": st.floats(1e-3, 1e3),
    "svm.tol": st.floats(1e-6, 0.5),
    "svm.max_passes": st.integers(0, 5),
    "svm.psd_clip": st.sampled_from(["auto", "on", "off"]),
    "scale.lo": st.floats(-2, 0),
    "scale.hi": st.floats(0.1, 4),
    "pipeline.pca_before_smote": st.sampled_from(["true", "false"]),
    "seed": st.integers(0, 2**70),
    "smote.targets.1": st.integers(0, 30),
    "smote.targets.-1": st.integers(0, 30),
}
# paths stay inside the example's directory: missing, a directory, a file
PATH_KEYS = {"data.path": ["data.csv", "missing.csv", "."],
             "out.dir": ["out", "out/nested", "data.csv"]}
NAMED = tuple(KEYS) + ("smote.targets", "--set")


@st.composite
def command_lines(draw):
    """A command, valid values for up to eight keys, and half the time one bad value."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    mix = {"hho.t": str(draw(st.integers(1, 3)))}
    for key in draw(st.lists(st.sampled_from(sorted(VALID) + sorted(PATH_KEYS)),
                             max_size=8, unique=True)):
        mix[key] = draw(st.sampled_from(PATH_KEYS[key]) if key in PATH_KEYS
                        else VALID[key].map(str))
    if draw(st.booleans()):
        mix[draw(st.sampled_from(sorted(VALID)))] = draw(st.sampled_from(GARBAGE))
    no_selection = command != "select" and draw(st.booleans())
    return command, mix, no_selection


@given(n_rows=st.integers(8, 16), n_genes=st.integers(1, 6), data_seed=st.integers(0, 9),
       calls=st.lists(command_lines(), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_fuzz(n_rows, n_genes, data_seed, calls):
    with tempfile.TemporaryDirectory() as work:
        write_csv(os.path.join(work, "data.csv"), n_rows, n_genes, data_seed)
        for command, mix, no_selection in calls:
            argv = [command] + ["--no-selection"] * no_selection
            for key, value in mix.items():
                if key in PATH_KEYS:
                    value = os.path.join(work, value)
                argv += ["--set", f"{key}={value}"]
            if "data.path" not in mix:
                argv += ["--data", os.path.join(work, "data.csv")]
            if "out.dir" not in mix:
                argv += ["--out", os.path.join(work, "out")]
            code, _out, err = run_cli(argv)
            assert code in (0, 1, 2, 3), (argv, code, err)
            assert "Traceback" not in err, (argv, err)
            if code == 1:
                assert err.count("\n") == 1, (argv, err)
                assert any(name in err for name in NAMED), (argv, err)
            if code == 0:
                out_dir = mix.get("out.dir", "out")
                names = os.listdir(os.path.join(work, out_dir))  # may hold out/nested
                assert ("metrics.json" in names) == (cli.COMMANDS[command] == "evaluate")
                assert len(config_hashes(os.path.join(work, out_dir))) == 1, (argv, names)


def test_cli_import_loads_no_third_party_module_but_numpy():
    """`import qkgene.cli` (the benchmark's setup_s) pulls in the stdlib,
    numpy and qkgene only: scipy and hypothesis stay test-only."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import qkgene.cli\n"
             "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
             "print(' '.join(sorted(loaded - set(sys.stdlib_module_names))))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["numpy", "qkgene"]
