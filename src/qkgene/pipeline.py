"""End-to-end experiment pipeline and its flat key=value configuration.

Stage order: stratified split -> (optional) hawk-search gene selection on
the raw training genes -> minority oversampling of the training partition
-> PCA fit on training data only -> phase scaling fitted on train and
reapplied to test -> kernel matrices -> SMO training -> prediction and
metrics. A config switch swaps the oversampling/PCA order. Test labels are
consumed exclusively by the metrics stage.

Every stochastic stage gets its own seed derived from the master seed, so
identical configs reproduce identical artifacts byte for byte. The shot
seed is the one exception: it is its own config key because the sampled
kernel treats it as a physical device setting rather than a derived stream.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import classifier, metrics, quantum, reduction
from .data_io import (LabeledDataset, PhaseScaler, SplitSpec, load_csv, long_format_lines,
                      not_text, render, stratified_split, table_lines, write_text)
# under its old name: perfbench/tracer.py times the pipeline's CSV writes by
# wrapping pipeline._write_csv, which the writers below look up at call time
from .data_io import write_csv as _write_csv
from .errors import (POSITIVE, ConfigError, at_least, check_settings, check_span, one_of, rule_of,
                     setting)
from .optimizer import FeatureMask, FitnessConfig, HhoParams, run_bhho
from .sampling import SmoteConfig, smote_oversample

KERNEL_CHOICES = (*quantum.MAP_KINDS, "rbf")
COMPARE_COLUMNS = ("accuracy", "precision", "recall", "specificity", "f1", "auc")

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _stage_key(cls, name: str, default=MISSING, *, key: str):
    """A config key that sets field `name` of stage settings class cls, with
    that field's default (unless given: the field has none), check and rule."""
    if default is MISSING:
        default = cls.__dataclass_fields__[name].default
    return setting(default, *rule_of(cls, name), key=key, stage=cls, field=name)


@dataclass(frozen=True)
class PipelineConfig:
    """The one config schema: each field carries its dotted key, default and
    check, a stage-owned key its stage field's (_stage_key). check_settings
    also makes every int an integer, not a bool or a float such as 3.0, and
    every float finite. smote_targets collects the smote.targets.<class> keys."""
    data_path: str = setting("", key="data.path")
    label_column: str = setting("label", key="data.label_column")
    positive_label: str = setting("1", key="data.positive_label")
    test_fraction: float = _stage_key(SplitSpec, "test_fraction", key="split.test_fraction")
    stratified: bool = _stage_key(SplitSpec, "stratified", key="split.stratified")
    selection_enabled: bool = setting(True, key="selection.enabled")
    smote_enabled: bool = setting(True, key="smote.enabled")
    smote_k: int = _stage_key(SmoteConfig, "k_neighbors", key="smote.k")
    smote_targets: tuple[tuple[int, int], ...] = ()
    hho_hawks: int = _stage_key(HhoParams, "n_hawks", 10, key="hho.n")
    hho_iters: int = _stage_key(HhoParams, "max_iters", 100, key="hho.t")
    hho_lower: float = _stage_key(HhoParams, "lower_bound", key="hho.lower")
    hho_upper: float = _stage_key(HhoParams, "upper_bound", key="hho.upper")
    hho_transfer: str = _stage_key(HhoParams, "transfer", key="hho.transfer")
    fit_alpha: float = _stage_key(FitnessConfig, "alpha", key="fitness.alpha")
    fit_knn_k: int = _stage_key(FitnessConfig, "knn_k", key="fitness.knn_k")
    fit_val_fraction: float = _stage_key(FitnessConfig, "val_fraction", key="fitness.val_fraction")
    pca_k: int = setting(20, *at_least(1), key="pca.k")
    qk_map: str = setting("zz", *one_of(*KERNEL_CHOICES), key="qk.map")
    qk_reps: int = _stage_key(quantum.FeatureMapSpec, "reps", key="qk.reps")
    qk_mode: str = setting("exact", *one_of("exact", "sampled"), key="qk.mode")
    qk_shots: int = _stage_key(quantum.ShotConfig, "shots", key="qk.shots")
    qk_seed: int = _stage_key(quantum.ShotConfig, "seed", key="qk.seed")
    svm_c: float = setting(1.0, *POSITIVE, key="svm.c")
    svm_tol: float = setting(1e-3, *POSITIVE, key="svm.tol")
    svm_max_passes: int = setting(0, *at_least(0), key="svm.max_passes")  # 0: the trainer default
    psd_clip: str = setting("auto", *one_of("auto", "on", "off"), key="svm.psd_clip")
    scale_lo: float = _stage_key(PhaseScaler, "lo", key="scale.lo")
    scale_hi: float = _stage_key(PhaseScaler, "hi", key="scale.hi")
    pca_before_smote: bool = setting(False, key="pipeline.pca_before_smote")
    seed: int = setting(42, *at_least(0), key="seed")
    out_dir: str = setting("runs/out", key="out.dir")

    def __post_init__(self):
        check_settings(self, _KEYS)
        check_span("hho.lower", "hho.upper", self.hho_lower, self.hho_upper)
        check_span("scale.lo", "scale.hi", self.scale_lo, self.scale_hi)


# dotted config key -> PipelineConfig field
_FIELDS = {f.metadata["key"]: f for f in fields(PipelineConfig) if "key" in f.metadata}
_KEYS = {f.name: key for key, f in _FIELDS.items()}  # PipelineConfig field -> its dotted key


def _convert(key: str, raw: str):
    kind = _FIELDS[key].type
    raw = raw.strip()
    try:
        if kind == "bool":
            if raw.lower() not in _TRUE | _FALSE:
                raise ValueError(f"not a boolean: {raw!r}")
            return raw.lower() in _TRUE
        return {"int": int, "float": float}.get(kind, str)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config(mapping: dict) -> PipelineConfig:
    """Build a config from flat dotted keys; unknown keys are an error."""
    values: dict = {}
    targets: dict[int, int] = {}
    for key, raw in mapping.items():
        if key.startswith("smote.targets."):
            cls_text = key[len("smote.targets."):]
            try:
                targets[int(cls_text)] = int(str(raw).strip())
            except ValueError as exc:
                raise ConfigError(f"bad smote target {key}={raw}") from exc
            continue
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        values[_FIELDS[key].name] = _convert(key, raw) if isinstance(raw, str) else raw
    if targets:
        values["smote_targets"] = tuple(sorted(targets.items()))
    return PipelineConfig(**values)


def load_config_file(path) -> dict[str, str]:
    """key=value lines; blank lines, # comments and a leading U+FEFF are skipped."""
    try:
        with open(path) as fh:
            text = fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(not_text(path, exc)) from None
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def config_hash(cfg: PipelineConfig) -> str:
    parts = []
    for key in sorted(_FIELDS):
        value = getattr(cfg, _FIELDS[key].name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        parts.append(f"{key}={text}")
    parts.append("smote.targets=" + ",".join(f"{c}:{n}" for c, n in sorted(cfg.smote_targets)))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


_STAGE_INDEX = {"split": 0, "smote": 1, "select": 2, "fitness": 3}


def stage_seed(master: int, stage: str) -> int:
    """Per-stage stream derived from the master seed."""
    seq = np.random.SeedSequence([master, _STAGE_INDEX[stage]])
    return int(seq.generate_state(1, np.uint64)[0])


# stage settings class -> its fields no config key sets, from the config and the effective pca.k
_DERIVED = {
    SplitSpec: lambda cfg, k: {"seed": stage_seed(cfg.seed, "split"), "key": "split.test_fraction"},
    SmoteConfig: lambda cfg, k: {"seed": stage_seed(cfg.seed, "smote"),
                                 "target_counts": dict(cfg.smote_targets) or None},
    HhoParams: lambda cfg, k: {"seed": stage_seed(cfg.seed, "select")},
    FitnessConfig: lambda cfg, k: {"seed": stage_seed(cfg.seed, "fitness")},
    quantum.FeatureMapSpec: lambda cfg, k: {"n_qubits": k, "kind": cfg.qk_map},
    quantum.ShotConfig: lambda cfg, k: {},
    PhaseScaler: lambda cfg, k: {},
}


def _stage_settings(cls, cfg: PipelineConfig, k_effective: int = 0):
    """Stage settings class cls: its fields' config keys (_stage_key), then _DERIVED's values."""
    values = {f.metadata["field"]: getattr(cfg, f.name)
              for f in _FIELDS.values() if f.metadata.get("stage") is cls}
    return cls(**values, **_DERIVED[cls](cfg, k_effective))


@dataclass
class PreparedData:
    train: LabeledDataset  # kernel-ready: selected, resampled, reduced, scaled
    test: LabeledDataset
    gene_names: list[str]  # of the raw input genes, for the mask artifact
    mask: FeatureMask | None = None
    history: list | None = None  # (best fitness, selected count) per search iteration
    # the rest stay unset after split_and_select alone
    pca: reduction.PcaModel | None = None
    scaler: PhaseScaler | None = None
    k_effective: int = 0
    input_hash: str = ""


def _load(cfg: PipelineConfig, ds: LabeledDataset | None) -> LabeledDataset:
    if ds is not None:
        return ds
    if not cfg.data_path:
        raise ConfigError("data.path is required")
    label_column: str | int = cfg.label_column
    with contextlib.suppress(ValueError):
        label_column = int(cfg.label_column)
    return load_csv(cfg.data_path, label_column, cfg.positive_label)


def split_and_select(cfg: PipelineConfig, ds: LabeledDataset | None = None) -> PreparedData:
    """Load and split; with selection.enabled, keep only the genes the search selects."""
    ds = _load(cfg, ds)
    train, test = stratified_split(ds, _stage_settings(SplitSpec, cfg))
    prep = PreparedData(train=train, test=test, gene_names=list(ds.gene_names))
    del ds  # the split copied its rows: free the loaded matrix
    if cfg.selection_enabled:
        prep.mask, prep.history = run_bhho(train, _stage_settings(HhoParams, cfg),
                                           _stage_settings(FitnessConfig, cfg))
        prep.train = train.select_genes(prep.mask.bits)
        prep.test = test.select_genes(prep.mask.bits)
    return prep


def prepare(cfg: PipelineConfig, ds: LabeledDataset | None = None) -> PreparedData:
    """split_and_select, then oversampling, PCA and phase scaling, in cfg's order."""
    prep = split_and_select(cfg, ds)
    train, test = prep.train, prep.test

    def resample(part: LabeledDataset) -> LabeledDataset:
        if not cfg.smote_enabled:
            return part
        return smote_oversample(part, _stage_settings(SmoteConfig, cfg))

    if not cfg.pca_before_smote:
        train = resample(train)
    k_eff = min(cfg.pca_k, train.n_genes, train.n_samples)
    pca = reduction.pca_fit(train.features, k_eff)
    train = LabeledDataset(reduction.pca_transform(pca, train.features), train.labels)
    test = LabeledDataset(reduction.pca_transform(pca, test.features), test.labels)
    if cfg.pca_before_smote:
        train = resample(train)

    scaler = _stage_settings(PhaseScaler, cfg).fit(train.features)
    prep.train, prep.test = scaler.transform(train), scaler.transform(test)
    prep.pca, prep.scaler, prep.k_effective = pca, scaler, k_eff
    digest = hashlib.sha256()
    for chunk in (prep.train.features, prep.train.labels, prep.test.features, prep.test.labels):
        digest.update(np.ascontiguousarray(chunk).tobytes())
    prep.input_hash = digest.hexdigest()[:16]
    return prep


def _kernels(cfg: PipelineConfig, prep: PreparedData):
    kind, k = cfg.qk_map, prep.k_effective
    if kind == "rbf":
        gamma = 1.0 / k
        return (classifier.rbf_kernel_matrix(prep.train.features, gamma=gamma),
                classifier.rbf_kernel_matrix(prep.test.features, prep.train.features,
                                             gamma=gamma))
    try:  # the effective pca.k is known only here: clamped to the genes and rows left
        spec = _stage_settings(quantum.FeatureMapSpec, cfg, k)
    except ConfigError as exc:
        raise ConfigError(f"effective pca.k {k} for the {kind} map: {exc}") from None
    shots = _stage_settings(quantum.ShotConfig, cfg) if cfg.qk_mode == "sampled" else None
    k_train = quantum.kernel_matrix(prep.train.features, spec, shots)
    k_cross = quantum.cross_kernel_matrix(prep.test.features, prep.train.features, spec, shots)
    return k_train, k_cross


def _train(cfg: PipelineConfig, k_train: np.ndarray, labels: np.ndarray) -> classifier.SvmModel:
    clip = cfg.psd_clip == "on" or (
        cfg.psd_clip == "auto" and cfg.qk_mode == "sampled" and cfg.qk_map != "rbf"
    )
    if clip:
        k_train = classifier.clip_kernel_psd(k_train)
    return classifier.smo_train(
        k_train, labels, c=cfg.svm_c, tol=cfg.svm_tol,
        max_passes=cfg.svm_max_passes if cfg.svm_max_passes > 0 else None,
    )


def _evaluate(model: classifier.SvmModel, k_cross: np.ndarray, test_labels: np.ndarray):
    # the only stage that sees test labels
    scores = classifier.decision_function(model, k_cross)
    predicted = classifier.predict(model, k_cross)
    cm = metrics.confusion(test_labels, predicted)
    summary = metrics.scores_from_confusion(cm)
    auc, curve = metrics.roc_auc(test_labels, scores)
    summary.update(auc=auc, tp=cm.tp, tn=cm.tn, fp=cm.fp, fn=cm.fn)
    return summary, curve


def _out_path(cfg: PipelineConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _write_mask(cfg, hash_text, mask: FeatureMask, gene_names: list[str]) -> None:
    names = gene_names or [f"g{i:04d}" for i in range(len(mask.bits))]
    _write_csv(_out_path(cfg, "mask.csv"), [f"config_hash={hash_text}"],
               ["gene", "selected"],
               table_lines(zip(names, (int(b) for b in mask.bits))))


def _write_convergence(cfg, hash_text, history) -> None:
    rows = [(t, fit, count) for t, (fit, count) in enumerate(history)]
    _write_csv(_out_path(cfg, "convergence.csv"), [f"config_hash={hash_text}"],
               ["iteration", "best_fitness", "selected_count"], table_lines(rows))


def _write_kernel(cfg, hash_text, name: str, matrix: np.ndarray) -> None:
    _write_csv(_out_path(cfg, name), [f"config_hash={hash_text}"],
               ["row", "col", "value"], long_format_lines(matrix))


def _write_model(cfg, hash_text, model: classifier.SvmModel) -> None:
    support = np.zeros(len(model.alphas), dtype=int)
    support[model.support_indices] = 1
    rows = ((i, float(a), int(label), int(s)) for i, (a, label, s)
            in enumerate(zip(model.alphas, model.train_labels, support)))
    _write_csv(_out_path(cfg, "model.csv"),
               [f"config_hash={hash_text}", f"c={render(model.c)}",
                f"bias={render(model.bias)}",
                f"kkt_violation={render(model.kkt_violation)}"],
               ["index", "alpha", "label", "support"], table_lines(rows))


def _write_roc(cfg, hash_text, curve) -> None:
    _write_csv(_out_path(cfg, "roc.csv"), [f"config_hash={hash_text}"],
               ["threshold", "fpr", "tpr"], table_lines(curve))


def _write_compare(cfg, hash_text, rows: list[dict], input_hash: str) -> None:
    header = ["kernel", *COMPARE_COLUMNS]
    _write_csv(_out_path(cfg, "compare.csv"),
               [f"config_hash={hash_text}", f"input_hash={input_hash}"],
               header, table_lines([r[k] for k in header] for r in rows))


def _write_metrics(cfg, payload: dict) -> None:
    write_text(_out_path(cfg, "metrics.json"),
               [json.dumps(payload, sort_keys=True, separators=(",", ":")), "\n"])


# stage -> the artifacts it writes, in write order; only evaluate writes
# metrics.json, and writes it last
STAGE_ARTIFACTS = {
    "select": ("mask.csv", "convergence.csv"),
    "reduce": ("pca_model.csv",),
    "kernel": ("kernel_train.csv", "kernel_cross.csv"),
    "train": ("model.csv",),
    "evaluate": ("mask.csv", "convergence.csv", "pca_model.csv", "kernel_train.csv",
                 "kernel_cross.csv", "model.csv", "roc.csv", "metrics.json"),
    "compare": ("compare.csv",),
}
STAGES = tuple(STAGE_ARTIFACTS)
ARTIFACTS = STAGE_ARTIFACTS["evaluate"] + STAGE_ARTIFACTS["compare"]


@dataclass
class RunResult:
    """What one driver call computed; what its stage does not reach stays None."""
    stage: str
    prep: PreparedData
    k_train: np.ndarray | None = None
    k_cross: np.ndarray | None = None
    model: classifier.SvmModel | None = None
    curve: list | None = None
    metrics: dict | None = None  # the metrics.json payload
    rows: list[dict] | None = None  # compare: one row of scores per kernel


def run(cfg: PipelineConfig, stage: str, ds: LabeledDataset | None = None) -> RunResult:
    """Run the pipeline up to `stage` (one of STAGES), set by cfg alone (ds,
    when given, stands in for data.path), and write its artifacts. select
    needs selection.enabled; compare scores every kernel in KERNEL_CHOICES on
    one prepared dataset, each under cfg with qk.map set to that kernel."""
    if stage not in STAGE_ARTIFACTS:
        raise ConfigError(f"unknown stage {stage!r}; choose from {STAGES}")
    if stage == "select" and not cfg.selection_enabled:
        raise ConfigError("selection.enabled=false leaves the select stage nothing to run")
    res = RunResult(stage, (split_and_select if stage == "select" else prepare)(cfg, ds))
    prep = res.prep
    if stage in ("kernel", "train", "evaluate"):
        res.k_train, res.k_cross = _kernels(cfg, prep)
    if stage in ("train", "evaluate"):
        res.model = _train(cfg, res.k_train, prep.train.labels)
    if stage == "evaluate":
        summary, res.curve = _evaluate(res.model, res.k_cross, prep.test.labels)
        res.metrics = dict(
            summary, config_hash=config_hash(cfg), kernel=cfg.qk_map, mode=cfg.qk_mode,
            pca_k=prep.k_effective, n_train=prep.train.n_samples,
            n_test=prep.test.n_samples, use_selection=cfg.selection_enabled,
            selected_count=prep.mask.selected_count if cfg.selection_enabled else None,
            input_hash=prep.input_hash,
        )
    if stage == "compare":
        res.rows = []
        for kind in KERNEL_CHOICES:
            kind_cfg = replace(cfg, qk_map=kind)
            k_train, k_cross = _kernels(kind_cfg, prep)
            model = _train(kind_cfg, k_train, prep.train.labels)
            summary, _curve = _evaluate(model, k_cross, prep.test.labels)
            res.rows.append({"kernel": kind, **{k: summary[k] for k in COMPARE_COLUMNS}})
    _write_artifacts(cfg, res)
    return res


def _write_artifacts(cfg: PipelineConfig, res: RunResult) -> None:
    """The one out-dir rule: delete every name in ARTIFACTS, then write this
    stage's files in STAGE_ARTIFACTS order, metrics.json last, so no out dir
    mixes two runs, even after a failed write. The cost: a rerun that fails
    while writing also loses the previous run's files."""
    prep, hash_text = res.prep, config_hash(cfg)
    writers = {
        "mask.csv": lambda: _write_mask(cfg, hash_text, prep.mask, prep.gene_names),
        "convergence.csv": lambda: _write_convergence(cfg, hash_text, prep.history),
        "pca_model.csv": lambda: reduction.save_pca_model(
            prep.pca, _out_path(cfg, "pca_model.csv"), header_comment=f"config_hash={hash_text}"),
        "kernel_train.csv": lambda: _write_kernel(cfg, hash_text, "kernel_train.csv", res.k_train),
        "kernel_cross.csv": lambda: _write_kernel(cfg, hash_text, "kernel_cross.csv", res.k_cross),
        "model.csv": lambda: _write_model(cfg, hash_text, res.model),
        "roc.csv": lambda: _write_roc(cfg, hash_text, res.curve),
        "compare.csv": lambda: _write_compare(cfg, hash_text, res.rows, prep.input_hash),
        "metrics.json": lambda: _write_metrics(cfg, res.metrics),
    }
    for name in ARTIFACTS:
        with contextlib.suppress(FileNotFoundError):
            os.remove(_out_path(cfg, name))
    for name in STAGE_ARTIFACTS[res.stage]:
        if prep.mask is not None or name not in ("mask.csv", "convergence.csv"):
            writers[name]()
