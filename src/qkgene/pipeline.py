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
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import classifier, metrics, quantum, reduction
from .data_io import (LabeledDataset, PhaseScaler, SplitSpec, load_csv, long_format_lines,
                      render, stratified_split, table_lines, write_text)
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


def _key(key: str, default, check=None, rule: str = ""):
    """A config field: its dotted key, its default, and a check its value must pass."""
    return setting(default, check, rule, key=key)


@dataclass(frozen=True)
class PipelineConfig:
    """The one config schema: each field carries its dotted key and its
    check, a stage-owned key the stage field's (rule_of). check_settings also
    makes every int an integer, not a bool or a float such as 3.0 (only
    library callers can pass one; the CLI converts text with int()), and
    every float finite. smote_targets collects the smote.targets.<class> keys."""
    data_path: str = _key("data.path", "")
    label_column: str = _key("data.label_column", "label")
    positive_label: str = _key("data.positive_label", "1")
    test_fraction: float = _key("split.test_fraction", 0.25, *rule_of(SplitSpec, "test_fraction"))
    stratified: bool = _key("split.stratified", True)
    selection_enabled: bool = _key("selection.enabled", True)
    smote_enabled: bool = _key("smote.enabled", True)
    smote_k: int = _key("smote.k", 5, *rule_of(SmoteConfig, "k_neighbors"))
    smote_targets: tuple[tuple[int, int], ...] = ()
    hho_hawks: int = _key("hho.n", 10, *rule_of(HhoParams, "n_hawks"))
    hho_iters: int = _key("hho.t", 100, *rule_of(HhoParams, "max_iters"))
    hho_lower: float = _key("hho.lower", -1.0)
    hho_upper: float = _key("hho.upper", 1.0)
    hho_transfer: str = _key("hho.transfer", "s", *rule_of(HhoParams, "transfer"))
    fit_alpha: float = _key("fitness.alpha", 0.99, *rule_of(FitnessConfig, "alpha"))
    fit_knn_k: int = _key("fitness.knn_k", 5, *rule_of(FitnessConfig, "knn_k"))
    fit_val_fraction: float = _key("fitness.val_fraction", 0.2,
                                   *rule_of(FitnessConfig, "val_fraction"))
    pca_k: int = _key("pca.k", 20, *at_least(1))
    qk_map: str = _key("qk.map", "zz", *one_of(*KERNEL_CHOICES))
    qk_reps: int = _key("qk.reps", 3, *rule_of(quantum.FeatureMapSpec, "reps"))
    qk_mode: str = _key("qk.mode", "exact", *one_of("exact", "sampled"))
    qk_shots: int = _key("qk.shots", 100, *rule_of(quantum.ShotConfig, "shots"))
    qk_seed: int = _key("qk.seed", 10598, *rule_of(quantum.ShotConfig, "seed"))
    svm_c: float = _key("svm.c", 1.0, *POSITIVE)
    svm_tol: float = _key("svm.tol", 1e-3, *POSITIVE)
    svm_max_passes: int = _key("svm.max_passes", 0, *at_least(0))  # 0: the trainer default
    psd_clip: str = _key("svm.psd_clip", "auto", *one_of("auto", "on", "off"))
    scale_lo: float = _key("scale.lo", 0.0)
    scale_hi: float = _key("scale.hi", math.pi)
    pca_before_smote: bool = _key("pipeline.pca_before_smote", False)
    seed: int = _key("seed", 42, *at_least(0))
    out_dir: str = _key("out.dir", "runs/out")

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
            lowered = raw.lower()
            if lowered in _TRUE:
                return True
            if lowered in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
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
    """key=value lines; blank lines and # comments are skipped."""
    mapping: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = stripped.partition("=")
                mapping[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
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
    parts.append(
        "smote.targets=" + ",".join(f"{c}:{n}" for c, n in sorted(cfg.smote_targets))
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


_STAGE_INDEX = {"split": 0, "smote": 1, "select": 2, "fitness": 3}


def stage_seed(master: int, stage: str) -> int:
    """Per-stage stream derived from the master seed."""
    seq = np.random.SeedSequence([master, _STAGE_INDEX[stage]])
    return int(seq.generate_state(1, np.uint64)[0])


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
    try:
        label_column = int(cfg.label_column)
    except ValueError:
        pass
    return load_csv(cfg.data_path, label_column, cfg.positive_label)


def _select(cfg: PipelineConfig, train: LabeledDataset):
    params = HhoParams(
        n_hawks=cfg.hho_hawks,
        max_iters=cfg.hho_iters,
        lower_bound=cfg.hho_lower,
        upper_bound=cfg.hho_upper,
        seed=stage_seed(cfg.seed, "select"), transfer=cfg.hho_transfer,
    )
    fitness_config = FitnessConfig(
        alpha=cfg.fit_alpha,
        knn_k=cfg.fit_knn_k,
        val_fraction=cfg.fit_val_fraction,
        seed=stage_seed(cfg.seed, "fitness"),
    )
    return run_bhho(train, params, fitness_config)


def split_and_select(cfg: PipelineConfig, ds: LabeledDataset | None = None) -> PreparedData:
    """Load and split; with selection.enabled, keep only the genes the search selects."""
    ds = _load(cfg, ds)
    train, test = stratified_split(
        ds, SplitSpec(cfg.test_fraction, stage_seed(cfg.seed, "split"), cfg.stratified,
                      key="split.test_fraction")
    )
    prep = PreparedData(train=train, test=test, gene_names=list(ds.gene_names))
    del ds  # the split copied its rows: free the loaded matrix
    if cfg.selection_enabled:
        prep.mask, prep.history = _select(cfg, train)
        prep.train = train.select_genes(prep.mask.bits)
        prep.test = test.select_genes(prep.mask.bits)
    return prep


def prepare(cfg: PipelineConfig, ds: LabeledDataset | None = None) -> PreparedData:
    """split_and_select, then oversampling, PCA and phase scaling, in cfg's order."""
    prep = split_and_select(cfg, ds)
    train, test = prep.train, prep.test
    smote_cfg = SmoteConfig(
        k_neighbors=cfg.smote_k,
        target_counts=dict(cfg.smote_targets) if cfg.smote_targets else None,
        seed=stage_seed(cfg.seed, "smote"),
    )

    def resample(part: LabeledDataset) -> LabeledDataset:
        return smote_oversample(part, smote_cfg) if cfg.smote_enabled else part

    if not cfg.pca_before_smote:
        train = resample(train)
    k_eff = min(cfg.pca_k, train.n_genes, train.n_samples)
    pca = reduction.pca_fit(train.features, k_eff)
    train = LabeledDataset(reduction.pca_transform(pca, train.features), train.labels)
    test = LabeledDataset(reduction.pca_transform(pca, test.features), test.labels)
    if cfg.pca_before_smote:
        train = resample(train)

    scaler = PhaseScaler(cfg.scale_lo, cfg.scale_hi).fit(train.features)
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
    # the effective pca.k is known only here: clamped to the genes and rows left
    if k > quantum.MAX_QUBITS:
        raise ConfigError(f"pca.k must be at most {quantum.MAX_QUBITS} for the {kind} map "
                          f"(effective pca.k here: {k})")
    if k < 2 and kind != "z":
        raise ConfigError(f"the {kind} map needs pca.k of at least 2 (effective pca.k here: {k})")
    spec = quantum.FeatureMapSpec(n_qubits=k, kind=kind, reps=cfg.qk_reps)
    shots = quantum.ShotConfig(cfg.qk_shots, cfg.qk_seed) if cfg.qk_mode == "sampled" else None
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
