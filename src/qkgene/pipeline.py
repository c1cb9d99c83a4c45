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

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import classifier, metrics, quantum, reduction
from .data_io import (LabeledDataset, PhaseScaler, SplitSpec, load_csv, long_format_lines,
                      render, stratified_split, table_lines, write_text)
# under its old name: perfbench/tracer.py times the pipeline's CSV writes by
# wrapping pipeline._write_csv, which the writers below look up at call time
from .data_io import write_csv as _write_csv
from .errors import ConfigError
from .optimizer import FeatureMask, FitnessConfig, HhoParams, run_bhho
from .sampling import SmoteConfig, smote_oversample

KERNEL_CHOICES = ("z", "zz", "pauli_zyy", "rbf")
COMPARE_KERNELS = KERNEL_CHOICES

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


@dataclass(frozen=True)
class PipelineConfig:
    data_path: str = ""
    label_column: str = "label"
    positive_label: str = "1"
    test_fraction: float = 0.25
    stratified: bool = True
    smote_enabled: bool = True
    smote_k: int = 5
    smote_targets: tuple[tuple[int, int], ...] = ()
    hho_hawks: int = 10
    hho_iters: int = 100
    hho_lower: float = -1.0
    hho_upper: float = 1.0
    hho_transfer: str = "s"
    fit_alpha: float = 0.99
    fit_evaluator: str = "knn"
    fit_knn_k: int = 5
    fit_val_fraction: float = 0.2
    pca_k: int = 20
    qk_map: str = "zz"
    qk_reps: int = 3
    qk_entanglement: str = "linear"
    qk_mode: str = "exact"
    qk_shots: int = 100
    qk_seed: int = 10598
    svm_c: float = 1.0
    svm_tol: float = 1e-3
    svm_max_passes: int = 0  # 0 means the trainer default
    psd_clip: str = "auto"
    scale_lo: float = 0.0
    scale_hi: float = math.pi
    pca_before_smote: bool = False
    seed: int = 42
    out_dir: str = "runs/out"

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("split.test_fraction must lie strictly between 0 and 1")
        if self.qk_map not in KERNEL_CHOICES:
            raise ConfigError(f"qk.map must be one of {KERNEL_CHOICES}")
        if self.qk_mode not in ("exact", "sampled"):
            raise ConfigError("qk.mode must be 'exact' or 'sampled'")
        if self.qk_entanglement != "linear":
            raise ConfigError("qk.entanglement supports only 'linear'")
        if self.hho_transfer not in ("s", "v"):
            raise ConfigError("hho.transfer must be 's' or 'v'")
        if self.psd_clip not in ("auto", "on", "off"):
            raise ConfigError("svm.psd_clip must be auto, on, or off")
        if not self.scale_hi > self.scale_lo:
            raise ConfigError("scale.hi must exceed scale.lo")
        if self.pca_k < 1:
            raise ConfigError("pca.k must be at least 1")
        if self.qk_reps < 1:
            raise ConfigError("qk.reps must be at least 1")
        if self.qk_shots < 1:
            raise ConfigError("qk.shots must be at least 1")
        if self.svm_c <= 0:
            raise ConfigError("svm.c must be positive")
        if self.svm_tol <= 0:
            raise ConfigError("svm.tol must be positive")
        if self.svm_max_passes < 0:
            raise ConfigError("svm.max_passes must be non-negative")
        if self.hho_hawks < 2:
            raise ConfigError("hho.n must be at least 2")
        if self.hho_iters < 1:
            raise ConfigError("hho.t must be at least 1")
        if not self.hho_upper > self.hho_lower:
            raise ConfigError("hho.upper must exceed hho.lower")
        if not 0.0 <= self.fit_alpha <= 1.0:
            raise ConfigError("fitness.alpha must lie in [0, 1]")
        if not 0.0 < self.fit_val_fraction < 1.0:
            raise ConfigError("fitness.val_fraction must lie strictly between 0 and 1")
        if self.smote_k < 1 or self.fit_knn_k < 1:
            raise ConfigError("neighbour counts must be at least 1")


# dotted config key -> dataclass field
KEY_MAP = {
    "data.path": "data_path",
    "data.label_column": "label_column",
    "data.positive_label": "positive_label",
    "split.test_fraction": "test_fraction",
    "split.stratified": "stratified",
    "smote.enabled": "smote_enabled",
    "smote.k": "smote_k",
    "hho.n": "hho_hawks",
    "hho.t": "hho_iters",
    "hho.lower": "hho_lower",
    "hho.upper": "hho_upper",
    "hho.transfer": "hho_transfer",
    "fitness.alpha": "fit_alpha",
    "fitness.evaluator": "fit_evaluator",
    "fitness.knn_k": "fit_knn_k",
    "fitness.val_fraction": "fit_val_fraction",
    "pca.k": "pca_k",
    "qk.map": "qk_map",
    "qk.reps": "qk_reps",
    "qk.entanglement": "qk_entanglement",
    "qk.mode": "qk_mode",
    "qk.shots": "qk_shots",
    "qk.seed": "qk_seed",
    "svm.c": "svm_c",
    "svm.tol": "svm_tol",
    "svm.max_passes": "svm_max_passes",
    "svm.psd_clip": "psd_clip",
    "scale.lo": "scale_lo",
    "scale.hi": "scale_hi",
    "pipeline.pca_before_smote": "pca_before_smote",
    "seed": "seed",
    "out.dir": "out_dir",
}

_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _convert(key: str, field_name: str, raw: str):
    kind = _FIELD_TYPES[field_name]
    raw = raw.strip()
    try:
        if kind == "bool":
            lowered = raw.lower()
            if lowered in _TRUE:
                return True
            if lowered in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
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
        if key not in KEY_MAP:
            raise ConfigError(f"unknown config key {key!r}")
        field_name = KEY_MAP[key]
        values[field_name] = (
            _convert(key, field_name, str(raw)) if isinstance(raw, str) else raw
        )
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
    for key in sorted(KEY_MAP):
        value = getattr(cfg, KEY_MAP[key])
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
    mask: FeatureMask | None
    convergence: np.ndarray | None
    history: list | None
    pca: reduction.PcaModel
    scaler: PhaseScaler
    k_effective: int
    input_hash: str
    gene_names: list[str]  # of the raw input genes, for the mask artifact


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
        dimension=train.n_genes,
        lower_bound=cfg.hho_lower,
        upper_bound=cfg.hho_upper,
        seed=stage_seed(cfg.seed, "select"),
    )
    fitness_config = FitnessConfig(
        alpha=cfg.fit_alpha,
        evaluator=cfg.fit_evaluator,
        knn_k=cfg.fit_knn_k,
        val_fraction=cfg.fit_val_fraction,
        seed=stage_seed(cfg.seed, "fitness"),
    )
    history: list = []
    mask, convergence = run_bhho(train, params, fitness_config,
                                 transfer=cfg.hho_transfer, history=history)
    return mask, convergence, history


def prepare(cfg: PipelineConfig, use_selection: bool,
            ds: LabeledDataset | None = None) -> PreparedData:
    ds = _load(cfg, ds)
    gene_names = list(ds.gene_names)
    train, test = stratified_split(
        ds, SplitSpec(cfg.test_fraction, stage_seed(cfg.seed, "split"), cfg.stratified)
    )

    mask = convergence = history = None
    if use_selection:
        mask, convergence, history = _select(cfg, train)
        train = train.select_genes(mask.bits)
        test = test.select_genes(mask.bits)

    smote_cfg = SmoteConfig(
        k_neighbors=cfg.smote_k,
        target_counts=dict(cfg.smote_targets) if cfg.smote_targets else None,
        seed=stage_seed(cfg.seed, "smote"),
    )

    def resample(part: LabeledDataset) -> LabeledDataset:
        return smote_oversample(part, smote_cfg) if cfg.smote_enabled else part

    if cfg.pca_before_smote:
        k_eff = min(cfg.pca_k, train.n_genes, train.n_samples)
        pca = reduction.pca_fit(train.features, k_eff)
        train = resample(LabeledDataset(reduction.pca_transform(pca, train.features),
                                        train.labels))
        test = LabeledDataset(reduction.pca_transform(pca, test.features), test.labels)
    else:
        train = resample(train)
        k_eff = min(cfg.pca_k, train.n_genes, train.n_samples)
        pca = reduction.pca_fit(train.features, k_eff)
        train = LabeledDataset(reduction.pca_transform(pca, train.features), train.labels)
        test = LabeledDataset(reduction.pca_transform(pca, test.features), test.labels)

    scaler = PhaseScaler(cfg.scale_lo, cfg.scale_hi).fit(train.features)
    train = scaler.transform(train)
    test = scaler.transform(test)

    digest = hashlib.sha256()
    for chunk in (train.features, train.labels, test.features, test.labels):
        digest.update(np.ascontiguousarray(chunk).tobytes())
    return PreparedData(train=train, test=test, mask=mask, convergence=convergence,
                        history=history, pca=pca, scaler=scaler, k_effective=k_eff,
                        input_hash=digest.hexdigest()[:16], gene_names=gene_names)


def _kernels(cfg: PipelineConfig, prep: PreparedData, kind: str | None = None):
    kind = cfg.qk_map if kind is None else kind
    if kind == "rbf":
        gamma = 1.0 / prep.k_effective
        return (classifier.rbf_kernel_matrix(prep.train.features, gamma=gamma),
                classifier.rbf_kernel_matrix(prep.test.features, prep.train.features,
                                             gamma=gamma))
    spec = quantum.FeatureMapSpec(n_qubits=prep.k_effective, kind=kind,
                                  reps=cfg.qk_reps, entanglement=cfg.qk_entanglement)
    shots = quantum.ShotConfig(cfg.qk_shots, cfg.qk_seed)
    k_train = quantum.kernel_matrix(prep.train.features, spec,
                                    mode=cfg.qk_mode, shot_config=shots).values
    k_cross = quantum.cross_kernel_matrix(prep.test.features, prep.train.features,
                                          spec, mode=cfg.qk_mode, shot_config=shots)
    return k_train, k_cross


def _train(cfg: PipelineConfig, k_train: np.ndarray, labels: np.ndarray,
           kind: str) -> classifier.SvmModel:
    clip = cfg.psd_clip == "on" or (
        cfg.psd_clip == "auto" and cfg.qk_mode == "sampled" and kind != "rbf"
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


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


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
    header = ["kernel", "accuracy", "precision", "recall", "specificity", "f1", "auc"]
    _write_csv(_out_path(cfg, "compare.csv"),
               [f"config_hash={hash_text}", f"input_hash={input_hash}"],
               header, table_lines([r[k] for k in header] for r in rows))


def _write_metrics(cfg, payload: dict) -> None:
    write_text(_out_path(cfg, "metrics.json"),
               [json.dumps(payload, sort_keys=True, separators=(",", ":")), "\n"])


def run_select(cfg: PipelineConfig, ds: LabeledDataset | None = None,
               write: bool = True):
    """Selection stage only: split, search, emit mask and convergence."""
    ds = _load(cfg, ds)
    train, _test = stratified_split(
        ds, SplitSpec(cfg.test_fraction, stage_seed(cfg.seed, "split"), cfg.stratified)
    )
    mask, convergence, history = _select(cfg, train)
    if write:
        hash_text = config_hash(cfg)
        _write_mask(cfg, hash_text, mask, train.gene_names)
        _write_convergence(cfg, hash_text, history)
    return mask, convergence


def run_reduce(cfg: PipelineConfig, use_selection: bool = True,
               ds: LabeledDataset | None = None, write: bool = True):
    prep = prepare(cfg, use_selection, ds)
    if write:
        reduction.save_pca_model(prep.pca, _out_path(cfg, "pca_model.csv"),
                                 header_comment=f"config_hash={config_hash(cfg)}")
    return prep


def run_kernel(cfg: PipelineConfig, use_selection: bool = True,
               ds: LabeledDataset | None = None, write: bool = True):
    prep = prepare(cfg, use_selection, ds)
    k_train, k_cross = _kernels(cfg, prep)
    if write:
        hash_text = config_hash(cfg)
        _write_kernel(cfg, hash_text, "kernel_train.csv", k_train)
        _write_kernel(cfg, hash_text, "kernel_cross.csv", k_cross)
    return k_train, k_cross


def run_train(cfg: PipelineConfig, use_selection: bool = True,
              ds: LabeledDataset | None = None, write: bool = True):
    prep = prepare(cfg, use_selection, ds)
    k_train, _k_cross = _kernels(cfg, prep)
    model = _train(cfg, k_train, prep.train.labels, cfg.qk_map)
    if write:
        _write_model(cfg, config_hash(cfg), model)
    return model


def run_full(cfg: PipelineConfig, use_selection: bool = True,
             ds: LabeledDataset | None = None, write: bool = True) -> dict:
    """Whole pipeline; returns the metrics payload written to metrics.json.

    metrics.json is removed before the first write and written after the
    last, so it is present only when the rest of the run's artifacts are.
    """
    prep = prepare(cfg, use_selection, ds)
    k_train, k_cross = _kernels(cfg, prep)
    model = _train(cfg, k_train, prep.train.labels, cfg.qk_map)
    summary, curve = _evaluate(model, k_cross, prep.test.labels)

    hash_text = config_hash(cfg)
    payload = dict(summary)
    payload.update(
        config_hash=hash_text,
        kernel=cfg.qk_map,
        mode=cfg.qk_mode,
        pca_k=prep.k_effective,
        n_train=prep.train.n_samples,
        n_test=prep.test.n_samples,
        use_selection=use_selection,
        selected_count=prep.mask.selected_count if prep.mask is not None else None,
        input_hash=prep.input_hash,
    )
    if write:
        # drop the old completion marker first, and whatever this run will
        # not overwrite, so the out dir never mixes two runs
        _remove(_out_path(cfg, "metrics.json"))
        if prep.mask is None:
            for name in ("mask.csv", "convergence.csv"):
                _remove(_out_path(cfg, name))
        else:
            _write_mask(cfg, hash_text, prep.mask, prep.gene_names)
            _write_convergence(cfg, hash_text, prep.history)
        reduction.save_pca_model(prep.pca, _out_path(cfg, "pca_model.csv"),
                                 header_comment=f"config_hash={hash_text}")
        _write_kernel(cfg, hash_text, "kernel_train.csv", k_train)
        _write_kernel(cfg, hash_text, "kernel_cross.csv", k_cross)
        _write_model(cfg, hash_text, model)
        _write_roc(cfg, hash_text, curve)
        _write_metrics(cfg, payload)
    return payload


@dataclass
class CompareResult:
    rows: list[dict]
    input_hash: str


def run_compare_kernels(cfg: PipelineConfig, ds: LabeledDataset | None = None,
                        use_selection: bool = False,
                        write: bool = True) -> CompareResult:
    """Train and score every kernel on one shared prepared dataset."""
    prep = prepare(cfg, use_selection, ds)
    rows = []
    for kind in COMPARE_KERNELS:
        k_train, k_cross = _kernels(cfg, prep, kind=kind)
        model = _train(cfg, k_train, prep.train.labels, kind)
        summary, _curve = _evaluate(model, k_cross, prep.test.labels)
        rows.append({
            "kernel": kind,
            "accuracy": summary["accuracy"],
            "precision": summary["precision"],
            "recall": summary["recall"],
            "specificity": summary["specificity"],
            "f1": summary["f1"],
            "auc": summary["auc"],
        })
    if write:
        _write_compare(cfg, config_hash(cfg), rows, prep.input_hash)
    return CompareResult(rows=rows, input_hash=prep.input_hash)
