"""Gene selection and quantum-kernel classification toolkit."""

from .classifier import SvmModel, smo_train
from .data_io import LabeledDataset, PhaseScaler, SplitSpec, load_csv, stratified_split
from .metrics import ConfusionMatrix, confusion, roc_auc, scores_from_confusion
from .optimizer import FeatureMask, FitnessConfig, HhoParams, run_bhho
from .pipeline import PipelineConfig, RunResult, parse_config, run
from .quantum import FeatureMapSpec, ShotConfig, kernel_matrix
from .reduction import PcaModel, pca_fit, pca_transform
from .sampling import SmoteConfig, smote_oversample
from .synth import blobs_dataset, planted_dataset

__version__ = "0.1.0"

__all__ = [
    "ConfusionMatrix", "FeatureMapSpec", "FeatureMask", "FitnessConfig",
    "HhoParams", "LabeledDataset", "PcaModel", "PhaseScaler",
    "PipelineConfig", "RunResult", "ShotConfig", "SmoteConfig", "SplitSpec",
    "SvmModel", "blobs_dataset", "confusion", "kernel_matrix",
    "load_csv", "parse_config", "pca_fit", "pca_transform", "planted_dataset",
    "roc_auc", "run", "run_bhho", "scores_from_confusion", "smo_train",
    "smote_oversample", "stratified_split",
]
