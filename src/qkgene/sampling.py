"""Synthetic minority oversampling by neighbour interpolation.

Each synthetic sample is x + delta * (x_nn - x) for a class member x, one
of its k nearest same-class neighbours x_nn (Euclidean, ties broken toward
the lower index), and delta drawn uniformly from [0, 1]. Originals are kept
verbatim as a prefix of the output; synthetic rows are appended per class
in ascending label order. Apply this to the training partition only.
Errors about the data name the config keys that would mend them: smote.k,
smote.targets.<class>, or smote.enabled and split.test_fraction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import LabeledDataset
from .errors import ConfigError, DataError, check_integer


@dataclass(frozen=True)
class SmoteConfig:
    k_neighbors: int = 5
    # class label -> desired total count; None raises every class to the
    # majority count
    target_counts: dict[int, int] | None = None
    seed: int = 0

    def __post_init__(self):
        check_integer("k_neighbors", self.k_neighbors)
        if self.k_neighbors < 1:
            raise ConfigError("k_neighbors must be at least 1")


def _neighbour_table(points: np.ndarray, k: int) -> np.ndarray:
    sq = np.sum(points**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.fill_diagonal(d2, np.inf)
    # stable sort keeps the lower index first among equidistant neighbours
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def smote_oversample(ds: LabeledDataset, cfg: SmoteConfig) -> LabeledDataset:
    counts = ds.class_counts()
    if cfg.target_counts is None:
        majority = max(counts.values())
        targets = {cls: majority for cls in counts}
    else:
        targets = dict(cfg.target_counts)
        for cls in targets:
            if cls not in counts:
                raise DataError(f"smote.targets.{cls}={targets[cls]}: class {cls} "
                                "is not in the data")
    for cls, target in targets.items():
        if target < counts[cls]:
            raise DataError(
                f"smote.targets.{cls}={target} is below class {cls}'s current count {counts[cls]}"
            )

    rng = np.random.default_rng(cfg.seed)
    new_rows: list[np.ndarray] = []
    new_labels: list[int] = []
    for cls in sorted(targets):
        need = targets[cls] - counts[cls]
        if need == 0:
            continue
        members = np.flatnonzero(ds.labels == cls)
        if len(members) < 2:
            raise DataError(f"class {cls} has 1 training row and oversampling needs 2: "
                            "set smote.enabled=false or lower split.test_fraction")
        if cfg.k_neighbors > len(members) - 1:
            raise DataError(f"smote.k={cfg.k_neighbors} exceeds the {len(members) - 1} "
                            f"other rows in class {cls}")
        points = ds.features[members]
        neighbours = _neighbour_table(points, cfg.k_neighbors)
        for _ in range(need):
            base = int(rng.integers(len(members)))
            nn = int(neighbours[base, rng.integers(cfg.k_neighbors)])
            delta = rng.random()
            new_rows.append(points[base] + delta * (points[nn] - points[base]))
            new_labels.append(cls)

    if not new_rows:
        return LabeledDataset(ds.features.copy(), ds.labels.copy(), list(ds.gene_names))
    features = np.vstack([ds.features, np.array(new_rows)])
    labels = np.concatenate([ds.labels, np.array(new_labels, dtype=np.int64)])
    return LabeledDataset(features, labels, list(ds.gene_names))
