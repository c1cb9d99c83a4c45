"""Principal component analysis sized for many-gene, few-sample matrices.

When the feature count exceeds the sample count the eigenproblem is solved
on the n x n Gram matrix of centered rows instead of the d x d covariance;
both routes produce identical eigenvalues and components. Components follow
a fixed sign convention (largest-magnitude entry positive) so repeated fits
are reproducible. Directions with zero variance, which appear whenever k
reaches the rank of the centered data, are filled in deterministically by
Gram-Schmidt against the standard basis so the component rows always form
an orthonormal set.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data_io import long_format_lines, write_csv
from .errors import DataError, NumericalError

# relative eigenvalue threshold below which a direction counts as zero-variance
_RANK_RTOL = 1e-12


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (k, d), orthonormal rows
    explained_variance: np.ndarray  # (k,), non-negative, descending

    @property
    def k(self) -> int:
        return self.components.shape[0]


def symmetric_eigendecomposition(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NumericalError("eigendecomposition needs a square matrix")
    values, vectors = np.linalg.eigh(matrix)
    order = np.argsort(values, kind="stable")[::-1]
    return values[order], vectors[:, order]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return components


def _complete_basis(components: list[np.ndarray], d: int, missing: int) -> list[np.ndarray]:
    # deterministic fill-in for zero-variance directions: orthogonalize the
    # standard basis against what we already have
    filled: list[np.ndarray] = []
    for j in range(d):
        if len(filled) == missing:
            break
        v = np.zeros(d)
        v[j] = 1.0
        for row in components + filled:
            v -= np.dot(row, v) * row
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            filled.append(v / norm)
    if len(filled) < missing:
        raise NumericalError("could not complete an orthonormal component basis")
    return filled


def pca_fit(features, k: int) -> PcaModel:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("pca_fit needs a 2-d matrix")
    n, d = X.shape
    if n < 2:
        raise DataError("pca_fit needs at least 2 samples")
    if not 1 <= k <= min(n, d):
        raise DataError(f"k={k} outside valid range 1..{min(n, d)}")
    mean = X.mean(axis=0)
    centered = X - mean
    if not np.any(np.abs(centered) > 0):
        raise NumericalError("all rows identical: zero-variance data")

    if d <= n:
        cov = centered.T @ centered / (n - 1)
        values, vectors = symmetric_eigendecomposition(cov)
        components = vectors[:, :k].T.copy()
        variances = np.maximum(values[:k], 0.0)
    else:
        gram = centered @ centered.T / (n - 1)
        values, vectors = symmetric_eigendecomposition(gram)
        cutoff = values[0] * _RANK_RTOL
        rows: list[np.ndarray] = []
        for i in range(k):
            if values[i] > cutoff:
                v = centered.T @ vectors[:, i]
                rows.append(v / np.linalg.norm(v))
        if len(rows) < k:
            rows.extend(_complete_basis(rows, d, k - len(rows)))
        components = np.array(rows)
        variances = np.maximum(values[:k], 0.0)

    return PcaModel(mean, _fix_signs(components), variances)


def pca_transform(model: PcaModel, features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.mean.shape[0]:
        raise DataError("feature width does not match the fitted model")
    return (X - model.mean) @ model.components.T


def save_pca_model(model: PcaModel, path, header_comment: str = "") -> None:
    """Persist as long-format CSV: kind (mean|variance|component), i, j, value."""
    blocks = (("mean,", model.mean[np.newaxis, :]),
              ("variance,", model.explained_variance[:, np.newaxis]),
              ("component,", model.components))
    write_csv(path, [header_comment] if header_comment else [],
              ["kind", "i", "j", "value"],
              (chunk for prefix, block in blocks
               for chunk in long_format_lines(block, prefix)))


def load_pca_model(path) -> PcaModel:
    mean: dict[int, float] = {}
    variances: dict[int, float] = {}
    comps: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        header = next(reader)
        if header != ["kind", "i", "j", "value"]:
            raise DataError(f"{path}: unexpected header {header}")
        for kind, i, j, value in reader:
            if kind == "mean":
                mean[int(j)] = float(value)
            elif kind == "variance":
                variances[int(i)] = float(value)
            elif kind == "component":
                comps[(int(i), int(j))] = float(value)
            else:
                raise DataError(f"{path}: unknown row kind {kind!r}")
    d = len(mean)
    k = len(variances)
    components = np.zeros((k, d))
    for (i, j), v in comps.items():
        components[i, j] = v
    return PcaModel(
        np.array([mean[j] for j in range(d)]),
        components,
        np.array([variances[i] for i in range(k)]),
    )
