"""Kernel SVM trained by sequential minimal optimization.

The dual problem min 0.5*a'Qa - sum(a) with Q = yy' o K, 0 <= a <= C and
y'a = 0 is solved with maximal-violating-pair working set selection: the
pair update preserves the equality constraint exactly, box bounds are
enforced by clipping, and convergence means the KKT violation m - M drops
to tol. Precomputed kernels only; rows/columns must match the training
sample order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError, NumericalError

SYMMETRY_TOL = 1e-9


@dataclass
class SvmModel:
    alphas: np.ndarray
    bias: float
    support_indices: np.ndarray
    train_labels: np.ndarray
    c: float
    kkt_violation: float = 0.0


def smo_train(kernel, labels, c: float = 1.0, tol: float = 1e-3,
              max_passes: int | None = None) -> SvmModel:
    """Train on a precomputed kernel; a pass is up to n pair updates.

    Raises ConvergenceError (carrying the residual KKT violation) if the
    update budget of max_passes * n runs out; the default budget is 10 * n
    passes. Its message names svm.max_passes and svm.tol, the config keys
    that set max_passes and tol.
    """
    K = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = len(y)
    if K.shape != (n, n):
        raise DataError("kernel size does not match label count")
    if set(np.unique(y).tolist()) != {-1.0, 1.0}:
        raise DataError("training labels must include both -1 and +1")
    if not c > 0:  # written so that NaN fails too
        raise DataError("C must be positive")
    if not tol > 0:
        raise DataError("tol must be positive")
    # One n x n buffer: first |K - K'|, then Q. It is in column order, so
    # the pair updates read Q[:, i] contiguously, and it is filled through
    # its row-order transpose Qt, so each fill streams through memory.
    Q = np.empty((n, n), order="F")
    Qt = Q.T
    np.subtract(K.T, K, out=Qt)
    asym = float(np.max(np.abs(Q, out=Q)))
    if asym > SYMMETRY_TOL:
        raise NumericalError(f"kernel matrix asymmetric by {asym:.3e}")

    # y is +-1, so (K * y_i) * y_j has the bits of (y_i * y_j) * K
    np.multiply(K.T, y, out=Qt)
    Qt *= y[:, None]
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0
    budget = (max_passes if max_passes is not None else 10 * n) * n

    updates = 0
    while True:
        neg_yg = -y * grad
        in_up = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
        in_low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < c))
        up_vals = np.where(in_up, neg_yg, -np.inf)
        low_vals = np.where(in_low, neg_yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        m_val = up_vals[i]
        M_val = low_vals[j]
        if m_val - M_val <= tol:
            break
        if updates >= budget:
            raise ConvergenceError(
                f"SMO used its budget of {budget} updates, svm.max_passes times {n} rows, "
                f"with KKT violation {m_val - M_val:.3e} > svm.tol {tol}",
                kkt_violation=float(m_val - M_val),
            )

        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if quad <= 0:
            quad = 1e-12
        step = (m_val - M_val) / quad
        step = min(step,
                   (c - alpha[i]) if y[i] > 0 else alpha[i],
                   alpha[j] if y[j] > 0 else (c - alpha[j]))
        alpha[i] = min(max(alpha[i] + y[i] * step, 0.0), c)
        alpha[j] = min(max(alpha[j] - y[j] * step, 0.0), c)
        grad += Q[:, i] * (y[i] * step) - Q[:, j] * (y[j] * step)
        updates += 1

    eps_free = 1e-8 * c
    free = (alpha > eps_free) & (alpha < c - eps_free)
    if np.any(free):
        bias = float(np.mean((-y * grad)[free]))
    else:
        bias = float((m_val + M_val) / 2.0)

    return SvmModel(
        alphas=alpha,
        bias=bias,
        support_indices=np.flatnonzero(alpha > 1e-10),
        train_labels=y.astype(np.int64),
        c=float(c),
        kkt_violation=float(m_val - M_val),
    )


def dual_objective(kernel, labels, alphas) -> float:
    K = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    a = np.asarray(alphas, dtype=np.float64)
    ay = a * y
    return float(0.5 * ay @ K @ ay - a.sum())


def decision_function(model: SvmModel, kernel_rows) -> np.ndarray:
    """Scores for rows of K(test, train) against the trained model."""
    rows = np.asarray(kernel_rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[1] != len(model.alphas):
        raise DataError("kernel row width does not match training size")
    return rows @ (model.alphas * model.train_labels) + model.bias


def predict(model: SvmModel, kernel_rows) -> np.ndarray:
    scores = decision_function(model, kernel_rows)
    # a score of exactly zero goes to the positive class
    return np.where(scores >= 0.0, 1, -1).astype(np.int64)


def rbf_kernel_matrix(x, z=None, gamma: float = 1.0) -> np.ndarray:
    """exp(-gamma * ||x - z||^2); symmetric with unit diagonal when z is None."""
    x = np.asarray(x, dtype=np.float64)
    if gamma <= 0:
        raise DataError("gamma must be positive")
    square = z is None
    z = x if square else np.asarray(z, dtype=np.float64)
    # the operations of exp(-gamma * max(|x|^2 + |z|^2 - 2 x.z, 0)), in that
    # order, in the result array and one product array
    K = np.sum(x**2, axis=1)[:, None] + np.sum(z**2, axis=1)[None, :]
    product = x @ z.T
    product *= 2.0
    K -= product
    del product
    np.maximum(K, 0.0, out=K)
    K *= -gamma
    np.exp(K, out=K)
    return mirror_upper(K) if square else K


def mirror_upper(K: np.ndarray) -> np.ndarray:
    """Copy the strict upper triangle of square K onto the lower one and set
    a unit diagonal, in place, one row at a time; returns K.

    On entries >= 0 this gives the bytes of triu(K, 1) + triu(K, 1).T with
    its diagonal set to 1 (u + 0.0 == u), exactly symmetric whatever order
    BLAS summed in, without that form's two n x n temporaries.
    """
    for i in range(1, len(K)):
        K[i, :i] = K[:i, i]
    np.fill_diagonal(K, 1.0)
    return K


def clip_kernel_psd(kernel) -> np.ndarray:
    """Repair a nearly-PSD matrix by clipping negative eigenvalues at zero."""
    K = np.asarray(kernel, dtype=np.float64)
    sym = 0.5 * (K + K.T)
    values, vectors = np.linalg.eigh(sym)
    rebuilt = (vectors * np.maximum(values, 0.0)) @ vectors.T
    return 0.5 * (rebuilt + rebuilt.T)
