"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with a different algorithmic route
than the library code: dense matrices instead of strided statevector updates,
matrix exponentials instead of closed-form blocks, projected gradient descent
instead of SMO, explicit double loops instead of rank tricks.  A bug shared
by both routes would have to be introduced twice, independently.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import scipy.linalg

RSQRT2 = 1.0 / np.sqrt(2.0)

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def dense_h() -> np.ndarray:
    return np.array([[RSQRT2, RSQRT2], [RSQRT2, -RSQRT2]], dtype=complex)


def dense_phase(theta: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, np.exp(1.0j * theta)]], dtype=complex)


def dense_rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=complex
    )


def dense_cx() -> np.ndarray:
    # Basis order (control, target) with control as the slow index.
    return np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )


def dense_ryy(theta: float) -> np.ndarray:
    """exp(-i theta/2 Y(x)Y) via scipy's matrix exponential."""
    return scipy.linalg.expm(-0.5j * theta * np.kron(PAULI_Y, PAULI_Y))


def embed_single(mat2: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Lift a 2x2 operator on `qubit` to the full 2^n space.

    Amplitude index convention: basis index b has the bit of qubit q at
    (b >> q) & 1, i.e. qubit 0 is the least significant bit.  np.kron puts
    its second factor on the fast axis, so the operator for qubit q sits
    between an identity of size 2^(n-q-1) (slow bits) and 2^q (fast bits).
    """
    left = np.eye(1 << (n_qubits - qubit - 1), dtype=complex)
    right = np.eye(1 << qubit, dtype=complex)
    return np.kron(left, np.kron(mat2, right))


def embed_pair(mat4: np.ndarray, qubit_a: int, qubit_b: int, n_qubits: int) -> np.ndarray:
    """Lift a 4x4 operator on (qubit_a, qubit_b) to the full space.

    The 4x4 matrix is indexed with qubit_a as the slow bit: row index is
    2*bit_a + bit_b.  Built by an explicit loop over basis states, which is
    immune to any kron ordering mistakes.
    """
    dim = 1 << n_qubits
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        a_in = (col >> qubit_a) & 1
        b_in = (col >> qubit_b) & 1
        rest = col & ~((1 << qubit_a) | (1 << qubit_b))
        for a_out in (0, 1):
            for b_out in (0, 1):
                amp = mat4[2 * a_out + b_out, 2 * a_in + b_in]
                if amp == 0.0:
                    continue
                row = rest | (a_out << qubit_a) | (b_out << qubit_b)
                full[row, col] += amp
    return full


def dense_gate_unitary(gate, n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n unitary for one library Gate object."""
    if gate.kind == "h":
        return embed_single(dense_h(), gate.qubits[0], n_qubits)
    if gate.kind == "phase":
        return embed_single(dense_phase(gate.angle), gate.qubits[0], n_qubits)
    if gate.kind == "rz":
        return embed_single(dense_rz(gate.angle), gate.qubits[0], n_qubits)
    if gate.kind == "cx":
        return embed_pair(dense_cx(), gate.qubits[0], gate.qubits[1], n_qubits)
    if gate.kind == "ryy":
        return embed_pair(dense_ryy(gate.angle), gate.qubits[0], gate.qubits[1], n_qubits)
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def dense_circuit_unitary(gates, n_qubits: int) -> np.ndarray:
    """Product of per-gate dense unitaries, applied left to right."""
    full = np.eye(1 << n_qubits, dtype=complex)
    for gate in gates:
        full = dense_gate_unitary(gate, n_qubits) @ full
    return full


def project_box_hyperplane(v: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection of v onto {0 <= a <= c, y.a = 0}.

    The projection is clip(v - lam*y, 0, c) for the multiplier lam that
    zeroes g(lam) = y . clip(v - lam*y, 0, c).  With y in {-1, +1}, g is
    continuous, non-increasing, and piecewise linear with breakpoints where
    a coordinate saturates, so the root is solved exactly by scanning the
    sorted breakpoints and interpolating inside the crossing segment.
    """
    breakpoints = np.sort(np.concatenate([(v - c) * y, v * y]))
    values = y @ np.clip(v[:, None] - breakpoints[None, :] * y[:, None], 0.0, c)
    cross = int(np.searchsorted(-values, 0.0))  # first index with g <= 0
    if cross == 0:
        lam = breakpoints[0]
    elif cross == len(breakpoints):
        raise RuntimeError("projection found no feasible multiplier")
    else:
        g_lo, g_hi = values[cross - 1], values[cross]
        lam_lo, lam_hi = breakpoints[cross - 1], breakpoints[cross]
        if g_lo == g_hi:
            lam = lam_lo
        else:
            lam = lam_lo + (lam_hi - lam_lo) * g_lo / (g_lo - g_hi)
    return np.clip(v - lam * y, 0.0, c)


def pgd_qp(
    kernel: np.ndarray,
    labels: np.ndarray,
    c: float,
    iterations: int = 30_000,
) -> tuple[np.ndarray, float]:
    """Projected-gradient reference solver for the SVM dual.

    minimize 0.5 a^T Q a - 1^T a, Q = (y y^T) * K, over the box [0, c]^n
    intersected with y . a = 0.  Returns (alphas, dual objective value).
    """
    y = labels.astype(float)
    q_matrix = np.outer(y, y) * kernel
    n = len(y)
    lipschitz = float(np.linalg.norm(q_matrix, 2)) + 1e-9
    step = 1.0 / lipschitz
    alpha = project_box_hyperplane(np.full(n, 0.5 * c), y, c)
    for _ in range(iterations):
        grad = q_matrix @ alpha - 1.0
        alpha = project_box_hyperplane(alpha - step * grad, y, c)
    objective = 0.5 * alpha @ q_matrix @ alpha - alpha.sum()
    return alpha, float(objective)


def all_pairs_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUC as the explicit positive-negative pair concordance average."""
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def trapezoid_auc(curve) -> float:
    """Area under the ROC curve by trapezoid integration over FPR."""
    fpr = np.array([point[1] for point in curve])
    tpr = np.array([point[2] for point in curve])
    order = np.argsort(fpr, kind="stable")
    return float(np.trapezoid(tpr[order], fpr[order]))


def hand_scores(tp: int, tn: int, fp: int, fn: int) -> dict[str, float]:
    """Confusion-derived scores with 0/0 mapped to 0, written longhand."""

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    accuracy = ratio(tp + tn, tp + tn + fp + fn)
    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    specificity = ratio(tn, tn + fp)
    fpr = ratio(fp, fp + tn)
    f1 = ratio(2.0 * precision * recall, precision + recall)
    return {
        "accuracy": accuracy,
        "precision": precision,
        "recall": recall,
        "specificity": specificity,
        "fpr": fpr,
        "f1": f1,
    }


def hill_tail_exponent(samples: np.ndarray, top_k: int) -> float:
    """Hill estimator of the tail index from the top_k order statistics."""
    magnitudes = np.sort(np.abs(samples))[::-1]
    top = magnitudes[: top_k + 1]
    logs = np.log(top[:-1]) - np.log(top[top_k])
    return 1.0 / float(np.mean(logs))


def mantegna_reference(rng: np.random.Generator, beta: float, size: int) -> np.ndarray:
    """Separate transcription of the Mantegna stable-step recipe."""
    from math import gamma, pi, sin

    num = gamma(1.0 + beta) * sin(pi * beta / 2.0)
    den = gamma((1.0 + beta) / 2.0) * beta * 2.0 ** ((beta - 1.0) / 2.0)
    sigma = (num / den) ** (1.0 / beta)
    u = rng.normal(0.0, sigma, size)
    v = rng.normal(0.0, 1.0, size)
    return u / np.abs(v) ** (1.0 / beta)


def csv_artifact_text(comments, header, rows) -> str:
    """An artifact as csv.writer renders it: `# comment` lines ending in \\n,
    then the header and rows with floats as repr and everything else as str."""
    buf = io.StringIO(newline="")
    for comment in comments:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()


def kernel_rows(matrix):
    """(i, j, value) for every entry of a 2-d matrix, row by row."""
    return [(i, j, float(matrix[i, j]))
            for i in range(matrix.shape[0]) for j in range(matrix.shape[1])]


def pca_model_rows(model):
    """(kind, i, j, value) rows of a PCA model: mean, variances, components."""
    rows = [("mean", 0, j, float(v)) for j, v in enumerate(model.mean)]
    rows += [("variance", i, 0, float(v)) for i, v in enumerate(model.explained_variance)]
    rows += [("component", i, j, float(v))
             for i, row in enumerate(model.components) for j, v in enumerate(row)]
    return rows
