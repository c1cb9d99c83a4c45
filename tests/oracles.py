"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with a different algorithmic route
than the library code: gate-by-gate circuits instead of the factored
embedding, dense matrices and matrix exponentials (which check the gates'
strided updates) instead of closed-form blocks, projected gradient descent
instead of SMO, explicit double loops instead of rank tricks.  A bug shared
by both routes would have to be introduced twice, independently.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from qkgene.data_io import SplitSpec, split_indices
from qkgene.errors import ConfigError, DataError
from qkgene.metrics import _check_labels
from qkgene.quantum import cross_kernel_matrix

RSQRT2 = 1.0 / np.sqrt(2.0)

_ARITY = {"h": 1, "phase": 1, "rz": 1, "cx": 2, "ryy": 2}


@dataclass(frozen=True)
class Gate:
    """One gate of a feature-map circuit: H, PHASE, RZ, CX or RYY."""
    kind: str
    qubits: tuple[int, ...]
    angle: float = 0.0

    def __post_init__(self):
        qubits = self.qubits
        arity = _ARITY.get(self.kind)
        if arity != len(qubits):
            if arity is None:
                raise ConfigError(f"unknown gate kind {self.kind!r}")
            raise ConfigError(f"{self.kind} gate takes {arity} qubit(s)")
        if arity == 2 and qubits[0] == qubits[1]:
            raise ConfigError("gate qubits must be distinct")
        if qubits[0] < 0 or qubits[-1] < 0:
            raise ConfigError("gate qubits must be non-negative")

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls("h", (q,))

    @classmethod
    def phase(cls, q: int, angle: float) -> "Gate":
        return cls("phase", (q,), angle)

    @classmethod
    def rz(cls, q: int, angle: float) -> "Gate":
        return cls("rz", (q,), angle)

    @classmethod
    def cx(cls, control: int, target: int) -> "Gate":
        return cls("cx", (control, target))

    @classmethod
    def ryy(cls, a: int, b: int, angle: float) -> "Gate":
        return cls("ryy", (a, b), angle)


def zero_state(n_qubits: int) -> np.ndarray:
    """The amplitudes of |0...0> on n qubits."""
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def _apply_inplace(amps: np.ndarray, n_qubits: int, gate: Gate) -> None:
    """Apply one gate to the amplitudes, in place, through a strided view:
    qubit q is the (2,) axis of amps.reshape(-1, 2, 2^q)."""
    if max(gate.qubits) >= n_qubits:
        raise ConfigError(f"gate on qubit {max(gate.qubits)} exceeds register size {n_qubits}")
    kind = gate.kind
    if kind in ("h", "phase", "rz"):
        q = gate.qubits[0]
        view = amps.reshape(-1, 2, 1 << q)
        if kind == "h":
            a0 = view[:, 0, :] + view[:, 1, :]
            a1 = view[:, 0, :] - view[:, 1, :]
            view[:, 0, :] = a0 * RSQRT2
            view[:, 1, :] = a1 * RSQRT2
        elif kind == "phase":
            view[:, 1, :] *= np.exp(1j * gate.angle)
        else:  # rz
            view[:, 0, :] *= np.exp(-0.5j * gate.angle)
            view[:, 1, :] *= np.exp(0.5j * gate.angle)
        return

    hi, lo = max(gate.qubits), min(gate.qubits)
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if kind == "cx":
        control, _target = gate.qubits
        if control == hi:
            swap_a = view[:, 1, :, 0, :]
            swap_b = view[:, 1, :, 1, :]
        else:
            swap_a = view[:, 0, :, 1, :]
            swap_b = view[:, 1, :, 1, :]
        tmp = swap_a.copy()
        swap_a[...] = swap_b
        swap_b[...] = tmp
        return

    # ryy = exp(-i * angle/2 * Y(x)Y): mixes |00>/|11> and |01>/|10> blocks,
    # symmetric under swapping its two qubits
    cos = math.cos(gate.angle / 2.0)
    isin = 1j * math.sin(gate.angle / 2.0)
    b00 = view[:, 0, :, 0, :].copy()
    b01 = view[:, 0, :, 1, :].copy()
    view[:, 0, :, 0, :] = cos * b00 + isin * view[:, 1, :, 1, :]
    view[:, 1, :, 1, :] = isin * b00 + cos * view[:, 1, :, 1, :]
    view[:, 0, :, 1, :] = cos * b01 - isin * view[:, 1, :, 0, :]
    view[:, 1, :, 0, :] = -isin * b01 + cos * view[:, 1, :, 0, :]

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


def run_circuit_gatewise(gates, n_qubits: int) -> np.ndarray:
    """The amplitudes of the gates applied to |0...0>, each on its own by
    the strided update above, which tests check gate by gate against the
    dense unitaries. The reference for the feature-map program."""
    amps = zero_state(n_qubits)
    for gate in gates:
        _apply_inplace(amps, n_qubits, gate)
    return amps


def layer_gatewise(amps: np.ndarray, matrix: np.ndarray, n_qubits: int) -> np.ndarray:
    """amps, shaped (batch, 2^n, width), with the 2x2 matrix applied to each
    of the n qubits of every column in turn: one einsum per qubit."""
    batch, _, width = amps.shape
    out = amps
    for q in range(n_qubits):
        view = out.reshape(batch, -1, 2, 1 << q, width)
        out = np.einsum("ij,bhjlw->bhilw", matrix, view)
    return out.reshape(amps.shape)


def data_map(x, subset) -> float:
    """Phase coefficient: x_i for single qubits, (pi-x_i)(pi-x_j) for pairs."""
    x = np.asarray(x, dtype=np.float64)
    if len(subset) == 1:
        return float(x[subset[0]])
    if len(subset) == 2:
        i, j = subset
        return float((math.pi - x[i]) * (math.pi - x[j]))
    raise ConfigError("data_map supports only 1- and 2-qubit subsets")


def build_feature_map_gatewise(spec, x) -> list:
    """The feature map built one new Gate and one data_map call per gate,
    repetition after repetition."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.n_qubits,):
        raise ConfigError(f"expected {spec.n_qubits} features, got {x.shape}")
    gates = []
    for _ in range(spec.reps):
        gates.extend(Gate.h(q) for q in range(spec.n_qubits))
        gates.extend(Gate.phase(q, 2.0 * data_map(x, (q,))) for q in range(spec.n_qubits))
        for a, b in [(q, q + 1) for q in range(spec.n_qubits - 1)]:
            angle = 2.0 * data_map(x, (a, b))
            if spec.kind == "zz":
                gates.append(Gate.cx(a, b))
                gates.append(Gate.rz(b, angle))
                gates.append(Gate.cx(a, b))
            elif spec.kind == "pauli_zyy":
                gates.append(Gate.ryy(a, b, angle))
    return gates


def gatewise_kernel(left, right, spec) -> np.ndarray:
    """K[i, j] = |<phi(right[j])|phi(left[i])>|^2 from gate-by-gate states
    of gate-by-gate built maps, one overlap at a time."""
    def states(rows):
        return [run_circuit_gatewise(build_feature_map_gatewise(spec, x), spec.n_qubits)
                for x in rows]

    right_states = states(right)
    return np.array([[abs(np.vdot(z, x)) ** 2 for z in right_states] for x in states(left)])


def fidelity_one_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """K[i, j] = |<right[j]|left[i]>|^2, clipped to [0, 1], from one product
    over every pair of states: the reference for the kernels' blocked
    products."""
    overlap = left @ right.conj().T
    return np.clip(overlap.real**2 + overlap.imag**2, 0.0, 1.0)


def square_kernel_one_product(states: np.ndarray) -> np.ndarray:
    """The exact training kernel over the states from one full product: its
    strict upper triangle mirrored, with ones on the diagonal."""
    K = np.triu(fidelity_one_product(states, states), 1)
    K = K + K.T
    np.fill_diagonal(K, 1.0)
    return K


def inverse_gate(gate: Gate) -> Gate:
    """The gate's inverse: negated angle for PHASE, RZ and RYY; H and CX are
    self-inverse."""
    if gate.kind in ("phase", "rz", "ryy"):
        return Gate(gate.kind, gate.qubits, -gate.angle)
    return gate


def inverse_circuit(gates) -> list:
    return [inverse_gate(g) for g in reversed(gates)]


def sampled_kernel_entry_circuit(x, z, spec, shots: int, rng: np.random.Generator) -> float:
    """A kernel entry measured the way the paper estimates it: simulate the
    compute-uncompute circuit U(z)^dagger U(x)|0>, read the all-zeros
    probability off its first amplitude, and count the shots whose uniform
    draw u falls below it."""
    gates = build_feature_map_gatewise(spec, x) + inverse_circuit(
        build_feature_map_gatewise(spec, z))
    amp0 = run_circuit_gatewise(gates, spec.n_qubits)[0]
    p0 = float(np.clip(amp0.real**2 + amp0.imag**2, 0.0, 1.0))
    return int(np.sum(rng.random(shots) < p0)) / shots


def exact_kernel_entry(x, z, spec) -> float:
    """The exact kernel of one pair of rows: production's cross kernel on a
    one-row left and a one-row right side."""
    return float(cross_kernel_matrix(np.asarray([x], dtype=np.float64),
                                     np.asarray([z], dtype=np.float64), spec)[0, 0])


def sampled_kernel_entry(x, z, spec, shot_config, rng: np.random.Generator | None = None) -> float:
    """The shot estimate of exact_kernel_entry(x, z, spec): the share of
    shot_config.shots uniform draws below it, from a generator seeded by
    shot_config.seed unless rng is given."""
    if rng is None:
        rng = np.random.default_rng(shot_config.seed)
    p0 = exact_kernel_entry(x, z, spec)
    return int(np.sum(rng.random(shot_config.shots) < p0)) / shot_config.shots


def sampled_kernel_circuit(left, right, spec, shots: int, seed: int) -> np.ndarray:
    """K[i, j] = sampled_kernel_entry_circuit(left[i], right[j]) with the
    generator seeded by (seed, i, j), one circuit per pair. When right is
    None the kernel is square over left: only i <= j is measured and the
    lower triangle mirrors it."""
    square = right is None
    right = left if square else right
    K = np.empty((len(left), len(right)))
    for i, x in enumerate(left):
        for j in range(i if square else 0, len(right)):
            rng = np.random.default_rng((seed, i, j))
            K[i, j] = sampled_kernel_entry_circuit(x, right[j], spec, shots, rng)
            if square:
                K[j, i] = K[i, j]
    return K


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


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank (a half-integer)."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def rank_roc_auc(y_true, scores) -> tuple[float, list[tuple[float, float, float]]]:
    """(auc, curve) by average ranks and one recount per threshold: the
    library's former roc_auc, kept verbatim as the reference for its curve
    and its AUC's bits."""
    y_true = _check_labels(y_true, "y_true")
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape:
        raise DataError("y_true and scores lengths differ")
    n_pos = int(np.sum(y_true == 1))
    n_neg = int(np.sum(y_true == -1))
    if n_pos == 0 or n_neg == 0:
        raise DataError("roc_auc needs both classes present")

    ranks = _average_ranks(scores)
    rank_sum_pos = float(np.sum(ranks[y_true == 1]))
    auc = (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    curve = [(float("inf"), 0.0, 0.0)]
    tp = fp = 0
    for threshold in np.unique(scores)[::-1]:
        at = scores == threshold
        tp += int(np.sum(at & (y_true == 1)))
        fp += int(np.sum(at & (y_true == -1)))
        curve.append((float(threshold), fp / n_neg, tp / n_pos))
    return auc, curve


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


def logistic_two_branch(delta) -> np.ndarray:
    """Stable logistic by masked gather and scatter: 1 / (1 + exp(-x)) where
    x >= 0, exp(x) / (1 + exp(x)) elsewhere, NaN included."""
    delta = np.asarray(delta, dtype=np.float64)
    out = np.empty_like(delta)
    pos = delta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-delta[pos]))
    ez = np.exp(delta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def knn_predict(train_features: np.ndarray, train_labels: np.ndarray,
                test_features: np.ndarray, k: int) -> np.ndarray:
    """k-NN sign vote on the given columns; equal distances keep training-row
    order (stable sort) and a tied vote predicts +1."""
    d2 = (
        np.sum(test_features**2, axis=1)[:, None]
        + np.sum(train_features**2, axis=1)[None, :]
        - 2.0 * (test_features @ train_features.T)
    )
    k = min(k, len(train_features))
    neighbours = np.argsort(d2, axis=1, kind="stable")[:, :k]
    votes = train_labels[neighbours].sum(axis=1)
    return np.where(votes >= 0, 1, -1).astype(np.int64)


def gather_fitness(train, config, bits) -> float:
    """The wrapper objective with k-NN run on the gathered selected columns,
    on the validation split the library draws for `config`."""
    bits = np.asarray(bits)
    count = int(bits.sum())
    if count == 0:
        return float("inf")
    fit_idx, val_idx = split_indices(
        train.labels, SplitSpec(test_fraction=config.val_fraction, seed=config.seed))
    cols = np.flatnonzero(bits)
    predicted = knn_predict(train.features[fit_idx][:, cols], train.labels[fit_idx],
                            train.features[val_idx][:, cols], config.knn_k)
    error = float(np.mean(predicted != train.labels[val_idx]))
    return config.alpha * error + (1.0 - config.alpha) * count / train.n_genes


def masked_fitness(train, config):
    """The wrapper objective's closure with each mask entering as 0/1 weights
    over all genes, on the validation split the library draws for `config`:
    sum_g w_g (v_g - f_g)^2 is the squared distance over the selected genes,
    with no gather."""
    fit_idx, val_idx = split_indices(
        train.labels, SplitSpec(config.val_fraction, config.seed, key="fitness.val_fraction")
    )
    fit_x, fit_y = train.features[fit_idx], train.labels[fit_idx]
    val_x, val_y = train.features[val_idx], train.labels[val_idx]
    fit_sq, val_sq = fit_x**2, val_x**2
    fit_xt = np.ascontiguousarray(fit_x.T)
    val_positive = val_y > 0
    k = min(config.knn_k, len(fit_x))
    dim = train.n_genes

    def score(bits: np.ndarray) -> float:
        weights = np.asarray(bits, dtype=np.float64)
        count = int(weights.sum())
        if count == 0:
            return math.inf
        d2 = ((val_sq @ weights)[:, None] + (fit_sq @ weights)[None, :]
              - 2.0 * ((val_x * weights) @ fit_xt))
        votes = fit_y[np.argsort(d2, axis=1, kind="stable")[:, :k]].sum(axis=1)
        error = int(np.count_nonzero((votes >= 0) != val_positive)) / len(val_y)
        return config.alpha * error + (1.0 - config.alpha) * count / dim

    return score


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
