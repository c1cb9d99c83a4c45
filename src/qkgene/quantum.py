"""Phase-embedding feature maps and their fidelity kernels.

Qubit 0 is the least significant bit of the amplitude index (little
endian), so |q1 q0> = |10> sits at index 2. A feature map (Havlicek et al.,
arXiv:1804.11326) is a value: build_feature_map(spec, x) keeps the spec and
the row, and len() of it is the circuit's gate count. run_circuit runs it as
a program built from angles (_embed), never as a gate list; the gate-by-gate
simulator that checks it lives in tests/oracles.py.

A linear-chain map has one pair across the register's middle cut, so each
repetition at most doubles the state's Schmidt rank across it (Vidal,
quant-ph/0301063). The program keeps the state as a sum of at most 2^reps
products of a high-half and a low-half vector of about 2^(n/2) amplitudes
each, applies every layer and diagonal to those, and materializes the state
once at the end. If the terms would hold more amplitudes than the state, it
materializes then and finishes on the full register. A circuit peaks at
about one state plus its terms while it stays factored, and at about two
states on the full register: the state plus one layer product or one
diagonal.

Kernel values are state fidelities K(x, z) = |<phi(z)|phi(x)>|^2, the
all-zeros probability of the compute-uncompute circuit U(z)^dagger U(x).
Both kernels are one routine, _kernel: it embeds each row once and takes
the overlaps from the statevectors, one block of right-hand states at a
time (about 1 MiB, at least 8 rows), each entry bit-equal to one product
over all states. It keeps the left rows' states, rows x 2^n x 16 bytes,
plus one conjugated block. The training kernel computes only the blocks on
or above the diagonal; the cross kernel embeds its right rows one block at
a time, so it never holds both sides. Without a shot budget (shots=None,
exact mode) the kernels are the fidelities; given a ShotConfig (sampled
mode) each entry is the hit rate of that many shots, drawn from a
generator seeded by (seed, i, j), and a square kernel draws only i < j.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .classifier import mirror_upper
from .errors import ConfigError, NumericalError, check_integer

MAX_QUBITS = 24
MAX_SHOTS = 1_000_000  # one kernel entry draws shots x 8 bytes of uniforms
_RSQRT2 = 1.0 / math.sqrt(2.0)
_LAYER_BLOCK = 6  # qubits per Kronecker-power product in a layer: one per half at 12 qubits
# right-hand states per overlap product: bounds the kernels' extra memory, and
# at 12 qubits 1 MiB blocks were faster than 8-row or 4 MiB ones
_CONJ_BLOCK_BYTES = 1 << 20
_CONJ_BLOCK_ROWS = 8  # a multiple of the BLAS kernels' column unroll

# map kind -> gates per linear pair and repetition: none, CX·RZ·CX, or RYY
_PAIR_GATES = {"z": 0, "zz": 3, "pauli_zyy": 1}
MAP_KINDS = tuple(_PAIR_GATES)


@dataclass(frozen=True)
class FeatureMapSpec:
    n_qubits: int
    kind: str = "zz"
    reps: int = 3

    def __post_init__(self):
        check_integer("n_qubits", self.n_qubits)
        check_integer("reps", self.reps)
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigError(f"n_qubits must be in 1..{MAX_QUBITS}")
        if self.kind not in MAP_KINDS:
            raise ConfigError(f"kind must be one of {MAP_KINDS}, got {self.kind!r}")
        if self.kind in ("zz", "pauli_zyy") and self.n_qubits < 2:
            raise ConfigError(f"{self.kind} maps need at least 2 qubits")
        if self.reps < 1:
            raise ConfigError("reps must be at least 1")


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """The feature map of one row: its spec and a read-only float64 copy of
    the row, so a caller that changes its own row afterwards changes
    nothing here.

    Per repetition the circuit is an H layer, the phases 2*x_q, then the
    pairwise entangler (none for 'z', CX-RZ-CX for 'zz', RYY for
    'pauli_zyy') with angle 2*(pi-x_q)(pi-x_{q+1}) on each linear pair.
    len() is its gate count; run_circuit runs it as _embed(spec, x)."""
    spec: FeatureMapSpec
    x: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        if x.shape != (self.spec.n_qubits,):
            raise ConfigError(f"expected {self.spec.n_qubits} features, got {x.shape}")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    def __len__(self) -> int:
        n = self.spec.n_qubits
        return self.spec.reps * (2 * n + _PAIR_GATES[self.spec.kind] * (n - 1))


def build_feature_map(spec: FeatureMapSpec, x) -> FeatureMap:
    """The feature map embedding row x under spec."""
    return FeatureMap(spec, x)


# The one-qubit matrices of the embedding's layers: H, and the frame V = S·H,
# in which V Z V† = Y, so RYY(φ) = (V⊗V)·exp(-iφ/2 Z⊗Z)·(V†⊗V†).
_LAYERS = {"h": np.array([[1.0, 1.0], [1.0, -1.0]]) * _RSQRT2,
           "v": np.array([[1.0, 1.0], [1.0j, -1.0j]]) * _RSQRT2}
_LAYERS["v_dag"] = _LAYERS["v"].conj().T
_LAYERS["v_then_h"] = _LAYERS["h"] @ _LAYERS["v"]


@functools.cache
def _kron_power(layer: str, k: int) -> np.ndarray:
    """The named layer's 2x2 matrix on each of k qubits: a read-only
    2^k x 2^k Kronecker power, real for H and complex for the others."""
    power = np.ones((1, 1))
    for _ in range(k):
        power = np.kron(power, _LAYERS[layer])
    power.flags.writeable = False
    return power


def _layer(amps: np.ndarray, layer: str, n_qubits: int, width: int) -> None:
    """Apply the named 2x2 matrix, in place, to every qubit of each (2^n,)
    column of amps read in C order as (batch, 2^n, width). Each block of up
    to _LAYER_BLOCK qubits is one product with its Kronecker power, a real
    one (H) on the float64 view of the amplitudes, so the work stays near
    n·2^n per column and the only temporary is one product."""
    for start in range(0, n_qubits, _LAYER_BLOCK):
        k = min(_LAYER_BLOCK, n_qubits - start)
        power = _kron_power(layer, k)
        if power.dtype == np.float64:
            view = amps.view(np.float64).reshape(-1, 1 << k, (2 * width) << start)
        else:
            view = amps.reshape(-1, 1 << k, width << start)
        view[...] = power @ view


@functools.cache
def _diagonal_tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float tables whose rows are the values of the high qubits
    (n_lo = n // 2 and up), then those of the low ones. angles holds each
    row's n bits and the n - 1 linear pairs' parities, with the pair across
    the cut, (n_lo - 1, n_lo), left out. signs holds 1 and (-1)^bit of that
    pair's qubit in the row's half."""
    n_lo = n_qubits // 2
    rows = np.concatenate([np.arange(1 << (n_qubits - n_lo)) << n_lo, np.arange(1 << n_lo)])
    bits = (rows[:, None] >> np.arange(n_qubits)) & 1
    parities = bits[:, :-1] ^ bits[:, 1:]
    signs = np.ones((len(rows), 2))
    if n_qubits > 1:
        signs[:, 1] -= 2 * parities[:, n_lo - 1]  # one of the pair's bits is 0 in each half
        parities[:, n_lo - 1] = 0
    angles = np.hstack([bits, parities]).astype(np.float64)
    angles.flags.writeable = signs.flags.writeable = False
    return angles, signs


def _diagonal(n_qubits: int, slope: np.ndarray, pair_angles: np.ndarray) -> np.ndarray:
    """The diagonal exp(i(Σ_q slope_q·b_q + Σ_q φ_q·(b_q ⊕ b_(q+1) − ½))),
    φ over the linear pairs, in _embed's factored form (see _product).

    Every term but the pair across the cut splits into a high and a low
    factor. That pair's exp(iφ(a ⊕ b)) is α + β·s_a·s_b, with
    α = (1 + e^(iφ))/2, β = (1 − e^(iφ))/2 and s = (−1)^bit, so with it the
    diagonal has two terms, else one."""
    angles, signs = _diagonal_tables(n_qubits)
    shape = (n_qubits % 2 + 2, 1 << n_qubits // 2, -1)
    if not len(pair_angles):
        return np.exp(1j * (angles[:, :n_qubits] @ slope)).reshape(shape)
    d = signs * np.exp(1j * (angles @ np.concatenate((slope, pair_angles))))[:, None]
    cross = cmath.exp(1j * pair_angles[n_qubits // 2 - 1])
    offset = cmath.exp(-0.5j * pair_angles.sum())
    d[:1 << (n_qubits - n_qubits // 2)] *= (0.5 * (1.0 + cross) * offset,
                                            0.5 * (1.0 - cross) * offset)
    return d.reshape(shape)


def _product(w: np.ndarray) -> np.ndarray:
    """The (2^ceil(n/2), 2^floor(n/2)) matrix Σ_t high[:, t] ⊗ low[:, t] of
    the factored form w: slabs (w[:-1], one per value of the high half's top
    qubit when n is odd) holding the high qubits' columns and a last slab
    holding the low ones'."""
    return w[:-1].reshape(-1, w.shape[2]) @ w[-1].T


def _embed(spec: FeatureMapSpec, x: np.ndarray) -> np.ndarray:
    """The amplitudes of build_feature_map(spec, x) applied to |0...0>.

    The state is kept as Σ_t high[:, t] ⊗ low[:, t] over the register's
    high qubits (n_lo = n // 2 and up) and low qubits, stacked as
    w = (n % 2 + 2, 2^n_lo, terms) (see _product). A layer acts on both
    halves' columns at once, and on the slab axis, the high half's top
    qubit, when n is odd. A diagonal multiplies them, and the one linear
    pair across the cut doubles the terms (see _diagonal), so after r
    repetitions there are at most 2^r. Once a diagonal would give the terms
    more amplitudes than the state, which is past 2^(n_lo - 1) terms, half
    the Schmidt rank bound across the cut, the state is materialized and
    the rest runs on the full register. So cost and memory stay bounded for
    any reps.

    Each 'zz' and 'z' repetition is the H layer and one diagonal of the
    phases 2x_q and, for 'zz', the CX·RZ·CX pairs. The RYY pairs of
    'pauli_zyy' commute and are V⊗V times a ZZ diagonal, so its repetitions
    are H, the phases, V†, the pair diagonal, and V, where each V and the
    next H merge into one layer."""
    n = spec.n_qubits
    n_lo = n // 2
    phases = 2.0 * x
    pairs = 2.0 * ((math.pi - x[:-1]) * (math.pi - x[1:]))
    no_pairs = pairs[:0]
    if spec.kind == "pauli_zyy":
        steps = ["v_then_h", _diagonal(n, phases, no_pairs),
                 "v_dag", _diagonal(n, 0.0 * phases, pairs)] * spec.reps + ["v"]
    else:
        steps = ["h", _diagonal(n, phases, pairs if spec.kind == "zz" else no_pairs)]
        steps *= spec.reps
    # the first layer is H on |0...0>: every amplitude of a half is 2^(-k/2)
    w = np.empty((n % 2 + 2, 1 << n_lo, 1), dtype=np.complex128)
    w[:-1] = 2.0 ** (-0.5 * (n - n_lo))
    w[-1] = 2.0 ** (-0.5 * n_lo)
    state = None
    for step in steps[1:]:
        if isinstance(step, str) and state is None:
            _layer(w, step, n_lo, w.shape[2])
            if n % 2:
                _layer(w[:2], step, 1, w[0].size)
        elif isinstance(step, str):
            _layer(state, step, n, 1)
        elif state is None and w.size * step.shape[2] <= 1 << n:
            # each value's outer product of the two sets of terms (a broadcast
            # multiply allocates a second product-sized buffer)
            w = (step[..., None] @ w[..., None, :]).reshape(*w.shape[:2], -1)
        else:
            if state is None:
                state, w = _product(w), None
            state *= _product(step)
    return (_product(w) if state is None else state).ravel()


def run_circuit(circuit: FeatureMap, n_qubits: int) -> np.ndarray:
    """The amplitudes of the feature map applied to |0...0>, on its own
    register size."""
    if not isinstance(circuit, FeatureMap) or n_qubits != circuit.spec.n_qubits:
        raise ConfigError("run_circuit takes a map from build_feature_map and that map's "
                          f"qubit count, got {type(circuit).__name__} on {n_qubits} qubits")
    amps = _embed(circuit.spec, circuit.x)
    norm = math.sqrt(np.vdot(amps, amps).real)
    if abs(norm - 1.0) > 1e-9:
        raise NumericalError(f"statevector norm drifted to {norm}")
    return amps


def _embedding_matrix(X: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    states = np.empty((len(X), 1 << spec.n_qubits), dtype=np.complex128)
    for i, x in enumerate(X):
        states[i] = run_circuit(build_feature_map(spec, x), spec.n_qubits)
    return states


@dataclass(frozen=True)
class ShotConfig:
    shots: int = 100
    seed: int = 10598

    def __post_init__(self):
        check_integer("shots", self.shots)
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ConfigError(f"shots must be in 1..{MAX_SHOTS}")


def _blocks(rows: int, n_qubits: int):
    """(start, stop) of each block of rows whose states an overlap product
    holds at once: _CONJ_BLOCK_BYTES worth of n-qubit states, rounded down to
    a multiple of _CONJ_BLOCK_ROWS but never fewer, and a last block of one
    row joins the one before it.

    BLAS computes the columns of a partial unroll group, and a one-column
    product, with other kernels than a full group; these widths put every
    column in the same kind of group as one product over all rows does, so
    every entry is bit-equal to it."""
    per_block = _CONJ_BLOCK_BYTES // (16 << n_qubits)  # complex128 amplitudes
    step = max(_CONJ_BLOCK_ROWS, per_block - per_block % _CONJ_BLOCK_ROWS)
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [rows])


def _draw_shots(K: np.ndarray, shots: ShotConfig, square: bool) -> None:
    """Replace each fidelity K[i, j], in place, by the hit rate of the
    all-zeros outcome in shots.shots draws from a generator seeded by
    (seed, i, j), so the result does not depend on evaluation order. A shot
    hits when its uniform u < K[i, j]: inverse-CDF measurement of the full
    register restricted to that outcome. A square kernel draws only i < j;
    mirror_upper copies them and sets the diagonal, where every shot hits, to 1."""
    for i in range(K.shape[0]):
        for j in range(i + 1 if square else 0, K.shape[1]):
            draws = np.random.default_rng((shots.seed, i, j)).random(shots.shots)
            K[i, j] = int(np.sum(draws < K[i, j])) / shots.shots


def _kernel(X_left, X_right, spec: FeatureMapSpec, shots: ShotConfig | None) -> np.ndarray:
    """K[i, j] = |<phi(right[j])|phi(left[i])>|^2, clipped to [0, 1], or its
    shot estimate; square over X_left when X_right is None. Each block of
    right rows, a copy of kept states or those rows embedded here, is
    conjugated in place and freed, after its overlap, before the next. A
    square block's left rows end at its end, a block boundary or the last
    row, so BLAS groups them as in one product over all rows."""
    square = X_right is None
    X_left = np.asarray(X_left, dtype=np.float64)
    X_right = X_left if square else np.asarray(X_right, dtype=np.float64)
    left = _embedding_matrix(X_left, spec)
    K = np.empty((len(X_left), len(X_right)))
    for start, stop in _blocks(len(X_right), spec.n_qubits):
        block = left[start:stop].copy() if square else _embedding_matrix(X_right[start:stop], spec)
        overlap = left[:stop if square else None] @ np.conjugate(block, out=block).T
        np.clip(overlap.real**2 + overlap.imag**2, 0.0, 1.0, out=K[:len(overlap), start:stop])
        del overlap, block  # freed before the next block is embedded
    if shots is not None:
        _draw_shots(K, shots, square)
    return mirror_upper(K) if square else K


def kernel_matrix(X, spec: FeatureMapSpec, shots: ShotConfig | None = None) -> np.ndarray:
    """Square fidelity kernel over the rows of X, one cached state per row:
    exact fidelities when shots is None, else their shot estimates for
    i < j, mirrored, with the diagonal exactly 1."""
    return _kernel(X, None, spec, shots)


def cross_kernel_matrix(X_left, X_right, spec: FeatureMapSpec,
                        shots: ShotConfig | None = None) -> np.ndarray:
    """Rectangular fidelity kernel K[i, j] = k(X_left[i], X_right[j]): exact
    when shots is None, else shot estimates, as in kernel_matrix. The right
    rows are embedded one block at a time, so the two sides are never held
    at once."""
    return _kernel(X_left, X_right, spec, shots)
