"""Statevector simulator and phase-embedding kernels.

Qubit 0 is the least significant bit of the amplitude index (little
endian), so |q1 q0> = |10> sits at index 2. Gates act on views obtained by
reshaping the amplitude vector, never on full 2^n x 2^n matrices, which
keeps circuits with around 20 qubits feasible. The supported gate set is
exactly what the embeddings need: H, PHASE, RZ, CX, RYY.

run_circuit compiles the gate list into fused ops, then applies them. n
consecutive H gates on n distinct qubits are one H^(x)n layer, applied as a
few matrix products with small Sylvester Hadamard matrices. Consecutive
PHASE, RZ and CX(a,b)·RZ(b,φ)·CX(a,b) gates fold into phase factors over
the two halves of the register, applied as two broadcast multiplies of the
state. Every other gate is applied on its own. An H layer on |0...0> is a
constant fill. A circuit peaks at under two and a half states: its own plus
an H layer's product or a lone gate's blocks. A compiled op holds at most
2^ceil(n/2) + 2^floor(n/2) amplitudes and lives only during the call.

A feature map's gate list repeats one repetition reps times. Its angle-free
gates (H and CX) are built once per register size and shared by every row;
the gates with angles are built once per row and shared by its repetitions.
run_circuit finds that repetition by object identity, compiles it once and
applies its ops reps times.

Kernel values are state fidelities K(x, z) = |<phi(z)|phi(x)>|^2, the
all-zeros probability of the compute-uncompute circuit U(z)^dagger U(x).
Both modes embed each row once per kernel call and take every overlap from
its statevector. Exact mode returns them; sampled mode replaces each one by
the hit rate of a finite shot budget, drawn from a generator seeded by
(seed, i, j). Overlaps are taken one block of right-hand states at a time
(about 1 MiB, at least 8 rows), each bit-equal to one product over all
states. The training kernel keeps every row's state, rows x 2^n x 16 bytes,
plus one conjugated block, and computes only the blocks on or above the
diagonal. The cross kernel keeps the left rows' states and embeds the right
rows one block at a time, so it never holds both sides.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, check_integer

MAX_QUBITS = 24
MAX_SHOTS = 1_000_000  # one kernel entry draws shots x 8 bytes of uniforms
_RSQRT2 = 1.0 / math.sqrt(2.0)
_H_BLOCK = 5  # qubits per Sylvester product in an H layer (fastest of 5-8 at 12-20 qubits)
# right-hand states per overlap product: bounds the kernels' extra memory, and
# at 12 qubits 1 MiB blocks were faster than 8-row or 4 MiB ones
_CONJ_BLOCK_BYTES = 1 << 20
_CONJ_BLOCK_ROWS = 8  # a multiple of the BLAS kernels' column unroll

_ARITY = {"h": 1, "phase": 1, "rz": 1, "cx": 2, "ryy": 2}

MAP_KINDS = ("z", "zz", "pauli_zyy")


@dataclass(frozen=True)
class Gate:
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


@dataclass
class Statevector:
    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ConfigError("amplitude length must be 2**n_qubits")

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)


def _check_qubits(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must be in 1..{MAX_QUBITS}")


def zero_state(n_qubits: int) -> Statevector:
    _check_qubits(n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(amps, n_qubits)


def _check_register(gate: Gate, n_qubits: int) -> None:
    if max(gate.qubits) >= n_qubits:
        raise ConfigError(f"gate on qubit {max(gate.qubits)} exceeds register size {n_qubits}")


def _apply_inplace(amps: np.ndarray, n_qubits: int, gate: Gate) -> None:
    _check_register(gate, n_qubits)
    kind = gate.kind
    if kind in ("h", "phase", "rz"):
        q = gate.qubits[0]
        view = amps.reshape(-1, 2, 1 << q)
        if kind == "h":
            a0 = view[:, 0, :] + view[:, 1, :]
            a1 = view[:, 0, :] - view[:, 1, :]
            view[:, 0, :] = a0 * _RSQRT2
            view[:, 1, :] = a1 * _RSQRT2
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


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    amps = state.amplitudes.copy()
    _apply_inplace(amps, state.n_qubits, gate)
    return Statevector(amps, state.n_qubits)


@functools.cache
def _sylvester(k: int) -> np.ndarray:
    """H^(x)k as a read-only 2^k x 2^k float matrix (Sylvester's construction)."""
    h = np.ones((1, 1))
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h *= 2.0 ** (-0.5 * k)
    h.flags.writeable = False
    return h


@functools.cache
def _bit_table(k: int) -> np.ndarray:
    """Read-only (2^k, k) table whose row i holds the bits of i, low bit first."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    bits.flags.writeable = False
    return bits


def _hadamard_layer(amps: np.ndarray, n_qubits: int) -> None:
    """H on every qubit, in place: H^(x)k on each block of up to _H_BLOCK
    qubits, as one product with a Sylvester matrix. Small matrices keep the
    work near n·2^n; above the lowest block, each block value's amplitudes
    are contiguous runs, so the real matrix multiplies their float64 view."""
    k = min(n_qubits, _H_BLOCK)
    low = amps.reshape(-1, 1 << k)
    low[...] = low @ _sylvester(k)
    for start in range(k, n_qubits, _H_BLOCK):
        k = min(_H_BLOCK, n_qubits - start)
        view = amps.view(np.float64).reshape(-1, 1 << k, 2 << start)
        view[...] = _sylvester(k) @ view


_PARITY = np.array([[0.0, 1.0], [1.0, 0.0]])


def _uniform_amplitude(n_qubits: int) -> float:
    """The amplitude _hadamard_layer gives every basis state of |0...0>.

    The lowest block's product leaves the first row of its Sylvester matrix,
    and each higher block multiplies by its matrix's first column, adding
    only signed zeros, so every amplitude is the product of the blocks'
    scales taken in block order, with a +0 imaginary part."""
    amp = 1.0
    for start in range(0, n_qubits, _H_BLOCK):
        amp *= _sylvester(min(_H_BLOCK, n_qubits - start))[0, 0]
    return amp


def _diagonal_op(gates, i: int, n_qubits: int):
    """The op multiplying a state, in place, by the phases of the run of
    diagonal gates that starts at gates[i], and the index after the run.

    The run folds into angles: basis state j gets the phase offset +
    sum_q slope[q]·bit_q(j) + sum_k w_k·parity(a_k, b_k)(j). PHASE(q,φ) adds
    φ to slope[q], RZ(q,φ) also adds -φ/2 to offset, and CX(a,b)·RZ(b,φ)·CX(a,b),
    whose phase is φ·(parity(a,b) - 1/2), adds the pair term (a, b, φ) and
    -φ/2 to offset. The op multiplies the state by exp(1j·angles) over the
    high and over the low half of the register, then by one broadcast 2x2
    factor for each pair term with a qubit in each half. The factors are
    computed here, once: 2^ceil(n/2) + 2^floor(n/2) amplitudes and a 2x2
    table per cross pair.
    """
    offset = 0.0
    slope = np.zeros(n_qubits)
    pairs = []
    while i < len(gates):
        gate = gates[i]
        kind = gate.kind
        if kind == "phase" or kind == "rz":
            _check_register(gate, n_qubits)
            slope[gate.qubits[0]] += gate.angle
            if kind == "rz":
                offset -= 0.5 * gate.angle
            i += 1
        elif _is_sandwich(gates, i):
            _check_register(gate, n_qubits)
            phi = gates[i + 1].angle
            pairs.append((*sorted(gate.qubits), phi))
            offset -= 0.5 * phi
            i += 3
        else:
            break
    pairs = np.array(pairs).reshape(-1, 3)
    a, b, w = pairs[:, 0].astype(np.intp), pairs[:, 1].astype(np.intp), pairs[:, 2]
    n_lo = n_qubits // 2
    low, high = b < n_lo, a >= n_lo
    cross = ~(low | high)
    hi_angles = _half_angles(slope[n_lo:], a[high] - n_lo, b[high] - n_lo, w[high])
    lo_angles = _half_angles(slope[:n_lo], a[low], b[low], w[low]) + offset
    hi_factor = np.exp(1j * hi_angles)[:, None]
    lo_factor = np.exp(1j * lo_angles)
    cross_factors = [((-1, 2, 1 << (qb - qa - 1), 2, 1 << qa),
                      np.exp(1j * weight * _PARITY)[:, None, :, None])
                     for qa, qb, weight in zip(a[cross], b[cross], w[cross])]

    def apply(amps: np.ndarray, _n_qubits: int) -> None:
        halves = amps.reshape(-1, 1 << n_lo)
        halves *= hi_factor
        halves *= lo_factor
        for shape, factor in cross_factors:
            view = amps.reshape(shape)
            view *= factor

    return apply, i


def _half_angles(slope: np.ndarray, a: np.ndarray, b: np.ndarray,
                 weight: np.ndarray) -> np.ndarray:
    """slope·bits + weight·parity over all 2^k patterns of k = len(slope) qubits."""
    bits = _bit_table(len(slope))
    return bits @ slope + (bits[:, a] ^ bits[:, b]) @ weight


def _is_sandwich(gates, i: int) -> bool:
    """gates[i:i+3] is CX(a,b), RZ(b,φ), CX(a,b)."""
    if i + 2 >= len(gates):
        return False
    cx, rz, last = gates[i], gates[i + 1], gates[i + 2]
    return (cx.kind == "cx" and rz.kind == "rz" and rz.qubits[0] == cx.qubits[1]
            and (last is cx or last == cx))


def _is_layer(gates, i: int, n_qubits: int) -> bool:
    """gates[i:i+n] is H on each of the n qubits, in any order."""
    layer = gates[i:i + n_qubits]
    return (len(layer) == n_qubits
            and {g.qubits[0] for g in layer if g.kind == "h"} == set(range(n_qubits)))


def _compile(gates, n_qubits: int, start: int, stop: int):
    """The fused ops of the walk over gates that begin at start and before
    stop, and the index where the last of them ends. Each op is called as
    op(amps, n_qubits). The walk looks at the whole list, so a diagonal run
    or an H layer that begins before stop may end after it."""
    ops = []
    i = start
    while i < stop:
        gate = gates[i]
        if gate.kind == "phase" or gate.kind == "rz" or _is_sandwich(gates, i):
            op, i = _diagonal_op(gates, i, n_qubits)
        elif gate.kind == "h" and _is_layer(gates, i, n_qubits):
            op = _hadamard_layer
            i += n_qubits
        else:
            _check_register(gate, n_qubits)
            op = functools.partial(_apply_inplace, gate=gate)
            i += 1
        ops.append(op)
    return ops, i


def _period(gates) -> int:
    """Length of the shortest segment that gates is, as the same objects,
    repeated a whole number of times; len(gates) when there is none."""
    size = len(gates)
    for period in range(1, size // 2 + 1):
        if (size % period == 0 and gates[period] is gates[0]
                and all(map(operator.is_, gates[period:], gates))):
            return period
    return size


def _fused_ops(gates, n_qubits: int) -> list:
    """The fused ops of the whole gate list, in order.

    When the list repeats one segment as the same objects, only the first
    copy is walked, in the context of the whole list, and its ops are
    repeated. That is exact when the first copy's last op ends at the cut.
    Every later copy then walks the same way: a look-ahead across a cut (a
    diagonal run going on, a CX·RZ·CX or an H layer starting) reads the
    same gates as in the first copy, or fewer at the end of the list, and
    fewer can only answer no, as the first copy's walk did. Otherwise the
    walk goes on through the whole list."""
    period = _period(gates)
    ops, end = _compile(gates, n_qubits, 0, period)
    if end != period:
        return ops + _compile(gates, n_qubits, end, len(gates))[0]
    return ops * (len(gates) // max(period, 1))  # an empty list has period 0


def run_circuit(gates, n_qubits: int) -> Statevector:
    """Final state of the gates applied to |0...0>.

    Equal to applying the gates one at a time, with fusion: n consecutive H
    gates on n distinct qubits of an n-qubit register are one H^(x)n layer,
    and consecutive PHASE, RZ and CX·RZ·CX sandwich gates are folded into
    one diagonal (see _diagonal_op). Every other gate runs on its own. A
    segment repeated as the same objects is compiled once (see _fused_ops),
    and a leading H layer on |0...0> is a constant fill.
    """
    _check_qubits(n_qubits)
    ops = _fused_ops(list(gates), n_qubits)
    if ops and ops[0] is _hadamard_layer:
        amps = np.full(1 << n_qubits, _uniform_amplitude(n_qubits), dtype=np.complex128)
        ops = ops[1:]
    else:
        amps = zero_state(n_qubits).amplitudes
    for op in ops:
        op(amps, n_qubits)
    state = Statevector(amps, n_qubits)
    norm = state.norm()
    if abs(norm - 1.0) > 1e-9:
        raise NumericalError(f"statevector norm drifted to {norm}")
    return state


@dataclass(frozen=True)
class FeatureMapSpec:
    n_qubits: int
    kind: str = "zz"
    reps: int = 3
    entanglement: str = "linear"

    def __post_init__(self):
        check_integer("n_qubits", self.n_qubits)
        check_integer("reps", self.reps)
        _check_qubits(self.n_qubits)
        if self.kind not in MAP_KINDS:
            raise ConfigError(f"kind must be one of {MAP_KINDS}, got {self.kind!r}")
        if self.kind in ("zz", "pauli_zyy") and self.n_qubits < 2:
            raise ConfigError(f"{self.kind} maps need at least 2 qubits")
        if self.reps < 1:
            raise ConfigError("reps must be at least 1")
        if self.entanglement != "linear":
            raise ConfigError("only linear entanglement is supported")


@functools.cache
def _fixed_gates(n_qubits: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """The angle-free gates of an n-qubit map, built once per register size:
    H on each qubit, and CX(q, q+1) for each linear pair."""
    return (tuple(Gate.h(q) for q in range(n_qubits)),
            tuple(Gate.cx(q, q + 1) for q in range(n_qubits - 1)))


def build_feature_map(spec: FeatureMapSpec, x) -> list[Gate]:
    """Gate list embedding x: per repetition an H layer, single-qubit phases
    2*x_q, then the pairwise entangler (none for 'z', CX-RZ-CX for 'zz',
    RYY for 'pauli_zyy') with angle 2*(pi-x_q)(pi-x_{q+1}) on each linear pair.

    Every repetition is the same gates, so one is built and the returned
    list repeats its (frozen) objects; the H and CX gates are shared by all
    rows of a register size. The list itself is new on every call."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.n_qubits,):
        raise ConfigError(f"expected {spec.n_qubits} features, got {x.shape}")
    h_layer, cx_pairs = _fixed_gates(spec.n_qubits)
    rep = list(h_layer)
    rep += [Gate.phase(q, angle) for q, angle in enumerate((2.0 * x).tolist())]
    pair_angles = (2.0 * ((math.pi - x[:-1]) * (math.pi - x[1:]))).tolist()
    if spec.kind == "zz":
        for cx, angle in zip(cx_pairs, pair_angles):
            rep += (cx, Gate.rz(cx.qubits[1], angle), cx)
    elif spec.kind == "pauli_zyy":
        rep += [Gate.ryy(*cx.qubits, angle) for cx, angle in zip(cx_pairs, pair_angles)]
    return rep * spec.reps


def embedding_state(x, spec: FeatureMapSpec) -> Statevector:
    return run_circuit(build_feature_map(spec, x), spec.n_qubits)


def _embedding_matrix(X: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    states = np.empty((len(X), 1 << spec.n_qubits), dtype=np.complex128)
    for i, x in enumerate(X):
        states[i] = embedding_state(x, spec).amplitudes
    return states


def exact_kernel_entry(x, z, spec: FeatureMapSpec) -> float:
    overlap = np.vdot(embedding_state(z, spec).amplitudes,
                      embedding_state(x, spec).amplitudes)
    return float(np.clip(overlap.real**2 + overlap.imag**2, 0.0, 1.0))


@dataclass(frozen=True)
class ShotConfig:
    shots: int = 100
    seed: int = 10598

    def __post_init__(self):
        check_integer("shots", self.shots)
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ConfigError(f"shots must be in 1..{MAX_SHOTS}")


def _shot_estimate(p0: float, shots: int, rng: np.random.Generator) -> float:
    """Hit rate of measuring the all-zeros outcome, of probability p0, in shots.

    One uniform draw per shot: the all-zeros outcome owns the leading
    interval of the cumulative distribution, so u < p0 is inverse-CDF
    measurement of the full register restricted to the statistic we need.
    Estimates are exact multiples of 1/shots.
    """
    hits = int(np.sum(rng.random(shots) < p0))
    return hits / shots


def sampled_kernel_entry(x, z, spec: FeatureMapSpec, shot_config: ShotConfig,
                         rng: np.random.Generator | None = None) -> float:
    """Estimate the fidelity by measuring the compute-uncompute circuit, whose
    all-zeros probability is exact_kernel_entry(x, z, spec)."""
    if rng is None:
        rng = np.random.default_rng(shot_config.seed)
    return _shot_estimate(exact_kernel_entry(x, z, spec), shot_config.shots, rng)


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


def _fidelities(left: np.ndarray, conj_block: np.ndarray, out: np.ndarray) -> None:
    """out[i, j] = |<block[j]|left[i]>|^2, clipped to [0, 1], from the
    block's conjugated states."""
    overlap = left @ conj_block.T
    np.clip(overlap.real**2 + overlap.imag**2, 0.0, 1.0, out=out)


def _check_mode(mode: str, shot_config: ShotConfig | None) -> None:
    if mode not in ("exact", "sampled"):
        raise ConfigError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "sampled" and shot_config is None:
        raise ConfigError("sampled mode needs a ShotConfig")


def _draw_shots(K: np.ndarray, shot_config: ShotConfig, square: bool) -> None:
    """Replace each fidelity K[i, j], in place, by its shot estimate, drawn
    from a generator seeded by (seed, i, j), so the result does not depend
    on evaluation order. A square kernel draws i <= j and mirrors them."""
    for i in range(K.shape[0]):
        for j in range(i if square else 0, K.shape[1]):
            rng = np.random.default_rng((shot_config.seed, i, j))
            K[i, j] = _shot_estimate(K[i, j], shot_config.shots, rng)
            if square:
                K[j, i] = K[i, j]


def kernel_matrix(X, spec: FeatureMapSpec, mode: str = "exact",
                  shot_config: ShotConfig | None = None) -> np.ndarray:
    """Square fidelity kernel over the rows of X, one cached state per row."""
    _check_mode(mode, shot_config)
    X = np.asarray(X, dtype=np.float64)
    states = _embedding_matrix(X, spec)
    K = np.empty((len(states), len(states)))
    # only the blocks on or above the diagonal, which triu keeps. Each block's
    # left rows end at a block boundary or at the last row, so BLAS groups
    # them as it does in one product over all rows.
    for start, stop in _blocks(len(states), spec.n_qubits):
        _fidelities(states[:stop], states[start:stop].conj(), K[:stop, start:stop])
    K = np.triu(K, 1)
    K = K + K.T  # bit-exact symmetry regardless of BLAS summation order
    np.fill_diagonal(K, 1.0)
    if mode == "sampled":
        _draw_shots(K, shot_config, square=True)
    return K


def cross_kernel_matrix(X_left, X_right, spec: FeatureMapSpec, mode: str = "exact",
                        shot_config: ShotConfig | None = None) -> np.ndarray:
    """Rectangular fidelity kernel K[i, j] = k(X_left[i], X_right[j]).

    The left rows' states are embedded once and kept; the right rows are
    embedded one block at a time, so the two sides are never held at once."""
    _check_mode(mode, shot_config)
    X_left = np.asarray(X_left, dtype=np.float64)
    X_right = np.asarray(X_right, dtype=np.float64)
    left = _embedding_matrix(X_left, spec)
    K = np.empty((len(X_left), len(X_right)))
    for start, stop in _blocks(len(X_right), spec.n_qubits):
        block = _embedding_matrix(X_right[start:stop], spec)
        _fidelities(left, np.conjugate(block, out=block), K[:, start:stop])
        del block  # freed before the next block is embedded
    if mode == "sampled":
        _draw_shots(K, shot_config, square=False)
    return K
