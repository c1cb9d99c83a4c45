import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkgene import quantum
from qkgene.errors import ConfigError
from qkgene.quantum import (
    MAP_KINDS,
    MAX_QUBITS,
    MAX_SHOTS,
    FeatureMapSpec,
    Gate,
    ShotConfig,
    Statevector,
    apply_gate,
    build_feature_map,
    _embedding_matrix,
    cross_kernel_matrix,
    embedding_state,
    exact_kernel_entry,
    kernel_matrix,
    run_circuit,
    sampled_kernel_entry,
    zero_state,
)
from qkgene.reduction import symmetric_eigendecomposition

from oracles import (
    build_feature_map_gatewise,
    data_map,
    dense_circuit_unitary,
    dense_gate_unitary,
    dense_h,
    dense_phase,
    fidelity_one_product,
    gatewise_kernel,
    inverse_circuit,
    run_circuit_gatewise,
    run_circuit_walk,
    sampled_kernel_circuit,
    square_kernel_one_product,
)

RSQRT2 = 2 ** -0.5


def random_gate(rng, n_qubits):
    kind = rng.choice(["h", "phase", "rz", "cx", "ryy"])
    angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
    if kind in ("h", "phase", "rz"):
        q = int(rng.integers(n_qubits))
        if kind == "h":
            return Gate.h(q)
        if kind == "phase":
            return Gate.phase(q, angle)
        return Gate.rz(q, angle)
    a, b = rng.choice(n_qubits, size=2, replace=False)
    if kind == "cx":
        return Gate.cx(int(a), int(b))
    return Gate.ryy(int(a), int(b), angle)


ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
# patterns run_circuit fuses, their near misses, and the blocks each needs a
# register of at least 1, 2 or 3 qubits for
FUSION_BLOCKS = (
    ("gate", "layer", "shuffled_layer", "partial_layer", "split_layer", "sampled_circuit"),
    ("sandwich", "rz_on_control", "reversed_cx", "repeated_qubit_layer"),
    ("other_rz_qubit", "other_second_cx"),
)


@st.composite
def fusion_circuits(draw):
    """(gates, n_qubits): random gates mixed with fusable patterns and near
    misses on 1-7 qubits."""
    n = draw(st.integers(1, 7))
    blocks = sum(FUSION_BLOCKS[:n], ())
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        block = draw(st.sampled_from(blocks))
        order = draw(st.permutations(range(n)))
        a, b, c = (order + [None, None])[:3]
        phi = draw(ANGLES)
        if block == "gate":
            kind = draw(st.sampled_from(("h", "phase", "rz", "cx", "ryy")[:3 if n == 1 else 5]))
            gates.append(Gate(kind, (a,) if kind in ("h", "phase", "rz") else (a, b),
                              0.0 if kind in ("h", "cx") else phi))
        elif block == "sandwich":
            gates += [Gate.cx(a, b), Gate.rz(b, phi), Gate.cx(a, b)]
        elif block == "rz_on_control":
            gates += [Gate.cx(a, b), Gate.rz(a, phi), Gate.cx(a, b)]
        elif block == "reversed_cx":
            gates += [Gate.cx(a, b), Gate.rz(b, phi), Gate.cx(b, a)]
        elif block == "other_rz_qubit":
            gates += [Gate.cx(a, b), Gate.rz(c, phi), Gate.cx(a, b)]
        elif block == "other_second_cx":
            gates += [Gate.cx(a, b), Gate.rz(b, phi), Gate.cx(c, b)]
        elif block == "layer":
            gates += [Gate.h(q) for q in range(n)]
        elif block == "shuffled_layer":
            gates += [Gate.h(q) for q in order]
        elif block == "partial_layer":
            gates += [Gate.h(q) for q in order[:draw(st.integers(0, n - 1))]]
        elif block == "split_layer":
            cut = draw(st.integers(1, n))
            gates += [Gate.h(q) for q in order[:cut]] + [Gate.phase(a, phi)]
            gates += [Gate.h(q) for q in order[cut:]]
        elif block == "repeated_qubit_layer":
            gates += [Gate.h(q) for q in order[:-1] + [a]]
        else:  # sampled_circuit: one kernel entry's compute-uncompute circuit
            kind = draw(st.sampled_from(("z", "zz", "pauli_zyy")[:1 if n == 1 else 3]))
            spec = FeatureMapSpec(n, kind, reps=draw(st.integers(1, 2)))
            x, z = (draw(st.lists(ANGLES, min_size=n, max_size=n)) for _ in range(2))
            gates += build_feature_map(spec, x) + inverse_circuit(build_feature_map(spec, z))
    return gates, n


@st.composite
def repeated_segments(draw):
    """(gates, n_qubits): a random segment repeated 1-4 times as the same
    objects. The segment is a random circuit rotated by a random offset, so
    its ends can cut a diagonal run, an H layer or a CX·RZ·CX sandwich."""
    gates, n = draw(fusion_circuits())
    cut = draw(st.integers(0, len(gates)))
    return (gates[cut:] + gates[:cut]) * draw(st.integers(1, 4)), n


@st.composite
def maps_with_edge_rows(draw):
    """(spec, x): every map on 1-14 qubits with 1-4 repetitions, and rows
    whose features include the scale range's ends 0 and pi."""
    kind = draw(st.sampled_from(MAP_KINDS))
    n = draw(st.integers(1 if kind == "z" else 2, 14))
    spec = FeatureMapSpec(n, kind, reps=draw(st.integers(1, 4)))
    x = draw(st.lists(st.sampled_from([0.0, math.pi]) | st.floats(0.0, math.pi),
                      min_size=n, max_size=n))
    return spec, x


# 0.0, -0.0 and pi are the scale range's ends; 1e-300 and +-1e300 make the
# pair products underflow and overflow; NaN must pass through unchanged.
SPECIAL_X = st.sampled_from([0.0, -0.0, math.pi, 1e-300, 1e300, -1e300, math.nan])


@st.composite
def feature_map_specs(draw):
    kind = draw(st.sampled_from(MAP_KINDS))
    n = draw(st.integers(1 if kind == "z" else 2, 10))
    return FeatureMapSpec(n, kind, reps=draw(st.integers(1, 4)))


@st.composite
def feature_map_inputs(draw):
    spec = draw(feature_map_specs())
    x = draw(st.lists(SPECIAL_X | st.floats(-10.0, 10.0),
                      min_size=spec.n_qubits, max_size=spec.n_qubits))
    return spec, x


class TestGateFusion:
    @given(fusion_circuits())
    @settings(max_examples=300, deadline=None)
    def test_fused_matches_gatewise(self, circuit):
        gates, n = circuit
        expect = run_circuit_gatewise(gates, n).amplitudes
        np.testing.assert_allclose(run_circuit(gates, n).amplitudes, expect,
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["z", "zz", "pauli_zyy"])
    @pytest.mark.parametrize("n", [6, 8, 10, 12])  # 12: three H blocks
    def test_kernels_match_gatewise(self, kind, n):
        rng = np.random.default_rng(n)
        spec = FeatureMapSpec(n, kind, reps=2)
        train = rng.uniform(0, math.pi, size=(4, n))
        test = rng.uniform(0, math.pi, size=(3, n))
        np.testing.assert_allclose(kernel_matrix(train, spec),
                                   gatewise_kernel(train, train, spec), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(cross_kernel_matrix(test, train, spec),
                                   gatewise_kernel(test, train, spec), rtol=0.0, atol=1e-12)

    @given(repeated_segments())
    @settings(max_examples=300, deadline=None)
    @example(([Gate.phase(0, 0.3)] * 4, 1))  # one diagonal run across every cut
    @example(([Gate.h(1), Gate.phase(0, 0.3), Gate.h(0)] * 3, 2))  # layer across each cut
    @example(([Gate.rz(1, 0.2), Gate.cx(0, 1)] * 3, 2))  # sandwich across the first cut
    @example(([Gate.h(0), Gate.h(1)] * 2, 3))  # partial H runs
    def test_repeated_segments_equal_walk_oracle(self, circuit):
        """A list that repeats one segment is compiled once only where the
        walk over the whole list cuts at the segment's end; either way the
        state is byte-equal to walking the whole list."""
        gates, n = circuit
        assert run_circuit(gates, n).amplitudes.tobytes() == run_circuit_walk(
            gates, n).amplitudes.tobytes()

    @given(maps_with_edge_rows())
    @settings(max_examples=150, deadline=None)
    def test_feature_maps_equal_walk_oracle(self, case):
        """Every map, 1-14 qubits and 1-4 repetitions: the state from one
        compiled repetition, applied reps times after a constant fill, is
        byte-equal to walking the whole list."""
        spec, x = case
        gates = build_feature_map(spec, x)
        assert run_circuit(gates, spec.n_qubits).amplitudes.tobytes() == run_circuit_walk(
            gates, spec.n_qubits).amplitudes.tobytes()

    @pytest.mark.parametrize("n", range(1, 21))
    def test_leading_layer_is_a_fill(self, n):
        amps = zero_state(n).amplitudes
        quantum._hadamard_layer(amps, n)
        gates = [Gate.h(q) for q in range(n)]
        assert run_circuit(gates, n).amplitudes.tobytes() == amps.tobytes()

    def test_diagonal_gate_bounds_checked(self):
        for run in ([Gate.phase(2, 0.3)], [Gate.rz(1, 0.2), Gate.rz(5, 0.3)],
                    [Gate.cx(0, 2), Gate.rz(2, 0.3), Gate.cx(0, 2)]):
            with pytest.raises(ConfigError, match="exceeds register size 2"):
                run_circuit([Gate.h(0), Gate.h(1)] + run, 2)


class TestGateValidation:
    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ConfigError):
            Gate.cx(1, 1)
        with pytest.raises(ConfigError):
            Gate.ryy(0, 0, 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            Gate(kind="toffoli", qubits=(0, 1), angle=None)

    @pytest.mark.parametrize("kind, qubits, message", [
        ("toffoli", (0, 1, 2), "unknown gate kind 'toffoli'"),
        ("h", (0, 1), "h gate takes 1 qubit(s)"),
        ("phase", (), "phase gate takes 1 qubit(s)"),
        ("cx", (2,), "cx gate takes 2 qubit(s)"),
        ("ryy", (0, 1, 2), "ryy gate takes 2 qubit(s)"),
        ("cx", (3, 3), "gate qubits must be distinct"),
        ("rz", (-1,), "gate qubits must be non-negative"),
        ("cx", (-1, 2), "gate qubits must be non-negative"),
        ("ryy", (0, -2), "gate qubits must be non-negative"),
        ("ryy", (-1, -1), "gate qubits must be distinct"),
    ])
    def test_each_error_has_its_message(self, kind, qubits, message):
        """Wrong arity and a negative qubit are rejected too, and every check
        runs in order: kind, arity, distinct qubits, sign."""
        with pytest.raises(ConfigError) as err:
            Gate(kind, qubits, 0.5)
        assert str(err.value) == message

    def test_qubit_bounds_checked_at_run(self):
        with pytest.raises(ConfigError):
            run_circuit([Gate.h(3)], 2)


class TestSimulator:
    def test_h_on_zero(self):
        state = run_circuit([Gate.h(0)], 1)
        np.testing.assert_allclose(state.amplitudes, [RSQRT2, RSQRT2], atol=1e-12)

    def test_cx_flips_target_when_control_set(self):
        # |10>: qubit 1 (control) is 1, qubit 0 (target) is 0, basis index 2.
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0
        out = apply_gate(Statevector(amps, 2), Gate.cx(1, 0))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_cx_no_action_when_control_clear(self):
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1.0  # |01>: control (qubit 1) clear
        out = apply_gate(Statevector(amps, 2), Gate.cx(1, 0))
        np.testing.assert_allclose(out.amplitudes, amps, atol=1e-12)

    def test_each_gate_kind_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        n = 3
        for kind_trial in range(40):
            gate = random_gate(rng, n)
            raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            raw /= np.linalg.norm(raw)
            mine = apply_gate(Statevector(raw.copy(), n), gate).amplitudes
            expect = dense_gate_unitary(gate, n) @ raw
            np.testing.assert_allclose(mine, expect, atol=1e-12)

    def test_random_circuits_match_dense_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            gates = [random_gate(rng, 3) for _ in range(12)]
            state = run_circuit(gates, 3)
            expect = dense_circuit_unitary(gates, 3)[:, 0]
            np.testing.assert_allclose(state.amplitudes, expect, atol=1e-10)

    def test_inverse_circuit_returns_to_start(self):
        rng = np.random.default_rng(2)
        gates = [random_gate(rng, 3) for _ in range(9)]
        state = run_circuit(gates + inverse_circuit(gates), 3)
        expect = np.zeros(8)
        expect[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expect, atol=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        gates = [random_gate(rng, 2) for _ in range(20)]
        state = run_circuit(gates, 2)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_circuit_keeps_no_state_alive(self, kind):
        """One 14-qubit circuit peaks under 2.5 states: its own plus one H
        layer product or a lone RYY gate's blocks. Once its result is
        dropped, nothing state-sized stays allocated."""
        gates = build_feature_map(FeatureMapSpec(14, kind, reps=3), np.linspace(0.0, 3.0, 14))
        run_circuit(gates, 14)  # warm the Sylvester and bit-table caches
        state_bytes = 16 << 14
        tracemalloc.start()
        try:
            state = run_circuit(gates, 14)
            _current, peak = tracemalloc.get_traced_memory()
            del state
            left, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * state_bytes
        assert left < state_bytes // 8

    def test_qubit_count_limits(self):
        with pytest.raises(ConfigError):
            zero_state(0)
        with pytest.raises(ConfigError):
            zero_state(MAX_QUBITS + 1)


class TestDataMap:
    def test_single_zero(self):
        assert data_map([0.0, 5.0], (0,)) == 0.0

    def test_single_passthrough(self):
        assert data_map([0.3, 1.7], (1,)) == 1.7

    def test_pair_root_at_pi(self):
        assert data_map([math.pi, math.pi], (0, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_pair_symmetry(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, math.pi, size=4)
        assert data_map(x, (1, 3)) == pytest.approx(data_map(x, (3, 1)), abs=1e-15)

    def test_larger_subsets_rejected(self):
        with pytest.raises(ConfigError):
            data_map([0.1, 0.2, 0.3], (0, 1, 2))


class TestFeatureMaps:
    def test_z_map_minimal_construction(self):
        gates = build_feature_map(FeatureMapSpec(1, "z", reps=1), [0.8])
        assert len(gates) == 2
        assert gates[0] == Gate.h(0)
        assert gates[1] == Gate.phase(0, 1.6)

    def test_zz_linear_pairs_only(self):
        gates = build_feature_map(FeatureMapSpec(3, "zz", reps=1), [0.1, 0.2, 0.3])
        cx_pairs = {g.qubits for g in gates if g.kind == "cx"}
        assert cx_pairs == {(0, 1), (1, 2)}

    def test_reps_scale_gate_count(self):
        x = [0.4, 0.9]
        once = build_feature_map(FeatureMapSpec(2, "zz", reps=1), x)
        thrice = build_feature_map(FeatureMapSpec(2, "zz", reps=3), x)
        assert len(thrice) == 3 * len(once)

    def test_pauli_zyy_uses_ryy_entanglers(self):
        gates = build_feature_map(FeatureMapSpec(3, "pauli_zyy", reps=1), [0.1, 0.2, 0.3])
        kinds = [g.kind for g in gates]
        assert kinds.count("ryy") == 2
        assert "cx" not in kinds

    def test_entangled_maps_need_two_qubits(self):
        for kind in ("zz", "pauli_zyy"):
            with pytest.raises(ConfigError):
                FeatureMapSpec(1, kind)

    @pytest.mark.parametrize("field", ["n_qubits", "reps"])
    def test_non_integer_count_rejected(self, field):
        with pytest.raises(ConfigError, match=rf"^{field} must be an integer, got 2\.0$"):
            FeatureMapSpec(**{"n_qubits": 2, field: 2.0})
        assert getattr(FeatureMapSpec(**{"n_qubits": 2, field: np.int64(2)}), field) == 2

    def test_feature_width_checked(self):
        with pytest.raises(ConfigError):
            build_feature_map(FeatureMapSpec(2, "zz"), [0.1, 0.2, 0.3])

    @given(feature_map_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_gatewise_builder(self, case):
        spec, x = case
        with np.errstate(over="ignore", invalid="ignore"):
            expect = build_feature_map_gatewise(spec, x)
            gates = build_feature_map(spec, x)
        assert [(g.kind, g.qubits) for g in gates] == [(g.kind, g.qubits) for g in expect]
        assert ([float.hex(g.angle) for g in gates]
                == [float.hex(g.angle) for g in expect])

    @given(feature_map_inputs())
    @settings(max_examples=50, deadline=None)
    def test_each_call_returns_a_new_list(self, case):
        spec, x = case
        with np.errstate(over="ignore", invalid="ignore"):
            first = build_feature_map(spec, x)
            expect = list(first)
            first.clear()
            second = build_feature_map(spec, x)
        assert second is not first
        assert [(g.kind, g.qubits) for g in second] == [(g.kind, g.qubits) for g in expect]

    @given(spec=feature_map_specs(), width=st.integers(0, 11))
    @settings(max_examples=50, deadline=None)
    def test_width_error_matches_gatewise_builder(self, spec, width):
        if width == spec.n_qubits:
            width += 1
        x = np.full(width, 0.5)
        with pytest.raises(ConfigError) as expect:
            build_feature_map_gatewise(spec, x)
        with pytest.raises(ConfigError) as got:
            build_feature_map(spec, x)
        assert str(got.value) == str(expect.value)


class TestExactKernel:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(5)
        for kind, n in (("z", 1), ("zz", 3), ("pauli_zyy", 2)):
            spec = FeatureMapSpec(n, kind, reps=2)
            x = rng.uniform(0, math.pi, size=n)
            assert exact_kernel_entry(x, x, spec) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        spec = FeatureMapSpec(2, "zz", reps=2)
        for trial in range(10):
            x, z = rng.uniform(0, math.pi, size=(2, 2))
            assert exact_kernel_entry(x, z, spec) == pytest.approx(
                exact_kernel_entry(z, x, spec), abs=1e-12
            )

    def test_z_single_qubit_closed_form(self):
        rng = np.random.default_rng(7)
        spec = FeatureMapSpec(1, "z", reps=1)
        for trial in range(20):
            x, z = rng.uniform(0, 2 * math.pi, size=2)
            matrix = dense_h() @ dense_phase(-2 * z) @ dense_phase(2 * x) @ dense_h()
            expect = abs(matrix[0, 0]) ** 2
            assert exact_kernel_entry([x], [z], spec) == pytest.approx(
                expect, abs=1e-12
            )

    def test_z_map_factorizes_across_qubits(self):
        rng = np.random.default_rng(8)
        n = 3
        spec_n = FeatureMapSpec(n, "z", reps=2)
        spec_1 = FeatureMapSpec(1, "z", reps=2)
        for trial in range(5):
            x, z = rng.uniform(0, math.pi, size=(2, n))
            whole = exact_kernel_entry(x, z, spec_n)
            product = 1.0
            for q in range(n):
                product *= exact_kernel_entry([x[q]], [z[q]], spec_1)
            assert whole == pytest.approx(product, abs=1e-9)


class TestSampledKernel:
    def test_multiple_of_shot_resolution(self):
        rng = np.random.default_rng(9)
        spec = FeatureMapSpec(2, "zz", reps=1)
        shot = ShotConfig(shots=100, seed=10598)
        for trial in range(10):
            x, z = rng.uniform(0, math.pi, size=(2, 2))
            est = sampled_kernel_entry(x, z, spec, shot)
            assert 0.0 <= est <= 1.0
            assert round(est * 100) == pytest.approx(est * 100, abs=1e-12)

    def test_identical_inputs_give_exactly_one(self):
        spec = FeatureMapSpec(2, "zz", reps=2)
        x = np.array([0.3, 1.1])
        est = sampled_kernel_entry(x, x, spec, ShotConfig(shots=100, seed=1))
        assert est == 1.0

    def test_binomial_concentration(self):
        spec = FeatureMapSpec(2, "zz", reps=1)
        x = np.array([0.4, 0.9])
        z = np.array([1.3, 2.2])
        exact = exact_kernel_entry(x, z, spec)
        shots = 100
        seeds = 500
        estimates = [
            sampled_kernel_entry(x, z, spec, ShotConfig(shots=shots, seed=s))
            for s in range(seeds)
        ]
        sigma = math.sqrt(exact * (1 - exact) / (shots * seeds))
        assert abs(float(np.mean(estimates)) - exact) <= 3 * sigma

    def test_shot_config_validation(self):
        with pytest.raises(ConfigError):
            ShotConfig(shots=0)


class TestKernelMatrices:
    def test_single_row(self):
        K = kernel_matrix(np.array([[0.5, 0.7]]), FeatureMapSpec(2, "zz", reps=1))
        np.testing.assert_array_equal(K, [[1.0]])

    def test_exact_mode_bit_exact_symmetry(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0, math.pi, size=(7, 3))
        K = kernel_matrix(X, FeatureMapSpec(3, "zz", reps=2))
        assert np.array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.ones(7))

    def test_exact_mode_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, math.pi, size=(6, 4))
        K = kernel_matrix(X, FeatureMapSpec(4, "zz", reps=2))
        values, _vectors = symmetric_eigendecomposition(K)
        assert values[-1] >= -1e-9

    def test_sampled_mode_symmetric_and_quantized(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, math.pi, size=(4, 2))
        K = kernel_matrix(X, FeatureMapSpec(2, "zz", reps=1), mode="sampled",
                          shot_config=ShotConfig(shots=50, seed=3))
        assert np.array_equal(K, K.T)
        np.testing.assert_allclose(K * 50, np.round(K * 50), atol=1e-12)

    def test_sampled_mode_requires_config(self):
        with pytest.raises(ConfigError):
            kernel_matrix(np.zeros((2, 2)), FeatureMapSpec(2, "zz"), mode="sampled")

    def test_shot_config_rejects_non_integer_shots(self):
        with pytest.raises(ConfigError, match=r"^shots must be an integer, got 2\.5$"):
            ShotConfig(shots=2.5)

    def test_shot_config_caps_shots(self):
        assert ShotConfig(shots=MAX_SHOTS).shots == MAX_SHOTS
        with pytest.raises(ConfigError, match=r"^shots must be in 1\.\.1000000$"):
            ShotConfig(shots=MAX_SHOTS + 1)

    def test_cross_on_same_inputs_equals_square(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(0, math.pi, size=(5, 2))
        spec = FeatureMapSpec(2, "pauli_zyy", reps=2)
        square = kernel_matrix(X, spec)
        cross = cross_kernel_matrix(X, X, spec)
        np.testing.assert_allclose(cross, square, atol=1e-12)

    def test_cross_entries_match_entrywise_recompute(self):
        rng = np.random.default_rng(14)
        left = rng.uniform(0, math.pi, size=(3, 2))
        right = rng.uniform(0, math.pi, size=(4, 2))
        spec = FeatureMapSpec(2, "zz", reps=1)
        cross = cross_kernel_matrix(left, right, spec)
        assert cross.shape == (3, 4)
        assert np.all(cross >= 0.0) and np.all(cross <= 1.0)
        for i in range(3):
            for j in range(4):
                assert cross[i, j] == pytest.approx(
                    exact_kernel_entry(left[i], right[j], spec), abs=1e-12
                )

    @staticmethod
    def _embed_by_index(monkeypatch, table):
        """Make each row of a kernel's input the index of its state in table,
        so the kernels' products run on arbitrary states."""
        monkeypatch.setattr(quantum, "_embedding_matrix",
                            lambda rows, _spec: table[rows[:, 0].astype(np.intp)])

    def test_fidelity_blocks_equal_one_product(self, monkeypatch):
        """Taking the overlaps one block of right-hand states at a time leaves
        every entry bit-equal to the single product over all of them, for
        unnormalised random states at every row count against blocks of 8
        and 16 rows."""
        rng = np.random.default_rng(17)
        for qubits in (1, 3, 6):
            dim = 1 << qubits
            spec = FeatureMapSpec(qubits, "z")
            for budget_rows in (1, 8, 12, 16, 17):
                monkeypatch.setattr(quantum, "_CONJ_BLOCK_BYTES", budget_rows * dim * 16)
                for n_left in (1, 2, 5):
                    for n_right in range(1, 42):
                        left, right = (rng.standard_normal((rows, dim))
                                       + 1j * rng.standard_normal((rows, dim))
                                       for rows in (n_left, n_right))
                        self._embed_by_index(monkeypatch, np.concatenate([left, right]))
                        left_idx = np.arange(n_left, dtype=float)[:, None]
                        right_idx = np.arange(n_left, n_left + n_right, dtype=float)[:, None]
                        case = (qubits, budget_rows, n_left, n_right)
                        got = cross_kernel_matrix(left_idx, right_idx, spec)
                        assert got.tobytes() == fidelity_one_product(
                            left, right).tobytes(), case
                        got = kernel_matrix(right_idx, spec)
                        assert got.tobytes() == square_kernel_one_product(
                            right).tobytes(), case

    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_blocked_products_equal_one_product(self, monkeypatch, kind):
        """The training kernel's upper-triangle blocks and the cross kernel's
        streamed blocks leave every entry bit-equal to one product over all
        states, at 1-12 qubits, every row count up to 41 and 150/151 rows,
        against blocks of 8, 8, 16 and 16 rows (budgets of 1, 8, 16 and 17
        rows): 9, 17, 25, 33 and 41 rows end in a one-row block that joins
        the one before it. Each row's state is embedded once, up front, and
        the kernels look it up, so the test's time goes to the products."""
        row_counts = [*range(1, 42), 150, 151]
        for qubits in range(1 if kind == "z" else 2, 13):
            spec = FeatureMapSpec(qubits, kind, reps=3)
            X = np.random.default_rng(qubits).uniform(0.0, math.pi, size=(151 + 16, qubits))
            table = _embedding_matrix(X, spec)
            state_of = {x.tobytes(): state for x, state in zip(X, table)}
            monkeypatch.setattr(quantum, "_embedding_matrix", lambda rows, _spec: np.array(
                [state_of[x.tobytes()] for x in rows]).reshape(len(rows), -1))
            for budget_rows in (1, 8, 16, 17):
                monkeypatch.setattr(quantum, "_CONJ_BLOCK_BYTES", budget_rows * (16 << qubits))
                for rows in row_counts:
                    n_left = (1, 2, 5, 16)[rows % 4]
                    square = kernel_matrix(X[:rows], spec)
                    cross = cross_kernel_matrix(X[-n_left:], X[:rows], spec)
                    case = (qubits, budget_rows, rows)
                    assert square.tobytes() == square_kernel_one_product(
                        table[:rows]).tobytes(), case
                    assert cross.tobytes() == fidelity_one_product(
                        table[-n_left:], table[:rows]).tobytes(), case
            monkeypatch.undo()

    @staticmethod
    def _peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # A 12-qubit circuit peaks under 2.5 states (test_circuit_keeps_no_state_alive
    # holds 14 qubits there), so 3 states of slack cover one row's embedding.
    STATE_BYTES = 16 << 12

    def test_square_kernel_holds_its_states_and_one_block(self, monkeypatch):
        """The training kernel peaks at its rows' states plus one block of
        conjugated states, or one circuit while embedding, plus its n x n
        float matrices."""
        spec = FeatureMapSpec(12, "zz", reps=3)
        X = np.random.default_rng(18).uniform(0.0, math.pi, size=(40, 12))
        monkeypatch.setattr(quantum, "_CONJ_BLOCK_BYTES", 8 * self.STATE_BYTES)
        kernel_matrix(X[:2], spec)  # warm the per-register caches
        peak = self._peak_bytes(lambda: kernel_matrix(X, spec))
        assert peak < (40 + 8 + 3) * self.STATE_BYTES + 4 * X.shape[0] ** 2 * 8

    def test_cross_kernel_holds_one_side_and_one_block(self, monkeypatch):
        """The cross kernel keeps the left rows' states and embeds the right
        rows one block at a time, so it peaks at the left states plus one
        block plus one circuit, never at both sides' states (80 states here
        when it held them)."""
        spec = FeatureMapSpec(12, "zz", reps=3)
        rng = np.random.default_rng(19)
        left = rng.uniform(0.0, math.pi, size=(8, 12))
        right = rng.uniform(0.0, math.pi, size=(64, 12))
        monkeypatch.setattr(quantum, "_CONJ_BLOCK_BYTES", 8 * self.STATE_BYTES)
        cross_kernel_matrix(left[:1], right[:1], spec)  # warm the per-register caches
        peak = self._peak_bytes(lambda: cross_kernel_matrix(left, right, spec))
        assert peak < (8 + 8 + 3) * self.STATE_BYTES + 4 * len(left) * len(right) * 8

    def test_fidelity_conjugates_one_block_at_a_time(self, monkeypatch):
        """The overlap products' extra memory is one block of conjugated
        states, not a conjugated copy of all of them: both kernels stay under
        an eighth of the 128 states' bytes with 8-row blocks."""
        rng = np.random.default_rng(16)
        spec = FeatureMapSpec(12, "zz")
        states = (rng.standard_normal((128, 1 << 12))
                  + 1j * rng.standard_normal((128, 1 << 12)))
        monkeypatch.setattr(quantum, "_CONJ_BLOCK_BYTES", 8 * self.STATE_BYTES)
        rows = np.arange(len(states), dtype=float)[:, None]
        # the training kernel is handed the states as they are, without a copy
        monkeypatch.setattr(quantum, "_embedding_matrix", lambda _rows, _spec: states)
        assert self._peak_bytes(lambda: kernel_matrix(rows, spec)) < states.nbytes // 8
        self._embed_by_index(monkeypatch, states)
        assert (self._peak_bytes(lambda: cross_kernel_matrix(rows[:4], rows, spec))
                < states.nbytes // 8)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_kernels_run_one_circuit_per_row(self, monkeypatch, mode):
        """perfbench's trace self-check wraps `quantum.build_feature_map` and
        `quantum.run_circuit` through their module attributes. It counts the
        run_circuit calls and their gates, and expects 2·n_train + n_test
        circuits in exact mode, each the full feature-map gate list of one
        row. Sampled mode draws its shots from the same overlaps, so it runs
        the same circuits. A change that passed this suite once still failed
        that traced run on its circuit count, so the wrappers here take
        positional arguments the way the tracer's do, at the 12 qubits of the
        kernel_exact workload as well."""
        for n in (3, 12):
            built, calls = [], []
            original_build, original_run = quantum.build_feature_map, quantum.run_circuit

            def traced_build_feature_map(spec, x):
                built.append(np.asarray(x, dtype=np.float64).tobytes())
                return original_build(spec, x)

            def traced_run_circuit(*args, **kwargs):
                gates, n_qubits = args
                calls.append((tuple(gates), n_qubits))
                return original_run(*args, **kwargs)

            monkeypatch.setattr(quantum, "build_feature_map", traced_build_feature_map)
            monkeypatch.setattr(quantum, "run_circuit", traced_run_circuit)
            rng = np.random.default_rng(15)
            spec = FeatureMapSpec(n, "zz", reps=2 if n == 3 else 3)
            shots = ShotConfig(shots=10, seed=4)
            train = rng.uniform(0, math.pi, size=(5, n))
            test = rng.uniform(0, math.pi, size=(2, n))
            kernel_matrix(train, spec, mode=mode, shot_config=shots)
            cross_kernel_matrix(test, train, spec, mode=mode, shot_config=shots)
            monkeypatch.undo()
            rows = [*train, *test, *train]
            assert len(built) == len(calls) == 2 * len(train) + len(test)
            assert Counter(built) == Counter(x.tobytes() for x in rows)
            expect = Counter((tuple(build_feature_map(spec, x)), n) for x in rows)
            assert Counter(calls) == expect

    @given(seed=st.integers(0, 10_000), reps=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_embedding_always_normalized(self, seed, reps):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, math.pi, size=3)
        state = embedding_state(x, FeatureMapSpec(3, "pauli_zyy", reps=reps))
        assert state.norm() == pytest.approx(1.0, abs=1e-10)


class TestSampledMatchesCircuit:
    """Sampled kernels draw their shots from the cached-state overlaps; the
    oracle measures one compute-uncompute circuit per entry. With the same
    (seed, i, j) generators every estimate is the same float."""

    @pytest.mark.parametrize("kind, n", [("z", n) for n in range(1, 7)]
                             + [(kind, n) for kind in ("zz", "pauli_zyy") for n in range(2, 7)])
    def test_entries_equal_oracle_bit_for_bit(self, kind, n):
        rng = np.random.default_rng(100 + n)
        spec = FeatureMapSpec(n, kind, reps=2)
        train = rng.uniform(0, math.pi, size=(5, n))
        train[3] = train[1]  # an off-diagonal pair of equal rows
        test = rng.uniform(0, math.pi, size=(3, n))
        for shots in (1, 7, 100, 1000):
            for seed in (0, 7, 10598):
                config = ShotConfig(shots=shots, seed=seed)
                square = kernel_matrix(train, spec, mode="sampled", shot_config=config)
                cross = cross_kernel_matrix(test, train, spec, mode="sampled",
                                            shot_config=config)
                assert square.tobytes() == sampled_kernel_circuit(
                    train, None, spec, shots, seed).tobytes(), (shots, seed)
                assert cross.tobytes() == sampled_kernel_circuit(
                    test, train, spec, shots, seed).tobytes(), (shots, seed)


class TestEmbeddingGolden:
    """sha256 of the embedded states and of the exact training kernel for
    every map at 4, 6 and 12 qubits, recorded from the per-gate builder and
    the single-product fidelity. A change to any angle, gate, simulator step
    or overlap product moves them. At 12 qubits the 130 rows split the
    fidelity product into blocks of 16 rows and a last one of 2."""

    GOLDEN = {
        ("z", 4): ("7342077143bfdc1a5ca1cd3280e710a4df3a6b01b6d82dfa57ccbc231426869c",
                   "58b5767416e30079c6a10cd92ce013e27ee822cfc71944daeb53e72e7771deeb"),
        ("z", 6): ("f75c9aed190c64f3868f3563b65901a6651168235e0f7981d39c4611aac4558e",
                   "4146af6b402939d9cf559456a89ca5a56d54e73a5c11f521b934d6fbbcf1a974"),
        ("z", 12): ("c23340bd0880f5806fbb263007901c92f16cc953cc4eb569c192723f9a15ec86",
                    "f7af421cb722526f898acbc094ddd3640cb2397f628bd383a7fa4f9db645c604"),
        ("zz", 4): ("5a94583996801d7accb8dd8e672043cd02ce0c8f2fcf6e765ce54b7c4fc1e5e5",
                    "e522de30cdd83fa20c439baebf34e0fd86083ef3cb1ac2fb139e20b39253843c"),
        ("zz", 6): ("bedfa63f357cdd0b709ab3e0292f80a756cea5b39e0afcb6bedc5518602a66c1",
                    "aad59c324f449325cd9b92bb33c8557c36d8d61cab4bfb817569e73e770f1585"),
        ("zz", 12): ("cb675b05c1cbb6e2b19e05f98cbd13f9b4297bb0adb2550b1416cb2980e470c3",
                     "62aca4645825b9c25440308ecd3e3599b4d2f8e2d733ffd41d10b06c01391f51"),
        ("pauli_zyy", 4): ("198977a19cc3fc2ab5725530840ac7561601765b0344de2a42ccc075a49a6e8c",
                           "6ab8dfaa649750a0145f01a02bd1d666ee4d037cb1c8e0df0c578b269286062c"),
        ("pauli_zyy", 6): ("bb69651f26e79e4cd17d9aaf4e78c30d07e4f29c2b451f266a706c1299c683b3",
                           "1eb25a283b7d196bad65a428a313520027a0c5dbe41d38f5fcd478e9e0f1a04f"),
        ("pauli_zyy", 12): ("682ac5a963d4ae856d77e5efcf45346806295d25338843322418c7b4b2556713",
                            "c8f1968c81ab43ec827761e31a0e4d0eb474f48a46609d1e5023109bb949dddf"),
    }

    # (kind, n_qubits, reps) -> the same two hashes over 9 rows, recorded
    # before repetitions were compiled once. Odd widths split the register
    # into uneven halves, and 13 qubits into H blocks of 5, 5 and 3.
    GOLDEN_REPS = {
        ("z", 5, 1): ("26f9a8a209625bb77b35630e3e0560e5aa1ed9907406360fd705253479266631",
                      "4c4af65d8ead506c3dfa236759b058b9f0d553c08a74ba9e7f1826b232ed3d9f"),
        ("z", 5, 2): ("41c2274013ce83d2ee8d5b9118b40ae417bea34a1d6cebe386bdda49bd87882a",
                      "cbcfcbdfa1addaff6ba4712b6426a3e4a588b0adee57e16fba271fbdb4a60ae0"),
        ("z", 5, 3): ("9c71c242f2a9855f8ae9ce11a6448767c275834e6061254bdcc9467258a0d42e",
                      "4db2db1bb2b6cdf20f181409c98c9b0c8de8df89d1c46984cc819d7616a4713d"),
        ("z", 5, 4): ("e06622d46158348952affd06c1713fa8ef14cc9e6c773a7b7cd191218bd1365f",
                      "1921fe89d693b7fe5f1a2b8862d10519bb0de8f0f0626030ac71af75cc1db1a9"),
        ("z", 13, 1): ("3df2b82b65e10d11b083c575f5e323a4c19e5019a52f6ec80ea6bb5f12d58212",
                       "8cff630d1d1346ce7562cda4d0599522f4c54a49ac0bb7ed79cfd7ef2127adec"),
        ("z", 13, 2): ("941ee0257e1afc5a2f5237d6621586490d4ca9cdecdd38362322c7905794974d",
                       "d8f22152d04aba8ab80cdbdaf356e9c0c4ac8ffc80810eebe4f8f98d5309a360"),
        ("z", 13, 3): ("30068108fa99b9e72bb95c1af16d401acfd0149266360270616dc69429a6208c",
                       "fd62894a2e7e7ca6b2e34d246d337e7232f850b09fa0979f70aa75823f369fee"),
        ("z", 13, 4): ("b223c6f4cd857c867fa270c967ef83f78bac82dafbc3617e169ca2e17facd481",
                       "f2e33a5740ba517fad5a9945d13c66fc07cb4d2e911101aa80214cfa91723a16"),
        ("zz", 5, 1): ("89fb0b9b135592f38e2db7e8879076d61c3ef13040557c8573071b9235f7875d",
                       "24e256ba0deaf00264007516540600f5a6063c3fc58f987457cbd8c3ad669a24"),
        ("zz", 5, 2): ("031fb9b33690ead55f4a444e00b860a8d6a878e9949f0d3464a25e2b0fd428d5",
                       "ca92a33622376f6c39e628080ab34802449148392d985582cee717ca89b1b1d8"),
        ("zz", 5, 3): ("4aa4b3bf29382f753a79ebf86a3d7173b5c39fec288f61f7de2733f05024e408",
                       "9399fe91a19aac2b4b288baaaae13f5110d228f5b66a9faecacad2bab5037aaf"),
        ("zz", 5, 4): ("add7c0e4f31b0999ebc767779f8ead05dd5def2db31ecb77535a852c6f8147fd",
                       "ad0419364bc713a9ebc4289fa0512e1b77815799bccb1e511de1251713259645"),
        ("zz", 13, 1): ("72094d19707196bace02cdbe9029edf2fdd809086738818995b14270f5e9ba1e",
                        "595b345085c38a26b12d6027aa604ad29f469052565b699b6a475018570210a1"),
        ("zz", 13, 2): ("58e2463285f4dd85fc2125142bdeb0923203aab68319fa4657c0f0980904a892",
                        "910e001c0edba44a13a8620918d8a9c106bff48afbba73125f0040e796c40fc0"),
        ("zz", 13, 3): ("d5ce8693fee6e4a719c0a430d31f228c4839ef6082e9614dae65b1ce16b00701",
                        "efaae5d6d424cab2cee4ec9c6cc444afe46369a184d0a5f0a26b16e91449e451"),
        ("zz", 13, 4): ("9c8ee56f311cebafeec51fba0abdd7cb3bd81ccdd79cf2ebf38f40b275e61cbc",
                        "f418b28b64df13aaf0702ffc6f7fdc0d14854cd38533e65b2874a9f9cd742653"),
        ("pauli_zyy", 5, 1): ("90a1b66a563057b93bc6729989fc4609cb5cfb828fd188fe81bd485c73636b5c",
                              "102b64c77ba26701e1df4d5c956b2e708e9da5f5bf60af803167542444c2f78a"),
        ("pauli_zyy", 5, 2): ("6164ff0ed5aae7408e92848ed4a91c832d5feb1daeef891a1651b58db72bbfa9",
                              "50bdb13611791c9bd63ed8b5879347f7fe5f55e6129f6d4f672c1e194fecf75f"),
        ("pauli_zyy", 5, 3): ("f596c0c88b7ea265b77ab863c3edd3a52fe35b97b176ae075b1241ea9c8b408e",
                              "20ac9a839e336ea2312b20da7924708a912935ece304620230a19752fe6114d5"),
        ("pauli_zyy", 5, 4): ("e350852ff03e680dffafc898ee3d852c741ec5b4c0884aead006d92a55987562",
                              "690a02bed68c0ae0b654dd23ee6eda1127123b83f250809eeae5789cbb50600b"),
        ("pauli_zyy", 13, 1): ("617c5c7ea913cb62c12408142b8720839d53c5ff66d3e4263ed82ac3130eb72d",
                               "a10167ad7c3bc94a6024fb52325880c1671d5c5a3315f163e2238d55faa0e573"),
        ("pauli_zyy", 13, 2): ("7c4e14e35aa0bec44b8b8a5184082951eb97cce0d39ef678bf6e3590e630e376",
                               "9b07fc00451325eb1db169fec5d1fff2c0d181923c7a5ac4d63d274180da636e"),
        ("pauli_zyy", 13, 3): ("71564e0fc42424abb7c595640fe7d86560b6856bfd1f1af80035cde8121bf241",
                               "7ce2ae11dfe8d097840a4076a0e9b0b06670949b880cc458d47e4792178dc509"),
        ("pauli_zyy", 13, 4): ("2195ebc38f9b9766617b0c3057f1f16e6a1ee1f26703ce9f1fa93ca7268fd835",
                               "b101dcf5ab35b71bc09ef33769d2c0b9a02bb22e0559d8e3217ae9094eea9851"),
    }

    @pytest.mark.parametrize("kind, n", sorted(GOLDEN))
    def test_embedding_is_pinned(self, kind, n):
        X = np.random.default_rng(n).uniform(0.0, math.pi, size=(130 if n == 12 else 17, n))
        X[0] = 0.0
        X[1] = math.pi
        spec = FeatureMapSpec(n, kind, reps=3)
        states, kernel = self.GOLDEN[kind, n]
        assert hashlib.sha256(_embedding_matrix(X, spec).tobytes()).hexdigest() == states
        assert hashlib.sha256(kernel_matrix(X, spec).tobytes()).hexdigest() == kernel

    @pytest.mark.parametrize("kind, n, reps", sorted(GOLDEN_REPS))
    def test_every_rep_count_is_pinned(self, kind, n, reps):
        X = np.random.default_rng(n).uniform(0.0, math.pi, size=(9, n))
        X[0] = 0.0
        X[1] = math.pi
        spec = FeatureMapSpec(n, kind, reps=reps)
        states, kernel = self.GOLDEN_REPS[kind, n, reps]
        assert hashlib.sha256(_embedding_matrix(X, spec).tobytes()).hexdigest() == states
        assert hashlib.sha256(kernel_matrix(X, spec).tobytes()).hexdigest() == kernel
