import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    _fidelity_from_states,
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
    gatewise_kernel,
    inverse_circuit,
    run_circuit_gatewise,
    sampled_kernel_circuit,
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

    def test_fidelity_blocks_equal_one_product(self, monkeypatch):
        """Conjugating the right-hand states in blocks leaves every entry
        bit-equal to the single product over all of them, at every row count
        against blocks of 8 and 16 rows."""
        rng = np.random.default_rng(17)
        for qubits in (1, 3, 6):
            dim = 1 << qubits
            for budget_rows in (1, 8, 12, 16, 17):
                monkeypatch.setattr(quantum, "_CONJ_BLOCK_BYTES", budget_rows * dim * 16)
                for n_left in (1, 2, 5):
                    for n_right in range(1, 42):
                        left, right = (rng.standard_normal((rows, dim))
                                       + 1j * rng.standard_normal((rows, dim))
                                       for rows in (n_left, n_right))
                        overlap = left @ right.conj().T
                        expect = np.clip(overlap.real**2 + overlap.imag**2, 0.0, 1.0)
                        got = _fidelity_from_states(left, right)
                        assert got.tobytes() == expect.tobytes(), (qubits, budget_rows,
                                                                   n_left, n_right)

    def test_fidelity_conjugates_one_block_at_a_time(self, monkeypatch):
        """The product's extra memory is one block of right-hand states, not
        a conjugated copy of all of them."""
        rng = np.random.default_rng(16)
        left = rng.standard_normal((4, 1024)) + 0j
        right = rng.standard_normal((256, 1024)) + 0j
        monkeypatch.setattr(quantum, "_CONJ_BLOCK_BYTES", 64 << 10)
        tracemalloc.start()
        try:
            _fidelity_from_states(left, right)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < right.nbytes // 8

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_kernels_run_one_circuit_per_row(self, monkeypatch, mode):
        """perfbench's trace self-check counts `quantum.run_circuit` calls and
        expects 2·n_train + n_test of them in exact mode, each the full
        feature-map gate list of one row. Sampled mode draws its shots from
        the same overlaps, so it runs the same circuits."""
        calls = []
        original = quantum.run_circuit

        def counting(gates, n_qubits):
            calls.append((tuple(gates), n_qubits))
            return original(gates, n_qubits)

        monkeypatch.setattr(quantum, "run_circuit", counting)
        rng = np.random.default_rng(15)
        spec = FeatureMapSpec(3, "zz", reps=2)
        shots = ShotConfig(shots=10, seed=4)
        train = rng.uniform(0, math.pi, size=(5, 3))
        test = rng.uniform(0, math.pi, size=(2, 3))
        kernel_matrix(train, spec, mode=mode, shot_config=shots)
        cross_kernel_matrix(test, train, spec, mode=mode, shot_config=shots)
        assert len(calls) == 2 * len(train) + len(test)
        expect = Counter((tuple(build_feature_map(spec, x)), 3)
                         for x in [*train, *test, *train])
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
    fidelity product into blocks of 64, 64 and 2 rows."""

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

    @pytest.mark.parametrize("kind, n", sorted(GOLDEN))
    def test_embedding_is_pinned(self, kind, n):
        X = np.random.default_rng(n).uniform(0.0, math.pi, size=(130 if n == 12 else 17, n))
        X[0] = 0.0
        X[1] = math.pi
        spec = FeatureMapSpec(n, kind, reps=3)
        states, kernel = self.GOLDEN[kind, n]
        assert hashlib.sha256(_embedding_matrix(X, spec).tobytes()).hexdigest() == states
        assert hashlib.sha256(kernel_matrix(X, spec).tobytes()).hexdigest() == kernel
