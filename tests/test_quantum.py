import hashlib
import math
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkgene import quantum
from qkgene.errors import ConfigError
from qkgene.quantum import (
    MAP_KINDS,
    MAX_QUBITS,
    MAX_SHOTS,
    FeatureMap,
    FeatureMapSpec,
    ShotConfig,
    build_feature_map,
    _embedding_matrix,
    cross_kernel_matrix,
    kernel_matrix,
    run_circuit,
)
from qkgene.reduction import symmetric_eigendecomposition

from oracles import (
    Gate,
    _apply_inplace,
    build_feature_map_gatewise,
    data_map,
    dense_circuit_unitary,
    dense_gate_unitary,
    dense_h,
    dense_phase,
    exact_kernel_entry,
    fidelity_one_product,
    gatewise_kernel,
    inverse_circuit,
    layer_gatewise,
    run_circuit_gatewise,
    sampled_kernel_circuit,
    sampled_kernel_entry,
    square_kernel_one_product,
    zero_state,
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


def apply_gate(amps: np.ndarray, n_qubits: int, gate) -> np.ndarray:
    """The oracle's strided update of one gate, on a copy of amps."""
    out = np.array(amps, dtype=np.complex128)
    _apply_inplace(out, n_qubits, gate)
    return out


def embed(spec, x) -> np.ndarray:
    """The production state of row x: one built map, run."""
    return run_circuit(build_feature_map(spec, x), spec.n_qubits)


@st.composite
def maps_with_edge_rows(draw):
    """(spec, x): every map on 1-14 qubits with 1-6 repetitions, and rows
    whose features include the scale range's ends 0 and pi."""
    kind = draw(st.sampled_from(MAP_KINDS))
    n = draw(st.integers(1 if kind == "z" else 2, 14))
    spec = FeatureMapSpec(n, kind, reps=draw(st.integers(1, 6)))
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
    def test_run_circuit_takes_only_built_maps(self):
        """run_circuit has one path: a map from build_feature_map on its own
        register size. A plain gate list, the oracle's gate list of the same
        map, a map's row, and a map on any other register size each raise
        one ConfigError."""
        spec = FeatureMapSpec(5, "zz", reps=2)
        x = np.random.default_rng(23).uniform(0.0, math.pi, 5)
        built = build_feature_map(spec, x)
        for circuit, n in (([Gate.h(0), Gate.phase(1, 0.3)], 2), ([], 5),
                           (build_feature_map_gatewise(spec, x), 5), (x, 5),
                           (built, 4), (built, 6), (built, 0)):
            with pytest.raises(ConfigError, match=r"^run_circuit takes a map from "
                               r"build_feature_map and that map's qubit count, got \w+ on "
                               rf"{n} qubits$"):
                run_circuit(circuit, n)
        assert run_circuit(built, 5).tobytes() == _embedding_matrix(x[None, :], spec).tobytes()

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

    @given(maps_with_edge_rows())
    @settings(max_examples=200, deadline=None)
    @example((FeatureMapSpec(14, "zz", reps=6), [0.5] * 14))  # stays factored
    @example((FeatureMapSpec(13, "pauli_zyy", reps=6), [0.5] * 13))  # passes the rank cap
    @example((FeatureMapSpec(1, "z", reps=6), [math.pi]))
    @example((FeatureMapSpec(2, "zz", reps=1), [0.0, math.pi]))
    def test_program_matches_gatewise_and_dense(self, case):
        """Every map, 1-14 qubits (odd and even) and 1-6 repetitions, on
        both sides of the rank cap: the program's state is within 1e-12 of
        the oracle's gates applied one at a time, and, up to 5 qubits, of
        the product of their dense unitaries."""
        spec, x = case
        state = embed(spec, x)
        gates = build_feature_map_gatewise(spec, x)
        np.testing.assert_allclose(state, run_circuit_gatewise(gates, spec.n_qubits),
                                   rtol=0.0, atol=1e-12)
        if spec.n_qubits <= 5:
            np.testing.assert_allclose(
                state, dense_circuit_unitary(gates, spec.n_qubits)[:, 0], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_rank_cap_both_sides(self, monkeypatch, kind):
        """At 12 qubits an entangled map's terms reach one state's
        amplitudes after 5 repetitions, so 5 stay factored to the end (one
        materialization) and the 6th pair diagonal finishes on the full
        register (the materialization and that diagonal's product). A z
        map keeps one term. Each state is within 1e-12 of the gates applied
        one at a time."""
        products = []
        original = quantum._product
        monkeypatch.setattr(quantum, "_product", lambda w: products.append(w.shape) or original(w))
        x = np.random.default_rng(21).uniform(0.0, math.pi, 12)
        for reps, expect in ((5, 1), (6, 1 if kind == "z" else 2)):
            products.clear()
            spec = FeatureMapSpec(12, kind, reps=reps)
            np.testing.assert_allclose(embed(spec, x),
                                       run_circuit_gatewise(build_feature_map_gatewise(spec, x), 12),
                                       rtol=0.0, atol=1e-12)
            assert len(products) == expect, (reps, products)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_leading_layer_is_a_fill(self, n):
        """The program starts from H on |0...0> as a constant fill of each
        half. A one-repetition z map of the zero row, whose phases are all
        0, is that fill: within 1e-12 of 2^(-n/2), of _layer's H on every
        qubit of |0...0> and of the H gates applied one at a time."""
        state = embed(FeatureMapSpec(n, "z", reps=1), np.zeros(n))
        amps = zero_state(n)
        quantum._layer(amps, "h", n, 1)
        for expect in (np.full(1 << n, 2.0 ** (-0.5 * n)), amps,
                       run_circuit_gatewise([Gate.h(q) for q in range(n)], n)):
            np.testing.assert_allclose(state, expect, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("layer", ["h", "v", "v_dag", "v_then_h"])
    def test_layer_matches_per_qubit_oracle(self, layer):
        """_layer applies its 2x2 matrix to every qubit of each column, in
        place, for 0-13 qubits (blocks of 6, 6 and 1 at 13), batches and
        widths, within 1e-12 of one einsum per qubit. V is the frame in
        which V Z V† = Y, and v_then_h is V followed by H."""
        h, v = quantum._LAYERS["h"], quantum._LAYERS["v"]
        pauli_y, pauli_z = np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])
        np.testing.assert_allclose(v @ pauli_z @ v.conj().T, pauli_y, atol=1e-15)
        np.testing.assert_allclose(quantum._LAYERS["v_dag"], v.conj().T, atol=0.0)
        np.testing.assert_allclose(quantum._LAYERS["v_then_h"], h @ v, atol=0.0)
        rng = np.random.default_rng(22)
        for n in range(14):
            for batch, width in ((1, 1), (3, 1), (2, 5)):
                amps = (rng.standard_normal((batch, 1 << n, width))
                        + 1j * rng.standard_normal((batch, 1 << n, width)))
                expect = layer_gatewise(amps, quantum._LAYERS[layer], n)
                quantum._layer(amps, layer, n, width)
                np.testing.assert_allclose(amps, expect, rtol=0.0, atol=1e-12)

    def test_map_keeps_its_own_row(self):
        """A built map holds a read-only float64 copy of its row: changing
        the caller's row afterwards changes no amplitude, the copy cannot
        be written, and the map's fields cannot be reassigned."""
        spec = FeatureMapSpec(5, "zz", reps=2)
        x = np.random.default_rng(23).uniform(0.0, math.pi, 5)
        row = x.copy()
        built = build_feature_map(spec, row)
        row[:] = 0.0
        assert built.x.dtype == np.float64 and built.x.tobytes() == x.tobytes()
        assert run_circuit(built, 5).tobytes() == embed(spec, x).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            built.x[0] = 1.0
        with pytest.raises(FrozenInstanceError):
            built.x = row
        assert build_feature_map(spec, [1, 2, 3, 4, 5]).x.dtype == np.float64

    @pytest.mark.slow
    def test_twenty_qubit_program_matches_gatewise(self):
        """At 20 qubits every map's program (factored to the end at 3
        repetitions, past the rank cap at 10) is within 1e-12 of the gates
        applied one at a time."""
        x = np.random.default_rng(24).uniform(0.0, math.pi, 20)
        for kind, reps in (("z", 3), ("zz", 3), ("pauli_zyy", 3), ("zz", 10)):
            spec = FeatureMapSpec(20, kind, reps=reps)
            np.testing.assert_allclose(embed(spec, x),
                                       run_circuit_gatewise(build_feature_map_gatewise(spec, x), 20),
                                       rtol=0.0, atol=1e-12, err_msg=f"{kind} reps={reps}")

    def test_diagonal_gate_bounds_checked(self):
        """The oracle's simulator checks every gate's qubits against the
        register, diagonal gates and CX·RZ·CX runs included."""
        for run in ([Gate.phase(2, 0.3)], [Gate.rz(1, 0.2), Gate.rz(5, 0.3)],
                    [Gate.cx(0, 2), Gate.rz(2, 0.3), Gate.cx(0, 2)]):
            with pytest.raises(ConfigError, match="exceeds register size 2"):
                run_circuit_gatewise([Gate.h(0), Gate.h(1)] + run, 2)


class TestGateValidation:
    """The oracle's gates check their kind, arity and qubits."""

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
            run_circuit_gatewise([Gate.h(3)], 2)


class TestSimulator:
    """The oracle's gate-by-gate simulator against dense unitaries, and the
    production program's memory and register limits."""

    def test_h_on_zero(self):
        state = run_circuit_gatewise([Gate.h(0)], 1)
        np.testing.assert_allclose(state, [RSQRT2, RSQRT2], atol=1e-12)

    def test_cx_flips_target_when_control_set(self):
        # |10>: qubit 1 (control) is 1, qubit 0 (target) is 0, basis index 2.
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0
        out = apply_gate(amps, 2, Gate.cx(1, 0))
        np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-12)

    def test_cx_no_action_when_control_clear(self):
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1.0  # |01>: control (qubit 1) clear
        out = apply_gate(amps, 2, Gate.cx(1, 0))
        np.testing.assert_allclose(out, amps, atol=1e-12)

    def test_each_gate_kind_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        n = 3
        for kind_trial in range(40):
            gate = random_gate(rng, n)
            raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            raw /= np.linalg.norm(raw)
            mine = apply_gate(raw, n, gate)
            expect = dense_gate_unitary(gate, n) @ raw
            np.testing.assert_allclose(mine, expect, atol=1e-12)

    def test_random_circuits_match_dense_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            gates = [random_gate(rng, 3) for _ in range(12)]
            state = run_circuit_gatewise(gates, 3)
            expect = dense_circuit_unitary(gates, 3)[:, 0]
            np.testing.assert_allclose(state, expect, atol=1e-10)

    def test_inverse_circuit_returns_to_start(self):
        rng = np.random.default_rng(2)
        gates = [random_gate(rng, 3) for _ in range(9)]
        state = run_circuit_gatewise(gates + inverse_circuit(gates), 3)
        expect = np.zeros(8)
        expect[0] = 1.0
        np.testing.assert_allclose(state, expect, atol=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        gates = [random_gate(rng, 2) for _ in range(20)]
        state = run_circuit_gatewise(gates, 2)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_circuit_keeps_no_state_alive(self, kind):
        """A 14-qubit circuit with 3 repetitions stays factored and peaks
        under 1.25 states: its own plus the terms. With 8 it passes the rank
        cap and peaks under 2.25: its state plus one layer product or one
        diagonal. Once its result is dropped, nothing state-sized stays
        allocated."""
        state_bytes = 16 << 14
        for reps, bound in ((3, 1.25), (8, 2.25)):
            circuit = build_feature_map(FeatureMapSpec(14, kind, reps=reps),
                                        np.linspace(0.0, 3.0, 14))
            run_circuit(circuit, 14)  # warm the Kronecker-power and table caches
            tracemalloc.start()
            try:
                state = run_circuit(circuit, 14)
                _current, peak = tracemalloc.get_traced_memory()
                del state
                left, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound * state_bytes, reps
            assert left < state_bytes // 8

    def test_qubit_count_limits(self):
        for n in (0, MAX_QUBITS + 1):
            with pytest.raises(ConfigError, match=rf"^n_qubits must be in 1\.\.{MAX_QUBITS}$"):
                FeatureMapSpec(n, "z")
        assert FeatureMapSpec(MAX_QUBITS, "z").n_qubits == MAX_QUBITS


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
        circuit = build_feature_map(FeatureMapSpec(1, "z", reps=1), [0.8])
        assert len(circuit) == 2
        assert circuit.x.tolist() == [0.8]
        assert build_feature_map_gatewise(circuit.spec, [0.8]) == [Gate.h(0), Gate.phase(0, 1.6)]

    def test_zz_linear_pairs_only(self):
        spec = FeatureMapSpec(3, "zz", reps=1)
        gates = build_feature_map_gatewise(spec, [0.1, 0.2, 0.3])
        cx_pairs = {g.qubits for g in gates if g.kind == "cx"}
        assert cx_pairs == {(0, 1), (1, 2)}
        assert len(build_feature_map(spec, [0.1, 0.2, 0.3])) == len(gates) == 3 + 3 + 2 * 3

    def test_reps_scale_gate_count(self):
        x = [0.4, 0.9]
        once = build_feature_map(FeatureMapSpec(2, "zz", reps=1), x)
        thrice = build_feature_map(FeatureMapSpec(2, "zz", reps=3), x)
        assert len(thrice) == 3 * len(once)

    def test_pauli_zyy_uses_ryy_entanglers(self):
        spec = FeatureMapSpec(3, "pauli_zyy", reps=1)
        kinds = [g.kind for g in build_feature_map_gatewise(spec, [0.1, 0.2, 0.3])]
        assert kinds.count("ryy") == 2
        assert "cx" not in kinds
        assert len(build_feature_map(spec, [0.1, 0.2, 0.3])) == len(kinds) == 3 + 3 + 2

    def test_len_is_the_gatewise_gate_count(self):
        """len() of a built map is the length of the oracle's gate list, for
        every map on 1-14 qubits with 1-6 repetitions."""
        for kind in MAP_KINDS:
            for n in range(1 if kind == "z" else 2, 15):
                for reps in range(1, 7):
                    spec = FeatureMapSpec(n, kind, reps=reps)
                    x = np.linspace(0.0, math.pi, n)
                    assert len(build_feature_map(spec, x)) == len(
                        build_feature_map_gatewise(spec, x)), (kind, n, reps)

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
        """A built map keeps the row's float64 bytes, NaN, signed zeros and
        overflowing values included, and counts the gates the oracle builds
        from them."""
        spec, x = case
        with np.errstate(over="ignore", invalid="ignore"):
            expect = build_feature_map_gatewise(spec, x)
        circuit = build_feature_map(spec, x)
        assert circuit.spec is spec
        assert circuit.x.tobytes() == np.asarray(x, dtype=np.float64).tobytes()
        assert len(circuit) == len(expect)

    @given(feature_map_inputs())
    @settings(max_examples=50, deadline=None)
    def test_each_call_returns_a_new_list(self, case):
        """Each call returns a new map with its own copy of the row."""
        spec, x = case
        first = build_feature_map(spec, x)
        second = build_feature_map(spec, x)
        assert isinstance(second, FeatureMap) and second is not first
        assert not np.shares_memory(first.x, second.x)
        assert second.x.tobytes() == first.x.tobytes() and len(second) == len(first)

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
        K = kernel_matrix(X, FeatureMapSpec(2, "zz", reps=1), ShotConfig(shots=50, seed=3))
        assert np.array_equal(K, K.T)
        np.testing.assert_allclose(K * 50, np.round(K * 50), atol=1e-12)

    def test_sampled_kernels_seed_one_generator_per_drawn_entry(self, monkeypatch):
        """A square sampled kernel draws only i < j, n(n-1)/2 generators, and
        mirror_upper copies them and sets the diagonal to exactly 1; a cross
        kernel draws every entry."""
        seeds, original = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: seeds.append(seed) or original(seed))
        rng = original(21)
        spec = FeatureMapSpec(3, "zz", reps=2)
        train = rng.uniform(0, math.pi, size=(7, 3))
        test = rng.uniform(0, math.pi, size=(4, 3))
        config = ShotConfig(shots=100, seed=5)
        square = kernel_matrix(train, spec, config)
        assert seeds == [(5, i, j) for i in range(7) for j in range(i + 1, 7)]
        np.testing.assert_array_equal(np.diag(square), np.ones(7))
        assert np.tril(square, -1).tobytes() == np.triu(square, 1).T.tobytes()
        seeds.clear()
        cross_kernel_matrix(test, train, spec, config)
        assert seeds == [(5, i, j) for i in range(4) for j in range(7)]

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

    # A circuit peaks under 2.25 states (test_circuit_keeps_no_state_alive holds
    # 14 qubits there), so 3 states of slack cover one row's embedding.
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
        run_circuit calls and their gates (len of the map), and expects
        2·n_train + n_test circuits in exact mode, each the feature map of
        one row. Sampled mode draws its shots from the same overlaps, so it
        runs the same circuits. A change that passed this suite once still
        failed that traced run on its circuit count, so the wrappers here
        take positional arguments the way the tracer's do, at the 12 qubits
        of the kernel_exact workload as well."""
        for n in (3, 12):
            built, calls = [], []
            original_build, original_run = quantum.build_feature_map, quantum.run_circuit

            def traced_build_feature_map(spec, x):
                built.append(np.asarray(x, dtype=np.float64).tobytes())
                return original_build(spec, x)

            def traced_run_circuit(*args, **kwargs):
                circuit, n_qubits = args
                calls.append((circuit.x.tobytes(), len(circuit), n_qubits))
                return original_run(*args, **kwargs)

            monkeypatch.setattr(quantum, "build_feature_map", traced_build_feature_map)
            monkeypatch.setattr(quantum, "run_circuit", traced_run_circuit)
            rng = np.random.default_rng(15)
            spec = FeatureMapSpec(n, "zz", reps=2 if n == 3 else 3)
            shots = ShotConfig(shots=10, seed=4) if mode == "sampled" else None
            train = rng.uniform(0, math.pi, size=(5, n))
            test = rng.uniform(0, math.pi, size=(2, n))
            kernel_matrix(train, spec, shots)
            cross_kernel_matrix(test, train, spec, shots)
            monkeypatch.undo()
            rows = [*train, *test, *train]
            assert len(built) == len(calls) == 2 * len(train) + len(test)
            assert Counter(built) == Counter(x.tobytes() for x in rows)
            gates = len(build_feature_map_gatewise(spec, rows[0]))
            assert Counter(calls) == Counter((x.tobytes(), gates, n) for x in rows)

    @given(seed=st.integers(0, 10_000), reps=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_embedding_always_normalized(self, seed, reps):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, math.pi, size=3)
        state = embed(FeatureMapSpec(3, "pauli_zyy", reps=reps), x)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


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
                square = kernel_matrix(train, spec, config)
                cross = cross_kernel_matrix(test, train, spec, config)
                assert square.tobytes() == sampled_kernel_circuit(
                    train, None, spec, shots, seed).tobytes(), (shots, seed)
                assert cross.tobytes() == sampled_kernel_circuit(
                    test, train, spec, shots, seed).tobytes(), (shots, seed)


class TestEmbeddingGolden:
    """sha256 of the embedded states and of the exact training kernel for
    every map at 4, 6 and 12 qubits, recorded from the factored program.
    Each test also holds the states within 1e-12 of the per-gate builder's
    gates applied one at a time, and the kernel within 1e-12 of one product
    over those states, so every pinned hash is a checked one. A change to
    any angle, gate, program step or overlap product moves the hashes. At
    12 qubits the 130 rows split the fidelity product into blocks of 16 rows
    and a last one of 2."""

    GOLDEN = {
        ("z", 4): ("4df9de78fd3a553716aea740c9a4d5ed0006fc12748a7c5ec19ea47867432149",
                   "73d963fb6faabb7aca662132b22a46d3a7f890290489b4affeb7f0c6decb2124"),
        ("z", 6): ("e029acb9e0e50b969be8bf4f8457d41edac203304be7df40f65b1bfeb7315a65",
                   "5c4e6425f11fdcf187d43041334588e4e95123fc3ee3251a186b797dbe85b3b2"),
        ("z", 12): ("469995dfd5e9e46541e6dab00a7431937f5efd8d5db1243b3eae4fcab1726177",
                    "8d10353a42aa589811c30284489148b4abcb2bc209543330ce2bb44592cbabed"),
        ("zz", 4): ("5c4015c22b36ce8ea3edcd649916374989141c4c6887afb1c342dc1f36601a3b",
                    "535680e66a4f7a39feae821734dbcc3fce3591ac87d408b0b123a650ee1b8816"),
        ("zz", 6): ("a5b721621f20c0c7c8078a9d17a8438936e140cffa7cc908947cfb2ceaedb04d",
                    "53ebcdf04cf008e743b4472420c8f0722453d4fcb0d95900c05e547290a34e7a"),
        ("zz", 12): ("5d453654ecc3084814bd793de06022017e6bf7828a4da43208734abb86e41a12",
                     "8cd28289a2463055a57eb85ed23ce70852fb17529c79034385c51c9924717e03"),
        ("pauli_zyy", 4): ("c1b047e16e3c19dc52404e02f23998fe076a8df5e576fcbfe126123467d5fec9",
                           "569a8b3cbff5b756dce302c27f5a7c3c4e32de60416317f8351b9eefac390edd"),
        ("pauli_zyy", 6): ("5d25a6aaed6523025335a074ab47eb8972761117991e4f8e15582a73254682fa",
                           "6918459ef80b3339ed05d36c24a2daf57380fb9c86ef81c07f842042bedd7a6b"),
        ("pauli_zyy", 12): ("c007dde214af32d09426cd0edcc83f3e19f923c5c1bfcfaeec21fa623369d6aa",
                            "496706dd78de777d627bdcaa3bbb6becb328e0582fba77407cc0bfa019675e45"),
    }

    # (kind, n_qubits, reps) -> the same two hashes over 9 rows. Odd widths
    # split the register into uneven halves. At 5 qubits an entangled map
    # passes the rank cap from 2 repetitions on; at 13 it stays factored.
    GOLDEN_REPS = {
        ("z", 5, 1): ("4b1690b6f5887b3b302527729cb3fe57aaaf0c3cf5f7cc47cb44e7a3882be3d2",
                      "1ae9334391c4bdf788496952c4b2ef973bfbfc31f0f58cfa12904222afc3c728"),
        ("z", 5, 2): ("eba38056a1524785bd694927f3e4ac9d17e59bcf1843bca60fe2a77f72b009b0",
                      "9a003cbc8f1c6c42b2f9b9c8d39e41fb96a35bc041d66f978e8662df16bfb87f"),
        ("z", 5, 3): ("6f2f368e8c5084cd3b7500d952e12cea231992219602c8563db16fc4f437b716",
                      "eb60e7166dec5fe037558584b0bc657748f766aee79d8c4e58cd2840b585e292"),
        ("z", 5, 4): ("dd8979ddec817b7eb2e4fae6020aa36b48cbb4eb80e416ceebc8b0c4562999f7",
                      "38493c58c546cf7ea25290b0d0730833ab38fa0486fc4d0907430d490c108eef"),
        ("z", 13, 1): ("c05a680a00ad006ec17d484ce22c9fe06d909e4ff7b2d09ba68b5a0ad15fc505",
                       "d1d523ff5686a94e475ec0ccb8aa2a3d646e60e60ace486f6f72e6a2452d6855"),
        ("z", 13, 2): ("f2d72825e887d5b1dfa8ccfa4a0d16035f855315dccab8016266c31ea7ba21e9",
                       "abcd4757016bd296e6952e6d58ccce220f017dcf748706e1343c99c287df0cb5"),
        ("z", 13, 3): ("2ab645faa8bfded7ad14b6b4bc22f34a91ae37b4f034bd8ca640cc2f75e8c523",
                       "384cb2e846cda7ffa978b40fdbc7fb2663f36069733533ab75401b8e66fc4ec5"),
        ("z", 13, 4): ("a398c33b61b67ebda9c0f55152c58383e9a42c78175399a698729345e5ef42cc",
                       "d3369dcad652c9ae8f1d2e0dbdc11416addad0eb3da1e6e6d64ff46c67fe3ba7"),
        ("zz", 5, 1): ("0bcedc559a531df3c2769a21bf8d8c6107ec2706783d4c2f6bbb2ea9ae0449df",
                       "f1a65e078a1e1afe86d55af278ad9eac93a7106ac326dd452ef01d9287f241b5"),
        ("zz", 5, 2): ("47ac9a01a465e8becbfcd33e6b006bdd462abe1c89f9895dcb67289a0d15ed47",
                       "7952939c07810e44d6ceb1a8381252afc7ab67625503e66076550751f2573023"),
        ("zz", 5, 3): ("c70004b5365547f43f6ced038cab0ec0855d1c49af98dd7e87c9c09310e44288",
                       "e1f594ffe97a9e738f413bcdd33a1d2f6bc29cf55bc4207bc43822e04dad844c"),
        ("zz", 5, 4): ("f7930340b3d83da5fcc14a86ca728728b2f69b1ad51a1a85d5db28982e0adc42",
                       "ce3293b2f7de2d33c644351b4355abc027ce0ad31f2cb59bea808c8163b7ce5c"),
        ("zz", 13, 1): ("333773a09f5cc8258cf0bf9083774df4c5f4449ebc14db8e72f5028267d35064",
                        "1ce194ffcc219dd268a1a0c9642da9498208e3c6178d21b1e0afee6dd5349644"),
        ("zz", 13, 2): ("62dea14774efc1ccc17111c25fc165f812868c86e9827fb75ee5982aa0b9aae4",
                        "68051b3917111db8b2edc29da3868143ab7f1e82d84f634bb6db96f6753aea5c"),
        ("zz", 13, 3): ("261add656a3584acdc9cdafccf1a40c29e77da46e266b0d3c29a99ca0ef3791c",
                        "e944394a24a78bcf0c8a13af5273445c0abe2bb72030c5d200637b09bb573050"),
        ("zz", 13, 4): ("17c5a2a2904cf58b6a3e3c6f3c227779fc65f7f28b8d13ca814b3772264c3db2",
                        "c173fb20d5eb0a073f556881aac436aeb8ff3a7238ab207d051a3a1cfec2f30d"),
        ("pauli_zyy", 5, 1): ("f894269adf6e5434adc9f03a6c7cad4cefcf73627fbe0d76702c53271ff6909b",
                              "0e2d815957e26fea5b2368a2caa9b68c0860f11c2b0053ca886bcbcc115b09c9"),
        ("pauli_zyy", 5, 2): ("bf28532dba0d29b0989a88ef262905c987173d2cfcd99096f361d7af7569edb9",
                              "5bf9337b7a2c28bb9c5c42a337180a4c159d0636d08b71e432717205c38f344e"),
        ("pauli_zyy", 5, 3): ("2da0469e331537cff831cb39f0061bb82fb1eb7ae26f5ce36004abc44f9247d2",
                              "4ca5f0c42efa5c42360e95d8e85a3f3ca42bff6fccc3201f718735d37394fbb4"),
        ("pauli_zyy", 5, 4): ("5bbf2e3aa8454b7752b3cf4ec729715dd9ddfb3ea86b6781f6abba451c90d9d0",
                              "01c0a2d2c46d019bdafef58f04d7c2faffcf3d797231314517d32a69632df1c2"),
        ("pauli_zyy", 13, 1): ("306a33833458178ad2287bf8a45e61fe9909ce39acb9d289cea53ca17b397b22",
                               "bc6aab0d23d778bce4e87a5cdc1fa12265a42c8e6ac347e2c3b69f7092e6a2e6"),
        ("pauli_zyy", 13, 2): ("29016d85663c0d01c133068317e86642edd740186ec36a1709cb9bf48ef08798",
                               "182c3166696ce5d1d8a2156abe677fdf530ba9188367b084e47fabe26e26da44"),
        ("pauli_zyy", 13, 3): ("9e674247672599e6d0a4100f8570c19422c29f41f66f5256f78b48648203c909",
                               "2070409b0b3db5682ab529a05defcda91cbed5a90be2169f3a2d519422bf586a"),
        ("pauli_zyy", 13, 4): ("acd790c28b7982c3ac1a8df270d3786cfaad7b18f09f4196e36cf8dfb6ce56af",
                               "7138cd0e0e39f74c15c76b4c7dcd429ba38642eede22f64b9758511783104616"),
    }

    @staticmethod
    def _check(X, spec, hashes):
        states = _embedding_matrix(X, spec)
        kernel = kernel_matrix(X, spec)
        oracle = np.array([run_circuit_gatewise(build_feature_map_gatewise(spec, x),
                                                spec.n_qubits) for x in X])
        np.testing.assert_allclose(states, oracle, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(kernel, square_kernel_one_product(oracle), rtol=0.0, atol=1e-12)
        assert (hashlib.sha256(states.tobytes()).hexdigest(),
                hashlib.sha256(kernel.tobytes()).hexdigest()) == hashes

    @pytest.mark.parametrize("kind, n", sorted(GOLDEN))
    def test_embedding_is_pinned(self, kind, n):
        X = np.random.default_rng(n).uniform(0.0, math.pi, size=(130 if n == 12 else 17, n))
        X[0] = 0.0
        X[1] = math.pi
        self._check(X, FeatureMapSpec(n, kind, reps=3), self.GOLDEN[kind, n])

    @pytest.mark.parametrize("kind, n, reps", sorted(GOLDEN_REPS))
    def test_every_rep_count_is_pinned(self, kind, n, reps):
        X = np.random.default_rng(n).uniform(0.0, math.pi, size=(9, n))
        X[0] = 0.0
        X[1] = math.pi
        self._check(X, FeatureMapSpec(n, kind, reps=reps), self.GOLDEN_REPS[kind, n, reps])
