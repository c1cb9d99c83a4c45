import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkgene import optimizer
from qkgene.data_io import LabeledDataset, SplitSpec, split_indices
from qkgene.errors import ConfigError, DataError
from qkgene.optimizer import (
    FeatureMask,
    FitnessConfig,
    Hawk,
    HhoParams,
    binarize,
    escaping_energy,
    exploitation_step,
    exploration_step,
    init_population,
    levy_step,
    make_fitness,
    mean_position,
    run_bhho,
    transfer_probability,
)
from qkgene.synth import planted_dataset

from oracles import (
    gather_fitness,
    hill_tail_exponent,
    knn_predict,
    logistic_two_branch,
    mantegna_reference,
    masked_fitness,
)


class ScriptedRng:
    """Deterministic stand-in for a Generator: draws come from fixed queues."""

    def __init__(self, uniforms=(), integers=(), normals=()):
        self._uniforms = list(uniforms)
        self._integers = list(integers)
        self._normals = list(normals)

    def random(self, size=None):
        if size is None:
            return self._uniforms.pop(0)
        return np.array([self._uniforms.pop(0) for _ in range(size)])

    def integers(self, high):
        return self._integers.pop(0)

    def normal(self, loc=0.0, scale=1.0, size=None):
        value = self._normals.pop(0)
        if size is None:
            return value
        return np.full(size, value)


def small_params(**overrides):
    base = dict(n_hawks=4, max_iters=5,
                lower_bound=-8.0, upper_bound=8.0, seed=0)
    base.update(overrides)
    return HhoParams(**base)


class TestParamsAndPopulation:
    def test_validation(self):
        with pytest.raises(ConfigError):
            small_params(n_hawks=1)
        with pytest.raises(ConfigError):
            small_params(max_iters=0)
        with pytest.raises(ConfigError):
            small_params(lower_bound=2.0, upper_bound=2.0)
        for low, high in ((math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0),
                          (0.0, math.inf), (-1e308, 1e308)):
            with pytest.raises(ConfigError):
                small_params(lower_bound=low, upper_bound=high)

    @pytest.mark.parametrize("field", ["n_hawks", "max_iters"])
    def test_non_integer_count_rejected(self, field):
        """A float count used to construct and then fail inside numpy."""
        with pytest.raises(ConfigError, match=rf"^{field} must be an integer, got 2\.5$"):
            small_params(**{field: 2.5})
        assert getattr(small_params(**{field: np.int64(3)}), field) == 3

    def test_degenerate_box_collapses_to_lower_bound(self):
        params = small_params(lower_bound=1.0, upper_bound=1.0 + 1e-12)
        pop = init_population(params, 3)
        np.testing.assert_allclose(pop, np.full((4, 3), 1.0), atol=1e-9)

    def test_range_scan(self):
        params = HhoParams(n_hawks=3, max_iters=1,
                           lower_bound=-2.0, upper_bound=5.0, seed=1)
        pop = init_population(params, 2)
        assert pop.shape == (3, 2)
        assert np.all(pop >= -2.0) and np.all(pop <= 5.0)

    def test_same_seed_identical(self):
        params = small_params(seed=9)
        np.testing.assert_array_equal(init_population(params, 3),
                                      init_population(params, 3))


class TestMeanPosition:
    def test_identical_hawks(self):
        pos = np.tile([1.5, -2.0], (4, 1))
        np.testing.assert_allclose(mean_position(pos), [1.5, -2.0])

    def test_midpoint(self):
        np.testing.assert_allclose(
            mean_position(np.array([[0.0, 0.0], [2.0, 4.0]])), [1.0, 2.0]
        )

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(5)
        pos = rng.normal(size=(7, 4))
        expect = np.zeros(4)
        for row in pos:
            expect += row
        expect /= 7
        np.testing.assert_allclose(mean_position(pos), expect, atol=1e-12)


class TestEscapingEnergy:
    def test_formula_endpoints(self):
        assert escaping_energy(0, 10, ScriptedRng(uniforms=[1.0])) == pytest.approx(2.0)
        assert escaping_energy(0, 10, ScriptedRng(uniforms=[0.5])) == 0.0

    def test_late_iteration_bound(self):
        big_t = 1000
        e = escaping_energy(big_t - 1, big_t, ScriptedRng(uniforms=[1.0]))
        assert abs(e) <= 2.0 / big_t + 1e-12

    @given(t=st.integers(0, 99), u=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_envelope(self, t, u):
        e = escaping_energy(t, 100, ScriptedRng(uniforms=[u]))
        assert abs(e) <= 2.0 * (1.0 - t / 100) + 1e-12


class TestExplorationStep:
    def test_peer_branch_collapses_to_peer(self):
        params = small_params()
        positions = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                              [-1.0, 0.0, 1.0], [2.0, 2.0, 2.0]])
        rng = ScriptedRng(uniforms=[0.6, 0.0, 0.3], integers=[1])
        out = exploration_step(positions[0], positions, positions[2],
                               positions.mean(axis=0), params, rng)
        np.testing.assert_allclose(out, positions[1])

    def test_mean_branch_collapses_to_best_minus_mean(self):
        params = small_params()
        positions = np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0],
                              [0.0, 0.0, 0.0], [4.0, 4.0, 4.0]])
        best = np.array([5.0, 5.0, 5.0])
        rng = ScriptedRng(uniforms=[0.3, 0.0, 0.7])
        out = exploration_step(positions[0], positions, best, positions.mean(axis=0),
                               params, rng)
        np.testing.assert_allclose(out, best - positions.mean(axis=0))

    def test_two_hawk_hand_recompute(self):
        params = HhoParams(n_hawks=2, max_iters=1,
                           lower_bound=-10.0, upper_bound=10.0, seed=0)
        positions = np.array([[2.0], [-3.0]])
        best = np.array([1.0])
        branch, r1, r2 = 0.9, 0.25, 0.75
        rng = ScriptedRng(uniforms=[branch, r1, r2], integers=[1])
        out = exploration_step(positions[0], positions, best, positions.mean(axis=0),
                               params, rng)
        peer = positions[1][0]
        expect = peer - r1 * abs(peer - 2.0 * r2 * positions[0][0])
        assert out[0] == pytest.approx(expect, abs=1e-12)

        branch, r3, r4 = 0.1, 0.4, 0.6
        rng = ScriptedRng(uniforms=[branch, r3, r4])
        out = exploration_step(positions[0], positions, best, positions.mean(axis=0),
                               params, rng)
        span = params.upper_bound - params.lower_bound
        expect = (best[0] - positions.mean()) - r3 * (params.lower_bound + r4 * span)
        assert out[0] == pytest.approx(expect, abs=1e-12)


class TestExploitationStep:
    """exploitation_step scores through `evaluate` and returns its hawk."""

    @staticmethod
    def hawk(position, fitness):
        return Hawk(np.asarray(position, dtype=np.float64), np.zeros(3, np.int8), fitness)

    @staticmethod
    def recording(fitness):
        """An evaluate that records every position it is asked to score."""
        calls = []

        def evaluate(position):
            calls.append(position.copy())
            return Hawk(position, np.ones(len(position), np.int8), fitness)

        return evaluate, calls

    def test_hard_besiege_formula(self):
        params = small_params()
        hawk = self.hawk([2.0, -1.0, 0.5], 1.0)
        best = np.array([1.0, 1.0, 1.0])
        rng = ScriptedRng(uniforms=[0.7])
        evaluate, calls = self.recording(5.0)
        out = exploitation_step(hawk, best, hawk.position * 0, 0.3, params, rng, evaluate)
        # a besiege move is unconditional: evaluated once, kept even if worse
        assert len(calls) == 1 and out.fitness == 5.0
        np.testing.assert_allclose(out.position, best - 0.3 * np.abs(best - hawk.position),
                                   atol=1e-12)

    def test_zero_energy_collapses_to_best(self):
        params = small_params()
        hawk = self.hawk([2.0, -1.0, 0.5], 1.0)
        best = np.array([1.0, 1.5, -0.5])
        rng = ScriptedRng(uniforms=[0.9])
        evaluate, calls = self.recording(1.0)
        out = exploitation_step(hawk, best, hawk.position * 0, 0.0, params, rng, evaluate)
        assert len(calls) == 1
        np.testing.assert_allclose(out.position, best, atol=1e-15)

    def test_soft_besiege_formula(self):
        params = small_params()
        hawk = self.hawk([0.5, 0.5, 0.5], 1.0)
        best = np.array([1.0, -1.0, 2.0])
        e = 0.8
        jump_draw = 0.25  # jump strength 2*(1-0.25) = 1.5
        rng = ScriptedRng(uniforms=[0.6, jump_draw])
        evaluate, calls = self.recording(1.0)
        out = exploitation_step(hawk, best, hawk.position * 0, e, params, rng, evaluate)
        expect = (best - hawk.position) - e * np.abs(1.5 * best - hawk.position)
        assert len(calls) == 1
        np.testing.assert_allclose(out.position, expect, atol=1e-12)

    def test_rapid_dive_accepts_improvement(self):
        params = small_params()
        hawk = self.hawk([3.0, 3.0, 3.0], 10.0)
        best = np.array([0.0, 0.0, 0.0])
        e = 0.6
        jump_draw = 0.5  # jump strength 1.0
        rng = ScriptedRng(uniforms=[0.2, jump_draw])
        evaluate, calls = self.recording(0.0)
        out = exploitation_step(hawk, best, hawk.position * 0, e, params, rng, evaluate)
        expect = best - e * np.abs(1.0 * best - hawk.position)
        assert len(calls) == 1
        assert out.fitness == 0.0
        np.testing.assert_allclose(out.position, expect, atol=1e-12)

    def test_rapid_dive_rejection_returns_incumbent(self):
        params = small_params()
        hawk = self.hawk([3.0, 3.0, 3.0], 1.0)
        best = np.array([0.0, 0.0, 0.0])
        # draws: branch r, jump, then the levy swoop (uniform scale of 0.1,
        # normals: u-draw 1 then v-draw 1 so the levy step is 0.01)
        rng = ScriptedRng(uniforms=[0.2, 0.5, 0.1, 0.1, 0.1],
                          normals=[1.0, 1.0])
        evaluate, calls = self.recording(99.0)
        out = exploitation_step(hawk, best, hawk.position * 0, 0.6, params, rng, evaluate)
        assert out is None
        assert len(calls) == 2
        np.testing.assert_allclose(calls[1] - calls[0], 0.001, atol=1e-12)

    def test_swoop_onto_the_dive_reuses_its_hawk(self):
        params = small_params()
        hawk = self.hawk([3.0, 3.0, 3.0], 1.0)
        best = np.array([0.0, 0.0, 0.0])
        # normals: u-draw 0 then v-draw 1, so the levy step is exactly zero
        rng = ScriptedRng(uniforms=[0.2, 0.5, 0.1, 0.1, 0.1],
                          normals=[0.0, 1.0])
        evaluate, calls = self.recording(99.0)
        out = exploitation_step(hawk, best, hawk.position * 0, 0.6, params, rng, evaluate)
        assert out is None
        assert len(calls) == 1


class TestLevyStep:
    def test_heavy_tail_matches_mantegna_oracle(self):
        rng = np.random.default_rng(0)
        draws = levy_step(100_000, rng)
        oracle = mantegna_reference(np.random.default_rng(1), 1.5, 100_000) * 0.01
        mine = hill_tail_exponent(draws, 1000)
        reference = hill_tail_exponent(oracle, 1000)
        assert abs(mine - reference) <= 0.15
        assert 1.2 <= mine <= 1.8  # consistent with a 1.5 stable tail


class TestTransfer:
    def test_s_rule_center(self):
        assert transfer_probability(0.0, "s") == pytest.approx(0.5)

    @given(x=st.floats(-50, 50))
    @settings(max_examples=80, deadline=None)
    def test_s_rule_symmetry(self, x):
        total = transfer_probability(x, "s") + transfer_probability(-x, "s")
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_v_rule_endpoints(self):
        assert transfer_probability(0.0, "v") == 0.0
        assert transfer_probability(40.0, "v") == pytest.approx(1.0, abs=1e-12)
        assert transfer_probability(-40.0, "v") == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            transfer_probability(0.0, "w")

    @given(x=st.floats(allow_nan=True, allow_infinity=True))
    @example(x=0.0)
    @example(x=-0.0)
    @example(x=40.0)
    @example(x=-40.0)
    @example(x=1e308)
    @example(x=-1e308)
    @example(x=math.nan)
    @example(x=-math.nan)
    @settings(max_examples=300, deadline=None)
    def test_s_rule_matches_two_branch_oracle_bitwise(self, x):
        values = np.array([x, -x, 0.5 * x])
        assert (transfer_probability(values, "s").tobytes()
                == logistic_two_branch(values).tobytes())
        assert (transfer_probability(x, "s").tobytes()
                == logistic_two_branch(x).tobytes())

    def test_s_rule_saturation_gives_all_ones(self):
        position = np.full(5, 80.0)
        bits = binarize(position, np.zeros(5, dtype=np.int8), "s",
                        np.random.default_rng(0))
        assert bits.tolist() == [1, 1, 1, 1, 1]

    def test_v_rule_zero_delta_keeps_bits(self):
        current = np.array([1, 0, 1, 0], dtype=np.int8)
        bits = binarize(np.zeros(4), current, "v", np.random.default_rng(1))
        assert bits.tolist() == current.tolist()

    def test_bernoulli_replay_oracle(self):
        position = np.array([0.3, -1.2, 2.0])
        current = np.array([1, 0, 1], dtype=np.int8)
        seed = 42

        s_bits = binarize(position, current, "s", np.random.default_rng(seed))
        draws = np.random.default_rng(seed).random(3)
        expect = (draws < 1.0 / (1.0 + np.exp(-position))).astype(np.int8)
        assert s_bits.tolist() == expect.tolist()

        v_bits = binarize(position, current, "v", np.random.default_rng(seed))
        flips = draws < np.abs(np.tanh(position))
        expect = np.where(flips, 1 - current, current).astype(np.int8)
        assert v_bits.tolist() == expect.tolist()


class TestFeatureMask:
    def test_counts_and_indices(self):
        mask = FeatureMask(np.array([1, 0, 1, 1], dtype=np.int8))
        assert mask.selected_count == 3
        assert mask.indices().tolist() == [0, 2, 3]

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            FeatureMask(np.array([2, 0, 1], dtype=np.int8))


class TestKnnPredict:
    """The gather-based reference k-NN that the fitness closure is checked
    against in TestFitnessMatchesGatherOracle."""

    def test_nearest_neighbour_vote(self):
        train = np.array([[0.0], [0.1], [5.0], [5.1], [5.2]])
        labels = np.array([1, 1, -1, -1, -1])
        out = knn_predict(train, labels, np.array([[0.05], [5.05]]), k=3)
        assert out.tolist() == [1, -1]

    def test_tie_votes_positive(self):
        train = np.array([[0.0], [1.0]])
        labels = np.array([1, -1])
        out = knn_predict(train, labels, np.array([[0.5]]), k=2)
        assert out.tolist() == [1]


class TestFitness:
    def separating_dataset(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        labels = np.array([1, -1] * (n // 2))
        features = rng.normal(size=(n, 4))
        features[:, 0] = labels * 2.0 + 0.05 * rng.normal(size=n)
        return LabeledDataset(features, labels)

    def test_alpha_one_perfect_gene_scores_zero(self):
        ds = self.separating_dataset()
        score = make_fitness(ds, FitnessConfig(alpha=1.0, seed=0))
        assert score(np.array([1, 0, 0, 0], dtype=np.int8)) == 0.0

    def test_alpha_zero_full_mask_scores_one(self):
        ds = self.separating_dataset()
        score = make_fitness(ds, FitnessConfig(alpha=0.0, seed=0))
        assert score(np.ones(4, dtype=np.int8)) == 1.0

    def test_empty_mask_is_infinite(self):
        ds = self.separating_dataset()
        score = make_fitness(ds, FitnessConfig(seed=0))
        assert math.isinf(score(np.zeros(4, dtype=np.int8)))

    def test_exhaustive_masks_prefer_single_perfect_gene(self):
        ds = self.separating_dataset()
        score = make_fitness(ds, FitnessConfig(alpha=0.99, seed=0))
        best_mask = None
        best_value = math.inf
        for code in range(1, 16):
            bits = np.array([(code >> b) & 1 for b in range(4)], dtype=np.int8)
            value = score(bits)
            if value < best_value:
                best_value = value
                best_mask = bits
        assert best_mask.tolist() == [1, 0, 0, 0]

    def test_alpha_bounds_validated(self):
        with pytest.raises(ConfigError):
            FitnessConfig(alpha=1.5)


class TestFitnessMatchesGatherOracle:
    """The closure's masked-matmul distances against k-NN on gathered columns."""

    @pytest.mark.parametrize("knn_k", [1, 2, 4, 5])
    def test_integer_features_with_ties(self, knn_k):
        # small integers: every distance is exact on both routes, and equal
        # distances and (for even k) tied votes are common
        rng = np.random.default_rng(knn_k)
        labels = np.array([1, -1] * 20)
        features = rng.integers(-3, 4, size=(40, 12)).astype(np.float64)
        features[:, 0] += labels
        ds = LabeledDataset(features, labels)
        config = FitnessConfig(alpha=0.9, knn_k=knn_k, seed=knn_k)
        score = make_fitness(ds, config)
        for _ in range(60):
            bits = (rng.random(12) < rng.random()).astype(np.int8)
            value = score(bits)
            assert type(value) is float  # artifacts render it with repr
            assert value == gather_fitness(ds, config, bits)

    @pytest.mark.parametrize("density", [0.0, 0.01, 0.1, 0.5, 0.9, 1.0])
    def test_gaussian_features_across_densities(self, density):
        ds = planted_dataset(62, 300, 6, shift=1.0, seed=41, positive_fraction=0.645)
        config = FitnessConfig(seed=2)
        score = make_fitness(ds, config)
        rng = np.random.default_rng(int(density * 100))
        for _ in range(20):
            bits = (rng.random(300) < density).astype(np.int8)
            if not bits.any():
                bits[rng.integers(300)] = 1  # density 0: a single gene
            assert score(bits) == gather_fitness(ds, config, bits)


class TestFitnessMatchesMaskedOracle:
    """The closure's gathered gene-major rows against 0/1 weights over all
    genes, at the paper's colon shape of 62 x 2000."""

    @staticmethod
    def colon(seed=43):
        return planted_dataset(62, 2000, 10, shift=2.0, seed=seed, positive_fraction=0.645)

    @pytest.mark.parametrize("knn_k", [1, 5])
    @pytest.mark.parametrize("alpha", [0.99, 1.0])
    def test_random_masks_from_one_gene_to_all(self, knn_k, alpha):
        ds = self.colon()
        config = FitnessConfig(alpha=alpha, knn_k=knn_k, seed=knn_k)
        score, reference = make_fitness(ds, config), masked_fitness(ds, config)
        rng = np.random.default_rng(knn_k + int(10 * alpha))
        for count in np.unique(np.geomspace(1, 2000, 500).astype(int)).tolist() * 2:
            bits = np.zeros(2000, dtype=np.int8)
            bits[rng.choice(2000, count, replace=False)] = 1
            value = score(bits)
            assert type(value) is float
            assert value == reference(bits), count

    def test_identical_fit_rows_tie_in_fit_row_order(self):
        """Two fit rows of opposite labels hold the same real values and
        every validation row sits next to them, so each mask's nearest
        neighbour is a tie the first fit row must win."""
        ds = self.colon(seed=44)
        config = FitnessConfig(alpha=1.0, knn_k=1, seed=3)
        fit_idx, val_idx = split_indices(
            ds.labels, SplitSpec(config.val_fraction, config.seed))
        first = fit_idx[0]
        second = next(i for i in fit_idx if ds.labels[i] != ds.labels[first])
        features = ds.features.copy()
        features[first] = features[second]
        rng = np.random.default_rng(5)
        features[val_idx] = features[second] + 1e-3 * rng.normal(size=(len(val_idx), 2000))
        ds = LabeledDataset(features, ds.labels)
        expect = float(np.mean(ds.labels[val_idx] != ds.labels[first]))
        assert expect != float(np.mean(ds.labels[val_idx] != ds.labels[second]))
        score, reference = make_fitness(ds, config), masked_fitness(ds, config)
        for density in (0.0005, 0.01, 0.3, 1.0):
            for _ in range(10):
                bits = (rng.random(2000) < density).astype(np.int8)
                bits[rng.integers(2000)] = 1
                assert score(bits) == reference(bits) == expect

    def test_bits_of_any_integer_or_bool_type(self):
        ds = self.colon()
        score = make_fitness(ds, FitnessConfig(seed=4))
        bits = (np.random.default_rng(6).random(2000) < 0.3).astype(np.int8)
        value = score(bits)
        for same in (bits.tolist(), bits.astype(np.int64), bits.astype(np.bool_)):
            assert score(same) == value

    def test_peak_is_near_one_gene_major_copy_and_one_block(self):
        """Building the closure and scoring the all-genes mask holds the
        gene-major copy and one gathered block of the same size, beside the
        caller's training matrix."""
        ds = self.colon()
        bits = np.ones(2000, dtype=np.int8)
        tracemalloc.start()
        try:
            make_fitness(ds, FitnessConfig(seed=4))(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * ds.features.nbytes, peak / ds.features.nbytes


class TestRunBhho:
    def planted(self, seed, n_genes=10):
        return planted_dataset(60, n_genes, 3, shift=2.5, seed=seed)

    def test_single_iteration_returns_best_initial_hawk(self):
        ds = self.planted(0, n_genes=8)
        params = HhoParams(n_hawks=2, max_iters=1,
                           lower_bound=-1.0, upper_bound=1.0, seed=7)
        fit_cfg = FitnessConfig(seed=3)
        mask, curve = run_bhho(ds, params, fit_cfg)

        rng = np.random.default_rng(params.seed)
        positions = init_population(params, 8, rng)
        zero = np.zeros(8, dtype=np.int8)
        score = make_fitness(ds, fit_cfg)
        candidates = []
        for position in positions:
            bits = binarize(position, zero, "s", rng)
            candidates.append((score(bits), bits))
        expect = min(candidates, key=lambda pair: pair[0])
        assert mask.bits.tolist() == expect[1].tolist()
        assert curve == [(expect[0], int(expect[1].sum()))]

    def test_convergence_monotone(self):
        for seed in (0, 1, 2):
            ds = self.planted(seed)
            params = HhoParams(n_hawks=6, max_iters=12,
                               lower_bound=-1.0, upper_bound=1.0, seed=seed)
            _mask, curve = run_bhho(ds, params, FitnessConfig(seed=seed))
            assert np.all(np.diff([fit for fit, _count in curve]) <= 0.0)

    def test_curve_records_every_iteration(self):
        ds = self.planted(4)
        params = HhoParams(n_hawks=4, max_iters=6,
                           lower_bound=-1.0, upper_bound=1.0, seed=4)
        mask, curve = run_bhho(ds, params, FitnessConfig(seed=4))
        assert len(curve) == 6
        assert curve[-1][1] == mask.selected_count

    def test_deterministic(self):
        ds = self.planted(5)
        params = HhoParams(n_hawks=5, max_iters=8,
                           lower_bound=-1.0, upper_bound=1.0, seed=11)
        a_mask, a_curve = run_bhho(ds, params, FitnessConfig(seed=11))
        b_mask, b_curve = run_bhho(ds, params, FitnessConfig(seed=11))
        assert a_mask.bits.tolist() == b_mask.bits.tolist()
        assert a_curve == b_curve

    def test_planted_recovery_small(self):
        informative = list(range(3))
        for seed in (0, 1):
            ds = planted_dataset(120, 20, 3, shift=1.5, seed=200 + seed)
            params = HhoParams(n_hawks=10, max_iters=30,
                               lower_bound=-3.0, upper_bound=3.0, seed=seed)
            mask, _curve = run_bhho(ds, params,
                                    FitnessConfig(seed=seed, val_fraction=0.3))
            found = sum(1 for g in informative if mask.bits[g])
            assert found >= 2


class TestTrajectoryGolden:
    """sha256 of whole searches, recorded from the gather-based k-NN fitness.

    `final` hashes the returned mask bits and the curve's best fitnesses as
    float64, `scored`
    every mask the closure scored with its score, in call order. A change to
    any RNG draw, move, transfer rule or fitness value moves them. At
    alpha = 1 the score is the validation error alone, so hawks tie often and
    the rabbit's first-of-the-fittest rule is pinned too.
    """

    GOLDEN = {
        ("s", 0.99): ("d84d8b08de8404d9b8b69d6fc4554434e9395f576c35f42643c71c1f6fc43bd6",
                      "ed7d2bb4d3ec8cf14159287b88230a2156ef586f097d03c271a6a3b27bff2d99"),
        ("v", 0.99): ("7b23c3e4312f5e001fcbf26d01c6131d76b73cb93e5d891731997025efd6cf4a",
                      "5f58a28a07bf14e58fae4b80e2de13c3606196769f838dafc4ca375adb083946"),
        ("s", 1.0): ("ad4afc3c95b5591ff4a6bf0c44aa3c4dfb7fa24a18a04b914ddaab89616fc94e",
                     "cd2518b4b28f7f15db10a9e862e1f2185018dd902e4b3942b3523a839ca7d489"),
        ("v", 1.0): ("955a5677548c0aacf15c1cb184ba3b425f4fa22b8f7512b1daaf268a8cbf916b",
                     "ce1ec3ee7fe9251e2e9c03871be03e725eb88b9cbb20d5a9aa45c29799a994e0"),
    }

    @pytest.mark.parametrize("transfer, alpha", sorted(GOLDEN))
    def test_trajectory_is_pinned(self, transfer, alpha, monkeypatch):
        ds = planted_dataset(62, 120, 6, shift=1.2, seed=31, positive_fraction=0.645)
        params = HhoParams(n_hawks=8, max_iters=25, seed=17, transfer=transfer)
        scored = hashlib.sha256()
        build = optimizer.make_fitness

        def recording_make_fitness(*args, **kwargs):
            score = build(*args, **kwargs)

            def recorded(bits):
                value = score(bits)
                scored.update(np.asarray(bits, dtype=np.int8).tobytes())
                scored.update(np.float64(value).tobytes())
                return value

            return recorded

        monkeypatch.setattr(optimizer, "make_fitness", recording_make_fitness)
        mask, curve = run_bhho(ds, params, FitnessConfig(alpha=alpha, seed=5))
        best = np.array([fit for fit, _count in curve], dtype=np.float64)
        final = hashlib.sha256(mask.bits.tobytes() + best.tobytes()).hexdigest()
        assert (final, scored.hexdigest()) == self.GOLDEN[transfer, alpha]
