import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkgene.classifier import (
    clip_kernel_psd,
    decision_function,
    dual_objective,
    mirror_upper,
    predict,
    rbf_kernel_matrix,
    smo_train,
)
from qkgene.errors import ConvergenceError, DataError, NumericalError

from oracles import pgd_qp


def traced_peak(fn, *args, **kwargs):
    """fn's result and the most memory it allocated at once, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def random_psd_instance(rng, n):
    basis = rng.normal(size=(n, max(2, n // 2)))
    K = basis @ basis.T
    K = K / np.max(np.abs(K))
    K = 0.5 * (K + K.T)
    labels = rng.choice([1, -1], size=n)
    while len(set(labels.tolist())) < 2:
        labels = rng.choice([1, -1], size=n)
    return K, labels


class TestSmoTrain:
    def test_two_point_analytic_solution(self):
        K = np.eye(2)
        model = smo_train(K, np.array([1, -1]), c=10.0, tol=1e-8)
        np.testing.assert_allclose(model.alphas, [1.0, 1.0], atol=1e-8)
        assert model.bias == pytest.approx(0.0, abs=1e-8)
        assert model.support_indices.tolist() == [0, 1]

    def test_duplication_leaves_decision_unchanged(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8, 3))
        y = np.array([1, 1, 1, 1, -1, -1, -1, -1])
        K = rbf_kernel_matrix(X, gamma=0.5)
        model = smo_train(K, y, c=1.0, tol=1e-8)

        X2 = np.vstack([X, X])
        y2 = np.concatenate([y, y])
        K2 = rbf_kernel_matrix(X2, gamma=0.5)
        model2 = smo_train(K2, y2, c=0.5, tol=1e-8)  # halve C to keep margins

        tests = rng.normal(size=(5, 3))
        s1 = decision_function(model, rbf_kernel_matrix(tests, X, gamma=0.5))
        s2 = decision_function(model2, rbf_kernel_matrix(tests, X2, gamma=0.5))
        np.testing.assert_allclose(s1, s2, atol=1e-6)

    def test_dual_objective_matches_pgd_oracle(self):
        rng = np.random.default_rng(1)
        K, labels = random_psd_instance(rng, 8)
        model = smo_train(K, labels, c=1.0, tol=1e-8)
        mine = dual_objective(K, labels, model.alphas)
        _alphas, reference = pgd_qp(K, labels, c=1.0)
        assert mine == pytest.approx(reference, abs=1e-6)

    def test_constraints_hold_exactly(self):
        rng = np.random.default_rng(2)
        K, labels = random_psd_instance(rng, 10)
        c = 0.7
        model = smo_train(K, labels, c=c, tol=1e-6)
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= c)
        assert abs(float(model.alphas @ labels)) <= 1e-8
        assert model.support_indices.tolist() == np.flatnonzero(
            model.alphas > 1e-10
        ).tolist()

    def test_free_support_vectors_sit_on_margin(self):
        rng = np.random.default_rng(3)
        K, labels = random_psd_instance(rng, 12)
        tol = 1e-6
        model = smo_train(K, labels, c=1.0, tol=tol)
        scores = decision_function(model, K)
        eps_free = 1e-8 * model.c
        free = (model.alphas > eps_free) & (model.alphas < model.c - eps_free)
        for idx in np.flatnonzero(free):
            assert labels[idx] * scores[idx] == pytest.approx(1.0, abs=10 * tol)

    def test_non_convergence_carries_violation(self):
        rng = np.random.default_rng(4)
        K, labels = random_psd_instance(rng, 10)
        with pytest.raises(ConvergenceError) as err:
            smo_train(K, labels, c=1.0, tol=1e-12, max_passes=0)
        assert err.value.kkt_violation > 0.0

    def test_support_removal_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 2))
        y = np.where(X[:, 0] + 0.2 * rng.normal(size=12) > 0, 1, -1)
        if len(set(y.tolist())) < 2:
            y[0] = -y[0]
        K = rbf_kernel_matrix(X, gamma=1.0)
        model = smo_train(K, y, c=5.0, tol=1e-10)
        keep = model.support_indices
        if len(keep) < 12:
            K_small = K[np.ix_(keep, keep)]
            model_small = smo_train(K_small, y[keep], c=5.0, tol=1e-10)
            tests = rng.normal(size=(6, 2))
            full_scores = decision_function(model, rbf_kernel_matrix(tests, X, gamma=1.0))
            small_scores = decision_function(
                model_small, rbf_kernel_matrix(tests, X[keep], gamma=1.0)
            )
            np.testing.assert_allclose(full_scores, small_scores, atol=1e-5)

    def test_input_validation(self):
        K = np.eye(3)
        y = np.array([1, -1, 1])
        with pytest.raises(DataError):
            smo_train(np.eye(2), y)
        with pytest.raises(DataError):
            smo_train(K, np.array([1, 1, 1]))
        with pytest.raises(DataError):
            smo_train(K, y, c=0.0)
        with pytest.raises(DataError):
            smo_train(K, y, tol=-1.0)
        with pytest.raises(DataError, match="C must be positive"):
            smo_train(K, y, c=float("nan"))
        with pytest.raises(DataError, match="tol must be positive"):
            smo_train(K, y, tol=float("nan"))

    def test_asymmetric_kernel_rejected(self):
        K = np.eye(3)
        K[0, 1] = 0.5
        with pytest.raises(NumericalError):
            smo_train(K, np.array([1, -1, 1]))

    def test_kernel_is_left_unchanged(self):
        rng = np.random.default_rng(12)
        K, labels = random_psd_instance(rng, 9)
        before = K.copy()
        smo_train(K, labels)
        assert K.tobytes() == before.tobytes()

    def test_peak_is_one_matrix_beside_the_kernel(self):
        """The asymmetry check and Q share one n x n buffer; the kernel
        itself is the caller's."""
        n = 450
        x = np.random.default_rng(13).normal(size=(n, 8))
        K = rbf_kernel_matrix(x, gamma=1 / 8)
        labels = np.where(x[:, 0] > 0, 1, -1)
        _model, peak = traced_peak(smo_train, K, labels)
        assert peak < 1.25 * n * n * 8, peak / (n * n * 8)

    def test_array_like_kernel_accepted(self):
        model = smo_train([[1.0, 0.0], [0.0, 1.0]], [1, -1], c=10.0, tol=1e-8)
        np.testing.assert_allclose(model.alphas, [1.0, 1.0], atol=1e-8)

    @given(seed=st.integers(0, 10_000), n=st.integers(4, 10))
    @settings(max_examples=30, deadline=None)
    def test_kkt_residual_below_tol(self, seed, n):
        rng = np.random.default_rng(seed)
        K, labels = random_psd_instance(rng, n)
        tol = 1e-6
        # rank-deficient kernels make the pair updates zigzag, so give the
        # solver a budget well beyond its default of 10 n passes
        model = smo_train(K, labels, c=1.0, tol=tol, max_passes=20_000)
        assert model.kkt_violation <= tol
        assert np.all(model.alphas >= 0.0) and np.all(model.alphas <= 1.0)
        assert abs(float(model.alphas @ labels)) <= 1e-8


class TestPrediction:
    def test_zero_cross_row_scores_bias(self):
        model = smo_train(np.eye(2), np.array([1, -1]), c=10.0, tol=1e-8)
        score = decision_function(model, np.zeros((1, 2)))
        assert score[0] == pytest.approx(model.bias, abs=1e-12)

    def test_scores_match_direct_summation(self):
        rng = np.random.default_rng(6)
        K, labels = random_psd_instance(rng, 5)
        model = smo_train(K, labels, c=1.0, tol=1e-6)
        rows = rng.uniform(0, 1, size=(3, 5))
        scores = decision_function(model, rows)
        for r in range(3):
            expect = model.bias + sum(
                model.alphas[i] * labels[i] * rows[r, i] for i in range(5)
            )
            assert scores[r] == pytest.approx(expect, abs=1e-12)

    def test_sign_rule(self):
        model = smo_train(np.eye(2), np.array([1, -1]), c=10.0, tol=1e-8)
        fake_scores = np.array([2.3, -0.1])
        labels = np.where(fake_scores >= 0, 1, -1)
        assert labels.tolist() == [1, -1]
        # exact zero goes positive
        zero_row = np.zeros((1, 2))
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        assert predict(model, zero_row).tolist() == [1]

    def test_row_width_checked(self):
        model = smo_train(np.eye(2), np.array([1, -1]), c=10.0, tol=1e-8)
        with pytest.raises(DataError):
            decision_function(model, np.zeros((1, 3)))

    def test_separable_training_is_perfect(self):
        rng = np.random.default_rng(7)
        X = np.vstack([
            rng.normal(size=(10, 2)) + [3.0, 3.0],
            rng.normal(size=(10, 2)) - [3.0, 3.0],
        ])
        y = np.array([1] * 10 + [-1] * 10)
        K = rbf_kernel_matrix(X, gamma=0.5)
        model = smo_train(K, y, c=1000.0, tol=1e-8)
        assert predict(model, K).tolist() == y.tolist()


class TestRbfKernel:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(8)
        K = rbf_kernel_matrix(rng.normal(size=(6, 3)), gamma=0.7)
        np.testing.assert_array_equal(np.diag(K), np.ones(6))
        assert np.array_equal(K, K.T)

    def test_gamma_to_zero_limit(self):
        rng = np.random.default_rng(9)
        K = rbf_kernel_matrix(rng.normal(size=(5, 3)), gamma=1e-12)
        np.testing.assert_allclose(K, np.ones((5, 5)), atol=1e-9)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 3))
        z = rng.normal(size=(5, 3))
        gamma = 0.3
        K = rbf_kernel_matrix(x, z, gamma=gamma)
        for i in range(4):
            for j in range(5):
                expect = np.exp(-gamma * float(np.sum((x[i] - z[j]) ** 2)))
                assert K[i, j] == pytest.approx(expect, abs=1e-12)

    def test_gamma_must_be_positive(self):
        with pytest.raises(DataError):
            rbf_kernel_matrix(np.zeros((2, 2)), gamma=0.0)

    @pytest.mark.parametrize("n_left, n_right", [(1, None), (40, None), (40, 17), (3, 50)])
    def test_bits_match_the_out_of_place_formula(self, n_left, n_right):
        rng = np.random.default_rng(n_left)
        x = rng.normal(size=(n_left, 5))
        x[-1] = x[0]  # a zero distance
        z = None if n_right is None else rng.normal(size=(n_right, 5))
        right = x if z is None else z
        expect = np.exp(-0.3 * np.maximum(
            np.sum(x**2, axis=1)[:, None] + np.sum(right**2, axis=1)[None, :]
            - 2.0 * (x @ right.T), 0.0))
        if z is None:
            expect = np.triu(expect, 1)
            expect = expect + expect.T
            np.fill_diagonal(expect, 1.0)
        assert rbf_kernel_matrix(x, z, gamma=0.3).tobytes() == expect.tobytes()

    def test_peak_is_two_result_sized_arrays(self):
        """The result and one product array; the square kernel is mirrored
        in place."""
        n = 450
        x = np.random.default_rng(14).normal(size=(n, 8))
        _K, peak = traced_peak(rbf_kernel_matrix, x, gamma=1 / 8)
        assert peak < 2.25 * n * n * 8, peak / (n * n * 8)


class TestMirrorUpper:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_bits_match_the_triangle_sum(self, n):
        rng = np.random.default_rng(n)
        K = rng.random((n, n)) * rng.integers(0, 2, size=(n, n))  # zeros among them
        K[rng.random((n, n)) < 0.05] = np.inf
        expect = np.triu(K, 1)
        expect = expect + expect.T
        np.fill_diagonal(expect, 1.0)
        out = mirror_upper(K)
        assert out is K
        assert K.tobytes() == expect.tobytes()


class TestPsdClip:
    def test_negative_eigenvalue_removed(self):
        K = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
        values = np.linalg.eigvalsh(K)
        assert values[0] < 0  # the fixture is genuinely indefinite
        fixed = clip_kernel_psd(K)
        assert np.linalg.eigvalsh(fixed)[0] >= -1e-12
        assert np.array_equal(fixed, fixed.T)

    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(11)
        basis = rng.normal(size=(4, 4))
        K = basis @ basis.T
        np.testing.assert_allclose(clip_kernel_psd(K), K, atol=1e-10)
