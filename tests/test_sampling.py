import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkgene.data_io import LabeledDataset
from qkgene.errors import ConfigError, DataError
from qkgene.sampling import SmoteConfig, smote_oversample


def toy_dataset(n_pos, n_neg, n_genes=4, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_pos + n_neg, n_genes))
    labels = np.array([1] * n_pos + [-1] * n_neg)
    return LabeledDataset(features, labels)


def assert_convex_combination(original: LabeledDataset, synth_row, synth_label, k):
    """synth must equal x + delta*(nn - x) for a same-class x, one of its
    k nearest same-class neighbours nn, and delta in [0, 1]."""
    cls_rows = original.features[original.labels == synth_label]
    d2 = ((cls_rows[:, None, :] - cls_rows[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    for i, x in enumerate(cls_rows):
        neighbours = np.argsort(d2[i], kind="stable")[:k]
        for j in neighbours:
            direction = cls_rows[j] - x
            scale = float(direction @ direction)
            if scale == 0.0:
                if np.allclose(synth_row, x, atol=1e-9):
                    return
                continue
            delta = float((synth_row - x) @ direction) / scale
            if -1e-9 <= delta <= 1.0 + 1e-9 and np.allclose(
                synth_row, x + delta * direction, atol=1e-9
            ):
                return
    raise AssertionError("synthetic row is not a neighbour interpolation")


class TestSmote:
    def test_zero_synthesis_identity(self):
        ds = toy_dataset(6, 6)
        out = smote_oversample(ds, SmoteConfig(k_neighbors=3, seed=1))
        np.testing.assert_array_equal(out.features, ds.features)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_colon_targets(self):
        ds = toy_dataset(40, 22, n_genes=10, seed=3)
        cfg = SmoteConfig(k_neighbors=5, target_counts={1: 49, -1: 31}, seed=2)
        out = smote_oversample(ds, cfg)
        assert out.n_samples == 80
        assert out.class_counts() == {1: 49, -1: 31}

    def test_default_targets_match_majority(self):
        ds = toy_dataset(9, 4)
        out = smote_oversample(ds, SmoteConfig(k_neighbors=3, seed=0))
        assert out.class_counts() == {1: 9, -1: 9}

    def test_originals_preserved_as_prefix(self):
        ds = toy_dataset(5, 3)
        out = smote_oversample(ds, SmoteConfig(k_neighbors=2, seed=4))
        np.testing.assert_array_equal(out.features[: ds.n_samples], ds.features)
        np.testing.assert_array_equal(out.labels[: ds.n_samples], ds.labels)

    def test_two_point_collinearity(self):
        a = np.array([0.0, 0.0, 1.0])
        b = np.array([2.0, 4.0, 3.0])
        ds = LabeledDataset(
            np.vstack([a, b, np.eye(3) * 9.0]),
            np.array([-1, -1, 1, 1, 1]),
        )
        cfg = SmoteConfig(k_neighbors=1, target_counts={-1: 3, 1: 3}, seed=5)
        out = smote_oversample(ds, cfg)
        synth = out.features[-1]
        assert out.labels[-1] == -1
        gap = (
            np.linalg.norm(synth - a)
            + np.linalg.norm(synth - b)
            - np.linalg.norm(a - b)
        )
        assert abs(gap) <= 1e-9

    def test_synthetic_rows_are_interpolations(self):
        ds = toy_dataset(12, 7, n_genes=5, seed=6)
        cfg = SmoteConfig(k_neighbors=4, target_counts={1: 16, -1: 14}, seed=7)
        out = smote_oversample(ds, cfg)
        for row, label in zip(out.features[ds.n_samples:], out.labels[ds.n_samples:]):
            assert_convex_combination(ds, row, label, cfg.k_neighbors)

    def test_deterministic(self):
        ds = toy_dataset(8, 5)
        cfg = SmoteConfig(k_neighbors=3, target_counts={1: 10, -1: 10}, seed=11)
        a = smote_oversample(ds, cfg)
        b = smote_oversample(ds, cfg)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_target_below_count_error(self):
        ds = toy_dataset(5, 5)
        with pytest.raises(DataError):
            smote_oversample(
                ds, SmoteConfig(k_neighbors=2, target_counts={1: 3, -1: 5}, seed=0)
            )

    def test_k_too_large_error(self):
        ds = toy_dataset(3, 8)
        with pytest.raises(DataError):
            smote_oversample(
                ds, SmoteConfig(k_neighbors=3, target_counts={1: 5, -1: 8}, seed=0)
            )

    def test_tiny_class_error(self):
        ds = LabeledDataset(np.zeros((3, 2)), np.array([1, -1, -1]))
        with pytest.raises(DataError):
            smote_oversample(
                ds, SmoteConfig(k_neighbors=1, target_counts={1: 4, -1: 2}, seed=0)
            )

    def test_bad_k_config(self):
        with pytest.raises(ConfigError):
            SmoteConfig(k_neighbors=0)

    def test_non_integer_k_rejected(self):
        with pytest.raises(ConfigError, match=r"^k_neighbors must be an integer, got 2\.5$"):
            SmoteConfig(k_neighbors=2.5)

    @given(
        n_pos=st.integers(3, 10),
        n_neg=st.integers(3, 10),
        extra_pos=st.integers(0, 6),
        extra_neg=st.integers(0, 6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_always_match_targets(self, n_pos, n_neg, extra_pos, extra_neg, seed):
        ds = toy_dataset(n_pos, n_neg, seed=seed)
        targets = {1: n_pos + extra_pos, -1: n_neg + extra_neg}
        cfg = SmoteConfig(k_neighbors=2, target_counts=targets, seed=seed)
        out = smote_oversample(ds, cfg)
        assert out.class_counts() == targets
