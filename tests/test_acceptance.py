"""End-to-end acceptance gate.

One test per release criterion, each reporting a PASS/FAIL line through the
conftest terminal summary so the verdicts survive in plain pytest output.
Tolerances are pinned here and nowhere else; loosening them is a release
decision, not a test fix.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import ACCEPTANCE_RESULTS
from oracles import (
    all_pairs_auc,
    build_feature_map_gatewise,
    dense_circuit_unitary,
    exact_kernel_entry,
    hand_scores,
    pgd_qp,
    sampled_kernel_entry,
)

from qkgene import cli
from qkgene.classifier import smo_train
from qkgene.data_io import LabeledDataset, SplitSpec, stratified_split
from qkgene.metrics import ConfusionMatrix, roc_auc, scores_from_confusion
from qkgene.optimizer import FitnessConfig, HhoParams, run_bhho
from qkgene.pipeline import PipelineConfig, run
from qkgene.quantum import FeatureMapSpec, ShotConfig, build_feature_map, kernel_matrix, run_circuit
from qkgene.reduction import pca_fit, pca_transform
from qkgene.sampling import SmoteConfig, smote_oversample
from qkgene.synth import blobs_dataset, planted_dataset


@contextmanager
def record(number: int, description: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((number, "FAIL", description))
        raise
    ACCEPTANCE_RESULTS.append((number, "PASS", description))


def test_criterion_01_simulator_matches_dense_unitaries():
    desc = "statevector simulation matches dense unitary algebra on every map"
    with record(1, desc):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        widths = {"z": (1, 2, 3), "zz": (2, 3), "pauli_zyy": (2, 3)}
        basis0 = {n: np.eye(1 << n, dtype=np.complex128)[:, 0] for n in (1, 2, 3)}
        for kind, allowed in widths.items():
            for n in allowed:
                for reps in (1, 2, 3):
                    spec = FeatureMapSpec(n, kind, reps=reps)
                    for _ in range(50):
                        x = rng.uniform(0.0, math.pi, n)
                        state = run_circuit(build_feature_map(spec, x), n)
                        gates = build_feature_map_gatewise(spec, x)
                        dense = dense_circuit_unitary(gates, n) @ basis0[n]
                        assert np.max(np.abs(state - dense)) <= 1e-10
        assert time.monotonic() - start < 10.0


def test_criterion_02_kernel_axioms_and_product_structure():
    desc = "exact kernels symmetric, unit-diagonal, PSD; product maps factorize"
    with record(2, desc):
        rng = np.random.default_rng(202)
        X = rng.uniform(0.0, math.pi, (10, 4))
        for kind in ("z", "zz", "pauli_zyy"):
            spec = FeatureMapSpec(4, kind, reps=2)
            K = kernel_matrix(X, spec)
            assert np.array_equal(K, K.T)
            assert np.all(np.diag(K) == 1.0)
            assert float(np.linalg.eigvalsh(K).min()) >= -1e-9

        # the non-entangling map embeds each coordinate independently, so its
        # kernel must be the product of per-coordinate kernels
        full = kernel_matrix(X, FeatureMapSpec(4, "z", reps=2))
        single = FeatureMapSpec(1, "z", reps=2)
        for i in range(10):
            for j in range(10):
                product = 1.0
                for q in range(4):
                    product *= exact_kernel_entry(X[i, q : q + 1], X[j, q : q + 1], single)
                assert abs(full[i, j] - product) <= 1e-9


def test_criterion_03_shot_estimator_calibration():
    desc = "shot estimates unbiased within 3-sigma and quantized to 1/shots"
    with record(3, desc):
        spec = FeatureMapSpec(3, "zz", reps=3)
        rng = np.random.default_rng(20260819)
        pairs = []
        while len(pairs) < 5:
            pts = rng.uniform(0.0, math.pi, (2, 3))
            p = exact_kernel_entry(pts[0], pts[1], spec)
            if 0.10 <= p <= 0.90:
                pairs.append((pts[0], pts[1], p))

        shots = 100
        n_seeds = 500
        for x, z, p in pairs:
            estimates = np.array([
                sampled_kernel_entry(x, z, spec, ShotConfig(shots=shots, seed=s))
                for s in range(n_seeds)
            ])
            scaled = estimates * shots
            assert np.max(np.abs(scaled - np.round(scaled))) < 1e-9
            sem = math.sqrt(p * (1.0 - p) / shots / n_seeds)
            assert abs(float(estimates.mean()) - p) <= 3.0 * sem


def test_criterion_04_smo_matches_projected_gradient_oracle():
    desc = "SMO duals match a projected-gradient oracle; KKT and bounds hold"
    with record(4, desc):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(4, 11))
            basis = rng.normal(0, 1, (max(2, n // 2), n))
            gram = basis.T @ basis
            d = np.sqrt(np.diag(gram))
            kernel = gram / np.outer(d, d)
            kernel = 0.5 * (kernel + kernel.T)
            labels = np.where(rng.random(n) < 0.5, 1, -1)
            while np.all(labels == labels[0]):
                labels = np.where(rng.random(n) < 0.5, 1, -1)

            tol = 1e-8
            model = smo_train(kernel, labels, c=1.0, tol=tol, max_passes=50_000)
            alphas = model.alphas
            y = labels.astype(np.float64)
            q_matrix = np.outer(y, y) * kernel
            objective = 0.5 * alphas @ q_matrix @ alphas - alphas.sum()

            _, oracle_objective = pgd_qp(kernel, labels, 1.0)
            assert abs(objective - oracle_objective) <= 1e-6
            assert model.kkt_violation < tol
            assert np.all(alphas >= 0.0) and np.all(alphas <= 1.0)
            assert abs(float(y @ alphas)) <= 1e-12


def test_criterion_05_gene_search_recovers_planted_genes():
    desc = "gene search recovers planted informative genes, monotone curve"
    with record(5, desc):
        start = time.monotonic()
        informative = set(range(5))
        for seed in range(5):
            ds = planted_dataset(240, 50, 5, shift=1.2, seed=100 + seed)
            train, _ = stratified_split(ds, SplitSpec(0.25, seed=seed))
            params = HhoParams(n_hawks=10, max_iters=50,
                               lower_bound=-3.0, upper_bound=3.0, seed=seed)
            fitness_config = FitnessConfig(seed=seed, val_fraction=0.3)
            mask, curve = run_bhho(train, params, fitness_config)
            hits = len(informative & set(mask.indices().tolist()))
            assert hits >= 4, f"seed {seed}: only {hits}/5 informative genes kept"
            assert np.all(np.diff([fit for fit, _count in curve]) <= 0.0)
        assert time.monotonic() - start < 60.0


def test_criterion_06_oversampler_counts_and_convexity():
    desc = "oversampling hits target counts exactly via convex combinations"
    with record(6, desc):
        rng = np.random.default_rng(606)
        features = rng.normal(0.0, 1.0, (62, 8))
        labels = np.concatenate([np.ones(40, dtype=np.int64),
                                 -np.ones(22, dtype=np.int64)])
        ds = LabeledDataset(features, labels)
        out = smote_oversample(
            ds, SmoteConfig(k_neighbors=5, target_counts={1: 49, -1: 31}, seed=0)
        )
        values, counts = np.unique(out.labels, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == {-1: 31, 1: 49}

        for row, label in zip(out.features[62:], out.labels[62:]):
            originals = features[labels == label]
            assert _is_convex_combination(row, originals), (
                "synthetic row is not an interpolation of two class members"
            )


def _is_convex_combination(row: np.ndarray, originals: np.ndarray) -> bool:
    for a in originals:
        for b in originals:
            direction = b - a
            denom = float(direction @ direction)
            if denom == 0.0:
                continue
            delta = float((row - a) @ direction) / denom
            if -1e-12 <= delta <= 1.0 + 1e-12:
                if float(np.linalg.norm(row - (a + delta * direction))) <= 1e-9:
                    return True
    return False


def test_criterion_07_pca_routes_agree():
    desc = "PCA orthonormal; wide-matrix shortcut matches direct eigenvalues"
    with record(7, desc):
        rng = np.random.default_rng(707)

        X_wide = rng.normal(0.0, 2.0, (6, 40))
        model = pca_fit(X_wide, k=5)
        gram_identity = model.components @ model.components.T
        assert np.max(np.abs(gram_identity - np.eye(5))) <= 1e-10

        centered = X_wide - X_wide.mean(axis=0)
        cov = centered.T @ centered / (len(X_wide) - 1)
        direct = np.sort(np.linalg.eigvalsh(cov))[::-1][:5]
        assert np.max(np.abs(model.explained_variance - direct)) <= 1e-8

        X_tall = rng.normal(0.0, 1.5, (30, 8))
        tall = pca_fit(X_tall, k=4)
        assert np.max(np.abs(tall.components @ tall.components.T - np.eye(4))) <= 1e-10
        projected = pca_transform(tall, X_tall)
        assert np.max(np.abs(np.var(projected, axis=0, ddof=1)
                             - tall.explained_variance)) <= 1e-8


def test_criterion_08_selection_beats_baseline(tmp_path):
    desc = "selection run reaches 0.85 accuracy and beats the no-selection run"
    with record(8, desc):
        start = time.monotonic()
        with_selection = []
        without_selection = []
        for seed in (0, 1, 2):
            ds = planted_dataset(60, 200, 5, shift=2.5, seed=1000 + seed)
            # ten loud but uninformative genes: variance-driven projection
            # locks onto them unless the search prunes them first
            features = ds.features.copy()
            features[:, 100:110] *= 4.0
            ds = LabeledDataset(features, ds.labels, ds.gene_names)

            cfg = PipelineConfig(pca_k=4, hho_iters=50, seed=seed, scale_hi=0.5,
                                 out_dir=str(tmp_path / f"s{seed}"))
            with_selection.append(
                run(cfg, "evaluate", use_selection=True, ds=ds,
                    write=False).metrics["accuracy"]
            )
            without_selection.append(
                run(cfg, "evaluate", use_selection=False, ds=ds,
                    write=False).metrics["accuracy"]
            )
        mean_with = float(np.mean(with_selection))
        mean_without = float(np.mean(without_selection))
        assert mean_with >= 0.85, f"selected-genes accuracy {mean_with:.3f}"
        assert mean_with >= mean_without, (
            f"selection {mean_with:.3f} lost to baseline {mean_without:.3f}"
        )
        assert time.monotonic() - start < 300.0


def test_criterion_09_scores_match_hand_arithmetic():
    desc = "scores match hand arithmetic; rank AUC equals pair concordance"
    with record(9, desc):
        rng = np.random.default_rng(909)
        checked = 0
        while checked < 10:
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, 4))
            if tp + tn + fp + fn == 0:
                continue
            got = scores_from_confusion(ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn))
            expected = hand_scores(tp, tn, fp, fn)
            for key, value in expected.items():
                assert abs(got[key] - value) <= 1e-12, key
            checked += 1

        for _ in range(200):
            n = int(rng.integers(2, 13))
            labels = np.where(rng.random(n) < 0.5, 1, -1)
            while np.all(labels == labels[0]):
                labels = np.where(rng.random(n) < 0.5, 1, -1)
            scores = rng.integers(0, 6, n) / 5.0  # tie-rich score grid
            auc, _ = roc_auc(labels, scores)
            assert auc == all_pairs_auc(scores, labels)


def test_criterion_10_repeated_runs_byte_identical(tmp_path):
    desc = "rerunning one config produces byte-identical metrics artifacts"
    with record(10, desc):
        ds = blobs_dataset(40, 2, separation=6.0, seed=7)
        csv_path = tmp_path / "blobs.csv"
        lines = ["gene_0,gene_1,label"]
        for row, label in zip(ds.features, ds.labels):
            cells = [repr(float(v)) for v in row] + [str(int(label))]
            lines.append(",".join(cells))
        csv_path.write_text("\n".join(lines) + "\n")

        out_dir = tmp_path / "out"
        outputs = []
        for _ in range(2):
            code = cli.main([
                "run-all",
                "--data", str(csv_path),
                "--out", str(out_dir),
                "--seed", "11",
                "--no-selection",
                "--set", "pca.k=2",
                "--set", "scale.hi=0.5",
                "--set", "data.positive_label=1",
            ])
            assert code == 0
            outputs.append((out_dir / "metrics.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
