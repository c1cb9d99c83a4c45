import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkgene.errors import DataError
from qkgene.metrics import ConfusionMatrix, confusion, roc_auc, scores_from_confusion

from oracles import all_pairs_auc, hand_scores, rank_roc_auc, trapezoid_auc


class TestConfusion:
    def test_perfect_prediction(self):
        y = np.array([1, 1, 1, -1, -1])
        cm = confusion(y, y)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (3, 2, 0, 0)

    def test_constant_positive_predictor(self):
        cm = confusion(np.array([1, -1]), np.array([1, 1]))
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 0, 1, 0)

    def test_total_matches_sample_count(self):
        y = np.array([1, -1, 1, -1, 1])
        p = np.array([1, 1, -1, -1, 1])
        assert confusion(y, p).total == 5

    def test_random_pair_matches_loop_recount(self):
        rng = np.random.default_rng(9)
        y = rng.choice([1, -1], size=50)
        p = rng.choice([1, -1], size=50)
        cm = confusion(y, p)
        tp = sum(1 for a, b in zip(y, p) if a == 1 and b == 1)
        tn = sum(1 for a, b in zip(y, p) if a == -1 and b == -1)
        fp = sum(1 for a, b in zip(y, p) if a == -1 and b == 1)
        fn = sum(1 for a, b in zip(y, p) if a == 1 and b == -1)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (tp, tn, fp, fn)

    def test_bad_labels_rejected(self):
        with pytest.raises(DataError):
            confusion(np.array([1, 0]), np.array([1, 1]))
        with pytest.raises(DataError):
            confusion(np.array([1, -1]), np.array([1, -1, 1]))


class TestScores:
    def test_perfect_case(self):
        out = scores_from_confusion(ConfusionMatrix(tp=3, tn=2, fp=0, fn=0))
        assert out["accuracy"] == 1.0
        assert out["precision"] == 1.0
        assert out["recall"] == 1.0
        assert out["f1"] == 1.0
        assert out["fpr"] == 0.0

    def test_no_positive_predictions_flags_precision(self):
        out = scores_from_confusion(ConfusionMatrix(tp=0, tn=5, fp=0, fn=0))
        assert out["precision"] == 0.0
        assert out["precision_degenerate"] is True
        assert out["accuracy"] == 1.0

    def test_hand_worked_case(self):
        out = scores_from_confusion(ConfusionMatrix(tp=7, tn=5, fp=1, fn=3))
        assert out["accuracy"] == 12 / 16
        assert out["precision"] == 7 / 8
        assert out["recall"] == 0.7
        assert out["specificity"] == 5 / 6
        assert out["fpr"] == 1 / 6

    def test_recall_and_specificity_are_distinct(self):
        out = scores_from_confusion(ConfusionMatrix(tp=9, tn=1, fp=4, fn=1))
        assert out["recall"] == 0.9
        assert out["specificity"] == 0.2

    @given(
        tp=st.integers(0, 40),
        tn=st.integers(0, 40),
        fp=st.integers(0, 40),
        fn=st.integers(0, 40),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_longhand_oracle(self, tp, tn, fp, fn):
        if tp + tn + fp + fn == 0:
            return
        out = scores_from_confusion(ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn))
        expect = hand_scores(tp, tn, fp, fn)
        for key, value in expect.items():
            assert out[key] == pytest.approx(value, abs=1e-15)

    def test_keys_keep_their_order(self):
        out = scores_from_confusion(ConfusionMatrix(tp=2, tn=0, fp=0, fn=1))
        assert list(out) == [
            "accuracy", "precision", "precision_degenerate", "recall", "recall_degenerate",
            "specificity", "specificity_degenerate", "fpr", "fpr_degenerate",
            "f1", "f1_degenerate",
        ]
        assert out["specificity_degenerate"] is True and out["fpr_degenerate"] is True


class TestAuc:
    def test_perfect_ranking(self):
        y = np.array([1, 1, -1, -1])
        auc, _curve = roc_auc(y, np.array([0.9, 0.8, 0.3, 0.1]))
        assert auc == 1.0

    def test_all_ties(self):
        y = np.array([1, -1, 1, -1])
        auc, _curve = roc_auc(y, np.full(4, 0.7))
        assert auc == 0.5

    def test_mixed_scores_vs_all_pairs(self):
        y = np.array([1, -1, 1, -1, 1, -1, 1, -1])
        s = np.array([0.9, 0.85, 0.7, 0.7, 0.6, 0.4, 0.2, 0.1])
        auc, _curve = roc_auc(y, s)
        assert auc == pytest.approx(all_pairs_auc(s, y), abs=1e-15)

    def test_negating_scores_flips_auc(self):
        rng = np.random.default_rng(4)
        y = rng.choice([1, -1], size=12)
        while len(set(y.tolist())) < 2:
            y = rng.choice([1, -1], size=12)
        s = rng.normal(size=12)
        auc_fwd, _ = roc_auc(y, s)
        auc_rev, _ = roc_auc(y, -s)
        assert auc_fwd + auc_rev == pytest.approx(1.0, abs=1e-12)

    def test_curve_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(5)
        y = np.array([1] * 6 + [-1] * 6)
        s = rng.normal(size=12)
        _auc, curve = roc_auc(y, s)
        assert curve[0] == (np.inf, 0.0, 0.0)
        assert curve[-1][1] == 1.0 and curve[-1][2] == 1.0
        fprs = [p[1] for p in curve]
        tprs = [p[2] for p in curve]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    def test_trapezoid_equals_rank_auc(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            y = rng.choice([1, -1], size=10)
            if len(set(y.tolist())) < 2:
                continue
            s = np.round(rng.normal(size=10), 1)  # force frequent ties
            auc, curve = roc_auc(y, s)
            assert auc == pytest.approx(trapezoid_auc(curve), abs=1e-12)

    def test_single_class_error(self):
        with pytest.raises(DataError):
            roc_auc(np.array([1, 1]), np.array([0.1, 0.2]))

    @given(
        labels=st.lists(st.sampled_from([1, -1]), min_size=4, max_size=12).filter(
            lambda ls: len(set(ls)) == 2
        ),
        raw=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_rank_auc_equals_concordance(self, labels, raw):
        scores = raw.draw(
            st.lists(
                st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 1.0]),
                min_size=len(labels),
                max_size=len(labels),
            )
        )
        y = np.array(labels)
        s = np.array(scores)
        auc, _curve = roc_auc(y, s)
        assert 0.0 <= auc <= 1.0
        assert auc == pytest.approx(all_pairs_auc(s, y), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN used to head the curve, which then ended at fpr 0.5, not (1, 1)
        with pytest.raises(DataError, match="^scores must be finite$"):
            roc_auc(np.array([1, -1, 1, -1]), np.array([0.5, bad, 0.2, -0.1]))

    def test_bits_match_the_rank_reference(self):
        """AUC and curve are repr-equal to the average-rank formulation on
        10,000 label/score vectors of 2 to 200 rows: continuous scores,
        heavy ties, rounded scores, signed zeros and one distinct score."""
        rng = np.random.default_rng(2022)
        for case in range(10_000):
            n = int(rng.integers(2, 201))
            y = rng.choice([1, -1], size=n)
            y[rng.choice(n, size=2, replace=False)] = [1, -1]
            kind = case % 5
            if kind == 0:
                s = rng.normal(size=n)
            elif kind == 1:
                s = rng.integers(-3, 4, size=n).astype(float)
            elif kind == 2:
                s = np.round(rng.normal(size=n), 1)
            elif kind == 3:
                s = rng.choice([-0.0, 0.0, 1.5, -2.0], size=n)
            else:
                s = np.full(n, rng.choice([-0.0, 0.0, 0.3]))
            assert repr(roc_auc(y, s)) == repr(rank_roc_auc(y, s)), (y.tolist(), s.tolist())
