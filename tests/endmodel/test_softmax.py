"""Tests for the soft-label softmax end model."""

import numpy as np
import pytest

from repro.endmodel.logistic import SoftLabelLogisticRegression
from repro.endmodel.softmax import SoftLabelSoftmaxRegression


def separable_3class(n=240, seed=0):
    """Three Gaussian blobs in 2-D, one per class."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 4.0], [4.0, -2.0], [-4.0, -2.0]])
    y = rng.integers(3, size=n)
    X = centers[y] + 0.6 * rng.standard_normal((n, 2))
    return X, y


class TestFitting:
    def test_learns_separable_blobs(self):
        X, y = separable_3class()
        Q = np.zeros((len(y), 3))
        Q[np.arange(len(y)), y] = 1.0
        clf = SoftLabelSoftmaxRegression(n_classes=3).fit(X, Q)
        assert (clf.predict(X) == y).mean() > 0.95

    def test_accepts_hard_label_vector(self):
        X, y = separable_3class()
        clf = SoftLabelSoftmaxRegression(n_classes=3).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.95

    def test_soft_targets_shift_boundary(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        confident = np.array([[0.99, 0.01], [0.99, 0.01], [0.01, 0.99], [0.01, 0.99]])
        hedged = np.array([[0.6, 0.4], [0.6, 0.4], [0.4, 0.6], [0.4, 0.6]])
        p_confident = SoftLabelSoftmaxRegression(n_classes=2).fit(X, confident)
        p_hedged = SoftLabelSoftmaxRegression(n_classes=2).fit(X, hedged)
        # hedged targets produce flatter probabilities
        spread_confident = np.ptp(p_confident.predict_proba(X)[:, 1])
        spread_hedged = np.ptp(p_hedged.predict_proba(X)[:, 1])
        assert spread_hedged < spread_confident

    def test_warm_start_reuses_solution(self):
        X, y = separable_3class(n=120)
        clf = SoftLabelSoftmaxRegression(n_classes=3, warm_start=True).fit(X, y)
        coef_before = clf.coef_.copy()
        clf.fit(X, y)
        # refitting the same problem from the previous optimum stays put
        np.testing.assert_allclose(clf.coef_, coef_before, atol=1e-2)


class TestBinaryConsistency:
    def test_matches_binary_logistic_on_two_classes(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((150, 3))
        q = 1.0 / (1.0 + np.exp(-(X @ np.array([1.0, -2.0, 0.5]))))
        soft_binary = q
        soft_mc = np.stack([1 - q, q], axis=1)
        binary = SoftLabelLogisticRegression(l2=1e-2).fit(X, soft_binary)
        mc = SoftLabelSoftmaxRegression(n_classes=2, l2=1e-2).fit(X, soft_mc)
        p_binary = binary.predict_proba(X)
        p_mc = mc.predict_proba(X)[:, 1]
        # Softmax with K=2 is over-parameterized but under matching L2 the
        # predictive probabilities agree closely.
        np.testing.assert_allclose(p_binary, p_mc, atol=0.03)


class TestValidation:
    def test_rejects_bad_shapes(self):
        clf = SoftLabelSoftmaxRegression(n_classes=3)
        with pytest.raises(ValueError, match="shape"):
            clf.fit(np.zeros((4, 2)), np.zeros((4, 2)))

    def test_rejects_non_stochastic_rows(self):
        clf = SoftLabelSoftmaxRegression(n_classes=2)
        with pytest.raises(ValueError, match="row-stochastic"):
            clf.fit(np.zeros((2, 1)), np.array([[0.9, 0.9], [0.1, 0.1]]))

    def test_rejects_out_of_range_hard_labels(self):
        clf = SoftLabelSoftmaxRegression(n_classes=2)
        with pytest.raises(ValueError, match="hard labels"):
            clf.fit(np.zeros((2, 1)), np.array([0, 5]))

    @pytest.mark.parametrize(
        "labels",
        [[0.5, 1.7], [0.0, np.nan], [1.0, np.inf]],
        ids=["fractional", "nan", "inf"],
    )
    def test_rejects_non_integer_hard_labels(self, labels):
        # A 1-D target is a class-id vector; truncating 1.7 to class 1
        # would silently train on labels nobody gave.
        clf = SoftLabelSoftmaxRegression(n_classes=2)
        with pytest.raises(ValueError, match="finite integers"):
            clf.fit(np.array([[0.0], [1.0]]), np.array(labels))
        with pytest.raises(ValueError, match="finite integers"):
            clf.fit_minibatch(np.array([[0.0], [1.0]]), np.array(labels))

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n_classes"):
            SoftLabelSoftmaxRegression(n_classes=1)
