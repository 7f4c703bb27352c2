"""Tests for the soft-label logistic regression end model."""

import numpy as np
import pytest

from repro.endmodel.logistic import SoftLabelLogisticRegression


def separable(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    y = np.where(X[:, 0] - X[:, 1] > 0, 1, -1)
    return X, y


class TestFit:
    def test_learns_separable_data(self):
        X, y = separable()
        clf = SoftLabelLogisticRegression().fit(X, (y + 1) / 2)
        assert (clf.predict(X) == y).mean() > 0.95

    def test_soft_targets(self):
        X, y = separable(seed=1)
        q = np.where(y == 1, 0.8, 0.2)
        clf = SoftLabelLogisticRegression().fit(X, q)
        assert (clf.predict(X) == y).mean() > 0.9

    def test_hard_pm1_labels_accepted(self):
        X, y = separable(seed=2)
        clf = SoftLabelLogisticRegression().fit(X, y.astype(float))
        assert (clf.predict(X) == y).mean() > 0.95

    def test_rejects_bad_targets(self):
        X, _ = separable()
        with pytest.raises(ValueError, match="soft labels"):
            SoftLabelLogisticRegression().fit(X, np.full(X.shape[0], 1.5))


class TestBehaviour:
    def test_stronger_l2_shrinks_weights(self):
        X, y = separable(seed=4)
        weak = SoftLabelLogisticRegression(l2=1e-4).fit(X, (y + 1) / 2)
        strong = SoftLabelLogisticRegression(l2=10.0).fit(X, (y + 1) / 2)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)

    def test_warm_start_preserves_dimensions_check(self):
        X, y = separable()
        clf = SoftLabelLogisticRegression(warm_start=True).fit(X, (y + 1) / 2)
        coef_first = clf.coef_.copy()
        clf.fit(X, (y + 1) / 2)
        np.testing.assert_allclose(clf.coef_, coef_first, atol=1e-3)

    def test_decision_function_monotone_with_proba(self):
        X, y = separable(seed=5)
        clf = SoftLabelLogisticRegression().fit(X, (y + 1) / 2)
        scores = clf.decision_function(X)
        probas = clf.predict_proba(X)
        order = np.argsort(scores)
        assert np.all(np.diff(probas[order]) >= -1e-12)
