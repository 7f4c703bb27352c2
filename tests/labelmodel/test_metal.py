"""Tests for the MeTaL-style label model."""

import numpy as np
import pytest

from repro.labelmodel.metal import MetalLabelModel


def planted_matrix(n=2000, m=6, seed=0, acc_range=(0.6, 0.9), uni_polar=False):
    """Conditionally-independent planted votes with known accuracies."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    true_acc = rng.uniform(*acc_range, m)
    L = np.zeros((n, m), dtype=np.int8)
    for j in range(m):
        if uni_polar:
            polarity = 1 if j % 2 == 0 else -1
            fires = (y == polarity) & (rng.random(n) < 0.5)
            fires |= (y != polarity) & (rng.random(n) < 0.5 * (1 - true_acc[j]))
            L[fires, j] = polarity
        else:
            fires = rng.random(n) < 0.5
            correct = rng.random(n) < true_acc[j]
            L[fires, j] = np.where(correct[fires], y[fires], -y[fires])
    return L, y, true_acc


class TestFitBasics:
    def test_empty_matrix(self):
        model = MetalLabelModel().fit(np.zeros((5, 0), dtype=np.int8))
        np.testing.assert_allclose(model.predict_proba(np.zeros((5, 0), dtype=np.int8)), 0.5)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MetalLabelModel().predict_proba(np.zeros((2, 1), dtype=np.int8))

    def test_mismatched_columns_raise(self):
        model = MetalLabelModel().fit(np.zeros((4, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="fitted with"):
            model.predict_proba(np.zeros((4, 3), dtype=np.int8))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MetalLabelModel(n_iter=0)
        with pytest.raises(ValueError):
            MetalLabelModel(anchor=-1)


class TestRecovery:
    def test_em_recovers_planted_accuracies(self):
        L, y, true_acc = planted_matrix(seed=1)
        model = MetalLabelModel().fit(L)
        corr = np.corrcoef(model.accuracies_, true_acc)[0, 1]
        assert corr > 0.9

    def test_posterior_beats_single_lf(self):
        L, y, _ = planted_matrix(seed=3)
        covered = (L != 0).any(axis=1)
        proba = MetalLabelModel().fit_predict_proba(L)
        acc_model = (np.where(proba >= 0.5, 1, -1)[covered] == y[covered]).mean()
        acc_single = (L[covered, 0] == y[covered])[L[covered, 0] != 0].mean()
        assert acc_model > acc_single

    def test_uni_polar_does_not_collapse(self):
        # Regression test for the degenerate mode where one polarity
        # coalition is declared anti-perfect and every label collapses.
        L, y, _ = planted_matrix(seed=4, uni_polar=True, acc_range=(0.8, 0.95))
        model = MetalLabelModel().fit(L)
        proba = model.predict_proba(L)
        covered = (L != 0).any(axis=1)
        acc = (np.where(proba >= 0.5, 1, -1)[covered] == y[covered]).mean()
        assert acc > 0.75
        assert model.accuracies_.mean() > 0.5

    def test_propensities_reflect_uni_polar_fire_rates(self):
        L, y, _ = planted_matrix(seed=5, uni_polar=True, acc_range=(0.85, 0.95))
        model = MetalLabelModel().fit(L)
        # +1-voting LFs (even columns) must fire more on the positive class.
        rho = model.propensities_
        assert (rho[0, 1] > rho[0, 0]) and (rho[1, 0] > rho[1, 1])


class TestPosteriorSemantics:
    def test_uncovered_examples_get_prior_without_abstain_evidence(self):
        L, _, _ = planted_matrix(n=500, seed=6)
        L[:50] = 0
        model = MetalLabelModel(learn_prior=False, class_prior=0.3, abstain_evidence=False)
        proba = model.fit_predict_proba(L)
        np.testing.assert_allclose(proba[:50], 0.3, atol=1e-9)

    def test_abstain_evidence_shifts_uncovered(self):
        L, _, _ = planted_matrix(n=500, seed=6, uni_polar=True)
        L[:50] = 0
        base = MetalLabelModel(learn_prior=False, abstain_evidence=False).fit_predict_proba(L)
        shifted = MetalLabelModel(learn_prior=False, abstain_evidence=True).fit_predict_proba(L)
        assert not np.allclose(base[:50], shifted[:50])

    def test_learn_prior_tracks_balance(self):
        rng = np.random.default_rng(7)
        y = np.where(rng.random(3000) < 0.8, 1, -1)
        L = np.zeros((3000, 4), dtype=np.int8)
        for j in range(4):
            fires = rng.random(3000) < 0.6
            correct = rng.random(3000) < 0.85
            L[fires, j] = np.where(correct[fires], y[fires], -y[fires])
        model = MetalLabelModel(class_prior=0.5, learn_prior=True).fit(L)
        assert model.prior_ > 0.6

    def test_higher_accuracy_vote_gets_larger_weight(self):
        L, y, true_acc = planted_matrix(seed=8)
        model = MetalLabelModel().fit(L)
        weights = np.log(model.accuracies_ / (1 - model.accuracies_))
        order_est = np.argsort(weights)
        order_true = np.argsort(true_acc)
        # rank correlation of weights with true accuracies is positive
        assert np.corrcoef(order_est.argsort(), order_true.argsort())[0, 1] > 0.5

    def test_marginal_ll_finite(self):
        L, _, _ = planted_matrix(n=300, seed=9)
        model = MetalLabelModel().fit(L)
        assert np.isfinite(model._marginal_ll(L))

    def test_em_converges_flag(self):
        L, _, _ = planted_matrix(n=500, seed=10)
        model = MetalLabelModel(n_iter=200).fit(L)
        assert model.converged_


class TestWarmFit:
    def _planted(self, n=300, m=6, seed=0):
        import numpy as np
        rng = np.random.default_rng(seed)
        y = np.where(rng.random(n) < 0.5, 1, -1)
        L = np.zeros((n, m), dtype=np.int8)
        for j in range(m):
            fires = rng.random(n) < 0.5
            correct = rng.random(n) < 0.8
            L[fires, j] = np.where(correct[fires], y[fires], -y[fires])
        return L

    def test_warm_matches_cold_closely_on_well_determined_data(self):
        import numpy as np
        from repro.labelmodel.metal import MetalLabelModel
        L = self._planted()
        prev = MetalLabelModel().fit(L[:, :-1])
        cold = MetalLabelModel().fit(L)
        warm = MetalLabelModel().fit_warm(L, prev)
        np.testing.assert_allclose(
            warm.predict_proba(L), cold.predict_proba(L), atol=0.05
        )

    def test_max_iter_cap_is_call_scoped(self):
        from repro.labelmodel.metal import MetalLabelModel
        L = self._planted()
        prev = MetalLabelModel().fit(L[:, :-1])
        model = MetalLabelModel(n_iter=50)
        model.fit_warm(L, prev, max_iter=2)
        assert model.n_iter == 50, "fit_warm must not mutate the configured n_iter"

    def test_falls_back_to_cold_fit_without_previous(self):
        import numpy as np
        from repro.labelmodel.metal import MetalLabelModel
        L = self._planted()
        cold = MetalLabelModel().fit(L)
        warm = MetalLabelModel().fit_warm(L, None)
        np.testing.assert_allclose(warm.predict_proba(L), cold.predict_proba(L))
