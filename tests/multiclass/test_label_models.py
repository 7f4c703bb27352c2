"""Tests for the multiclass label models (majority vote + Dawid-Skene EM)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.multiclass.base import posterior_entropy_mc
from repro.multiclass.dawid_skene import _THETA_FLOOR, MCDawidSkeneModel
from repro.multiclass.majority import MCMajorityVote
from repro.multiclass.matrix import MC_ABSTAIN

from tests.multiclass.conftest import planted_mc

MC_MATRICES = arrays(
    np.int8,
    st.tuples(st.integers(2, 25), st.integers(1, 5)),
    elements=st.sampled_from([-1, 0, 1, 2]),
)

MODELS = {
    "majority": lambda: MCMajorityVote(n_classes=3),
    "dawid-skene": lambda: MCDawidSkeneModel(n_classes=3, n_iter=15),
}


def marginal_ll(model: MCDawidSkeneModel, L: np.ndarray) -> float:
    """Marginal log-likelihood of ``L`` under ``model``'s fitted parameters."""
    if model.confusions_ is None or model.propensities_ is None:
        raise RuntimeError("model is not fitted")
    L = model._validated(L)
    n, m = L.shape
    log_joint = np.tile(np.log(model.priors_)[None, :], (n, 1))
    log_theta = np.log(np.clip(model.confusions_, _THETA_FLOOR, 1.0))
    log_rho = np.log(model.propensities_)
    log_not_rho = np.log1p(-model.propensities_)
    for j in range(m):
        votes_j = L[:, j]
        fired = votes_j != MC_ABSTAIN
        if fired.any():
            emitted = votes_j[fired].astype(int)
            log_joint[fired] += log_rho[j][None, :] + log_theta[j][:, emitted].T
        if (~fired).any():
            log_joint[~fired] += log_not_rho[j][None, :]
    max_row = log_joint.max(axis=1, keepdims=True)
    return float(
        (max_row.ravel() + np.log(np.exp(log_joint - max_row).sum(axis=1))).sum()
    )


class TestMajorityVote:
    def test_plurality_wins(self):
        L = np.array([[0, 0, 1], [2, 2, 2]], dtype=np.int8)
        preds = MCMajorityVote(n_classes=3).fit(L).predict(L)
        np.testing.assert_array_equal(preds, [0, 2])

    def test_uncovered_gets_priors(self):
        priors = np.array([0.5, 0.3, 0.2])
        L = np.full((2, 2), -1, dtype=np.int8)
        proba = MCMajorityVote(n_classes=3, class_priors=priors).fit_predict_proba(L)
        np.testing.assert_allclose(proba, np.tile(priors, (2, 1)))

    def test_zero_lf_matrix(self):
        L = np.zeros((3, 0), dtype=np.int8)
        proba = MCMajorityVote(n_classes=4).fit_predict_proba(L)
        np.testing.assert_allclose(proba, 0.25)

    def test_smoothing_keeps_posteriors_interior(self):
        L = np.array([[1]], dtype=np.int8)
        proba = MCMajorityVote(n_classes=3, smoothing=1.0).fit_predict_proba(L)
        assert 0 < proba[0, 0] < proba[0, 1] < 1

    def test_no_smoothing_gives_hard_vote_share(self):
        L = np.array([[1, 1]], dtype=np.int8)
        proba = MCMajorityVote(n_classes=3, smoothing=0.0).fit_predict_proba(L)
        np.testing.assert_allclose(proba[0], [0, 1, 0])

    def test_no_smoothing_is_warning_free_on_uncovered_rows(self):
        # Uncovered rows get the priors without a 0/0 division on the way.
        priors = np.array([0.5, 0.3, 0.2])
        L = np.array([[1, 1], [-1, -1], [0, 2]], dtype=np.int8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proba = MCMajorityVote(
                n_classes=3, class_priors=priors, smoothing=0.0
            ).fit_predict_proba(L)
        np.testing.assert_array_equal(proba[1], priors)
        np.testing.assert_allclose(proba[[0, 2]], [[0, 1, 0], [0.5, 0, 0.5]])

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing"):
            MCMajorityVote(n_classes=3, smoothing=-1.0)

    def test_n_classes_beyond_int8_rejected(self):
        with pytest.raises(ValueError, match="int8"):
            MCMajorityVote(n_classes=128)
        with pytest.raises(ValueError, match="int8"):
            MCDawidSkeneModel(n_classes=200)

    def test_bad_priors_rejected(self):
        with pytest.raises(ValueError, match="class_priors"):
            MCMajorityVote(n_classes=3, class_priors=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="positive"):
            MCMajorityVote(n_classes=2, class_priors=np.array([1.0, 0.0]))


class TestDawidSkene:
    def test_posterior_better_than_chance(self):
        L, y, _ = planted_mc(n=1500, m=6, n_classes=3)
        model = MCDawidSkeneModel(n_classes=3)
        preds = model.fit(L).predict(L)
        covered = (L != -1).any(axis=1)
        assert (preds[covered] == y[covered]).mean() > 0.75

    def test_beats_majority_under_skewed_accuracies(self):
        # One excellent LF and several mediocre ones: weighting should win.
        rng = np.random.default_rng(3)
        n, K = 2000, 3
        y = rng.integers(K, size=n)
        accs = [0.95, 0.55, 0.55, 0.55]
        L = np.full((n, len(accs)), -1, dtype=np.int8)
        for j, a in enumerate(accs):
            fires = rng.random(n) < 0.8
            correct = rng.random(n) < a
            wrong = (y[fires] + rng.integers(1, K, size=fires.sum())) % K
            L[fires, j] = np.where(correct[fires], y[fires], wrong)
        ds_preds = MCDawidSkeneModel(n_classes=K).fit(L).predict(L)
        mv_preds = MCMajorityVote(n_classes=K).fit(L).predict(L)
        assert (ds_preds == y).mean() > (mv_preds == y).mean()

    def test_confusion_rows_are_distributions(self):
        L, _, _ = planted_mc()
        model = MCDawidSkeneModel(n_classes=3).fit(L)
        np.testing.assert_allclose(model.confusions_.sum(axis=2), 1.0, atol=1e-6)

    def test_recovered_accuracy_ordering(self):
        L, y, accs = planted_mc(n=3000, m=4, n_classes=3, acc_range=(0.55, 0.95), seed=5)
        model = MCDawidSkeneModel(n_classes=3).fit(L)
        fitted_diag = np.array([model.confusions_[j].diagonal().mean() for j in range(4)])
        assert np.argmax(fitted_diag) == np.argmax(accs)

    def test_empty_matrix(self):
        model = MCDawidSkeneModel(n_classes=3).fit(np.zeros((4, 0), dtype=np.int8))
        proba = model.predict_proba(np.zeros((4, 0), dtype=np.int8))
        np.testing.assert_allclose(proba, np.tile(model.priors_, (4, 1)))

    def test_priors_learned_from_skew(self):
        rng = np.random.default_rng(1)
        n, K = 2000, 3
        y = np.where(rng.random(n) < 0.7, 0, rng.integers(1, K, size=n))
        L = np.full((n, 4), -1, dtype=np.int8)
        for j in range(4):
            fires = rng.random(n) < 0.7
            correct = rng.random(n) < 0.9
            wrong = (y[fires] + rng.integers(1, K, size=fires.sum())) % K
            L[fires, j] = np.where(correct[fires], y[fires], wrong)
        model = MCDawidSkeneModel(n_classes=K, learn_priors=True).fit(L)
        assert model.priors_[0] > 0.55

    def test_fixed_priors_respected(self):
        L, _, _ = planted_mc(n=300)
        priors = np.array([0.2, 0.3, 0.5])
        model = MCDawidSkeneModel(n_classes=3, class_priors=priors, learn_priors=False)
        model.fit(L)
        np.testing.assert_allclose(model.priors_, priors)

    def test_uncovered_examples_get_priors_without_abstain_evidence(self):
        L, _, _ = planted_mc(n=400, fire_rate=0.3)
        model = MCDawidSkeneModel(n_classes=3).fit(L)
        proba = model.predict_proba(L)
        uncovered = ~(L != -1).any(axis=1)
        assert uncovered.any()
        np.testing.assert_allclose(
            proba[uncovered], np.tile(model.priors_, (uncovered.sum(), 1)), atol=1e-9
        )

    def test_abstain_evidence_changes_uncovered_posterior(self):
        L, _, _ = planted_mc(n=400, fire_rate=0.3, seed=2)
        with_ev = MCDawidSkeneModel(n_classes=3, abstain_evidence=True).fit(L)
        proba = with_ev.predict_proba(L)
        uncovered = ~(L != -1).any(axis=1)
        assert not np.allclose(proba[uncovered], with_ev.priors_, atol=1e-6)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MCDawidSkeneModel(n_classes=3).predict_proba(np.zeros((2, 1), dtype=np.int8))

    def test_column_mismatch_raises(self):
        L, _, _ = planted_mc(n=100, m=3)
        model = MCDawidSkeneModel(n_classes=3).fit(L)
        with pytest.raises(ValueError, match="fitted with"):
            model.predict_proba(L[:, :2])

    def test_init_accuracy_below_chance_rejected(self):
        with pytest.raises(ValueError, match="init_accuracy"):
            MCDawidSkeneModel(n_classes=4, init_accuracy=0.2)

    def test_marginal_ll_improves_over_init(self):
        L, _, _ = planted_mc(n=500, m=4)
        one_step = MCDawidSkeneModel(n_classes=3, n_iter=1).fit(L)
        converged = MCDawidSkeneModel(n_classes=3, n_iter=50).fit(L)
        assert marginal_ll(converged, L) >= marginal_ll(one_step, L) - 1e-6


@pytest.mark.parametrize("name", sorted(MODELS))
class TestUniversalInvariants:
    @given(L=MC_MATRICES)
    @settings(max_examples=20, deadline=None)
    def test_rows_are_distributions(self, name, L):
        proba = MODELS[name]().fit_predict_proba(L)
        assert proba.shape == (L.shape[0], 3)
        assert np.all(proba >= -1e-9)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)

    @given(L=MC_MATRICES)
    @settings(max_examples=20, deadline=None)
    def test_identical_rows_get_identical_posteriors(self, name, L):
        L = np.vstack([L, L[:1]])
        proba = MODELS[name]().fit_predict_proba(L)
        np.testing.assert_allclose(proba[0], proba[-1], atol=1e-9)

    @given(L=MC_MATRICES)
    @settings(max_examples=20, deadline=None)
    def test_entropy_bounded_by_log_k(self, name, L):
        proba = MODELS[name]().fit_predict_proba(L)
        ent = posterior_entropy_mc(proba)
        assert np.all(ent >= -1e-9)
        assert np.all(ent <= np.log(3) + 1e-9)
