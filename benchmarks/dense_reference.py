"""Dense reference EM for the three stats-aware label models.

The label models in :mod:`repro` fit on the O(nnz)
:class:`~repro.labelmodel.matrix.ColumnStats` kernels only.  This module
keeps the historical dense arithmetic — full ``(n, m)`` masks re-scanned
every EM step — in one place, outside the package, for two consumers:

* the parity tests (``tests/labelmodel/test_cold_sparse_parity.py``),
  which check the sparse kernels against it to float tolerance; and
* the scratch baseline of ``benchmarks/bench_perf_session.py``, which
  documents the seed implementation's from-scratch refits and so must not
  inherit the sparse kernels the incremental column measures.

Each class subclasses its production model and overrides only
:meth:`fit` (a dense cold EM from the smoothed majority vote) and
:meth:`predict_proba` (the dense posterior, whether or not a handle is
passed).  Warm fits are inherited unchanged.  Fitted state has exactly
the production model's shape, so a reference model can stand in for the
production one anywhere, checkpoints included.
"""

from __future__ import annotations

import numpy as np

from repro.labelmodel import dawid_skene as _ds
from repro.labelmodel import metal as _metal
from repro.multiclass import dawid_skene as _mcds
from repro.multiclass.matrix import MC_ABSTAIN


# --------------------------------------------------------------------- #
# dense scans
# --------------------------------------------------------------------- #
def _covered_dense(L: np.ndarray, abstain: int) -> np.ndarray:
    """Row coverage mask by dense scan."""
    return (L != abstain).any(axis=1)


def _vote_tallies_dense(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (positive, negative) binary vote counts by dense scan."""
    return (L == 1).sum(axis=1), (L == -1).sum(axis=1)


def _vote_counts_dense(L: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-row per-class multiclass vote counts by dense scan."""
    counts = np.zeros((L.shape[0], n_classes))
    for k in range(n_classes):
        counts[:, k] = (L == k).sum(axis=1)
    return counts


def _sufficient_stats_dense(L: np.ndarray, q: np.ndarray) -> dict[str, np.ndarray]:
    """MeTaL's M-step sufficient statistics from dense masks."""
    fires = (L != 0).astype(float)
    correct = ((L == 1) * q[:, None] + (L == -1) * (1 - q)[:, None]).sum(axis=0)
    return {
        "correct": correct,
        "fires": fires.sum(axis=0),
        "fires_pos": (fires * q[:, None]).sum(axis=0),
        "fires_neg": (fires * (1 - q)[:, None]).sum(axis=0),
        "mass_pos": np.full(L.shape[1], q.sum()),
        "mass_neg": np.full(L.shape[1], (1 - q).sum()),
    }


def _outcome_onehot_dense(L: np.ndarray) -> np.ndarray:
    """``(n, m, 3)`` one-hot of the binary outcomes ``(-1, 0, +1)``."""
    onehot = np.zeros((*L.shape, 3), dtype=float)
    for o_idx, outcome in enumerate((-1, 0, 1)):
        onehot[..., o_idx] = L == outcome
    return onehot


def _m_step_dense(outcome_onehot: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Binary Dawid–Skene confusion update from responsibilities ``q``."""
    weights = np.stack([1 - q, q], axis=1)  # (n, 2): P(y=-1), P(y=+1)
    # counts[j, c, o] = Σ_i weights[i, c] * onehot[i, j, o]
    counts = np.einsum("ic,ijo->jco", weights, outcome_onehot)
    counts += _ds._SMOOTH
    return counts / counts.sum(axis=2, keepdims=True)


def _mc_m_step_dense(
    model: _mcds.MCDawidSkeneModel, L: np.ndarray, Q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Multiclass confusion/propensity update, one column at a time."""
    m = L.shape[1]
    K = model.n_classes
    anchor_row = np.full((K, K), (1.0 - model.init_accuracy) / (K - 1))
    np.fill_diagonal(anchor_row, model.init_accuracy)
    theta = np.empty((m, K, K))
    rho = np.empty((m, K))
    class_mass = Q.sum(axis=0)  # (K,)
    for j in range(m):
        votes_j = L[:, j]
        fired = votes_j != MC_ABSTAIN
        # counts[k, l] = Σ_{i: λ_j(x_i) = l} Q[i, k]
        counts = np.zeros((K, K))
        for l in range(K):
            voted_l = votes_j == l
            if voted_l.any():
                counts[:, l] = Q[voted_l].sum(axis=0)
        counts += model.anchor * anchor_row
        theta[j] = np.clip(
            counts / counts.sum(axis=1, keepdims=True), _mcds._THETA_FLOOR, 1.0
        )
        theta[j] /= theta[j].sum(axis=1, keepdims=True)
        fire_mass = Q[fired].sum(axis=0) if fired.any() else np.zeros(K)
        with np.errstate(invalid="ignore", divide="ignore"):
            rho[j] = np.where(class_mass > 0, fire_mass / class_mass, 0.5)
    return theta, np.clip(rho, _mcds._RHO_FLOOR, _mcds._RHO_CEIL)


# --------------------------------------------------------------------- #
# reference models
# --------------------------------------------------------------------- #
class DenseMetalLabelModel(_metal.MetalLabelModel):
    """:class:`~repro.labelmodel.metal.MetalLabelModel` with the dense cold EM."""

    def fit(self, L: np.ndarray, stats=None) -> "DenseMetalLabelModel":
        L = self._validated_or_stats(L, stats)
        if L.shape[0] == 0 or L.shape[1] == 0:
            return super().fit(L, stats=stats)
        self.prior_ = self.class_prior
        pos, neg = _vote_tallies_dense(L)
        total = (pos + neg).astype(float)
        q = np.full(L.shape[0], 0.5)
        covered = total > 0
        q[covered] = (pos[covered] + 0.5) / (total[covered] + 1.0)
        if self.learn_prior:
            covered = _covered_dense(L, 0)
            if covered.any():
                self.prior_ = float(
                    np.clip(q[covered].mean(), _metal._PRIOR_FLOOR, 1 - _metal._PRIOR_FLOOR)
                )
        acc, rho = self._m_step(_sufficient_stats_dense(L, q))
        self.converged_ = False
        iterations = 0
        for _ in range(self.n_iter):
            iterations += 1
            q = self._posterior_dense(L, acc, rho)
            new_acc, new_rho = self._m_step(_sufficient_stats_dense(L, q))
            delta = max(
                float(np.max(np.abs(new_acc - acc))),
                float(np.max(np.abs(new_rho - rho))),
            )
            acc, rho = new_acc, new_rho
            if delta < self.tol:
                self.converged_ = True
                break
        self.em_iterations_ = iterations
        self._finalize(acc, rho)
        return self

    def predict_proba(self, L: np.ndarray, stats=None) -> np.ndarray:
        if self.accuracies_ is None or self.propensities_ is None:
            raise RuntimeError("DenseMetalLabelModel.predict_proba called before fit")
        L = self._validated_or_stats(L, stats)
        if L.shape[1] == 0:
            return np.full(L.shape[0], self.prior_)
        return self._posterior_dense(
            L, self.accuracies_, self.propensities_, with_abstain=self.abstain_evidence
        )


class DenseDawidSkene(_ds.DawidSkene):
    """:class:`~repro.labelmodel.dawid_skene.DawidSkene` with the dense cold EM."""

    def fit(self, L: np.ndarray, stats=None) -> "DenseDawidSkene":
        L = self._validated_or_stats(L, stats)
        if L.shape[1] == 0:
            return super().fit(L, stats=stats)
        onehot = _outcome_onehot_dense(L)  # (n, m, 3)
        pos, neg = _vote_tallies_dense(L)
        q = np.where(pos + neg > 0, (pos + 0.5) / (pos + neg + 1.0), self.class_prior)
        prior = self.class_prior
        confusion = None
        self.converged_ = False
        iterations = 0
        for _ in range(self.n_iter):
            iterations += 1
            confusion_new = _m_step_dense(onehot, q)
            prior_new = float(np.clip(q.mean(), 0.01, 0.99)) if self.learn_prior else prior
            q_new = self._e_step_dense(L, confusion_new, prior_new)
            if confusion is not None:
                delta = max(
                    float(np.max(np.abs(confusion_new - confusion))),
                    abs(prior_new - prior),
                )
                if delta < self.tol:
                    confusion, prior, q = confusion_new, prior_new, q_new
                    self.converged_ = True
                    break
            confusion, prior, q = confusion_new, prior_new, q_new
        self.confusion_ = confusion
        self.prior_ = prior
        self.em_iterations_ = iterations
        return self

    def predict_proba(self, L: np.ndarray, stats=None) -> np.ndarray:
        if self.confusion_ is None:
            raise RuntimeError("DenseDawidSkene.predict_proba called before fit")
        L = self._validated_or_stats(L, stats)
        if L.shape[1] == 0:
            return np.full(L.shape[0], self.prior_)
        return self._e_step_dense(L, self.confusion_, self.prior_)


class DenseMCDawidSkeneModel(_mcds.MCDawidSkeneModel):
    """:class:`~repro.multiclass.dawid_skene.MCDawidSkeneModel` with the dense cold EM."""

    def _update_priors_dense(self, L: np.ndarray, Q: np.ndarray) -> None:
        covered = _covered_dense(L, MC_ABSTAIN)
        if covered.any():
            priors = np.clip(Q[covered].mean(axis=0), _mcds._PRIOR_FLOOR, None)
            self.priors_ = priors / priors.sum()

    def fit(self, L: np.ndarray, stats=None) -> "DenseMCDawidSkeneModel":
        L = self._validated_or_stats(L, stats)
        if L.shape[0] == 0 or L.shape[1] == 0:
            return super().fit(L, stats=stats)
        self.priors_ = self.class_priors.copy()
        smoothed = _vote_counts_dense(L, self.n_classes) + self.class_priors[None, :]
        Q = smoothed / smoothed.sum(axis=1, keepdims=True)
        if self.learn_priors:
            self._update_priors_dense(L, Q)
        theta, rho = _mc_m_step_dense(self, L, Q)
        self.converged_ = False
        iterations = 0
        for _ in range(self.n_iter):
            iterations += 1
            Q = self._posterior_dense(L, theta, rho, with_abstain=True)
            if self.learn_priors:
                self._update_priors_dense(L, Q)
            new_theta, new_rho = _mc_m_step_dense(self, L, Q)
            delta = max(
                float(np.max(np.abs(new_theta - theta))),
                float(np.max(np.abs(new_rho - rho))),
            )
            theta, rho = new_theta, new_rho
            if delta < self.tol:
                self.converged_ = True
                break
        self.confusions_ = theta
        self.propensities_ = rho
        self.em_iterations_ = iterations
        return self

    def predict_proba(self, L: np.ndarray, stats=None) -> np.ndarray:
        if self.confusions_ is None or self.propensities_ is None:
            raise RuntimeError("DenseMCDawidSkeneModel.predict_proba called before fit")
        L = self._validated_or_stats(L, stats)
        if L.shape[1] == 0:
            return np.tile(self.priors_, (L.shape[0], 1))
        return self._posterior_dense(
            L, self.confusions_, self.propensities_, with_abstain=self.abstain_evidence
        )
