"""Triplet-method label model (FlyingSquid-style closed form).

Implements the method-of-moments aggregator of Fu et al. [11] ("Fast and
Three-rious"): under conditional independence, for any triplet of LFs
``(i, j, k)`` the class-conditional mean parameters ``μ_j = E[λ_j · y]``
satisfy ``|μ_i| = sqrt(E[λ_i λ_j] · E[λ_i λ_k] / E[λ_j λ_k])``, which gives
closed-form (training-free) accuracy estimates.  Included because the
paper's contextualized pipeline is label-model agnostic — swapping this in
for MeTaL is a one-line change, exercised in the ablation benches.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.labelmodel.base import LabelModel
from repro.labelmodel.matrix import ColumnStats

_MU_CLIP = 0.90  # keep implied accuracies away from 0/1
_MIN_MOMENT = 1e-3


class TripletLabelModel(LabelModel):
    """Closed-form accuracy estimation from second-moment agreement rates.

    Parameters
    ----------
    class_prior:
        Fixed ``P(y = +1)``.
    max_triplets:
        Cap on the number of triplets averaged per LF (all combinations up
        to this budget, deterministic order) — keeps m³ growth in check.
    fallback_accuracy:
        Accuracy assigned when fewer than three LFs exist or moments are
        degenerate (e.g. two LFs never co-fire).

    Notes
    -----
    Signs of ``μ`` are resolved with the standard better-than-random
    assumption (majority of LFs have positive correlation with the truth).
    Abstains are handled by conditioning each pairwise moment on joint
    coverage, and converting conditional means back through per-LF
    propensities.
    """

    def __init__(
        self,
        class_prior: float = 0.5,
        max_triplets: int = 5000,
        fallback_accuracy: float = 0.7,
    ) -> None:
        super().__init__(class_prior)
        if max_triplets < 1:
            raise ValueError(f"max_triplets must be >= 1, got {max_triplets}")
        if not 0.5 < fallback_accuracy < 1.0:
            raise ValueError(
                f"fallback_accuracy must be in (0.5, 1), got {fallback_accuracy}"
            )
        self.max_triplets = max_triplets
        self.fallback_accuracy = fallback_accuracy
        self.accuracies_: np.ndarray | None = None

    _FITTED_ATTRS = ("accuracies_",)

    def fit(self, L: np.ndarray, stats: ColumnStats | None = None) -> "TripletLabelModel":
        L = self._validated_or_stats(L, stats).astype(float)
        n, m = L.shape
        if m == 0:
            self.accuracies_ = np.zeros(0)
            return self
        if m < 3 or n == 0:
            self.accuracies_ = np.full(m, self.fallback_accuracy)
            return self
        cond_mu = self._conditional_means(L)
        acc = np.where(
            np.isnan(cond_mu),
            self.fallback_accuracy,
            (1.0 + np.clip(cond_mu, -_MU_CLIP, _MU_CLIP)) / 2.0,
        )
        self.accuracies_ = np.clip(acc, 0.05, 0.95)
        return self

    def predict_proba(self, L: np.ndarray, stats: ColumnStats | None = None) -> np.ndarray:
        if self.accuracies_ is None:
            raise RuntimeError("TripletLabelModel.predict_proba called before fit")
        L = self._validated_or_stats(L, stats)
        if L.shape[1] != len(self.accuracies_):
            raise ValueError(
                f"label matrix has {L.shape[1]} LFs but model was fitted with "
                f"{len(self.accuracies_)}"
            )
        if L.shape[1] == 0:
            return np.full(L.shape[0], self.class_prior)
        acc = self.accuracies_
        weights = np.log(acc / (1 - acc))
        scores = np.log(self.class_prior / (1 - self.class_prior)) + L.astype(float) @ weights
        return 1.0 / (1.0 + np.exp(-np.clip(scores, -500, 500)))

    # ------------------------------------------------------------------ #
    # moment computations
    # ------------------------------------------------------------------ #
    def _conditional_means(self, L: np.ndarray) -> np.ndarray:
        """Per-LF ``E[λ_j y | λ_j ≠ 0]`` averaged over solvable triplets."""
        m = L.shape[1]
        covered = L != 0
        # Conditional pairwise agreement: E[λ_i λ_j | both vote].
        pair_mom = np.full((m, m), np.nan)
        for i in range(m):
            for j in range(i + 1, m):
                both = covered[:, i] & covered[:, j]
                if both.sum() >= 3:
                    mom = float(np.mean(L[both, i] * L[both, j]))
                    pair_mom[i, j] = pair_mom[j, i] = mom
        estimates: list[list[float]] = [[] for _ in range(m)]
        n_done = 0
        for i, j, k in itertools.combinations(range(m), 3):
            if n_done >= self.max_triplets:
                break
            mij, mik, mjk = pair_mom[i, j], pair_mom[i, k], pair_mom[j, k]
            if any(np.isnan(v) or abs(v) < _MIN_MOMENT for v in (mij, mik, mjk)):
                continue
            n_done += 1
            for target, a, b, c in ((i, mij, mik, mjk), (j, mij, mjk, mik), (k, mik, mjk, mij)):
                val = abs(a) * abs(b) / abs(c)
                if val > 0:
                    estimates[target].append(np.sqrt(min(val, 1.0)))
        mu = np.full(m, np.nan)
        for j in range(m):
            if estimates[j]:
                mu[j] = float(np.mean(estimates[j]))
        return mu
