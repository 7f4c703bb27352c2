"""Multiclass majority vote — the simplest multiclass aggregator.

The posterior of each covered example is its (Laplace-smoothed) per-class
vote share; uncovered examples fall back to the class priors, matching the
binary package's convention that abstains carry no evidence.
"""

from __future__ import annotations

import numpy as np

from repro.labelmodel.matrix import ColumnStats
from repro.multiclass.base import MultiClassLabelModel
from repro.multiclass.matrix import mc_vote_counts


class MCMajorityVote(MultiClassLabelModel):
    """Smoothed per-class vote-share posterior.

    Parameters
    ----------
    n_classes:
        The number of classes ``K``.
    class_priors:
        ``(K,)`` prior used for uncovered examples and as the smoothing
        direction; uniform when omitted.
    smoothing:
        Pseudo-votes added per class, distributed according to the priors.
        With ``smoothing > 0`` a 1-vote example does not get a degenerate
        one-hot posterior — the label-model entropy the selectors consume
        stays informative.
    """

    def __init__(
        self,
        n_classes: int,
        class_priors: np.ndarray | None = None,
        smoothing: float = 1.0,
    ) -> None:
        super().__init__(n_classes, class_priors)
        if smoothing < 0:
            raise ValueError(f"smoothing must be >= 0, got {smoothing}")
        self.smoothing = smoothing

    def fit(self, L: np.ndarray, stats: ColumnStats | None = None) -> "MCMajorityVote":
        """Majority vote has no parameters; validates the matrix only."""
        self._validated_or_stats(L, stats)
        return self

    def predict_proba(self, L: np.ndarray, stats: ColumnStats | None = None) -> np.ndarray:
        L = self._validated_or_stats(L, stats)
        proba = np.tile(self.class_priors, (L.shape[0], 1))
        counts = mc_vote_counts(L, self.n_classes)
        covered = counts.sum(axis=1) > 0
        smoothed = counts[covered] + self.smoothing * self.class_priors[None, :]
        proba[covered] = smoothed / smoothed.sum(axis=1, keepdims=True)
        return proba
