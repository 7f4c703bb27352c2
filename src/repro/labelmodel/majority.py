"""Majority-vote label model — the simplest aggregator.

Serves both as a baseline and as the fallback whenever parametric models
lack the signal to fit (e.g. a single LF).
"""

from __future__ import annotations

import numpy as np

from repro.labelmodel.base import LabelModel
from repro.labelmodel.matrix import ColumnStats


class MajorityVote(LabelModel):
    """Smoothed majority vote.

    Posterior for a covered example with ``p`` positive and ``q`` negative
    votes is ``(p + α·π) / (p + q + α)`` where ``π`` is the class prior and
    ``α`` a smoothing pseudo-count; uncovered examples get the prior.

    Parameters
    ----------
    class_prior:
        ``P(y = +1)``.
    smoothing:
        Pseudo-count ``α``; 1.0 gives a mild prior pull on thin votes.
    """

    def __init__(self, class_prior: float = 0.5, smoothing: float = 1.0) -> None:
        super().__init__(class_prior)
        if smoothing < 0:
            raise ValueError(f"smoothing must be >= 0, got {smoothing}")
        self.smoothing = smoothing

    def fit(self, L: np.ndarray, stats: ColumnStats | None = None) -> "MajorityVote":
        """No parameters to estimate; validates ``L`` and returns self."""
        self._validated_or_stats(L, stats)
        return self

    def predict_proba(self, L: np.ndarray, stats: ColumnStats | None = None) -> np.ndarray:
        L = self._validated_or_stats(L, stats)
        pos = (L == 1).sum(axis=1).astype(float)
        neg = (L == -1).sum(axis=1).astype(float)
        total = pos + neg
        proba = np.full(L.shape[0], self.class_prior, dtype=float)
        covered = total > 0
        alpha = self.smoothing
        proba[covered] = (pos[covered] + alpha * self.class_prior) / (
            total[covered] + alpha
        )
        return proba
