"""Multiclass label-model interface.

A multiclass label model consumes the vote matrix ``L`` (entries in
``{-1, 0, ..., K-1}``, -1 = abstain) and produces a probabilistic posterior
``P(y_i = k | L_i)`` per example — the ``(n, K)`` analogue of the binary
pipeline's ``P(y = +1 | L)`` vector.  Both kinds share
:class:`repro.labelmodel.base.BaseLabelModel` (warm-fit default, stats
guard, fitted-state capture).
"""

from __future__ import annotations

import numpy as np

from repro.labelmodel.base import BaseLabelModel
from repro.labelmodel.matrix import check_n_classes
from repro.multiclass.matrix import MC_ABSTAIN, validate_mc_label_matrix


class MultiClassLabelModel(BaseLabelModel):
    """Abstract multiclass denoiser/aggregator of weak-supervision votes.

    Subclasses implement :meth:`fit` and :meth:`predict_proba` (``(n, K)``
    posterior ``P(y = k | L_i)``; rows sum to 1 and uncovered examples
    receive the class priors).

    Parameters
    ----------
    n_classes:
        The number of classes ``K``.
    class_priors:
        ``(K,)`` prior ``P(y = k)``; uniform when omitted.  Fixed unless a
        subclass learns it.
    """

    abstain = MC_ABSTAIN

    def __init__(self, n_classes: int, class_priors: np.ndarray | None = None) -> None:
        n_classes = check_n_classes(n_classes)
        self.n_classes = n_classes
        if class_priors is None:
            priors = np.full(n_classes, 1.0 / n_classes)
        else:
            priors = np.asarray(class_priors, dtype=float).ravel()
            if priors.shape != (n_classes,):
                raise ValueError(
                    f"class_priors must have shape ({n_classes},), got {priors.shape}"
                )
            if np.any(priors <= 0):
                raise ValueError("class_priors must be strictly positive")
            priors = priors / priors.sum()
        self.class_priors = priors

    def predict(self, L: np.ndarray) -> np.ndarray:
        """Hard class labels via the posterior argmax (first-class ties)."""
        return np.argmax(self.predict_proba(L), axis=1).astype(int)

    def _validated(self, L: np.ndarray) -> np.ndarray:
        return validate_mc_label_matrix(L, self.n_classes)


def posterior_entropy_mc(proba: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of each posterior row — ψ_uncertainty of Eq. 3.

    The multiclass generalization of the binary entropy: uncovered examples
    carrying the (uninformative) prior score near ``log K``; fully-agreed
    examples score near zero.
    """
    p = np.clip(np.asarray(proba, dtype=float), 1e-12, 1.0)
    return -(p * np.log(p)).sum(axis=-1)
