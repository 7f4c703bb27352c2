"""Label-model interface.

A label model consumes the label matrix ``L`` and produces probabilistic
training labels (paper Sec. 2, stage 2): ``P(y_i = +1 | L_i)`` for the
binary models of this package, ``P(y_i = k | L_i)`` for the K-class models
of :mod:`repro.multiclass`.  Both share :class:`BaseLabelModel`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.labelmodel.matrix import ABSTAIN, ColumnStats, VoteMatrix, validate_label_matrix
from repro.utils.state import FittedStateMixin


class BaseLabelModel(FittedStateMixin, ABC):
    """Root of every label model, binary or K-class.

    A label model denoises/aggregates a vote matrix ``L`` into a posterior
    per example: :class:`LabelModel` returns ``(n,)`` ``P(y=+1|L_i)``
    vectors over the binary alphabet, and
    :class:`repro.multiclass.base.MultiClassLabelModel` returns ``(n, K)``
    row-stochastic matrices over the K-class one.  Uncovered examples
    receive the class prior.  The contextualized pipeline (paper Sec. 4.3)
    is deliberately *model-agnostic*: any subclass can be dropped into Nemo.

    Every entry point — :meth:`fit`, :meth:`fit_warm` and
    :meth:`predict_proba` — takes an optional ``stats=`` handle
    (:class:`~repro.labelmodel.matrix.ColumnStats`) describing ``L``; the
    engine always passes its vote matrix's handle, so it calls every
    model the same way.  A model uses the handle at least to skip
    re-validating votes the matrix validated on append.

    All subclasses inherit declarative fitted-state capture
    (:class:`~repro.utils.state.FittedStateMixin`): the attributes listed
    in ``_FITTED_ATTRS`` are what a session checkpoint persists for the
    model (hyperparameters are reconstructed by the session's factory).
    """

    #: The abstain sentinel of the model's vote alphabet.
    abstain: int

    @abstractmethod
    def fit(self, L: np.ndarray, stats: ColumnStats | None = None) -> "BaseLabelModel":
        """Estimate source parameters from the vote matrix."""

    @abstractmethod
    def predict_proba(self, L: np.ndarray, stats: ColumnStats | None = None) -> np.ndarray:
        """Posterior over the labels for every example (see class doc)."""

    @abstractmethod
    def _validated(self, L: np.ndarray) -> np.ndarray:
        """``L`` checked against the model's vote alphabet, as int8."""

    def fit_warm(
        self,
        L: np.ndarray,
        previous: "BaseLabelModel | None" = None,
        max_iter: int | None = None,
        stats: ColumnStats | None = None,
    ) -> "BaseLabelModel":
        """Fit, optionally warm-starting from a previously fitted model.

        ``previous`` is a model of the same class fitted on the first
        ``m_prev ≤ m`` columns of ``L`` (the incremental session grows the
        vote matrix one LF at a time); ``max_iter`` optionally caps the
        inner optimizer iterations for this call — from a warm seed a few
        steps absorb one new LF, and the engine's periodic cold refit
        bounds any accumulated drift.  The default implementation ignores
        both hints and performs a full fit; subclasses with iterative
        fitting override this to seed from the previous solution.
        """
        return self.fit(L, stats=stats)

    def fit_predict_proba(self, L: np.ndarray) -> np.ndarray:
        """``fit(L)`` then ``predict_proba(L)``, sharing one stats handle."""
        L, stats = self._votes_and_stats(L, None)
        return self.fit(L, stats=stats).predict_proba(L, stats=stats)

    def _validated_or_stats(self, L: np.ndarray, stats: ColumnStats | None) -> np.ndarray:
        """Validate ``L``, or accept it under a matching stats handle.

        The guard of every stats-aware model: a :class:`VoteMatrix`
        validates each vote on append, so its live view needs no re-scan;
        a handle that does not describe the matrix it is paired with is a
        caller bug and fails loudly rather than silently fitting stale
        statistics.
        """
        if stats is None:
            return self._validated(L)
        if not stats.matches(L):
            raise ValueError(
                "stats handle does not describe the given label matrix "
                f"(handle shape {(stats.n_rows, stats.m)}, L shape "
                f"{np.asarray(L).shape})"
            )
        return L

    def _votes_and_stats(
        self, L: np.ndarray, stats: ColumnStats | None
    ) -> tuple[np.ndarray, ColumnStats]:
        """``L`` and a stats handle that matches it, for the O(nnz) kernels.

        A passed handle is checked by :meth:`_validated_or_stats`.
        Without one, ``L`` is validated and copied into a
        :class:`VoteMatrix` by one dense scan, and that matrix's view and
        handle are returned.  The handle's structure is canonical, so
        everything computed from it is bit-identical to what the live
        handle of the same votes gives.
        """
        if stats is not None:
            return self._validated_or_stats(L, stats), stats
        votes = VoteMatrix.from_dense(self._validated(L), abstain=self.abstain)
        return votes.values, votes.stats


class LabelModel(BaseLabelModel):
    """Abstract binary denoiser/aggregator of weak-supervision votes.

    Subclasses implement :meth:`fit` (estimate source parameters from ``L``)
    and :meth:`predict_proba` (``(n,)`` posterior ``P(y=+1|L_i)``; uncovered
    examples receive the class prior).

    Parameters
    ----------
    class_prior:
        ``P(y = +1)``.  Fixed (not learned) unless a subclass says
        otherwise, mirroring how class balance is supplied to MeTaL.
    """

    abstain = ABSTAIN

    def __init__(self, class_prior: float = 0.5) -> None:
        if not 0.0 < class_prior < 1.0:
            raise ValueError(f"class_prior must be in (0, 1), got {class_prior}")
        self.class_prior = class_prior

    def predict(self, L: np.ndarray) -> np.ndarray:
        """Hard ±1 labels from the posterior (prior-side ties)."""
        proba = self.predict_proba(L)
        return np.where(proba >= 0.5, 1, -1).astype(int)

    @staticmethod
    def _validated(L: np.ndarray) -> np.ndarray:
        return validate_label_matrix(L)


def posterior_entropy(proba: np.ndarray) -> np.ndarray:
    """Binary entropy (nats) of ``P(y=+1)`` — the ψ_uncertainty of Eq. 3.

    Uncovered examples, which get the prior, naturally score high when the
    prior is uninformative; fully-agreed examples score near zero.
    """
    p = np.clip(np.asarray(proba, dtype=float), 1e-12, 1 - 1e-12)
    return -(p * np.log(p) + (1 - p) * np.log(1 - p))
