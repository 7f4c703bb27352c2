"""Dawid–Skene label model with abstain-aware confusion matrices.

A classical EM aggregator included as an alternative to the MeTaL-style
model: each LF gets a full class-conditional outcome distribution
``P(λ_j = l | y)`` over ``l ∈ {-1, 0, +1}``, so even *abstains* can be
informative (e.g. an LF that almost never abstains on the positive class).
The contextualized pipeline is label-model agnostic (paper Sec. 4.3), and
this model exercises that claim in tests and ablation benches.
"""

from __future__ import annotations

import numpy as np

from repro.labelmodel.base import LabelModel
from repro.labelmodel.matrix import ColumnStats

_SMOOTH = 0.1


class DawidSkene(LabelModel):
    """EM-fitted per-LF confusion model.

    Parameters
    ----------
    class_prior:
        Initial ``P(y = +1)``; re-estimated during EM when
        ``learn_prior=True``.
    n_iter / tol:
        EM budget and convergence threshold (max parameter change).
    learn_prior:
        Whether the class prior is updated in the M-step.

    Attributes
    ----------
    confusion_:
        ``(m, 2, 3)`` array: ``confusion_[j, c, o] = P(λ_j = outcome o | y = class c)``
        with classes ordered ``(-1, +1)`` and outcomes ``(-1, 0, +1)``.
    prior_:
        Final ``P(y = +1)``.
    em_iterations_:
        EM iterations the last fit actually ran (obs attribution).
    """

    _FITTED_ATTRS = ("confusion_", "prior_", "converged_", "em_iterations_")

    def __init__(
        self,
        class_prior: float = 0.5,
        n_iter: int = 100,
        tol: float = 1e-5,
        learn_prior: bool = True,
    ) -> None:
        super().__init__(class_prior)
        if n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {n_iter}")
        self.n_iter = n_iter
        self.tol = tol
        self.learn_prior = learn_prior
        self.confusion_: np.ndarray | None = None
        self.prior_: float = class_prior
        self.converged_: bool = False
        self.em_iterations_: int = 0

    def fit(self, L: np.ndarray, stats: ColumnStats | None = None) -> "DawidSkene":
        """Cold EM fit from the smoothed majority-vote posterior.

        ``stats`` (a matching :class:`~repro.labelmodel.matrix.ColumnStats`
        handle) skips the dense re-validation scan.  The full EM runs on
        the O(nnz) sufficient-statistics kernels; a missing handle is built
        here by one dense scan, and fits are bit-identical whichever way
        the handle was obtained.
        """
        L, stats = self._votes_and_stats(L, stats)
        if L.shape[1] == 0:
            self.confusion_ = np.zeros((0, 2, 3))
            self.prior_ = self.class_prior
            self.converged_ = True
            self.em_iterations_ = 0
            return self
        self._em_loop(stats, self._majority_posterior(stats), self.n_iter)
        return self

    def fit_warm(
        self,
        L: np.ndarray,
        previous: "DawidSkene | None" = None,
        max_iter: int | None = None,
        stats: ColumnStats | None = None,
    ) -> "DawidSkene":
        """Fit seeded from a previous fit's posterior (incremental refits).

        Same contract as :meth:`repro.labelmodel.metal.MetalLabelModel.fit_warm`:
        EM continues from the posterior of the previous parameters over the
        columns they were fitted on, ``max_iter`` caps this call's EM
        iterations, and the loop runs on the O(nnz) sufficient-statistics
        path (the ``stats`` handle threaded from the engine, or one built
        here by a single dense scan — bit-identical either way).  Falls
        back to a cold :meth:`fit` whenever the previous model is unusable.
        """
        L, stats = self._votes_and_stats(L, stats)
        usable = (
            type(previous) is type(self)
            and getattr(previous, "confusion_", None) is not None
            and 0 < previous.confusion_.shape[0] <= L.shape[1]
            and L.shape[0] > 0
        )
        if not usable:
            return self.fit(L, stats=stats)
        q = self._e_step_stats(stats, previous.confusion_, previous.prior_)
        n_iter = self.n_iter if max_iter is None else max(1, min(self.n_iter, int(max_iter)))
        # As in the other models' warm fits, the *initial* class-balance
        # estimate must mirror the cold seeding (smoothed majority
        # posterior) — estimating it from the previous converged posterior
        # lets a one-sided LF set drag the prior further every refit.
        self._em_loop(stats, q, n_iter, q_prior=self._majority_posterior(stats))
        return self

    def _majority_posterior(self, stats: ColumnStats) -> np.ndarray:
        """Smoothed majority-vote posterior (class prior on uncovered rows)."""
        pos = stats.row_value_counts(1)
        neg = stats.row_value_counts(-1)
        return np.where(pos + neg > 0, (pos + 0.5) / (pos + neg + 1.0), self.class_prior)

    def _em_loop(
        self,
        stats: ColumnStats,
        q: np.ndarray,
        n_iter: int,
        q_prior: np.ndarray | None = None,
    ) -> None:
        """The EM alternation shared by cold and warm fits.

        ``q_prior`` optionally supplies a different posterior for the
        *first* class-balance update (warm fits pass the majority
        posterior to mirror the cold seeding); subsequent updates use the
        evolving E-step posterior in both paths.
        """
        masses = self._outcome_masses(stats)
        prior = self.class_prior
        confusion = None
        self.converged_ = False
        iterations = 0
        for it in range(n_iter):
            iterations = it + 1
            confusion_new = self._m_step_stats(masses, q)
            balance_q = q_prior if (it == 0 and q_prior is not None) else q
            prior_new = (
                float(np.clip(balance_q.mean(), 0.01, 0.99)) if self.learn_prior else prior
            )
            q_new = self._e_step_stats(stats, confusion_new, prior_new)
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

    def predict_proba(
        self, L: np.ndarray, stats: ColumnStats | None = None
    ) -> np.ndarray:
        """``P(y=+1 | L_i)`` under the fitted confusions.

        One kernel, the O(nnz) table-driven E-step, on ``stats`` (which
        also skips the dense re-validation scan) or on a handle built here
        by one scan of ``L``.  Both give the same bytes.
        """
        if self.confusion_ is None:
            raise RuntimeError("DawidSkene.predict_proba called before fit")
        L, stats = self._votes_and_stats(L, stats)
        if L.shape[1] != self.confusion_.shape[0]:
            raise ValueError(
                f"label matrix has {L.shape[1]} LFs but model was fitted with "
                f"{self.confusion_.shape[0]}"
            )
        if L.shape[1] == 0:
            return np.full(L.shape[0], self.prior_)
        return self._e_step_stats(stats, self.confusion_, self.prior_)

    # ------------------------------------------------------------------ #
    # EM internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _outcome_masses(stats: ColumnStats) -> dict[str, object]:
        """Per-outcome ``(m, n)`` vote indicators (transposed), shared by all EM steps."""
        return {"Fn": stats.value_t(-1), "Fp": stats.value_t(1)}

    @staticmethod
    def _m_step_stats(masses: dict, q: np.ndarray) -> np.ndarray:
        """O(nnz) confusion update: the fired-outcome masses come from two
        sparse mat-vecs; the abstain column is the remaining class mass."""
        weights = np.stack([1 - q, q], axis=1)  # (n, 2)
        cn = np.asarray(masses["Fn"] @ weights)  # (m, 2) mass voting -1
        cp = np.asarray(masses["Fp"] @ weights)  # (m, 2) mass voting +1
        total = weights.sum(axis=0)  # (2,)
        counts = np.empty((cn.shape[0], 2, 3))
        counts[:, :, 0] = cn
        counts[:, :, 1] = total[None, :] - cn - cp
        counts[:, :, 2] = cp
        counts += _SMOOTH
        return counts / counts.sum(axis=2, keepdims=True)

    @staticmethod
    def _e_step_stats(
        stats: ColumnStats, confusion: np.ndarray, prior: float
    ) -> np.ndarray:
        """O(nnz) table-driven posterior ``P(y=+1 | L_i)``.

        Every row starts from the all-abstain log-likelihood
        (``Σ_j log P(λ_j = 0 | y)`` per class); fired entries contribute a
        correction looked up in one of two per-column tables built once
        per call — ``Tn[j, c] = log conf[j, c, -1] − log conf[j, c, 0]``
        for a −1 vote and ``Tp`` likewise for +1.  The tables are gathered
        through the flat entry arrays (:meth:`ColumnStats.entries`) and
        segment-summed into rows with one ``np.bincount`` per class —
        replacing the per-column sparse mat-vec passes.  Column-sliced to
        the confusion prefix (``indptr[m]``) when warm-seeding from a
        smaller previous fit.
        """
        m = confusion.shape[0]
        log_conf = np.log(np.clip(confusion, 1e-12, None))  # (m, 2, 3)
        indptr, rows, cols, values = stats.entries()
        if m != stats.m:
            end = int(indptr[m])
            rows, cols, values = rows[:end], cols[:end], values[:end]
        table_neg = log_conf[:, :, 0] - log_conf[:, :, 1]  # (m, 2)
        table_pos = log_conf[:, :, 2] - log_conf[:, :, 1]
        contrib = np.where((values == -1)[:, None], table_neg[cols], table_pos[cols])
        ll = np.empty((stats.n_rows, 2))
        base = log_conf[:, :, 1].sum(axis=0)  # (2,)
        for c in range(2):
            ll[:, c] = base[c] + np.bincount(
                rows, weights=contrib[:, c], minlength=stats.n_rows
            )
        ll[:, 0] += np.log(1 - prior)
        ll[:, 1] += np.log(prior)
        ll -= ll.max(axis=1, keepdims=True)
        probs = np.exp(ll)
        return probs[:, 1] / probs.sum(axis=1)
