"""Multiclass Dawid–Skene EM with abstain-aware sources.

The classic Dawid–Skene model gives every source a full ``K × K`` confusion
matrix; we extend it with class-conditional *fire propensities* exactly as
the binary MeTaL stand-in does (:mod:`repro.labelmodel.metal`), and for the
same reason: uni-polar keyword LFs fire almost exclusively on one class,
and without the propensity terms EM has a degenerate optimum that collapses
all labels onto a single class.  The generative model per LF ``j``:

    P(λ_j = l | y = k)        = ρ_j(k) · Θ_j[k, l]        (l a class)
    P(λ_j = abstain | y = k)  = 1 - ρ_j(k)

with ``Θ_j`` a row-stochastic confusion matrix over emitted classes.  As in
the binary model, the posterior used for prediction keeps the vote and
fire evidence but drops abstain evidence by default, so uncovered examples
score exactly the class priors.
"""

from __future__ import annotations

import numpy as np

from repro.labelmodel.matrix import ColumnStats
from repro.multiclass.base import MultiClassLabelModel

_THETA_FLOOR = 1e-3
_RHO_FLOOR = 1e-4
_RHO_CEIL = 1.0 - 1e-4
_PRIOR_FLOOR = 0.01


class MCDawidSkeneModel(MultiClassLabelModel):
    """Confusion-matrix EM over abstaining multiclass sources.

    Parameters
    ----------
    n_classes:
        The number of classes ``K``.
    class_priors:
        Initial ``(K,)`` prior; refined during fitting when
        ``learn_priors=True``.
    n_iter / tol:
        EM iteration cap and convergence threshold (max parameter change).
    init_accuracy:
        Initial (and anchor) probability mass a source puts on the *correct*
        class; the remaining mass spreads uniformly over the other classes.
    anchor:
        Pseudo-vote strength of the Dirichlet anchor pulling each confusion
        row toward the ``init_accuracy`` pattern — keeps thinly-covered LFs
        identifiable, as in the binary model.
    learn_priors:
        Re-estimate the class balance from the posterior during fitting.
    abstain_evidence:
        Include the abstain propensity evidence at *prediction* time
        (fitting always uses the full model).  Off by default so uncovered
        examples keep maximal uncertainty — the exploration signal the
        selectors need.

    Attributes
    ----------
    confusions_:
        ``(m, K, K)`` fitted confusion matrices ``Θ_j[k, l]``.
    propensities_:
        ``(m, K)`` fire rates ``ρ_j(k)``.
    priors_:
        Final ``(K,)`` class priors.
    converged_:
        Whether EM reached ``tol`` before the iteration cap.
    em_iterations_:
        EM iterations the last fit actually ran (obs attribution).
    """

    _FITTED_ATTRS = (
        "confusions_",
        "propensities_",
        "priors_",
        "converged_",
        "em_iterations_",
    )

    def __init__(
        self,
        n_classes: int,
        class_priors: np.ndarray | None = None,
        n_iter: int = 50,
        tol: float = 1e-4,
        init_accuracy: float = 0.7,
        anchor: float = 2.0,
        learn_priors: bool = True,
        abstain_evidence: bool = False,
    ) -> None:
        super().__init__(n_classes, class_priors)
        if n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {n_iter}")
        if not 1.0 / n_classes < init_accuracy < 1.0:
            raise ValueError(
                f"init_accuracy must be in (1/K, 1) = ({1.0 / n_classes:.3f}, 1), "
                f"got {init_accuracy}"
            )
        if anchor < 0:
            raise ValueError(f"anchor must be >= 0, got {anchor}")
        self.n_iter = n_iter
        self.tol = tol
        self.init_accuracy = init_accuracy
        self.anchor = anchor
        self.learn_priors = learn_priors
        self.abstain_evidence = abstain_evidence
        self.confusions_: np.ndarray | None = None
        self.propensities_: np.ndarray | None = None
        self.priors_: np.ndarray = self.class_priors.copy()
        self.converged_: bool = False
        self.em_iterations_: int = 0

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(
        self, L: np.ndarray, stats: ColumnStats | None = None
    ) -> "MCDawidSkeneModel":
        """Cold EM fit from the smoothed vote-share posterior.

        ``stats`` (a matching :class:`~repro.labelmodel.matrix.ColumnStats`
        handle) skips the dense re-validation scan.  The full EM runs on
        the O(nnz·K) sufficient-statistics kernels; a missing handle is
        built here by one dense scan, and fits are bit-identical whichever
        way the handle was obtained.
        """
        L, stats = self._votes_and_stats(L, stats)
        K = self.n_classes
        self.priors_ = self.class_priors.copy()
        if L.shape[1] == 0 or L.shape[0] == 0:
            self.confusions_ = np.zeros((0, K, K))
            self.propensities_ = np.zeros((0, K))
            self.converged_ = True
            self.em_iterations_ = 0
            return self
        self._fit_from_posterior(stats, self._majority_posterior(stats))
        return self

    def fit_warm(
        self,
        L: np.ndarray,
        previous: "MCDawidSkeneModel | None" = None,
        max_iter: int | None = None,
        stats: ColumnStats | None = None,
    ) -> "MCDawidSkeneModel":
        """Fit seeded from a previous fit's posterior (incremental refits).

        Same contract as the binary model's warm fit: EM continues from the
        posterior of the previous parameters over the columns they were
        fitted on, with identical anchors and convergence tolerance, and
        ``max_iter`` optionally caps this call's EM iterations.  Falls
        back to a cold :meth:`fit` whenever the previous model is unusable.

        Warm fits run on the same O(nnz·K) sufficient-statistics kernels
        as cold ones, on the ``stats`` handle threaded from the engine or
        one built here by a single dense scan — bit-identical either way.
        """
        L, stats = self._votes_and_stats(L, stats)
        usable = (
            type(previous) is type(self)
            and getattr(previous, "confusions_", None) is not None
            and 0 < previous.confusions_.shape[0] <= L.shape[1]
            and previous.n_classes == self.n_classes
            and L.shape[0] > 0
        )
        if not usable:
            return self.fit(L, stats=stats)
        priors = np.clip(previous.priors_, _PRIOR_FLOOR, None)
        self.priors_ = priors / priors.sum()
        Q_seed = self._posterior_stats(
            stats, previous.confusions_, previous.propensities_, with_abstain=True
        )
        # As in the binary model, the *initial* class-balance estimate must
        # mirror the cold seeding (smoothed majority posterior) — seeding
        # it from the previous converged posterior lets a lopsided LF set
        # drag the priors further each refit.
        full_n_iter = self.n_iter
        if max_iter is not None:
            self.n_iter = max(1, min(self.n_iter, int(max_iter)))
        try:
            self._fit_from_posterior(
                stats, Q_seed, Q_prior=self._majority_posterior(stats)
            )
        finally:
            self.n_iter = full_n_iter  # the cap is scoped to this call only
        return self

    def _fit_from_posterior(
        self,
        stats: ColumnStats,
        Q: np.ndarray,
        Q_prior: np.ndarray | None = None,
    ) -> None:
        """Run EM from an initial posterior ``Q``.

        ``Q_prior`` optionally supplies a different posterior for the
        initial class-balance update (warm fits pass the majority
        posterior; subsequent updates inside the loop use the E-step
        posterior in both the cold and warm paths).  Every E/M step runs
        on the O(nnz·K) sparse path.
        """
        if self.learn_priors:
            self._update_priors(stats, Q if Q_prior is None else Q_prior)
        theta, rho = self._m_step(stats, Q)
        self.converged_ = False
        iterations = 0
        for _ in range(self.n_iter):
            iterations += 1
            Q = self._posterior_stats(stats, theta, rho, with_abstain=True)
            if self.learn_priors:
                self._update_priors(stats, Q)
            new_theta, new_rho = self._m_step(stats, Q)
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

    def _update_priors(self, stats: ColumnStats, Q: np.ndarray) -> None:
        covered = stats.coverage_mask()
        if covered.any():
            priors = Q[covered].mean(axis=0)
            priors = np.clip(priors, _PRIOR_FLOOR, None)
            self.priors_ = priors / priors.sum()

    def _majority_posterior(self, stats: ColumnStats) -> np.ndarray:
        """Smoothed vote-share posterior that seeds EM.

        Read from the handle's exact-integer running vote tallies (O(n·K)).
        """
        counts = np.stack(
            [stats.row_value_counts(k).astype(float) for k in range(self.n_classes)],
            axis=1,
        )
        smoothed = counts + self.class_priors[None, :]
        return smoothed / smoothed.sum(axis=1, keepdims=True)

    def _m_step(self, stats: ColumnStats, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form confusion/propensity updates with Dirichlet anchors.

        O(nnz·K): one sparse mat-mat per emitted class replaces the
        per-column dense masks.
        """
        K = self.n_classes
        # Anchor pattern: init_accuracy on the diagonal, rest uniform.
        anchor_row = np.full((K, K), (1.0 - self.init_accuracy) / (K - 1))
        np.fill_diagonal(anchor_row, self.init_accuracy)
        class_mass = Q.sum(axis=0)  # (K,)
        counts = np.empty((stats.m, K, K))  # counts[j, k, l]
        for l in range(K):
            counts[:, :, l] = np.asarray(stats.value_t(l) @ Q)
        fire_mass = counts.sum(axis=2)  # (m, K) — before the anchor
        counts += self.anchor * anchor_row[None, :, :]
        theta = np.clip(counts / counts.sum(axis=2, keepdims=True), _THETA_FLOOR, 1.0)
        theta /= theta.sum(axis=2, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            rho = np.where(class_mass[None, :] > 0, fire_mass / class_mass[None, :], 0.5)
        rho = np.clip(rho, _RHO_FLOOR, _RHO_CEIL)
        return theta, rho

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def predict_proba(
        self, L: np.ndarray, stats: ColumnStats | None = None
    ) -> np.ndarray:
        """``(n, K)`` posterior.

        One kernel, the O(nnz·K) table-driven posterior, on ``stats``
        (which also skips the dense re-validation scan) or on a handle
        built here by one scan of ``L``.  Both give the same bytes.
        """
        if self.confusions_ is None or self.propensities_ is None:
            raise RuntimeError("MCDawidSkeneModel.predict_proba called before fit")
        L, stats = self._votes_and_stats(L, stats)
        if L.shape[1] != self.confusions_.shape[0]:
            raise ValueError(
                f"label matrix has {L.shape[1]} LFs but model was fitted with "
                f"{self.confusions_.shape[0]}"
            )
        if L.shape[1] == 0:
            return np.tile(self.priors_, (L.shape[0], 1))
        return self._posterior_stats(
            stats,
            self.confusions_,
            self.propensities_,
            with_abstain=self.abstain_evidence,
        )

    def _posterior_stats(
        self,
        stats: ColumnStats,
        theta: np.ndarray,
        rho: np.ndarray,
        with_abstain: bool,
    ) -> np.ndarray:
        """``P(y = k | L_i)`` under ``(theta, rho, priors_)``, in O(nnz·K).

        Every row starts from the all-abstain log-posterior (priors plus,
        with abstain evidence, ``Σ_j log(1 − ρ_j)``); each fired entry then
        contributes a row of the ``(m, K, K)`` evidence table
        ``E[j, k, l] = log ρ_j(k) + log Θ_j[k, l] [− log(1 − ρ_j(k))]``
        built once per call: the table is gathered through the flat entry
        arrays (:meth:`ColumnStats.entries`) as ``E[cols, :, values]`` and
        segment-summed into rows with one ``np.bincount`` per class —
        replacing the per-class sparse mat-mat passes.  Prefix-sliced at
        ``indptr[m]`` when warm-seeding from a smaller previous fit.
        """
        m = theta.shape[0]
        K = self.n_classes
        log_theta = np.log(np.clip(theta, _THETA_FLOOR, 1.0))  # (m, K, K)
        log_rho = np.log(rho)  # (m, K)
        log_not_rho = np.log1p(-rho)
        if with_abstain:
            base = np.log(self.priors_) + log_not_rho.sum(axis=0)
        else:
            base = np.log(self.priors_)
        indptr, rows, cols, values = stats.entries()
        if m != stats.m:
            end = int(indptr[m])
            rows, cols, values = rows[:end], cols[:end], values[:end]
        # evidence[j, k, l]: class-k evidence of column j emitting class l.
        evidence = log_rho[:, :, None] + log_theta  # (m, K, K)
        if with_abstain:
            evidence = evidence - log_not_rho[:, :, None]
        contrib = evidence[cols, :, values.astype(np.intp)]  # (nnz, K)
        log_post = np.empty((stats.n_rows, K))
        for k in range(K):
            log_post[:, k] = base[k] + np.bincount(
                rows, weights=contrib[:, k], minlength=stats.n_rows
            )
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.exp(log_post)
        return post / post.sum(axis=1, keepdims=True)
