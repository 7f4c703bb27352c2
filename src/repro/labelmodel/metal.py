"""MeTaL-style generative label model (the paper's default aggregator).

The paper adopts MeTaL [30] as its underlying label model.  For binary,
single-task weak supervision, MeTaL's model is a conditionally-independent
generative model over the *full* outcome space of each LF — crucially
including the abstain outcome:

    P(L_i, y) = π_y · Π_j  P(λ_j = L_ij | y),     L_ij ∈ {-1, 0, +1}

Each LF is parameterized by class-conditional fire propensities
``ρ_j(y) = P(λ_j ≠ 0 | y)`` and a symmetric accuracy-given-fire
``a_j = P(λ_j = y | λ_j ≠ 0, y)``.  Modelling the abstains is not a
nicety: the common uni-polar keyword LFs (paper Sec. 4) fire almost
exclusively on one class, and a model that ignores ``ρ`` (symmetric
accuracies only) has a *degenerate global optimum* in which one polarity
coalition is declared anti-perfect and every label collapses to a single
class.  The propensity terms penalize that mode because it cannot explain
why an LF's fire rate differs so strongly between the hypothesized classes.

Fitting is by EM with closed-form anchored M-steps.  The posterior
weights each vote by its estimated log-odds accuracy — "the more accurate
an LF is, the larger the weight its vote receives" (Sec. 4.3) — plus the
fire/abstain evidence.
"""

from __future__ import annotations

import numpy as np

from repro.labelmodel.base import LabelModel
from repro.labelmodel.matrix import ColumnStats, column_stats_from_dense

_ACC_FLOOR = 0.05
_ACC_CEIL = 0.95
_RHO_FLOOR = 1e-4
_RHO_CEIL = 1.0 - 1e-4
_PRIOR_FLOOR = 0.02


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _logit(p):
    p = np.clip(np.asarray(p, dtype=float), 1e-9, 1 - 1e-9)
    return np.log(p / (1 - p))


class MetalLabelModel(LabelModel):
    """EM-trained abstain-aware generative model.

    Parameters
    ----------
    class_prior:
        Initial ``P(y = +1)``; refined from the majority-vote posterior
        when ``learn_prior=True`` (default) — a fixed misspecified prior
        acts as persistent one-sided evidence during fitting.
    n_iter:
        Maximum EM iterations.
    tol:
        Convergence threshold on the max parameter change.
    init_accuracy:
        Initial accuracy-given-fire; 0.7 encodes the standard
        better-than-random prior belief about user-written LFs.
    anchor:
        Strength (in pseudo-votes) of the Beta anchor pulling each
        accuracy toward ``init_accuracy`` — Snorkel-style regularization
        that keeps thinly-covered LFs identifiable.
    learn_prior:
        Whether to re-estimate the class balance during fitting (default).
        Supplied priors are estimates (the paper's pipeline estimates class
        balance from the validation split) and a *misspecified* fixed prior
        acts as persistent one-sided evidence.  Note the interaction with
        selection: under a one-sided LF set a learned prior drifts toward
        that side — the SEU selector's warm-up phase exists precisely to
        keep the LF set two-sided from the start.
    abstain_evidence:
        Whether :meth:`predict_proba` includes the *abstain* propensity
        evidence.  Off by default, recovering MeTaL's posterior semantics:
        abstains are non-evidence, so uncovered examples score exactly the
        class prior — maximal uncertainty, the exploration signal Nemo's
        selectors use.  The term also overcounts badly when correlated LFs
        abstain together.  The *fire* evidence (propensity
        log-ratio of the LFs that actually voted) is always included — it
        is what lets a single minority-class vote overcome a skewed prior.
        Fitting always uses the full propensity-aware model (that is what
        keeps EM identifiable for uni-polar LFs).

    Attributes
    ----------
    accuracies_:
        ``(m,)`` fitted accuracies-given-fire.
    propensities_:
        ``(m, 2)`` fire rates per class, columns ordered ``(y=-1, y=+1)``.
    prior_:
        Final ``P(y = +1)``.
    converged_:
        Whether fitting reached ``tol`` before the iteration cap.
    em_iterations_:
        EM iterations the last fit actually ran — the
        obs layer attributes label-model cost with it.
    """

    _FITTED_ATTRS = (
        "accuracies_",
        "propensities_",
        "prior_",
        "converged_",
        "em_iterations_",
    )

    def __init__(
        self,
        class_prior: float = 0.5,
        n_iter: int = 50,
        tol: float = 1e-4,
        init_accuracy: float = 0.7,
        anchor: float = 2.0,
        learn_prior: bool = True,
        abstain_evidence: bool = False,
    ) -> None:
        super().__init__(class_prior)
        if n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {n_iter}")
        if not _ACC_FLOOR < init_accuracy < _ACC_CEIL:
            raise ValueError(
                f"init_accuracy must be in ({_ACC_FLOOR}, {_ACC_CEIL}), got {init_accuracy}"
            )
        if anchor < 0:
            raise ValueError(f"anchor must be >= 0, got {anchor}")
        self.n_iter = n_iter
        self.tol = tol
        self.init_accuracy = init_accuracy
        self.anchor = anchor
        self.learn_prior = learn_prior
        self.abstain_evidence = abstain_evidence
        self.accuracies_: np.ndarray | None = None
        self.propensities_: np.ndarray | None = None
        self.prior_: float = class_prior
        self.converged_: bool = False
        self.em_iterations_: int = 0

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(self, L: np.ndarray, stats: ColumnStats | None = None) -> "MetalLabelModel":
        """Cold fit seeded from the majority-vote posterior.

        ``stats`` (an engine-threaded :class:`ColumnStats` handle matching
        ``L``) lets the fit skip the O(n·m) re-validation scan — the vote
        matrix validated every entry on append.  The full EM (majority
        seeding, prior estimate, M-steps, convergence check) runs on the
        O(nnz) sufficient-statistics kernels; a missing handle is built
        here by one dense scan, and fits are bit-identical whichever way
        the handle was obtained (the structure is canonical either way).
        """
        L = self._validated_or_stats(L, stats)
        self.prior_ = self.class_prior
        self.em_iterations_ = 0
        if L.shape[1] == 0 or L.shape[0] == 0:
            self.accuracies_ = np.zeros(0)
            self.propensities_ = np.zeros((0, 2))
            self.converged_ = True
            return self
        if stats is None:
            stats = column_stats_from_dense(L, abstain=0)
        self._fit_from_posterior(stats, self._majority_posterior(stats))
        return self

    def fit_warm(
        self,
        L: np.ndarray,
        previous: "MetalLabelModel | None" = None,
        max_iter: int | None = None,
        stats: ColumnStats | None = None,
    ) -> "MetalLabelModel":
        """Fit seeded from a previous fit's posterior (incremental refits).

        The interactive loop grows ``L`` by one column per iteration, so the
        converged posterior of the previous refit is already near the new
        optimum.  Instead of re-seeding EM from the majority vote, compute
        the posterior of the previous parameters over the columns they were
        fitted on and continue EM from there — the same objective, anchors,
        and convergence tolerance as a cold :meth:`fit`.  ``max_iter``
        additionally caps the EM iterations of this call: each EM step
        monotonically improves the likelihood, so a short warm
        continuation absorbs the one new LF while the engine's periodic
        cold refit bounds accumulated drift.  Falls back to :meth:`fit`
        whenever the previous model is unusable (unfitted, different
        class, or the vote matrix shrank).

        Warm fits always run on the incremental sufficient-statistics path:
        every EM iteration reads the per-column fire structure (the
        ``stats`` handle threaded from the engine, or one built here by a
        single scan of ``L``) instead of re-deriving ``(L != 0)`` masks
        from the dense matrix — O(nnz) per iteration instead of O(n·m),
        and bit-identical whichever way the handle was obtained.
        """
        usable = (
            type(previous) is type(self)
            and getattr(previous, "accuracies_", None) is not None
            and previous.accuracies_.size > 0
        )
        if not usable:
            return self.fit(L, stats=stats)
        L = self._validated_or_stats(L, stats)
        m_prev = previous.accuracies_.shape[0]
        if L.shape[0] == 0 or L.shape[1] == 0 or L.shape[1] < m_prev:
            return self.fit(L, stats=stats)
        if stats is None:
            stats = column_stats_from_dense(L, abstain=0)
        self.prior_ = self.class_prior
        # The class balance must be estimated exactly as a cold fit does —
        # from the *smoothed majority* posterior, not the previous E-step
        # posterior.  `_fit_em` never revises `prior_`, so seeding it from
        # the (extreme) converged posterior creates a positive feedback
        # loop across refits: a one-sided LF set drags the prior toward
        # its side, which sharpens the next posterior, which drags it
        # further, until every label collapses to one class.
        q_seed = self._posterior_stats(
            stats, previous.accuracies_, previous.propensities_, with_abstain=True
        )
        full_n_iter = self.n_iter
        if max_iter is not None:
            self.n_iter = max(1, min(self.n_iter, int(max_iter)))
        try:
            self._fit_from_posterior(
                stats, q_seed, q_prior=self._majority_posterior(stats)
            )
        finally:
            self.n_iter = full_n_iter  # the cap is scoped to this call only
        return self

    def _fit_from_posterior(
        self,
        stats: ColumnStats,
        q: np.ndarray,
        q_prior: np.ndarray | None = None,
    ) -> None:
        """Run EM from an initial posterior ``q``.

        ``q_prior`` optionally supplies a different posterior for the class
        balance estimate (warm fits pass the majority posterior to mirror
        the cold seeding; see :meth:`fit_warm`).  Every EM iteration
        runs on the O(nnz) sufficient-statistics path.
        """
        if self.learn_prior:
            covered = stats.coverage_mask()
            if covered.any():
                balance_q = q if q_prior is None else q_prior
                self.prior_ = float(
                    np.clip(balance_q[covered].mean(), _PRIOR_FLOOR, 1 - _PRIOR_FLOOR)
                )
        acc, rho = self._m_step(self._sufficient_stats(stats, q))
        self._fit_em(stats, acc, rho)

    def _fit_em(self, stats: ColumnStats, acc: np.ndarray, rho: np.ndarray) -> None:
        self.converged_ = False
        iterations = 0
        for _ in range(self.n_iter):
            iterations += 1
            q = self._posterior_stats(stats, acc, rho, with_abstain=True)
            new_acc, new_rho = self._m_step(self._sufficient_stats(stats, q))
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

    def _finalize(self, acc: np.ndarray, rho: np.ndarray) -> None:
        # Better-than-random guard: resolve the global label-swap mode.
        if acc.size and float(np.mean(acc)) < 0.5:
            acc = 1.0 - acc
            rho = rho[:, ::-1].copy()
            self.prior_ = 1.0 - self.prior_
        self.accuracies_ = acc
        self.propensities_ = rho

    # ------------------------------------------------------------------ #
    # EM pieces
    # ------------------------------------------------------------------ #
    @staticmethod
    def _sufficient_stats(stats: ColumnStats, q: np.ndarray) -> dict[str, np.ndarray]:
        # O(nnz): two sparse mat-vecs against the per-column fire
        # structure replace every dense (L != 0) / (L == ±1) scan.
        # With t = Σ_fired q and s = Σ_fired v·q (v = ±1), the positive
        # and negative vote masses are (t ± s) / 2, and
        # correct = pos_mass + (n_neg − neg_mass).
        F = stats.fires_csc()
        S = stats.signed_csc()
        t = np.asarray(F.T @ q).ravel()
        s = np.asarray(S.T @ q).ravel()
        pos_mass = 0.5 * (t + s)
        neg_mass = 0.5 * (t - s)
        neg_counts = stats.value_col_counts(-1).astype(float)
        fires = stats.col_nnz().astype(float)
        return {
            "correct": pos_mass + (neg_counts - neg_mass),
            "fires": fires,
            "fires_pos": t,
            "fires_neg": fires - t,
            "mass_pos": np.full(stats.m, q.sum()),
            "mass_neg": np.full(stats.m, (1 - q).sum()),
        }

    def _m_step(self, suff: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form anchored updates from the sufficient statistics."""
        anchor = self.anchor
        acc = (suff["correct"] + anchor * self.init_accuracy) / (suff["fires"] + anchor)
        acc = np.clip(acc, _ACC_FLOOR, _ACC_CEIL)
        with np.errstate(invalid="ignore", divide="ignore"):
            rho_pos = np.where(
                suff["mass_pos"] > 0, suff["fires_pos"] / suff["mass_pos"], 0.5
            )
            rho_neg = np.where(
                suff["mass_neg"] > 0, suff["fires_neg"] / suff["mass_neg"], 0.5
            )
        rho = np.clip(np.stack([rho_neg, rho_pos], axis=1), _RHO_FLOOR, _RHO_CEIL)
        return acc, rho

    @staticmethod
    def _majority_posterior(stats: ColumnStats) -> np.ndarray:
        """Symmetrically-smoothed majority-vote posterior seeding EM.

        Read from the handle's exact-integer running vote tallies (O(n)).
        """
        pos = stats.row_value_counts(1).astype(float)
        neg = stats.row_value_counts(-1).astype(float)
        total = pos + neg
        q = np.full(stats.n_rows, 0.5)
        covered = total > 0
        q[covered] = (pos[covered] + 0.5) / (total[covered] + 1.0)
        return q

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def predict_proba(
        self, L: np.ndarray, stats: ColumnStats | None = None
    ) -> np.ndarray:
        """``P(y=+1 | L_i)`` per example.

        The kernel follows the handle: with ``stats`` (a matching handle,
        which also skips the dense re-validation scan) the posterior runs
        on the O(nnz) table-driven kernel; without one it runs on the dense
        matrix directly, which is cheaper than building a handle for a
        single pass.  The two agree to float tolerance, not bitwise.
        """
        if self.accuracies_ is None or self.propensities_ is None:
            raise RuntimeError("MetalLabelModel.predict_proba called before fit")
        L = self._validated_or_stats(L, stats)
        if L.shape[1] != len(self.accuracies_):
            raise ValueError(
                f"label matrix has {L.shape[1]} LFs but model was fitted with "
                f"{len(self.accuracies_)}"
            )
        if L.shape[1] == 0:
            return np.full(L.shape[0], self.prior_)
        if stats is not None:
            return self._posterior_stats(
                stats,
                self.accuracies_,
                self.propensities_,
                with_abstain=self.abstain_evidence,
            )
        return self._posterior_dense(
            L,
            self.accuracies_,
            self.propensities_,
            with_abstain=self.abstain_evidence,
        )

    def _posterior_dense(
        self,
        L: np.ndarray,
        acc: np.ndarray,
        rho: np.ndarray,
        with_abstain: bool = True,
    ) -> np.ndarray:
        """``P(y=+1 | L_i)`` under parameters ``(acc, rho, prior_)``.

        Log-odds decompose into a vote term (accuracy log-odds per vote), a
        fire-evidence term (propensity log-ratio of firing LFs), and — when
        ``with_abstain`` — an abstain-evidence term.  The E-step always uses
        the full model; inference drops the abstain term by default (see the
        class docstring).
        """
        Lf = L.astype(float)
        fires = (L != 0).astype(float)
        vote_weight = np.log(acc / (1 - acc))
        rho_neg = rho[:, 0]
        rho_pos = rho[:, 1]
        fire_evidence = np.log(rho_pos / rho_neg)
        scores = _logit(self.prior_) + Lf @ vote_weight + fires @ fire_evidence
        if with_abstain:
            abstain_evidence = np.log((1 - rho_pos) / (1 - rho_neg))
            scores = scores + (1 - fires) @ abstain_evidence
        return _sigmoid(scores)

    def _posterior_stats(
        self,
        stats: ColumnStats,
        acc: np.ndarray,
        rho: np.ndarray,
        with_abstain: bool = True,
    ) -> np.ndarray:
        """The O(nnz) twin of :meth:`_posterior_dense` (table-driven E-step).

        Votes take two non-abstain values, so each entry's log-odds
        contribution collapses into one of two per-column table rows built
        once per call: ``T₊ = vw + fe [− ae]`` for a +1 vote and
        ``T₋ = −vw + fe [− ae]`` for a −1 vote (``vw`` the accuracy
        log-odds, ``fe`` the fire-propensity log-ratio, ``ae`` the abstain
        evidence — rewritten as a base offset ``Σ_j ae_j`` minus per-fire
        corrections so the uncovered majority of rows is never touched).
        The tables are gathered through the flat entry arrays
        (:meth:`ColumnStats.entries`) and segment-summed into rows with
        ``np.bincount`` — one deterministic C pass over the nnz entries,
        replacing the per-column exp/log mat-vec passes.  When ``acc`` has
        fewer columns than the handle (warm seeding over the previous
        fit's prefix), the column-major entry arrays are prefix-sliced at
        ``indptr[m]``.
        """
        m = acc.shape[0]
        indptr, rows, cols, values = stats.entries()
        if m != stats.m:
            end = int(indptr[m])
            rows, cols, values = rows[:end], cols[:end], values[:end]
        vote_weight = np.log(acc / (1 - acc))
        rho_neg = rho[:, 0]
        rho_pos = rho[:, 1]
        fire_evidence = np.log(rho_pos / rho_neg)
        base = _logit(self.prior_)
        table_plus = vote_weight + fire_evidence
        table_minus = -vote_weight + fire_evidence
        if with_abstain:
            abstain_evidence = np.log((1 - rho_pos) / (1 - rho_neg))
            base = base + float(abstain_evidence.sum())
            table_plus = table_plus - abstain_evidence
            table_minus = table_minus - abstain_evidence
        contrib = np.where(values == 1, table_plus[cols], table_minus[cols])
        scores = base + np.bincount(rows, weights=contrib, minlength=stats.n_rows)
        return _sigmoid(scores)

    def _marginal_ll(self, L: np.ndarray) -> float:
        """Marginal log-likelihood under the fitted parameters (diagnostics)."""
        if self.accuracies_ is None or self.propensities_ is None:
            raise RuntimeError("model is not fitted")
        acc = self.accuracies_
        rho = self.propensities_
        fires = L != 0
        log_p = np.zeros((L.shape[0], 2))
        for c_idx, y in enumerate((-1, 1)):
            r = rho[:, c_idx]
            p_vote_correct = r * acc
            p_vote_wrong = r * (1 - acc)
            p_correct_vote = np.where(np.sign(y) == 1, L == 1, L == -1)
            p_wrong_vote = np.where(np.sign(y) == 1, L == -1, L == 1)
            log_p[:, c_idx] = (
                p_correct_vote @ np.log(p_vote_correct)
                + p_wrong_vote @ np.log(p_vote_wrong)
                + (~fires) @ np.log(1 - r)
            )
        log_p[:, 0] += np.log(1 - self.prior_)
        log_p[:, 1] += np.log(self.prior_)
        return float(np.logaddexp(log_p[:, 0], log_p[:, 1]).sum())
