"""Soft-label logistic regression — the paper's fixed end model.

The end model is trained on the label model's probabilistic labels
(paper Sec. 2, stage 3): the loss is the expected cross-entropy under the
soft targets, minimized with L-BFGS on an analytic gradient.  Supports
warm starts so the interactive loop can refit cheaply every iteration.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from repro.endmodel.minibatch import (
    adam_step,
    reset_adam_moments,
    resolve_step_budget,
    resume_minibatch_rng,
)
from repro.utils.state import FittedStateMixin


#: L-BFGS history size (scipy's default is 10).  The objective dimension
#: is the TF-IDF vocabulary (roughly a thousand features), and backstop
#: refits restart from an anchor that is a full warm cycle stale — with
#: only 10 curvature pairs those fits crawl through ~100+ gradient evals,
#: while a deeper history converges in a fraction of that.  Memory cost
#: is 2·maxcor·d doubles, well under a megabyte at this scale.
LBFGS_HISTORY = 30


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _canonical_targets(soft_labels, n: int) -> np.ndarray:
    """Targets as ``q_i = P(y_i = +1) ∈ [0, 1]``; hard ±1 labels allowed."""
    q = np.asarray(soft_labels, dtype=float).ravel()
    if len(q) != n:
        raise ValueError(f"got {len(q)} targets for {n} rows")
    if q.size and q.min() < 0.0:  # negative targets only occur as hard ±1
        if not ((q == -1.0) | (q == 1.0)).all():
            raise ValueError("soft labels must lie in [0, 1] (or be ±1 hard labels)")
        q = (q + 1.0) / 2.0
    if np.any(q > 1):
        raise ValueError("soft labels must lie in [0, 1] (or be ±1 hard labels)")
    return q


def _canonical_weights(sample_weight, n: int) -> np.ndarray:
    if sample_weight is None:
        return np.ones(n)
    weight = np.asarray(sample_weight, dtype=float).ravel()
    if len(weight) != n:
        raise ValueError(f"got {len(weight)} sample weights for {n} rows")
    if np.any(weight < 0):
        raise ValueError("sample weights must be non-negative")
    return weight


class SoftLabelLogisticRegression(FittedStateMixin):
    """L2-regularized logistic regression with probabilistic targets.

    Parameters
    ----------
    l2:
        L2 penalty strength on the weights (applied to the summed loss).
    penalize_intercept:
        Optionally include the intercept in the L2 penalty
        (liblinear-style).  Off by default, matching scikit-learn's lbfgs
        solver; enabling it tames the intercept blow-up that occurs when
        fitting one-sided soft labels (every LF voting the same class),
        at the cost of a bias on imbalanced data.
    max_iter:
        L-BFGS iteration cap.
    tol:
        L-BFGS convergence tolerance.
    warm_start:
        Reuse the previous solution as the initial point on refit — the
        interactive loop changes the soft labels only a little per
        iteration, so this cuts fitting cost substantially.

    Besides the full L-BFGS :meth:`fit`, the model offers
    :meth:`fit_minibatch` — a warm Adam continuation over the same
    analytic gradient, used by the incremental session between cold
    backstops (ENGINE.md §7).  Its optimizer state (first/second moments,
    step count, shuffle-RNG state) is part of ``_FITTED_ATTRS`` so a
    checkpointed session resumes the exact same minibatch trajectory.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0], [1.0], [2.0], [3.0]])
    >>> q = np.array([0.05, 0.1, 0.9, 0.95])
    >>> clf = SoftLabelLogisticRegression().fit(X, q)
    >>> bool(clf.predict(np.array([[3.0]]))[0] == 1)
    True
    """

    _FITTED_ATTRS = (
        "coef_",
        "intercept_",
        "n_features_",
        "mb_m_",
        "mb_v_",
        "mb_t_",
        "mb_rng_state_",
    )

    def __init__(
        self,
        l2: float = 1e-2,
        penalize_intercept: bool = False,
        max_iter: int = 200,
        tol: float = 1e-6,
        warm_start: bool = True,
    ) -> None:
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.l2 = l2
        self.penalize_intercept = penalize_intercept
        self.max_iter = max_iter
        self.tol = tol
        self.warm_start = warm_start
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_features_: int | None = None
        # Minibatch-continuation (Adam) state — see fit_minibatch.
        self.mb_m_: np.ndarray | None = None
        self.mb_v_: np.ndarray | None = None
        self.mb_t_: int = 0
        self.mb_rng_state_: dict | None = None

    def fit(
        self,
        X,
        soft_labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
        max_iter: int | None = None,
    ) -> "SoftLabelLogisticRegression":
        """Fit to soft targets ``q_i = P(y_i = +1) ∈ [0, 1]``.

        Hard ±1 labels may be passed as well; they are converted to
        {0, 1} targets.  ``max_iter`` optionally caps L-BFGS iterations
        for this call only (the incremental session passes a small cap on
        warm refits — the loss is strictly convex, so the capped solution
        stays on the path to the unique optimum that a later full refit
        reaches exactly).
        """
        X = sp.csr_matrix(X) if not sp.issparse(X) else X.tocsr()
        n, d = X.shape
        q = _canonical_targets(soft_labels, n)
        weight = _canonical_weights(sample_weight, n)

        theta0 = np.zeros(d + 1)
        if self.warm_start and self.coef_ is not None and self.n_features_ == d:
            theta0[:d] = self.coef_
            theta0[d] = self.intercept_

        def objective(theta):
            w, b = theta[:d], theta[d]
            scores = np.asarray(X @ w).ravel() + b
            # Expected CE:  -q·log σ(s) - (1-q)·log σ(-s)
            #             = softplus(-s) + s·(1-q)   [softplus(s) = s + softplus(-s)]
            loss = weight @ (np.logaddexp(0.0, -scores) + scores * (1.0 - q))
            loss += 0.5 * self.l2 * (w @ w)
            residual = weight * (_sigmoid(scores) - q)
            grad_w = np.asarray(X.T @ residual).ravel() + self.l2 * w
            grad_b = residual.sum()
            if self.penalize_intercept:
                loss += 0.5 * self.l2 * b * b
                grad_b += self.l2 * b
            return loss, np.concatenate([grad_w, [grad_b]])

        maxiter = self.max_iter if max_iter is None else max(1, min(self.max_iter, max_iter))
        result = minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": maxiter, "gtol": self.tol, "maxcor": LBFGS_HISTORY},
        )
        self.coef_ = result.x[:d]
        self.intercept_ = float(result.x[d])
        self.n_features_ = d
        reset_adam_moments(self)
        return self

    def fit_minibatch(
        self,
        X,
        soft_labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
        epochs: int | None = None,
        batch_size: int = 2048,
        lr: float = 0.05,
        rng=None,
    ) -> "SoftLabelLogisticRegression":
        """Warm Adam continuation over the same expected-CE objective.

        A fixed budget of shuffled minibatch Adam steps starting from the
        current coefficients — the cheap between-backstop refit for the
        incremental session (ENGINE.md §7).  Gradients are the per-example
        mean of the analytic gradient :meth:`fit` uses (L2 scaled by 1/n
        accordingly), so both optimizers descend the same loss surface.
        ``epochs=None`` runs exactly ``MIN_STEPS_PER_CALL`` Adam steps —
        per-call cost flat in ``n`` — while an explicit ``epochs`` runs
        that many whole passes
        (:func:`repro.endmodel.minibatch.resolve_step_budget`).
        Deterministic given the adopted RNG stream; falls back to a full
        :meth:`fit` when there is no compatible fitted state to continue
        from.  ``rng`` seeds the private shuffle stream on first use only
        (see :func:`repro.endmodel.minibatch.resume_minibatch_rng`).
        """
        X = sp.csr_matrix(X) if not sp.issparse(X) else X.tocsr()
        n, d = X.shape
        n_steps = resolve_step_budget(epochs, n, batch_size, lr)
        q = _canonical_targets(soft_labels, n)
        weight = _canonical_weights(sample_weight, n)
        if self.coef_ is None or self.n_features_ != d or n == 0:
            return self.fit(X, q, sample_weight=sample_weight)

        gen = resume_minibatch_rng(self, rng)
        theta = np.concatenate([self.coef_, [self.intercept_]])
        l2_scale = self.l2 / n
        grad = np.empty(d + 1)
        step = 0
        while step < n_steps:
            order = gen.permutation(n)
            for start in range(0, n, batch_size):
                if step == n_steps:
                    break
                batch = order[start : start + batch_size]
                Xb = X[batch]
                scores = np.asarray(Xb @ theta[:d]).ravel() + theta[d]
                residual = weight[batch] * (_sigmoid(scores) - q[batch])
                inv_b = 1.0 / len(batch)
                grad[:d] = np.asarray(Xb.T @ residual).ravel() * inv_b + l2_scale * theta[:d]
                grad[d] = residual.sum() * inv_b
                if self.penalize_intercept:
                    grad[d] += l2_scale * theta[d]
                adam_step(self, theta, grad, lr)
                step += 1
        self.coef_ = theta[:d].copy()
        self.intercept_ = float(theta[d])
        self.n_features_ = d
        self.mb_rng_state_ = gen.bit_generator.state
        return self

    def decision_function(self, X) -> np.ndarray:
        """Raw scores ``w·x + b``."""
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        return np.asarray(X @ self.coef_).ravel() + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """``P(y = +1 | x)``."""
        return _sigmoid(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        """Hard ±1 predictions."""
        return np.where(self.decision_function(X) >= 0.0, 1, -1).astype(int)

    def clone_unfitted(self) -> "SoftLabelLogisticRegression":
        """A fresh estimator with the same hyperparameters."""
        return SoftLabelLogisticRegression(
            l2=self.l2,
            penalize_intercept=self.penalize_intercept,
            max_iter=self.max_iter,
            tol=self.tol,
            warm_start=self.warm_start,
        )
