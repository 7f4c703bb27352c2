"""Soft-label softmax (multinomial logistic) regression.

The K-class end model for :mod:`repro.multiclass`: trained on the label
model's ``(n, K)`` probabilistic labels by minimizing the expected
cross-entropy under the soft targets with L-BFGS on an analytic gradient —
the direct multinomial generalization of
:class:`repro.endmodel.logistic.SoftLabelLogisticRegression`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from repro.endmodel.logistic import LBFGS_HISTORY
from repro.endmodel.minibatch import (
    adam_step,
    reset_adam_moments,
    resolve_step_budget,
    resume_minibatch_rng,
)
from repro.utils.state import FittedStateMixin


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _canonical_targets(soft_labels, n: int, K: int) -> np.ndarray:
    """Row-stochastic ``(n, K)`` targets; 1-D hard labels are one-hot encoded."""
    Q = np.asarray(soft_labels, dtype=float)
    if Q.ndim == 1:
        y = Q.astype(int)
        if np.any(y < 0) or np.any(y >= K):
            raise ValueError(f"hard labels must lie in [0, {K}), got values outside")
        Q = np.zeros((n, K))
        Q[np.arange(n), y] = 1.0
    if Q.shape != (n, K):
        raise ValueError(f"soft labels must have shape ({n}, {K}), got {Q.shape}")
    if np.any(Q < -1e-9) or not np.allclose(Q.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("soft labels must be row-stochastic")
    return Q


def _canonical_weights(sample_weight, n: int) -> np.ndarray:
    if sample_weight is None:
        return np.ones(n)
    weight = np.asarray(sample_weight, dtype=float).ravel()
    if len(weight) != n:
        raise ValueError(f"got {len(weight)} sample weights for {n} rows")
    if np.any(weight < 0):
        raise ValueError("sample weights must be non-negative")
    return weight


class SoftLabelSoftmaxRegression(FittedStateMixin):
    """L2-regularized multinomial logistic regression with soft targets.

    Parameters
    ----------
    n_classes:
        The number of classes ``K``.
    l2:
        L2 penalty strength on the weights (intercepts are unpenalized,
        matching the binary end model's default).
    max_iter / tol:
        L-BFGS iteration cap and gradient tolerance.
    warm_start:
        Reuse the previous solution as the initial point on refit — the
        interactive loop changes the soft labels only a little per
        iteration.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0], [1.0], [4.0], [5.0]])
    >>> Q = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.05, 0.95]])
    >>> clf = SoftLabelSoftmaxRegression(n_classes=2).fit(X, Q)
    >>> int(clf.predict(np.array([[5.0]]))[0])
    1

    Besides the full L-BFGS :meth:`fit`, the model offers
    :meth:`fit_minibatch` — a warm Adam continuation over the same
    analytic gradient, used by the incremental session between cold
    backstops (ENGINE.md §7).  Its optimizer state is part of
    ``_FITTED_ATTRS`` so a checkpointed session resumes the exact same
    minibatch trajectory.
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
        n_classes: int,
        l2: float = 1e-2,
        max_iter: int = 200,
        tol: float = 1e-6,
        warm_start: bool = True,
    ) -> None:
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.n_classes = n_classes
        self.l2 = l2
        self.max_iter = max_iter
        self.tol = tol
        self.warm_start = warm_start
        self.coef_: np.ndarray | None = None  # (d, K)
        self.intercept_: np.ndarray | None = None  # (K,)
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
    ) -> "SoftLabelSoftmaxRegression":
        """Fit to soft targets ``Q[i, k] = P(y_i = k)`` (rows sum to 1).

        A 1-D integer class vector may be passed as well; it is one-hot
        encoded.  ``max_iter`` optionally caps L-BFGS iterations for this
        call only (used by the incremental session on warm refits; see the
        binary end model).
        """
        X = sp.csr_matrix(X) if not sp.issparse(X) else X.tocsr()
        n, d = X.shape
        K = self.n_classes
        Q = _canonical_targets(soft_labels, n, K)
        weight = _canonical_weights(sample_weight, n)

        theta0 = np.zeros((d + 1) * K)
        if self.warm_start and self.coef_ is not None and self.n_features_ == d:
            theta0[: d * K] = self.coef_.ravel()
            theta0[d * K :] = self.intercept_

        def objective(theta):
            W = theta[: d * K].reshape(d, K)
            b = theta[d * K :]
            scores = np.asarray(X @ W) + b[None, :]
            # log-sum-exp per row for the expected cross-entropy
            shifted = scores - scores.max(axis=1, keepdims=True)
            log_norm = np.log(np.exp(shifted).sum(axis=1)) + scores.max(axis=1)
            loss = float(weight @ (log_norm - (Q * scores).sum(axis=1)))
            loss += 0.5 * self.l2 * float((W * W).sum())
            P = _softmax(scores)
            residual = weight[:, None] * (P - Q)  # (n, K)
            grad_W = np.asarray(X.T @ residual) + self.l2 * W
            grad_b = residual.sum(axis=0)
            return loss, np.concatenate([grad_W.ravel(), grad_b])

        maxiter = self.max_iter if max_iter is None else max(1, min(self.max_iter, max_iter))
        result = minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": maxiter, "gtol": self.tol, "maxcor": LBFGS_HISTORY},
        )
        self.coef_ = result.x[: d * K].reshape(d, K)
        self.intercept_ = result.x[d * K :]
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
    ) -> "SoftLabelSoftmaxRegression":
        """Warm Adam continuation over the same expected-CE objective.

        The K-class mirror of the binary end model's
        :meth:`~repro.endmodel.logistic.SoftLabelLogisticRegression.fit_minibatch`:
        shuffled minibatch Adam from the current coefficients over the
        per-example mean of :meth:`fit`'s analytic gradient (L2 scaled by
        1/n), with ``epochs=None`` running the same flat
        ``MIN_STEPS_PER_CALL`` step budget as the binary model
        (:func:`repro.endmodel.minibatch.resolve_step_budget`).
        Deterministic given the adopted RNG stream; falls back to a full
        :meth:`fit` when there is no compatible fitted state.
        """
        X = sp.csr_matrix(X) if not sp.issparse(X) else X.tocsr()
        n, d = X.shape
        n_steps = resolve_step_budget(epochs, n, batch_size, lr)
        K = self.n_classes
        Q = _canonical_targets(soft_labels, n, K)
        weight = _canonical_weights(sample_weight, n)
        if self.coef_ is None or self.n_features_ != d or n == 0:
            return self.fit(X, Q, sample_weight=sample_weight)

        gen = resume_minibatch_rng(self, rng)
        theta = np.concatenate([self.coef_.ravel(), self.intercept_])
        l2_scale = self.l2 / n
        grad = np.empty((d + 1) * K)
        step = 0
        while step < n_steps:
            order = gen.permutation(n)
            for start in range(0, n, batch_size):
                if step == n_steps:
                    break
                batch = order[start : start + batch_size]
                Xb = X[batch]
                W = theta[: d * K].reshape(d, K)
                scores = np.asarray(Xb @ W) + theta[d * K :][None, :]
                residual = weight[batch, None] * (_softmax(scores) - Q[batch])
                inv_b = 1.0 / len(batch)
                grad[: d * K] = (
                    np.asarray(Xb.T @ residual).ravel() * inv_b + l2_scale * theta[: d * K]
                )
                grad[d * K :] = residual.sum(axis=0) * inv_b
                adam_step(self, theta, grad, lr)
                step += 1
        self.coef_ = theta[: d * K].reshape(d, K).copy()
        self.intercept_ = theta[d * K :].copy()
        self.n_features_ = d
        self.mb_rng_state_ = gen.bit_generator.state
        return self

    def decision_function(self, X) -> np.ndarray:
        """Raw class scores ``X·W + b``, shape ``(n, K)``."""
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        return np.asarray(X @ self.coef_) + self.intercept_[None, :]

    def predict_proba(self, X) -> np.ndarray:
        """``(n, K)`` class probabilities."""
        return _softmax(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        """Hard class predictions (argmax)."""
        return np.argmax(self.decision_function(X), axis=1).astype(int)

    def clone_unfitted(self) -> "SoftLabelSoftmaxRegression":
        """A fresh estimator with the same hyperparameters."""
        return SoftLabelSoftmaxRegression(
            n_classes=self.n_classes,
            l2=self.l2,
            max_iter=self.max_iter,
            tol=self.tol,
            warm_start=self.warm_start,
        )
