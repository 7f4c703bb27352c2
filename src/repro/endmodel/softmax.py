"""Soft-label softmax (multinomial logistic) regression.

The K-class end model for :mod:`repro.multiclass`: trained on the label
model's ``(n, K)`` probabilistic labels by minimizing the expected
cross-entropy under the soft targets — the direct multinomial
generalization of :class:`repro.endmodel.logistic.SoftLabelLogisticRegression`
on the same shared core (:class:`repro.endmodel.linear.SoftLabelLinearModel`).
"""

from __future__ import annotations

import numpy as np

from repro.endmodel.linear import SoftLabelLinearModel, _total


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class SoftLabelSoftmaxRegression(SoftLabelLinearModel):
    """L2-regularized multinomial logistic regression with soft targets.

    ``fit`` takes soft targets ``Q[i, k] = P(y_i = k)`` (rows sum to 1) or
    a 1-D integer class vector (one-hot encoded); ``coef_`` is ``(d, K)``
    and ``intercept_`` ``(K,)``, ``predict_proba`` returns ``(n, K)``
    class probabilities and ``predict`` the argmax class.

    Parameters
    ----------
    n_classes:
        The number of classes ``K``.
    l2, warm_start:
        See :class:`~repro.endmodel.linear.SoftLabelLinearModel`.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0], [1.0], [4.0], [5.0]])
    >>> Q = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.05, 0.95]])
    >>> clf = SoftLabelSoftmaxRegression(n_classes=2).fit(X, Q)
    >>> int(clf.predict(np.array([[5.0]]))[0])
    1
    """

    intercept_: np.ndarray | None = None  # before any fit; part of the checkpoint payload

    def __init__(self, n_classes: int, l2: float = 1e-2, warm_start: bool = True) -> None:
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        super().__init__(l2=l2, warm_start=warm_start)
        self.n_classes = n_classes

    @property
    def _n_outputs(self) -> int:
        return self.n_classes

    def _canonical_targets(self, targets, n: int) -> np.ndarray:
        """Row-stochastic ``(n, K)`` targets; 1-D hard labels are one-hot encoded."""
        K = self.n_classes
        Q = np.asarray(targets, dtype=float)
        if Q.ndim == 1:
            if not np.all(np.isfinite(Q)) or np.any(Q != np.round(Q)):
                raise ValueError("hard labels must be finite integers")
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

    def _loss(self, scores, Q, W):
        # log-sum-exp per row for the expected cross-entropy
        shifted = scores - scores.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1)) + scores.max(axis=1)
        loss = float(_total(log_norm - (Q * scores).sum(axis=1)))
        return loss + 0.5 * self.l2 * float((W * W).sum())

    def _unpack(self, theta, d: int):
        K = self.n_classes
        return theta[: d * K].reshape(d, K), theta[d * K :]

    _link = staticmethod(_softmax)

    def predict(self, X) -> np.ndarray:
        """Hard class predictions (argmax)."""
        return np.argmax(self.decision_function(X), axis=1).astype(int)
