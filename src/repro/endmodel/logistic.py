"""Soft-label logistic regression — the paper's fixed end model.

The end model is trained on the label model's probabilistic labels
(paper Sec. 2, stage 3): the loss is the expected cross-entropy under the
soft targets ``q_i = P(y_i = +1)``.  The optimizers, warm starts and
checkpointed state are the shared core's
(:class:`repro.endmodel.linear.SoftLabelLinearModel`).
"""

from __future__ import annotations

import numpy as np

from repro.endmodel.linear import SoftLabelLinearModel, _total


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


class SoftLabelLogisticRegression(SoftLabelLinearModel):
    """L2-regularized logistic regression with probabilistic targets.

    ``fit`` takes soft targets ``q_i = P(y_i = +1) ∈ [0, 1]`` or hard ±1
    labels (converted to {0, 1} targets); ``coef_`` is ``(d,)`` and
    ``intercept_`` a float, ``predict_proba`` returns ``P(y = +1 | x)``
    and ``predict`` hard ±1 labels.  Parameters: see
    :class:`~repro.endmodel.linear.SoftLabelLinearModel`.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0], [1.0], [2.0], [3.0]])
    >>> q = np.array([0.05, 0.1, 0.9, 0.95])
    >>> clf = SoftLabelLogisticRegression().fit(X, q)
    >>> bool(clf.predict(np.array([[3.0]]))[0] == 1)
    True
    """

    _n_outputs = 1
    intercept_: float = 0.0  # before any fit; part of the checkpoint payload

    def _canonical_targets(self, targets, n: int) -> np.ndarray:
        """Targets as ``q_i = P(y_i = +1) ∈ [0, 1]``; hard ±1 labels allowed."""
        q = np.asarray(targets, dtype=float).ravel()
        if len(q) != n:
            raise ValueError(f"got {len(q)} targets for {n} rows")
        if not np.isfinite(q).all():
            raise ValueError("soft labels must be finite")
        if q.size and q.min() < 0.0:  # negative targets only occur as hard ±1
            if not ((q == -1.0) | (q == 1.0)).all():
                raise ValueError("soft labels must lie in [0, 1] (or be ±1 hard labels)")
            q = (q + 1.0) / 2.0
        if np.any(q > 1):
            raise ValueError("soft labels must lie in [0, 1] (or be ±1 hard labels)")
        return q

    def _loss(self, scores, q, w):
        # Expected CE:  -q·log σ(s) - (1-q)·log σ(-s)
        #             = softplus(-s) + s·(1-q)   [softplus(s) = s + softplus(-s)]
        loss = _total(np.logaddexp(0.0, -scores) + scores * (1.0 - q))
        return loss + 0.5 * self.l2 * (w @ w)

    def _unpack(self, theta, d: int):
        return theta[:d], float(theta[d])

    _link = staticmethod(_sigmoid)

    def predict(self, X) -> np.ndarray:
        """Hard ±1 predictions."""
        return np.where(self.decision_function(X) >= 0.0, 1, -1).astype(int)
