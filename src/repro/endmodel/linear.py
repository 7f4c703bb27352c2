"""The shared core of the soft-label linear end models.

Both end models (paper Sec. 2, stage 3) are linear scorers trained on the
label model's probabilistic labels by minimizing the expected
cross-entropy under the soft targets.  Their parameters pack into one
vector ``theta = [W.ravel(), b]`` — ``d·C`` weights and ``C`` intercepts,
with ``C = 1`` for the binary model and ``C = K`` for softmax — so one
optimizer core serves both:

* :meth:`SoftLabelLinearModel.fit` — L-BFGS on the analytic gradient,
  warm-started from the previous solution;
* :meth:`SoftLabelLinearModel.fit_minibatch` — a warm Adam continuation
  over the per-example mean of the same gradient, the cheap
  between-backstop refit of the incremental session (ENGINE.md §7).

A subclass supplies only what depends on the vote alphabet: target
canonicalization, the loss, the parameter layout (``_n_outputs`` and
``_unpack``), the link and the hard-label rule.  The gradient is shared
(:meth:`SoftLabelLinearModel._gradient`): with the canonical link, the
gradient of the expected cross-entropy in the scores is the residual
``link(scores) - targets``.

Everything that makes a minibatch pass non-deterministic is fitted state
of the model (``mb_m_``/``mb_v_``/``mb_t_`` Adam moments and step count,
``mb_rng_state_`` shuffle-stream state), so a checkpoint round trip
resumes the exact trajectory: the first ``fit_minibatch`` call adopts the
caller's seed stream, and every later call resumes from the stored
bit-generator state, ignoring the argument.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from repro.utils.rng import ensure_rng
from repro.utils.state import FittedStateMixin

#: L-BFGS history size (scipy's default is 10).  The objective dimension
#: is the TF-IDF vocabulary (roughly a thousand features), and backstop
#: refits restart from an anchor that is a full warm cycle stale — with
#: only 10 curvature pairs those fits crawl through ~100+ gradient evals,
#: while a deeper history converges in a fraction of that.  Memory cost
#: is 2·maxcor·d doubles, well under a megabyte at this scale.
LBFGS_HISTORY = 30

#: L-BFGS iteration cap of a full fit, and its gradient tolerance.
MAX_ITER = 200
TOL = 1e-6

#: Adam hyperparameters (the standard defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: Adam steps per ``fit_minibatch`` call: at small n (a single batch) the
#: pass repeats until the update count is useful, and at large n the pass
#: stops mid-epoch once the budget is spent — either way the per-call
#: cost is O(steps × batch), *flat* in the training size, which is what
#: keeps warm refit cost from scaling with n between backstops.
MIN_STEPS_PER_CALL = 16

#: Rows per Adam step, and the step size.
MINIBATCH_SIZE = 2048
MINIBATCH_LR = 0.05


def _as_csr(X) -> sp.csr_matrix:
    return sp.csr_matrix(X) if not sp.issparse(X) else X.tocsr()


def _total(row_losses: np.ndarray):
    """The summed per-row loss.

    A dot with ones rather than ``ndarray.sum``: the two round differently
    in the last bits, and L-BFGS's line search reads the loss value, so
    the summation order is part of every fitted coefficient.
    """
    return np.ones(len(row_losses)) @ row_losses


class SoftLabelLinearModel(FittedStateMixin):
    """L2-regularized linear model on soft targets (shared core).

    Parameters
    ----------
    l2:
        L2 penalty strength on the weights (applied to the summed loss;
        intercepts are unpenalized, as in scikit-learn's lbfgs solver).
    warm_start:
        Reuse the previous solution as the initial point on refit — the
        interactive loop changes the soft labels only a little per
        iteration, so this cuts fitting cost substantially.

    The Adam state of :meth:`fit_minibatch` is part of ``_FITTED_ATTRS``
    so a checkpointed session resumes the exact same minibatch
    trajectory.
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

    def __init__(self, l2: float = 1e-2, warm_start: bool = True) -> None:
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.l2 = l2
        self.warm_start = warm_start
        self.coef_: np.ndarray | None = None
        self.n_features_: int | None = None
        # Minibatch-continuation (Adam) state — see fit_minibatch.
        self.mb_m_: np.ndarray | None = None
        self.mb_v_: np.ndarray | None = None
        self.mb_t_: int = 0
        self.mb_rng_state_: dict | None = None

    # -- supplied by each subclass ---------------------------------------

    #: ``C``: the number of score columns.
    _n_outputs: int

    def _canonical_targets(self, targets, n: int) -> np.ndarray:
        raise NotImplementedError

    def _loss(self, scores: np.ndarray, targets: np.ndarray, coef: np.ndarray):
        """The summed expected cross-entropy plus the L2 penalty."""
        raise NotImplementedError

    def _unpack(self, theta: np.ndarray, d: int):
        """``(coef_, intercept_)`` in their fitted types from packed ``theta``."""
        raise NotImplementedError

    @staticmethod
    def _link(scores: np.ndarray) -> np.ndarray:
        """Scores to probabilities (what :meth:`predict_proba` returns)."""
        raise NotImplementedError

    # -- the shared core -------------------------------------------------

    def _theta(self) -> np.ndarray:
        """The fitted parameters packed as ``[coef_.ravel(), intercept_]``."""
        return np.concatenate([self.coef_.ravel(), np.atleast_1d(self.intercept_)])

    def _gradient(self, X, T: np.ndarray, theta: np.ndarray, d: int, scale: float, l2: float):
        """``(coef, scores, grad)`` at packed ``theta`` on CSR ``X``.

        The data term is scaled by ``scale``: 1 for :meth:`fit`'s summed
        loss (exact), ``1/batch`` for the mean of an Adam step.
        """
        coef, intercept = self._unpack(theta, d)
        scores = np.asarray(X @ coef) + intercept
        residual = self._link(scores) - T
        grad = np.concatenate(
            [
                np.asarray(X.T @ residual).ravel() * scale + l2 * coef.ravel(),
                np.atleast_1d(residual.sum(axis=0) * scale),
            ]
        )
        return coef, scores, grad

    def fit(self, X, targets: np.ndarray, max_iter: int | None = None):
        """Fit to soft targets by L-BFGS on the expected cross-entropy.

        ``max_iter`` optionally caps L-BFGS iterations for this call only
        (the incremental session passes a small cap on warm refits — the
        loss is strictly convex, so the capped solution stays on the path
        to the unique optimum that a later full refit reaches exactly).
        """
        X = _as_csr(X)
        n, d = X.shape
        T = self._canonical_targets(targets, n)
        if self.warm_start and self.coef_ is not None and self.n_features_ == d:
            theta0 = self._theta()
        else:
            theta0 = np.zeros((d + 1) * self._n_outputs)

        def objective(theta):
            coef, scores, grad = self._gradient(X, T, theta, d, 1.0, self.l2)
            return self._loss(scores, T, coef), grad

        maxiter = MAX_ITER if max_iter is None else max(1, min(MAX_ITER, max_iter))
        result = minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": maxiter, "gtol": TOL, "maxcor": LBFGS_HISTORY},
        )
        self.coef_, self.intercept_ = self._unpack(result.x, d)
        self.n_features_ = d
        self._reset_adam_moments()
        return self

    def fit_minibatch(self, X, targets: np.ndarray, rng=None):
        """Warm Adam continuation over the same expected-CE objective.

        Exactly :data:`MIN_STEPS_PER_CALL` shuffled Adam steps of
        :data:`MINIBATCH_SIZE` rows at step size :data:`MINIBATCH_LR`,
        starting from the current coefficients, drawing fresh permutations
        as needed and abandoning the rest of the final epoch.  Gradients
        are the per-example mean of the analytic gradient :meth:`fit` uses
        (L2 scaled by 1/n accordingly), so both optimizers descend the
        same loss surface.  Deterministic given the adopted RNG stream;
        falls back to a full :meth:`fit` when there is no compatible
        fitted state to continue from.  ``rng`` seeds the private shuffle
        stream on first use only (see :meth:`_resume_rng`).
        """
        X = _as_csr(X)
        n, d = X.shape
        T = self._canonical_targets(targets, n)
        if self.coef_ is None or self.n_features_ != d or n == 0:
            return self.fit(X, T)

        gen = self._resume_rng(rng)
        theta = self._theta()
        l2_scale = self.l2 / n
        step = 0
        while step < MIN_STEPS_PER_CALL:
            order = gen.permutation(n)
            for start in range(0, n, MINIBATCH_SIZE):
                if step == MIN_STEPS_PER_CALL:
                    break
                batch = order[start : start + MINIBATCH_SIZE]
                _, _, grad = self._gradient(
                    X[batch], T[batch], theta, d, 1.0 / len(batch), l2_scale
                )
                self._adam_step(theta, grad)
                step += 1
        self.coef_, self.intercept_ = self._unpack(theta, d)
        self.n_features_ = d
        self.mb_rng_state_ = gen.bit_generator.state
        return self

    def decision_function(self, X) -> np.ndarray:
        """Raw scores ``X·W + b``."""
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        return np.asarray(X @ self.coef_) + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities: the link of :meth:`decision_function`."""
        return self._link(self.decision_function(X))

    # -- Adam state ------------------------------------------------------

    def _resume_rng(self, rng) -> np.random.Generator:
        """The private shuffle generator, resumed from fitted state.

        On the first call the stream is *adopted* from ``rng`` (a seed, a
        ``Generator``, or ``None``) by copying its current bit-generator
        state — the caller's stream is never advanced, so an engine
        handing over a spawned child keeps its own draw sequence
        untouched.  Every later call resumes from ``mb_rng_state_``
        regardless of the argument, which is what makes restored
        checkpoints continue the identical shuffle sequence.
        """
        if self.mb_rng_state_ is None:
            self.mb_rng_state_ = ensure_rng(rng).bit_generator.state
        gen = np.random.default_rng()  # repro-lint: disable=seeded-rng -- scratch generator; its state is overwritten from mb_rng_state_ on the next line
        gen.bit_generator.state = self.mb_rng_state_
        return gen

    def _adam_step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """One in-place Adam update of ``theta``.

        The moment buffers are (re)initialized whenever their shape stops
        matching ``theta`` — a dimensionality change means a new feature
        space, where stale moments are meaningless.
        """
        if self.mb_m_ is None or self.mb_m_.shape != theta.shape:
            self.mb_m_ = np.zeros_like(theta)
            self.mb_v_ = np.zeros_like(theta)
            self.mb_t_ = 0
        self.mb_t_ += 1
        m, v = self.mb_m_, self.mb_v_
        m += (1.0 - ADAM_BETA1) * (grad - m)
        v += (1.0 - ADAM_BETA2) * (grad * grad - v)
        mhat = m / (1.0 - ADAM_BETA1**self.mb_t_)
        vhat = v / (1.0 - ADAM_BETA2**self.mb_t_)
        theta -= MINIBATCH_LR * mhat / (np.sqrt(vhat) + ADAM_EPS)

    def _reset_adam_moments(self) -> None:
        """Drop the moment estimates (a full fit moved the parameters far).

        The shuffle-stream state is deliberately kept: the minibatch RNG
        is a single session-long stream, not a per-fit one.
        """
        self.mb_m_ = None
        self.mb_v_ = None
        self.mb_t_ = 0
