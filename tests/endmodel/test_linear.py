"""Tests for the shared core of both soft-label end models.

Every test runs on the binary logistic model and on the softmax model:
the fitting, validation and Adam-continuation code they exercise is one
implementation (:mod:`repro.endmodel.linear`).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.endmodel.linear import MIN_STEPS_PER_CALL
from repro.endmodel.logistic import SoftLabelLogisticRegression
from repro.endmodel.softmax import SoftLabelSoftmaxRegression


def binary_problem(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    y = np.where(X[:, 0] - X[:, 1] > 0, 1, -1)
    return SoftLabelLogisticRegression(), X, (y + 1) / 2, y


def softmax_problem(n=240, seed=0):
    """Three Gaussian blobs in 2-D, one per class."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 4.0], [4.0, -2.0], [-4.0, -2.0]])
    y = rng.integers(3, size=n)
    X = centers[y] + 0.6 * rng.standard_normal((n, 2))
    Q = np.full((n, 3), 0.05)
    Q[np.arange(n), y] = 0.9
    return SoftLabelSoftmaxRegression(n_classes=3), X, Q, y


PROBLEMS = pytest.mark.parametrize(
    "problem", [binary_problem, softmax_problem], ids=["logistic", "softmax"]
)


def assert_same_state(a, b):
    """Fitted states equal to the byte, values and types alike."""
    sa, sb = a.state_dict(), b.state_dict()
    assert sa["class"] == sb["class"]
    for name, va in sa["attrs"].items():
        vb = sb["attrs"][name]
        assert type(va) is type(vb), name
        if isinstance(va, np.ndarray):
            assert va.shape == vb.shape and va.tobytes() == vb.tobytes(), name
        else:
            assert va == vb, name


class TestFit:
    @PROBLEMS
    def test_sparse_input(self, problem):
        model, X, targets, y = problem()
        model.fit(sp.csr_matrix(X), targets)
        assert (model.predict(sp.csr_matrix(X)) == y).mean() > 0.95

    @PROBLEMS
    def test_rejects_length_mismatch(self, problem):
        model, X, targets, _ = problem()
        with pytest.raises(ValueError):
            model.fit(X, targets[:1])

    @PROBLEMS
    def test_rejects_non_finite_targets(self, problem):
        model, X, targets, _ = problem()
        targets = targets.copy()
        targets[1] = np.nan
        with pytest.raises(ValueError, match="soft labels"):
            model.fit(X, targets)

    @PROBLEMS
    def test_predict_before_fit_raises(self, problem):
        model, X, _, _ = problem()
        with pytest.raises(RuntimeError, match="not fitted"):
            model.predict(X)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SoftLabelLogisticRegression(l2=-1.0),
            lambda: SoftLabelSoftmaxRegression(n_classes=2, l2=-1.0),
        ],
        ids=["logistic", "softmax"],
    )
    def test_rejects_negative_l2(self, make):
        with pytest.raises(ValueError, match="l2"):
            make()


class TestFitMinibatch:
    @PROBLEMS
    def test_unfitted_model_falls_back_to_full_fit(self, problem):
        model, X, targets, _ = problem()
        reference, _, _, _ = problem()
        model.fit_minibatch(X, targets, rng=0)
        reference.fit(X, targets)
        assert_same_state(model, reference)
        assert model.mb_t_ == 0 and model.mb_rng_state_ is None

    @PROBLEMS
    def test_one_call_runs_the_fixed_step_budget(self, problem):
        model, X, targets, _ = problem(n=5000)
        model.fit(X, targets)
        model.fit_minibatch(X, targets, rng=0)
        assert model.mb_t_ == MIN_STEPS_PER_CALL
        model.fit_minibatch(X, targets)
        assert model.mb_t_ == 2 * MIN_STEPS_PER_CALL

    @PROBLEMS
    def test_fit_resets_moments_but_keeps_the_shuffle_stream(self, problem):
        model, X, targets, _ = problem()
        model.fit(X, targets)
        model.fit_minibatch(X, targets, rng=0)
        stream = model.mb_rng_state_
        model.fit(X, targets)
        assert model.mb_m_ is None and model.mb_v_ is None and model.mb_t_ == 0
        assert model.mb_rng_state_ == stream

    @PROBLEMS
    def test_adopting_rng_leaves_the_callers_generator_alone(self, problem):
        model, X, targets, _ = problem()
        seeded, _, _, _ = problem()
        gen = np.random.default_rng(7)
        before = gen.bit_generator.state
        for m, rng in ((model, gen), (seeded, 7)):
            m.fit(X, targets)
            m.fit_minibatch(X, targets, rng=rng)
        assert gen.bit_generator.state == before
        # the adopted stream starts where the caller's generator stood
        assert_same_state(model, seeded)

    @PROBLEMS
    def test_state_dict_round_trip_continues_identically(self, problem):
        model, X, targets, _ = problem(n=5000)
        model.fit(X, targets)
        model.fit_minibatch(X, targets, rng=3)
        model.fit_minibatch(X, targets)
        snapshot = model.state_dict()
        restored, _, _, _ = problem()
        restored.load_state_dict(snapshot)
        for m in (model, restored):
            m.fit_minibatch(X, targets[::-1], rng=99)  # rng ignored once adopted
            m.fit_minibatch(X, targets)
        assert_same_state(restored, model)
