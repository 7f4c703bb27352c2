"""The warm end-model contract (ENGINE.md §7): minibatch vs capped L-BFGS.

Warm (between-backstop) end-model refits run the end model's
``fit_minibatch`` Adam continuation when it has one, and the capped warm
L-BFGS fit when it does not.  Two sessions — one with the stock end
model, one whose end model hides ``fit_minibatch`` — are stepped in
lockstep with a selector that never reads model state, so their LF
trajectories, votes, and label models coincide by construction.  The
contract under test: warm refits may diverge between the two, but at
every full backstop the label/end state must be bit-identical — the
backstop anchor makes each uncapped L-BFGS fit a pure function of the
backstop inputs, independent of the warm optimizer used to get there.
"""

import numpy as np
import pytest

from repro.core.session import DataProgrammingSession
from repro.endmodel.logistic import SoftLabelLogisticRegression
from repro.endmodel.softmax import SoftLabelSoftmaxRegression
from repro.interactive.basic_selectors import RandomSelector
from repro.interactive.simulated_user import SimulatedUser
from repro.multiclass import make_topics_dataset
from repro.multiclass.selection import MCRandomSelector
from repro.multiclass.session import MultiClassSession
from repro.multiclass.simulated_user import MCSimulatedUser
from repro.obs import EngineObserver


def hide_minibatch(cls):
    """``cls`` with ``fit_minibatch`` hidden from ``hasattr``.

    The engine then routes warm end-model refits to the capped L-BFGS
    fallback, exactly as for an end model that never had the method.
    """

    class NoMinibatch(cls):
        def __getattribute__(self, name):
            if name == "fit_minibatch":
                raise AttributeError(name)
            return super().__getattribute__(name)

    NoMinibatch.__name__ = f"NoMinibatch{cls.__name__}"
    return NoMinibatch


NoMinibatchLogistic = hide_minibatch(SoftLabelLogisticRegression)
NoMinibatchSoftmax = hide_minibatch(SoftLabelSoftmaxRegression)

N_ITERATIONS = 22
FULL_REFIT_EVERY = 5


@pytest.fixture(scope="module")
def paired_modes(tiny_dataset):
    """Step a minibatch and an L-BFGS-fallback session in lockstep."""
    ds = tiny_dataset

    def make(end_model) -> DataProgrammingSession:
        return DataProgrammingSession(
            ds,
            RandomSelector(),
            SimulatedUser(ds, seed=123),
            end_model=end_model,
            warm_min_train=0,  # exercise the warm path despite the small dataset
            full_refit_every=FULL_REFIT_EVERY,
            seed=42,
        )

    mb, lb = make(SoftLabelLogisticRegression()), make(NoMinibatchLogistic())
    mb.observer, lb.observer = EngineObserver(), EngineObserver()
    records = []
    for _ in range(N_ITERATIONS):
        mb.step()
        lb.step()
        records.append(
            {
                "backstop_mb": mb._end_uncapped_,
                "backstop_lb": lb._end_uncapped_,
                "soft_mb": mb.soft_labels.copy(),
                "soft_lb": lb.soft_labels.copy(),
                "coef_mb": None if mb.end_model.coef_ is None else mb.end_model.coef_.copy(),
                "coef_lb": None if lb.end_model.coef_ is None else lb.end_model.coef_.copy(),
                "intercept_mb": mb.end_model.intercept_,
                "intercept_lb": lb.end_model.intercept_,
            }
        )
    return mb, lb, records


class TestBackstopBitIdentity:
    def test_cadences_coincide(self, paired_modes):
        _, _, records = paired_modes
        for i, rec in enumerate(records):
            assert rec["backstop_mb"] == rec["backstop_lb"], f"cadence diverged at iter {i}"

    def test_minibatch_path_actually_ran(self, paired_modes):
        mb, lb, records = paired_modes
        assert mb.end_model.mb_t_ > 0, "no minibatch refit happened — the test is vacuous"
        assert lb.end_model.mb_t_ == 0, "the L-BFGS fallback must never take Adam steps"
        assert any(not r["backstop_mb"] for r in records), "expected warm refits"
        mb_fits = mb.observer.totals()["end_fits"]
        lb_fits = lb.observer.totals()["end_fits"]
        assert mb_fits.get("minibatch", 0) > 0
        assert lb_fits.get("warm_capped", 0) > 0
        assert "minibatch" not in lb_fits

    def test_backstop_state_bit_identical(self, paired_modes):
        _, _, records = paired_modes
        backstops = [r for r in records if r["backstop_mb"]]
        assert len(backstops) >= 3, "expected multiple full backstops"
        for rec in backstops:
            np.testing.assert_array_equal(rec["soft_mb"], rec["soft_lb"])
            np.testing.assert_array_equal(rec["coef_mb"], rec["coef_lb"])
            assert rec["intercept_mb"] == rec["intercept_lb"]

    def test_warm_refits_do_diverge(self, paired_modes):
        # The sessions run genuinely different optimizers between
        # backstops; if every warm refit coincided bitwise, the minibatch
        # path would not actually be exercised (or the fallback is broken).
        _, _, records = paired_modes
        warm = [r for r in records if not r["backstop_mb"] and r["coef_mb"] is not None]
        assert any(not np.array_equal(r["coef_mb"], r["coef_lb"]) for r in warm)

    def test_covered_buffer_serves_minibatch_refits(self, paired_modes):
        mb, lb, _ = paired_modes
        buf = mb._covered_buf
        assert buf is not None, "minibatch refits should have built the covered buffer"
        assert buf.size > 0
        X = mb.dataset.train.X
        np.testing.assert_array_equal(
            np.asarray(buf.matrix().todense()), np.asarray(X[buf.rows].todense())
        )
        assert lb._covered_buf is None, "the L-BFGS fallback never touches the buffer"


class TestMulticlassBackstopBitIdentity:
    def test_backstop_state_bit_identical(self):
        ds = make_topics_dataset(n_docs=500, seed=0, vocab_scale=6)

        def make(end_model) -> MultiClassSession:
            return MultiClassSession(
                ds,
                MCRandomSelector(),
                MCSimulatedUser(ds, seed=123),
                end_model=end_model,
                warm_min_train=0,
                full_refit_every=FULL_REFIT_EVERY,
                seed=42,
            )

        K = ds.n_classes
        mb = make(SoftLabelSoftmaxRegression(n_classes=K))
        lb = make(NoMinibatchSoftmax(n_classes=K))
        n_backstops = 0
        for _ in range(N_ITERATIONS):
            mb.step()
            lb.step()
            assert mb._end_uncapped_ == lb._end_uncapped_
            if mb._end_uncapped_ and mb.end_model.coef_ is not None:
                n_backstops += 1
                np.testing.assert_array_equal(mb.soft_labels, lb.soft_labels)
                np.testing.assert_array_equal(mb.end_model.coef_, lb.end_model.coef_)
                np.testing.assert_array_equal(mb.end_model.intercept_, lb.end_model.intercept_)
        assert n_backstops >= 3
        assert mb.end_model.mb_t_ > 0, "the softmax minibatch path never ran"
        assert lb.end_model.mb_t_ == 0


class TestWarmEndRouting:
    def test_exact_configurations_never_anchor_or_buffer(self, tiny_dataset):
        # warm_min_train above the split size keeps every refit a full
        # backstop — the historical exact path, which must stay untouched.
        session = DataProgrammingSession(
            tiny_dataset,
            RandomSelector(),
            SimulatedUser(tiny_dataset, seed=3),
            warm_min_train=10**6,
            seed=5,
        ).run(8)
        assert session._covered_buf is None
        assert session._end_anchor_ is None
        assert session.end_model.mb_t_ == 0
