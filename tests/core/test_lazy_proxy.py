"""Tests for on-demand (lazy) proxy prediction (ENGINE.md §4).

On warm refits the session defers the end-model proxy refresh to the
first selector read (``SessionState.resolve_proxy``).  The end model does
not change between the refit and the read, so the resolved proxy must
equal a fresh ``end_model.predict_proba(train X)`` after every step —
the test-side reference these tests hold the deferral to.  Selectors that
never read the proxy skip end-model prediction entirely between cold
refits, and cold refits always refresh eagerly.
"""

import numpy as np

from repro.core.selection import SessionState
from repro.core.session import DataProgrammingSession
from repro.core.seu import SEUSelector
from repro.endmodel.logistic import SoftLabelLogisticRegression
from repro.interactive.basic_selectors import RandomSelector
from repro.interactive.simulated_user import SimulatedUser


def make_session(ds, *, selector=None, **kwargs):
    return DataProgrammingSession(
        ds,
        selector or RandomSelector(),
        SimulatedUser(ds, seed=123),
        seed=42,
        **kwargs,
    )


def step_against_reference(session, n_steps):
    """Step ``session``, checking the resolved proxy after every step.

    The reference is an eager refresh: the current end model's prediction
    on the train split (and its ±1 threshold).  Returns how many steps
    ended with the refresh deferred.
    """
    deferred = 0
    X = session.dataset.train.X
    for _ in range(n_steps):
        session.step()
        if not session._end_model_fitted:
            continue
        deferred += session._proxy_stale
        resolved = session._resolve_proxy()
        np.testing.assert_array_equal(resolved, session.end_model.predict_proba(X))
        np.testing.assert_array_equal(session.proxy_labels, np.where(resolved >= 0.5, 1, -1))
    return deferred


class CountingEndModel(SoftLabelLogisticRegression):
    """The stock logistic end model, counting its ``predict_proba`` calls."""

    def __init__(self):
        super().__init__()
        self.predict_calls = 0

    def predict_proba(self, X):
        self.predict_calls += 1
        return super().predict_proba(X)


class TestLazyProxy:
    def test_cold_sessions_refresh_eagerly(self, tiny_dataset):
        # Default warm_min_train keeps the tiny dataset fully cold: no
        # refit may defer, so the proxy is current after every step.
        session = make_session(tiny_dataset)
        assert step_against_reference(session, 10) == 0
        assert session.refit_counts["warm"] == 0

    def test_warm_cadence_resolves_to_the_eager_reference(self, tiny_dataset):
        # On the warm cadence with a proxy-reading selector, every
        # deferred refresh must resolve to exactly the eager values.
        session = make_session(
            tiny_dataset,
            selector=SEUSelector(warmup=0),
            warm_min_train=0,
            warm_after=2,
        )
        assert step_against_reference(session, 12) > 0

    def test_warm_refits_defer_and_resolve_on_read(self, tiny_dataset):
        session = make_session(tiny_dataset, warm_min_train=0, warm_after=2)
        # Drive step() directly (run() resolves any deferred refresh on
        # exit) so the mid-session deferral is observable.
        for _ in range(12):
            session.step()
        assert len(session.lfs) > 2
        # step() ends with a refit; on the warm cadence the refresh of the
        # final refit is still deferred.
        assert session._proxy_stale != session._cold_warranted_
        state = session.build_state()
        resolved = state.resolve_proxy()
        assert not session._proxy_stale
        assert resolved is session.proxy_proba
        assert state.proxy_proba is resolved
        # Bit-identical to what an eager refresh would have produced.
        np.testing.assert_array_equal(
            resolved, session.end_model.predict_proba(session.dataset.train.X)
        )
        np.testing.assert_array_equal(
            session.proxy_labels, np.where(resolved >= 0.5, 1, -1)
        )
        # Memoized in the refit-scoped cache.
        assert state.cache.get("proxy_resolved") is resolved

    def test_non_reading_selector_skips_prediction_between_backstops(
        self, tiny_dataset
    ):
        counting = CountingEndModel()
        session = make_session(
            tiny_dataset, warm_min_train=0, warm_after=2, end_model=counting
        )
        session.run(12)
        # RandomSelector never reads the proxy: only the cold refits (plus
        # the run()-exit resolution) refresh it, never the warm ones.
        assert session.refit_counts["warm"] > 0
        assert counting.predict_calls <= session.refit_counts["cold"] + 1
        # run() materializes any deferred refresh before returning, so the
        # public attributes are current at the API boundary.
        assert not session._proxy_stale
        np.testing.assert_array_equal(
            session.proxy_proba,
            session.end_model.predict_proba(session.dataset.train.X),
        )

    def test_seu_selector_resolves_on_select(self, tiny_dataset):
        session = make_session(
            tiny_dataset,
            selector=SEUSelector(warmup=0),
            warm_min_train=0,
            warm_after=2,
        )
        session.run(10)
        state = session.build_state()
        session.selector.select(state)
        assert not session._proxy_stale

    def test_hand_built_state_falls_back_to_full_proxy(self, tiny_dataset):
        n = tiny_dataset.train.n
        state = SessionState(
            dataset=tiny_dataset,
            family=make_session(tiny_dataset).family,
            iteration=0,
            lfs=[],
            L_train=np.zeros((n, 0), dtype=np.int8),
            soft_labels=np.full(n, 0.5),
            entropies=np.full(n, np.log(2)),
            proxy_labels=np.ones(n, dtype=int),
            proxy_proba=np.full(n, 0.5),
        )
        assert state.proxy_provider is None
        np.testing.assert_array_equal(state.resolve_proxy(), np.full(n, 0.5))
