"""Regression tests: incremental engine vs the from-scratch path (binary).

``full_refit_every=1`` reproduces the original from-scratch session
semantics exactly; these tests drive that baseline and the incremental
default side by side over a 25-iteration session with
*identical LF trajectories* (random selection does not read model state,
so both sessions develop the same LFs) and pin:

* exact agreement of the label-model state at every k-step full-refit
  backstop (the backstop's contract: a cold refit on the same votes is
  deterministic, so the incremental path must coincide there);
* bounded drift of soft labels / entropies / test scores between
  backstops (warm-started EM may settle in a different local optimum of
  the same objective on individual refits — the tolerance is aggregate,
  not per-example);
* equal end-of-session quality.

Everything is fully seeded, so the assertions are deterministic.
"""

import numpy as np
import pytest

from repro.core.session import DataProgrammingSession
from repro.interactive.basic_selectors import RandomSelector
from repro.interactive.simulated_user import SimulatedUser
from repro.obs import EngineObserver


N_ITERATIONS = 25
FULL_REFIT_EVERY = 10


@pytest.fixture(scope="module")
def paired_run(tiny_dataset):
    """Step a scratch and an incremental session in lockstep; record both."""
    ds = tiny_dataset

    def make(warm: bool) -> DataProgrammingSession:
        return DataProgrammingSession(
            ds,
            RandomSelector(),
            SimulatedUser(ds, seed=123),
            full_refit_every=FULL_REFIT_EVERY if warm else 1,
            warm_min_train=0,  # exercise the warm path despite the small dataset
            seed=42,
        )

    scratch, incremental = make(False), make(True)
    records = []
    for _ in range(N_ITERATIONS):
        scratch.step()
        incremental.step()
        records.append(
            {
                "lfs_scratch": [lf.name for lf in scratch.lfs],
                "lfs_incremental": [lf.name for lf in incremental.lfs],
                "cold_refit": incremental._cold_warranted_,
                "end_uncapped": incremental._end_uncapped_,
                "d_soft": np.abs(incremental.soft_labels - scratch.soft_labels),
                "d_entropy": np.abs(incremental.entropies - scratch.entropies),
                "score_scratch": scratch.test_score(),
                "score_incremental": incremental.test_score(),
            }
        )
    return scratch, incremental, records


class TestIncrementalMatchesScratch:
    def test_lf_trajectories_identical(self, paired_run):
        _, _, records = paired_run
        for i, rec in enumerate(records):
            assert rec["lfs_scratch"] == rec["lfs_incremental"], f"diverged at iter {i}"

    def test_backstop_restores_scratch_state_exactly(self, paired_run):
        _, _, records = paired_run
        # Every cold *label* refit restores the exact label-model state;
        # test scores coincide (to warm-start history) only at the true
        # backstops, where the end model's fit is also uncapped — the
        # early low-LF regime keeps the label model cold (multimodality
        # guard) but caps the convex end model like any warm refit.
        cold = [r for r in records if r["cold_refit"]]
        assert len(cold) >= 2, "expected multiple cold label refits in 25 iters"
        for rec in cold:
            assert rec["d_soft"].max() < 1e-8
            assert rec["d_entropy"].max() < 1e-8
        backstops = [r for r in records if r["cold_refit"] and r["end_uncapped"]]
        assert len(backstops) >= 2, "expected multiple full backstops in 25 iters"
        for rec in backstops:
            assert abs(rec["score_incremental"] - rec["score_scratch"]) <= 0.02

    def test_soft_labels_within_tolerance_between_backstops(self, paired_run):
        _, _, records = paired_run
        # Aggregate tolerance: warm EM may place individual examples in a
        # different (equally valid) mode, but the posteriors must agree on
        # the bulk of the data at every iteration.
        assert max(r["d_soft"].mean() for r in records) <= 0.2
        assert max(r["d_entropy"].mean() for r in records) <= 0.2

    def test_test_scores_within_tolerance(self, paired_run):
        _, _, records = paired_run
        worst = max(abs(r["score_incremental"] - r["score_scratch"]) for r in records)
        assert worst <= 0.2
        final = records[-1]
        assert abs(final["score_incremental"] - final["score_scratch"]) <= 0.1

    def test_vote_matrices_identical(self, paired_run):
        scratch, incremental, _ = paired_run
        np.testing.assert_array_equal(scratch.L_train, incremental.L_train)
        np.testing.assert_array_equal(scratch.L_valid, incremental.L_valid)


class TestEngineConfiguration:
    def test_full_refit_every_one_equals_scratch_exactly(self, tiny_dataset):
        """``full_refit_every=1`` forces every refit cold and uncapped even
        where the warm path is open (``warm_min_train=0``), so it matches
        the small-split session that never leaves the exact path."""
        ds = tiny_dataset

        def make(**kwargs) -> DataProgrammingSession:
            return DataProgrammingSession(
                ds, RandomSelector(), SimulatedUser(ds, seed=7), seed=3, **kwargs
            )

        a = make(full_refit_every=1, warm_min_train=0)
        a.observer = EngineObserver()
        a.run(12)
        assert a.refit_counts["warm"] == 0
        assert a.refit_counts["cold"] > 0
        assert set(a.observer.totals()["end_fits"]) == {"uncapped"}
        b = make().run(12)  # below the default warm_min_train: all exact
        np.testing.assert_array_equal(a.soft_labels, b.soft_labels)
        np.testing.assert_array_equal(a.entropies, b.entropies)
        assert a.test_score() == b.test_score()

    def test_rejects_bad_full_refit_every(self, tiny_dataset):
        with pytest.raises(ValueError, match="full_refit_every"):
            DataProgrammingSession(
                tiny_dataset,
                RandomSelector(),
                SimulatedUser(tiny_dataset, seed=0),
                full_refit_every=0,
            )

    @pytest.mark.parametrize(
        "name", ["tune_every", "full_refit_every", "warm_after", "warm_min_train"]
    )
    def test_rejects_non_integer_schedule_values(self, tiny_dataset, name):
        # 2.5 would act as a cadence of 5 under ``%``; True as 1.
        for value in (2.5, True):
            with pytest.raises(ValueError, match=name):
                DataProgrammingSession(
                    tiny_dataset,
                    RandomSelector(),
                    SimulatedUser(tiny_dataset, seed=0),
                    **{name: value},
                )

    def test_l_train_setter_round_trips(self, tiny_dataset):
        session = DataProgrammingSession(
            tiny_dataset, RandomSelector(), SimulatedUser(tiny_dataset, seed=0), seed=1
        ).run(5)
        before = session.L_train.copy()
        session.L_train = before  # the batch session assigns dense arrays
        np.testing.assert_array_equal(session.L_train, before)

    def test_selector_cache_cleared_on_refit(self, tiny_dataset):
        from repro.core.seu import SEUSelector

        session = DataProgrammingSession(
            tiny_dataset, SEUSelector(warmup=0), SimulatedUser(tiny_dataset, seed=5), seed=9
        )
        session.run(6)
        n_lfs = len(session.lfs)
        assert n_lfs > 0
        # After the last refit the cache must only hold entries written by
        # selections that happened *after* it — step() ends with a refit,
        # so right after run() the cache is empty.
        assert session._selector_cache == {}
        state = session.build_state()
        session.selector.expected_utilities(state)
        assert session._selector_cache, "selection should memoize into the session cache"
