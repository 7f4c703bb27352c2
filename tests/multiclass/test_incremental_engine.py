"""Regression tests: incremental engine vs the from-scratch path (K-class).

The multiclass twin of ``tests/core/test_incremental_engine.py``: a
25-iteration session with identical LF trajectories, exact agreement at
every k-step full-refit backstop, bounded aggregate drift in between, and
equal end-of-session quality.  Fully seeded and deterministic.
"""

import numpy as np
import pytest

from repro.multiclass.selection import MCRandomSelector
from repro.multiclass.session import MultiClassSession
from repro.multiclass.simulated_user import MCSimulatedUser


N_ITERATIONS = 25
FULL_REFIT_EVERY = 10


@pytest.fixture(scope="module")
def paired_mc_run(topics_dataset):
    """Step a scratch and an incremental session in lockstep; record both."""
    ds = topics_dataset

    def make(warm: bool) -> MultiClassSession:
        return MultiClassSession(
            ds,
            MCRandomSelector(),
            MCSimulatedUser(ds, seed=123),
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
    def test_lf_trajectories_identical(self, paired_mc_run):
        _, _, records = paired_mc_run
        for i, rec in enumerate(records):
            assert rec["lfs_scratch"] == rec["lfs_incremental"], f"diverged at iter {i}"

    def test_backstop_restores_scratch_state_exactly(self, paired_mc_run):
        _, _, records = paired_mc_run
        # Label-model exactness at every cold label refit; score agreement
        # at the true backstops where the convex end model is also fitted
        # uncapped (the early low-LF regime caps it like a warm refit —
        # see tests/core/test_incremental_engine.py).
        cold = [r for r in records if r["cold_refit"]]
        assert len(cold) >= 2, "expected multiple cold label refits in 25 iters"
        for rec in cold:
            assert rec["d_soft"].max() < 1e-8
            assert rec["d_entropy"].max() < 1e-8
        backstops = [r for r in records if r["cold_refit"] and r["end_uncapped"]]
        assert len(backstops) >= 2, "expected multiple full backstops in 25 iters"
        for rec in backstops:
            assert abs(rec["score_incremental"] - rec["score_scratch"]) <= 0.02

    def test_soft_labels_within_tolerance_between_backstops(self, paired_mc_run):
        _, _, records = paired_mc_run
        # Aggregate tolerance: Dawid–Skene EM is more multimodal than the
        # binary model (full confusion matrices), so individual refits may
        # settle in a different mode; the bulk posterior must still agree.
        assert max(r["d_soft"].mean() for r in records) <= 0.15
        assert max(r["d_entropy"].mean() for r in records) <= 0.35

    def test_test_scores_within_tolerance(self, paired_mc_run):
        _, _, records = paired_mc_run
        # The topics test split has 50 examples, so one borderline flip
        # moves the score by 0.02 — the scratch path's own step-to-step
        # score swings reach ~0.08; the tolerance sits above that noise.
        worst = max(abs(r["score_incremental"] - r["score_scratch"]) for r in records)
        assert worst <= 0.25
        final = records[-1]
        assert abs(final["score_incremental"] - final["score_scratch"]) <= 0.2

    def test_vote_matrices_identical(self, paired_mc_run):
        scratch, incremental, _ = paired_mc_run
        np.testing.assert_array_equal(scratch.L_train, incremental.L_train)
        np.testing.assert_array_equal(scratch.L_valid, incremental.L_valid)


class TestEngineConfiguration:
    def test_full_refit_every_one_equals_scratch_exactly(self, topics_dataset):
        """``full_refit_every=1`` forces every refit cold and uncapped even
        where the warm path is open (``warm_min_train=0``), so it matches
        the small-split session that never leaves the exact path."""
        ds = topics_dataset

        def make(**kwargs) -> MultiClassSession:
            return MultiClassSession(
                ds, MCRandomSelector(), MCSimulatedUser(ds, seed=7), seed=3, **kwargs
            )

        a = make(full_refit_every=1, warm_min_train=0).run(12)
        assert a.refit_counts["warm"] == 0
        assert a.refit_counts["cold"] > 0
        assert set(a.end_fit_counts) == {"uncapped"}
        b = make().run(12)  # below the default warm_min_train: all exact
        np.testing.assert_array_equal(a.soft_labels, b.soft_labels)
        np.testing.assert_array_equal(a.entropies, b.entropies)
        assert a.test_score() == b.test_score()

    def test_rejects_bad_full_refit_every(self, topics_dataset):
        with pytest.raises(ValueError, match="full_refit_every"):
            MultiClassSession(
                topics_dataset,
                MCRandomSelector(),
                MCSimulatedUser(topics_dataset, seed=0),
                full_refit_every=0,
            )

    @pytest.mark.parametrize(
        "name", ["tune_every", "full_refit_every", "warm_after", "warm_min_train"]
    )
    def test_rejects_non_integer_schedule_values(self, topics_dataset, name):
        # 2.5 would act as a cadence of 5 under ``%``; True as 1.
        for value in (2.5, True):
            with pytest.raises(ValueError, match=name):
                MultiClassSession(
                    topics_dataset,
                    MCRandomSelector(),
                    MCSimulatedUser(topics_dataset, seed=0),
                    **{name: value},
                )

    def test_seu_selector_cache_used_and_cleared(self, topics_dataset):
        from repro.multiclass.seu import MCSEUSelector

        session = MultiClassSession(
            topics_dataset,
            MCSEUSelector(warmup=0),
            MCSimulatedUser(topics_dataset, seed=5),
            seed=9,
        ).run(6)
        assert len(session.lfs) > 0
        assert session._selector_cache == {}
        state = session.build_state()
        session.selector.expected_utilities(state)
        assert session._selector_cache, "selection should memoize into the session cache"
