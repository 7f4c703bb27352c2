"""Tests for the Sec.-7 batched IDP generalization."""

import numpy as np
import pytest

from repro.core.batch_session import (
    BatchDataProgrammingSession,
    BatchRandomSelector,
    BatchSEUSelector,
)
from repro.core.lf import PrimitiveLF
from repro.interactive.basic_selectors import RandomSelector
from repro.interactive.simulated_user import SimulatedUser


class TestBatchSelectors:
    def test_batch_sizes(self, empty_state):
        batch = BatchRandomSelector(batch_size=4).select_batch(empty_state)
        assert len(batch) == 4
        assert len(set(batch)) == 4

    def test_batch_respects_exclusions(self, empty_state):
        empty_state.selected = set(range(empty_state.n_train)) - {3, 7}
        batch = BatchRandomSelector(batch_size=5).select_batch(empty_state)
        assert set(batch) <= {3, 7}

    def test_seu_batch_returns_top_scored(self, empty_state):
        empty_state.lfs = [PrimitiveLF(0, "a", 1), PrimitiveLF(1, "b", -1),
                           PrimitiveLF(2, "c", 1)]
        rng = np.random.default_rng(0)
        empty_state.proxy_proba = rng.uniform(0.1, 0.9, empty_state.n_train)
        empty_state.entropies = rng.uniform(0, 0.69, empty_state.n_train)
        selector = BatchSEUSelector(batch_size=3, warmup=0)
        batch = selector.select_batch(empty_state)
        scores = selector.expected_utilities(empty_state)
        mask = empty_state.candidate_mask()
        best = np.where(mask, scores, -np.inf)
        expected_top = set(np.argsort(best)[::-1][:3].tolist())
        assert set(batch) == expected_top

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            BatchSEUSelector(batch_size=0)
        with pytest.raises(ValueError):
            BatchRandomSelector(batch_size=0)

    def test_empty_pool(self, empty_state):
        empty_state.selected = set(range(empty_state.n_train))
        assert BatchRandomSelector().select_batch(empty_state) == []


class TestBatchSession:
    def test_collects_multiple_lfs_per_iteration(self, tiny_dataset):
        user = SimulatedUser(tiny_dataset, seed=0)
        session = BatchDataProgrammingSession(
            tiny_dataset, BatchRandomSelector(batch_size=3), user, seed=0
        )
        session.run(4)
        assert session.iteration == 4
        assert len(session.lfs) > 4  # more than one LF per iteration

    def test_seu_batch_session_runs(self, tiny_dataset):
        user = SimulatedUser(tiny_dataset, seed=1)
        session = BatchDataProgrammingSession(
            tiny_dataset, BatchSEUSelector(batch_size=2), user, seed=1
        )
        session.run(6)
        assert 0.0 <= session.test_score() <= 1.0
        assert session.L_train.shape[1] == len(session.lfs)

    def test_no_duplicate_lfs_within_batch(self, tiny_dataset):
        user = SimulatedUser(tiny_dataset, seed=2)
        session = BatchDataProgrammingSession(
            tiny_dataset, BatchRandomSelector(batch_size=5), user, seed=2
        )
        session.run(6)
        keys = [(lf.primitive_id, lf.label) for lf in session.lfs]
        assert len(keys) == len(set(keys))

    def test_requires_batch_selector(self, tiny_dataset):
        user = SimulatedUser(tiny_dataset, seed=0)
        with pytest.raises(TypeError, match="select_batch"):
            BatchDataProgrammingSession(tiny_dataset, RandomSelector(), user)

    def test_lineage_tracks_batch_iteration(self, tiny_dataset):
        user = SimulatedUser(tiny_dataset, seed=3)
        session = BatchDataProgrammingSession(
            tiny_dataset, BatchRandomSelector(batch_size=3), user, seed=3
        )
        session.run(2)
        iterations = {r.iteration for r in session.lineage.records}
        assert iterations <= {0, 1}


class TestBatchObservability:
    """A batched step reports one command record, like an atomic one."""

    def test_observer_totals_sum_the_step_records(self, tiny_dataset):
        from repro.obs import ENGINE_PHASES, EngineObserver

        user = SimulatedUser(tiny_dataset, seed=0)
        session = BatchDataProgrammingSession(
            tiny_dataset, BatchRandomSelector(batch_size=3), user, seed=0
        )
        observer = EngineObserver()
        session.observer = observer
        records = []
        for _ in range(4):
            session.step()
            records.append(session.last_command_obs)
        assert [r["command"] for r in records] == ["submit"] * 4
        assert [r["iteration"] for r in records] == [1, 2, 3, 4]

        totals = observer.totals()
        phases = {name: 0.0 for name in ENGINE_PHASES}
        for record in records:
            assert {"select", "develop", "label_model", "end_model"} <= set(record["phases"])
            for name, seconds in record["phases"].items():
                phases[name] += seconds
        assert totals["phase_seconds"] == pytest.approx(phases, rel=1e-12, abs=0.0)
        assert totals["phase_seconds"]["label_model"] > 0.0
        assert totals["refits"] == session.refit_counts
        assert sum(session.refit_counts.values()) == 4
        assert totals["open_interval_seconds"] == pytest.approx(
            sum(r["open_interval_seconds"] for r in records), rel=1e-12, abs=0.0
        )
        assert observer.commands.value("submit") == 4

    def test_step_without_lfs_reports_a_decline(self, tiny_dataset):
        class DecliningUser:
            def create_lf(self, dev_index, state):
                return None

        session = BatchDataProgrammingSession(
            tiny_dataset, BatchRandomSelector(batch_size=2), DecliningUser(), seed=0
        )
        session.step()
        record = session.last_command_obs
        assert record["command"] == "decline"
        assert set(record["phases"]) == {"select"}
        assert record["refit"] is None
        assert session.refit_counts == {"warm": 0, "cold": 0}
