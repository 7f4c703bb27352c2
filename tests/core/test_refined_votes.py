"""Refined votes are append-only VoteMatrixes, equal to the dense Eq. 4.

``LFContextualizer.refine`` has one kernel: column ``j`` keeps the raw
column's votes where ``dist_j <= r_j``.  Handed a dense array it returns a
new dense array; handed a session's :class:`VoteMatrix` it returns the
refined :class:`VoteMatrix` cached on the lineage and grown by the columns
appended since the previous call.  These tests pin the two byte-equal —
dense buffer, checkpoint arrays and stats entries — for every grid
percentile, across the binary, multiclass and context-sequence
contextualizers and the ways a session's raw votes can arrive (one LF per
refit, a batch per refit, a replaced matrix, a restored checkpoint), and
pin that contextualized sessions fit every label model on the refined
matrix's stats handle.
"""

import numpy as np
import pytest

from repro.core.batch_session import BatchDataProgrammingSession, BatchRandomSelector
from repro.core.config import NemoConfig
from repro.core.context_sequence import ContextSequenceContextualizer
from repro.core.contextualizer import LFContextualizer, PercentileTuner
from repro.core.lf import LFFamily
from repro.core.lineage import LineageStore
from repro.experiments.runners import make_method
from repro.interactive.simulated_user import SimulatedUser
from repro.labelmodel.matrix import VoteMatrix, column_nonzero_rows
from repro.multiclass import make_topics_dataset
from repro.multiclass.contextualizer import MCContextualizer
from repro.multiclass.experiments import make_mc_method
from repro.multiclass.lf import MultiClassLFFamily

GRID = NemoConfig().percentile_grid


@pytest.fixture(scope="module")
def topics():
    return make_topics_dataset(n_docs=500, seed=0, vocab_scale=6)


def assert_same_matrix(refined: VoteMatrix, dense: np.ndarray) -> None:
    """``refined`` is byte-equal to the matrix a dense scan of ``dense`` builds."""
    reference = VoteMatrix.from_dense(dense, abstain=refined.abstain)
    assert refined.values.dtype == dense.dtype == np.int8
    assert refined.values.tobytes() == np.ascontiguousarray(dense).tobytes()
    got, want = refined.state_arrays(), reference.state_arrays()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype
        assert got[key].tobytes() == want[key].tobytes(), key
    for a, b in zip(refined.stats.entries(), reference.stats.entries()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert refined.coverage_mask().tobytes() == reference.coverage_mask().tobytes()


def assert_cache_matches_dense(ctx, raw: dict, lineage, percentiles=GRID) -> None:
    """Every cached split/percentile equals the dense refine of the same votes."""
    for p in percentiles:
        for split, votes in raw.items():
            grown = ctx.refine(votes, lineage, split, percentile=p)
            assert isinstance(grown, VoteMatrix)
            dense = ctx.refine(votes.values.copy(), lineage, split, percentile=p)
            assert isinstance(dense, np.ndarray)
            assert_same_matrix(grown, dense)


def grow_lineage(dataset, family, labels, ctx, n_lfs, iteration=lambda j: j):
    """Append LFs one at a time, refining after each append; return the state."""
    lineage = LineageStore(dataset)
    abstain = ctx.convention.abstain
    raw = {
        "train": VoteMatrix(dataset.train.n, abstain=abstain),
        "valid": VoteMatrix(dataset.valid.n, abstain=abstain),
    }
    rng = np.random.default_rng(0)
    made = 0
    for pid in rng.permutation(dataset.n_primitives):
        rows = column_nonzero_rows(dataset.train.B_csc, pid)
        if rows.size < 3:
            continue
        lf = family.make(int(pid), labels[made % len(labels)])
        raw["train"].append_rows(rows, lf.label)
        raw["valid"].append_rows(column_nonzero_rows(dataset.valid.B_csc, pid), lf.label)
        lineage.add(lf, int(rows[made % rows.size]), iteration(made))
        made += 1
        # Refine at a subset of the grid after every append, so the cached
        # matrices grow one column at a time.
        assert_cache_matches_dense(ctx, raw, lineage, percentiles=GRID[::2])
        if made == n_lfs:
            break
    return lineage, raw


class TestIncrementalEqualsDense:
    def test_binary(self, tiny_dataset):
        ctx = LFContextualizer()
        family = LFFamily(tiny_dataset.primitive_names, tiny_dataset.train.B)
        lineage, raw = grow_lineage(tiny_dataset, family, (1, -1), ctx, 7)
        assert_cache_matches_dense(ctx, raw, lineage)

    def test_multiclass(self, topics):
        ctx = MCContextualizer(n_classes=4)
        family = MultiClassLFFamily(topics.primitive_names, topics.train.B, 4)
        lineage, raw = grow_lineage(topics, family, (0, 1, 2, 3), ctx, 7)
        assert_cache_matches_dense(ctx, raw, lineage)

    @pytest.mark.parametrize("gamma,window", [(0.5, None), (1.0, 3), (0.0, None)])
    def test_context_sequence(self, tiny_dataset, gamma, window):
        ctx = ContextSequenceContextualizer(gamma=gamma, max_window=window)
        family = LFFamily(tiny_dataset.primitive_names, tiny_dataset.train.B)
        lineage, raw = grow_lineage(tiny_dataset, family, (1, -1), ctx, 7)
        assert_cache_matches_dense(ctx, raw, lineage)

    def test_context_sequence_same_iteration_rebuilds(self, tiny_dataset):
        # Two LFs share each iteration, and refinement runs between them:
        # the second record is visible to the first one's context, so the
        # cached column cannot stay — the cache rebuilds and stays exact.
        ctx = ContextSequenceContextualizer(gamma=0.5)
        family = LFFamily(tiny_dataset.primitive_names, tiny_dataset.train.B)
        lineage, raw = grow_lineage(
            tiny_dataset, family, (1, -1), ctx, 6, iteration=lambda j: j // 2
        )
        assert_cache_matches_dense(ctx, raw, lineage)

    def test_dense_refine_matches_the_radius_rule(self, tiny_dataset):
        # The dense result is Eq. 4 itself: keep a vote iff dist <= r_j.
        ctx = LFContextualizer()
        family = LFFamily(tiny_dataset.primitive_names, tiny_dataset.train.B)
        lineage, raw = grow_lineage(tiny_dataset, family, (1, -1), ctx, 5)
        L = raw["valid"].values.copy()
        for p in GRID:
            radii = np.percentile(lineage.distances("train", "cosine"), p, axis=0)
            keep = lineage.distances("valid", "cosine") <= radii[None, :]
            expected = np.where(keep, L, 0).astype(np.int8)
            np.testing.assert_array_equal(ctx.refine(L, lineage, "valid", percentile=p), expected)


class TestCacheIdentity:
    def test_two_contextualizers_never_share_columns(self, tiny_dataset):
        family = LFFamily(tiny_dataset.primitive_names, tiny_dataset.train.B)
        first = LFContextualizer()
        lineage, raw = grow_lineage(tiny_dataset, family, (1, -1), first, 5)
        twin = LFContextualizer()
        sequence = ContextSequenceContextualizer(gamma=1.0)
        a = first.refine(raw["train"], lineage, "train", percentile=50.0)
        b = twin.refine(raw["train"], lineage, "train", percentile=50.0)
        c = sequence.refine(raw["train"], lineage, "train", percentile=50.0)
        assert a is not b and a is not c and b is not c
        assert a is first.refine(raw["train"], lineage, "train", percentile=50.0)
        assert_same_matrix(b, a.values)
        assert_cache_matches_dense(sequence, raw, lineage, percentiles=(50.0,))

    def test_another_raw_matrix_is_refined_afresh(self, tiny_dataset):
        ctx = LFContextualizer()
        family = LFFamily(tiny_dataset.primitive_names, tiny_dataset.train.B)
        lineage, raw = grow_lineage(tiny_dataset, family, (1, -1), ctx, 4)
        cached = ctx.refine(raw["train"], lineage, "train", percentile=50.0)
        altered = raw["train"].values.copy()
        altered[:, 0] = 0
        other = VoteMatrix.from_dense(altered)
        fresh = ctx.refine(other, lineage, "train", percentile=50.0)
        assert fresh is not cached
        assert_same_matrix(fresh, ctx.refine(altered, lineage, "train", percentile=50.0))

    def test_shape_mismatches_raise(self, tiny_dataset):
        ctx = LFContextualizer()
        family = LFFamily(tiny_dataset.primitive_names, tiny_dataset.train.B)
        lineage, raw = grow_lineage(tiny_dataset, family, (1, -1), ctx, 3)
        with pytest.raises(ValueError, match="lineage"):
            ctx.refine(VoteMatrix.from_dense(raw["train"].values[:, :2]), lineage)
        with pytest.raises(ValueError, match="rows"):
            ctx.refine(raw["valid"], lineage, "train")


def nemo_session(dataset, seed=0, warm=True, **overrides):
    session = make_method("nemo")(dataset, seed)
    if warm:
        # Let a tiny session take warm label-model refits too.
        session.warm_min_train = 0
    for name, value in overrides.items():
        setattr(session, name, value)
    return session


def session_raw(session) -> dict:
    return {"train": session._L_train, "valid": session._L_valid}


class TestSessionsUseTheIncrementalMatrices:
    def test_atomic_session_after_every_refit(self, tiny_dataset):
        session = nemo_session(tiny_dataset)
        for _ in range(12):
            session.step()
            votes = session._effective_votes()
            assert votes is session.contextualizer.refine(
                session._L_train, session.lineage, "train", percentile=session.active_percentile_
            )
            assert_cache_matches_dense(
                session.contextualizer, session_raw(session), session.lineage
            )
        assert session.refit_counts["warm"] > 0
        dense = session._effective_votes().values
        assert isinstance(dense, np.ndarray) and dense.shape == session.L_train.shape

    def test_batch_session_adds_several_columns_per_refit(self, tiny_dataset):
        ctx = LFContextualizer()
        session = BatchDataProgrammingSession(
            tiny_dataset,
            BatchRandomSelector(batch_size=3),
            SimulatedUser(tiny_dataset, seed=3),
            contextualizer=ctx,
            percentile_tuner=PercentileTuner(GRID, metric=tiny_dataset.metric),
            seed=3,
        )
        grown = []
        for _ in range(4):
            session.step()
            grown.append(len(session.lfs))
            assert_cache_matches_dense(ctx, session_raw(session), session.lineage)
        assert max(np.diff([0, *grown])) > 1

    def test_replaced_raw_matrix(self, tiny_dataset):
        session = nemo_session(tiny_dataset)
        session.run(8)
        ctx, p = session.contextualizer, session.active_percentile_
        before = session._effective_votes()
        valid = ctx.refine(session._L_valid, session.lineage, "valid", percentile=p)
        altered = session.L_train.copy()
        altered[:, 0] = 0
        session.L_train = altered
        after = ctx.refine(session._L_train, session.lineage, "train", percentile=p)
        assert after is not before
        # The valid votes were not replaced, so their cached matrix stays.
        assert ctx.refine(session._L_valid, session.lineage, "valid", percentile=p) is valid
        assert_same_matrix(
            after,
            session.contextualizer.refine(
                altered, session.lineage, "train", percentile=session.active_percentile_
            ),
        )
        session.run(4)
        assert_cache_matches_dense(session.contextualizer, session_raw(session), session.lineage)

    def test_restored_session_continues_identically(self, tiny_dataset):
        uninterrupted = nemo_session(tiny_dataset, seed=5)
        uninterrupted.run(7)
        snapshot = uninterrupted.state_dict()
        uninterrupted.run(6)

        restored = nemo_session(tiny_dataset, seed=5)
        restored.load_state_dict(snapshot)
        assert not restored.lineage.refinements  # rebuilt lazily, never restored
        restored.run(6)
        assert_cache_matches_dense(
            restored.contextualizer, session_raw(restored), restored.lineage
        )
        assert restored.soft_labels.tobytes() == uninterrupted.soft_labels.tobytes()
        assert restored.active_percentile_ == uninterrupted.active_percentile_
        assert_same_matrix(
            restored._effective_votes(), uninterrupted._effective_votes().values
        )


class TestTunerInputs:
    def test_dense_votes_leave_the_session_cache_in_place(self, tiny_dataset):
        session = nemo_session(tiny_dataset)
        session.run(6)
        ctx, lineage, tuner = session.contextualizer, session.lineage, session.percentile_tuner
        raw = session_raw(session)
        cached = {
            (split, p): ctx.refine(votes, lineage, split, percentile=p)
            for split, votes in raw.items()
            for p in tuner.grid
        }
        keys = set(lineage.refinements)
        args = (lineage, session.label_model_factory, tiny_dataset.valid.y)
        dense_p = tuner.best_percentile(ctx, session.L_train, session.L_valid, *args)
        assert set(lineage.refinements) == keys
        for (split, p), matrix in cached.items():
            assert ctx.refine(raw[split], lineage, split, percentile=p) is matrix
        assert dense_p == tuner.best_percentile(ctx, raw["train"], raw["valid"], *args)


class TestRefinedFitsUseTheHandle:
    """No label-model call of a contextualized session rebuilds a handle.

    Fits, soft labels and the tuner's validation posteriors all run on a
    live matrix's handle, so no vote matrix is ever re-ingested from a
    dense array.
    """

    @staticmethod
    def forbid_dense_handles(monkeypatch):
        calls = []

        def spy(cls, L, abstain=0):
            calls.append(np.asarray(L).shape)
            raise AssertionError("a label-model call rebuilt a stats handle from dense votes")

        monkeypatch.setattr(VoteMatrix, "from_dense", classmethod(spy))
        return calls

    def test_nemo(self, tiny_dataset, monkeypatch):
        calls = self.forbid_dense_handles(monkeypatch)
        session = nemo_session(tiny_dataset)
        session.run(12)
        assert calls == []
        assert session.refit_counts["warm"] > 0 and session.refit_counts["cold"] > 0

    def test_nemo_mc(self, topics, monkeypatch):
        calls = self.forbid_dense_handles(monkeypatch)
        session = make_mc_method("nemo-mc")(topics, 0)
        session.warm_min_train = 0
        session.run(12)
        assert calls == []
        assert session.contextualizer is not None and session.percentile_tuner is not None
        assert session.refit_counts["warm"] > 0 and session.refit_counts["cold"] > 0
