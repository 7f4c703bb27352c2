"""Durable session checkpoints: round-trips and fail-closed loading.

The resume contract (ENGINE.md §5): a session restored from a checkpoint
continues **bit-identically** to the uninterrupted run — same posteriors,
same proxies, same selections, same RNG stream.  Pinned here for every
engine family (binary + multiclass, MeTaL + Dawid–Skene aggregators),
with the warm/cold cadence tightened so the snapshot lands mid-warm-cycle
(the hardest point to restore: the proxy refresh is still deferred) and,
separately, right after a cold backstop.  The uninterrupted reference run also
resolves its proxy after every step and checks it against a fresh
``end_model.predict_proba(train X)``, so the deferred proxy refresh of
the restored run is held to the eager values.
"""

import numpy as np
import pytest

from repro.core.session import DataProgrammingSession
from repro.endmodel.logistic import SoftLabelLogisticRegression
from repro.core.seu import SEUSelector
from repro.data import load_dataset
from repro.interactive.simulated_user import SimulatedUser
from repro.io.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    load_session_checkpoint,
    save_checkpoint,
    save_session_checkpoint,
)
from repro.labelmodel.dawid_skene import DawidSkene
from repro.multiclass import make_topics_dataset
from repro.multiclass.session import MultiClassSession
from repro.multiclass.seu import MCSEUSelector
from repro.multiclass.simulated_user import MCSimulatedUser
from repro.obs import EngineObserver
from tests.core.test_warm_end_mode import lbfgs_warm_min_train

#: Tight cadence so warm refits (and mid-cycle snapshots) happen on tiny data.
ENGINE_KWARGS = dict(warm_min_train=0, warm_after=2, full_refit_every=5)

SNAPSHOT_AT = 7  # mid warm-cycle: not a cold-backstop iteration
COLD_SNAPSHOT_AT = 6  # the step whose refit is the first cold backstop
TOTAL_ITERATIONS = 12


@pytest.fixture(scope="module")
def binary_dataset():
    return load_dataset("youtube", scale="tiny", seed=0)


@pytest.fixture(scope="module")
def mc_dataset():
    return make_topics_dataset(n_docs=400, seed=0, vocab_scale=8)


def _binary_session(dataset, label_model: str):
    factory = None
    if label_model == "dawid-skene":
        prior = dataset.label_prior

        def factory():
            return DawidSkene(class_prior=prior)

    return DataProgrammingSession(
        dataset,
        SEUSelector(),
        SimulatedUser(dataset, seed=11),
        label_model_factory=factory,
        seed=3,
        **ENGINE_KWARGS,
    )


def _mc_session(dataset):
    return MultiClassSession(
        dataset,
        MCSEUSelector(),
        MCSimulatedUser(dataset, seed=11),
        seed=3,
        **ENGINE_KWARGS,
    )


FAMILIES = [
    ("binary-metal", "binary", "metal"),
    ("binary-dawid-skene", "binary", "dawid-skene"),
    ("multiclass-dawid-skene", "multiclass", "dawid-skene"),
]


def _build(kind: str, label_model: str, binary_ds, mc_ds):
    if kind == "binary":
        return _binary_session(binary_ds, label_model)
    return _mc_session(mc_ds)


def _step_with_eager_reference(session):
    """Step, then hold the resolved proxy to a fresh end-model prediction."""
    session.step()
    if session._end_model_fitted:
        np.testing.assert_array_equal(
            session._resolve_proxy(),
            session.end_model.predict_proba(session.dataset.train.X),
        )


def _assert_round_trip_bit_identical(
    kind, label_model, binary_ds, mc_ds, tmp_path, snapshot_at, proxy_stale
):
    # Uninterrupted reference run, proxy checked after every step.
    ref = _build(kind, label_model, binary_ds, mc_ds)
    for _ in range(TOTAL_ITERATIONS):
        _step_with_eager_reference(ref)

    # Same configuration, snapshotted mid-run ...
    first = _build(kind, label_model, binary_ds, mc_ds)
    for _ in range(snapshot_at):
        first.step()
    assert first._proxy_stale is proxy_stale, "the snapshot point missed its refit path"
    path = save_session_checkpoint(
        first, tmp_path / "session.ckpt.npz", extra={"at": snapshot_at}
    )

    # ... restored into a fresh session and continued.
    restored = _build(kind, label_model, binary_ds, mc_ds)
    extra = load_session_checkpoint(restored, path)
    assert extra == {"at": snapshot_at}
    for _ in range(TOTAL_ITERATIONS - snapshot_at):
        restored.step()
    restored._resolve_proxy()
    np.testing.assert_array_equal(ref.L_train, restored.L_train)
    np.testing.assert_array_equal(ref.L_valid, restored.L_valid)
    np.testing.assert_array_equal(ref.soft_labels, restored.soft_labels)
    np.testing.assert_array_equal(ref.entropies, restored.entropies)
    np.testing.assert_array_equal(ref.proxy_proba, restored.proxy_proba)
    assert ref.selected == restored.selected
    assert ref.iteration == restored.iteration
    assert ref._refit_count == restored._refit_count
    assert [lf.primitive for lf in ref.lfs] == [lf.primitive for lf in restored.lfs]
    assert ref.test_score() == restored.test_score()
    # Continuation consumed the RNG streams identically.
    assert ref.rng.bit_generator.state == restored.rng.bit_generator.state
    assert (
        ref.user.rng.bit_generator.state == restored.user.rng.bit_generator.state
    )


class TestRoundTripAllFamilies:
    @pytest.mark.parametrize(
        "name,kind,label_model", FAMILIES, ids=[f[0] for f in FAMILIES]
    )
    def test_restored_continuation_is_bit_identical(
        self, name, kind, label_model, binary_dataset, mc_dataset, tmp_path
    ):
        # Mid warm cycle: the snapshot materializes a deferred proxy refresh.
        _assert_round_trip_bit_identical(
            kind, label_model, binary_dataset, mc_dataset, tmp_path,
            snapshot_at=SNAPSHOT_AT, proxy_stale=True,
        )

    @pytest.mark.parametrize(
        "name,kind,label_model", FAMILIES, ids=[f[0] for f in FAMILIES]
    )
    def test_snapshot_right_after_a_cold_backstop(
        self, name, kind, label_model, binary_dataset, mc_dataset, tmp_path
    ):
        # The cold backstop already refreshed the proxy; the restored
        # session must take the next refit warm, as the original does.
        _assert_round_trip_bit_identical(
            kind, label_model, binary_dataset, mc_dataset, tmp_path,
            snapshot_at=COLD_SNAPSHOT_AT, proxy_stale=False,
        )

    def test_snapshot_does_not_perturb_the_live_session(
        self, binary_dataset, tmp_path
    ):
        # Taking a checkpoint mid-run must not change the run's outcome.
        plain = _binary_session(binary_dataset, "metal")
        snapped = _binary_session(binary_dataset, "metal")
        for it in range(TOTAL_ITERATIONS):
            plain.step()
            snapped.step()
            if it == SNAPSHOT_AT:
                save_session_checkpoint(snapped, tmp_path / "mid.ckpt.npz")
        plain._resolve_proxy()
        snapped._resolve_proxy()
        np.testing.assert_array_equal(plain.soft_labels, snapped.soft_labels)
        np.testing.assert_array_equal(plain.proxy_proba, snapped.proxy_proba)
        assert plain.rng.bit_generator.state == snapped.rng.bit_generator.state


class TestWarmMinibatchRoundTrip:
    """Mid-warm-cycle restore of warm end-model refits (ENGINE.md §7).

    The generic family round-trips above already run minibatch warm
    refits; these tests make the coverage non-vacuous: the snapshot point
    must land with live Adam state, a populated covered buffer, and a
    captured backstop anchor — and all of it must continue bit-identically
    after restore.  Warm refits below the minibatch gate (the capped
    L-BFGS fit) get their own round-trip.
    """

    @pytest.mark.parametrize("minibatch", [True, False], ids=["minibatch", "lbfgs"])
    def test_mid_warm_cycle_restore_continues_bit_identically(
        self, binary_dataset, tmp_path, minibatch
    ):
        kwargs = dict(ENGINE_KWARGS)
        if not minibatch:
            kwargs["warm_min_train"] = lbfgs_warm_min_train(binary_dataset)

        def build():
            session = DataProgrammingSession(
                binary_dataset,
                SEUSelector(),
                SimulatedUser(binary_dataset, seed=11),
                end_model=SoftLabelLogisticRegression(),
                seed=3,
                **kwargs,
            )
            session.observer = EngineObserver()
            return session

        ref = build()
        for _ in range(TOTAL_ITERATIONS):
            ref.step()
        ref._resolve_proxy()
        end_fits = ref.observer.totals()["end_fits"]
        if minibatch:
            assert end_fits.get("minibatch", 0) > 0
        else:
            assert end_fits.get("warm_capped", 0) > 0 and "minibatch" not in end_fits

        first = build()
        for _ in range(SNAPSHOT_AT):
            first.step()
        if minibatch:
            # The snapshot point is genuinely mid-warm-cycle: Adam has
            # stepped, the covered buffer exists, the anchor is set.
            assert first.end_model.mb_t_ > 0
            assert first.end_model.mb_rng_state_ is not None
            assert first._covered_buf is not None and first._covered_buf.size > 0
            assert first._end_anchor_ is not None
        path = save_session_checkpoint(first, tmp_path / "warm.ckpt.npz")

        restored = build()
        load_session_checkpoint(restored, path)
        if minibatch:
            assert restored.end_model.mb_t_ == first.end_model.mb_t_
            assert restored.end_model.mb_rng_state_ == first.end_model.mb_rng_state_
            np.testing.assert_array_equal(
                restored._covered_buf.rows, first._covered_buf.rows
            )
        for _ in range(TOTAL_ITERATIONS - SNAPSHOT_AT):
            restored.step()
        restored._resolve_proxy()

        np.testing.assert_array_equal(ref.soft_labels, restored.soft_labels)
        np.testing.assert_array_equal(ref.proxy_proba, restored.proxy_proba)
        np.testing.assert_array_equal(ref.end_model.coef_, restored.end_model.coef_)
        assert ref.end_model.intercept_ == restored.end_model.intercept_
        assert ref.end_model.mb_t_ == restored.end_model.mb_t_
        assert ref.end_model.mb_rng_state_ == restored.end_model.mb_rng_state_
        assert ref.rng.bit_generator.state == restored.rng.bit_generator.state
        assert ref.test_score() == restored.test_score()


class TestEarlierBuildCheckpoints:
    """Snapshots written before the refit schedule lost its drift-adaptive
    cadence still restore: they carry ``label_anchor``,
    ``backstops_skipped`` and the wall-clock ``phase_timings``, which this
    build ignores, under the same ``CHECKPOINT_FORMAT_VERSION``."""

    def test_retired_fields_are_ignored_on_restore(self, binary_dataset, tmp_path):
        ref = _binary_session(binary_dataset, "metal")
        ref.run(TOTAL_ITERATIONS)

        first = _binary_session(binary_dataset, "metal")
        first.run(SNAPSHOT_AT)
        path = save_session_checkpoint(first, tmp_path / "current.ckpt.npz")
        state = load_checkpoint(path)
        session_state = state["session"]
        for retired in ("label_anchor", "backstops_skipped", "phase_timings"):
            assert retired not in session_state
        session_state["label_anchor"] = session_state["label_model"]
        session_state["backstops_skipped"] = 2
        session_state["phase_timings"] = {
            "select": 0.25, "develop": 0.01, "label_model": 1.5,
            "end_model": 0.75, "contextualize": 0.0,
        }
        legacy = save_checkpoint(tmp_path / "legacy.ckpt.npz", state)

        restored = _binary_session(binary_dataset, "metal")
        observer = restored.observer = EngineObserver()
        load_session_checkpoint(restored, legacy)
        assert not hasattr(restored, "phase_timings")
        assert observer.totals() == EngineObserver().totals()  # clocks not restored
        restored.run(TOTAL_ITERATIONS - SNAPSHOT_AT)

        assert restored.soft_labels.tobytes() == ref.soft_labels.tobytes()
        assert [(lf.primitive, lf.label) for lf in restored.lfs] == [
            (lf.primitive, lf.label) for lf in ref.lfs
        ]
        assert restored.test_score() == ref.test_score()
        assert "label_anchor" not in restored.state_dict()


    @pytest.mark.parametrize("legacy", ["mc-engine-class", "binary-proxy-labels"])
    def test_pre_merge_snapshots_restore_and_continue(
        self, legacy, binary_dataset, mc_dataset, tmp_path
    ):
        """Snapshots from before the two session classes merged: K-class
        ones name ``MultiClassSession`` as their engine class, binary ones
        carry the hard ``proxy_labels`` array, which is now derived."""
        kind = "multiclass" if legacy == "mc-engine-class" else "binary"
        ref = _build(kind, "metal", binary_dataset, mc_dataset)
        ref.run(TOTAL_ITERATIONS)

        first = _build(kind, "metal", binary_dataset, mc_dataset)
        first.run(SNAPSHOT_AT)
        state = load_checkpoint(save_session_checkpoint(first, tmp_path / "now.ckpt.npz"))
        session_state = state["session"]
        assert session_state["engine_class"] == "DataProgrammingSession"
        assert "proxy_labels" not in session_state["arrays"]
        if kind == "multiclass":
            session_state["engine_class"] = "MultiClassSession"
        else:
            session_state["arrays"]["proxy_labels"] = first.proxy_labels.copy()
        legacy_path = save_checkpoint(tmp_path / "legacy.ckpt.npz", state)

        restored = _build(kind, "metal", binary_dataset, mc_dataset)
        load_session_checkpoint(restored, legacy_path)
        restored.run(TOTAL_ITERATIONS - SNAPSHOT_AT)

        assert restored.soft_labels.tobytes() == ref.soft_labels.tobytes()
        assert restored.proxy_proba.tobytes() == ref.proxy_proba.tobytes()
        assert [(lf.primitive, lf.label) for lf in restored.lfs] == [
            (lf.primitive, lf.label) for lf in ref.lfs
        ]
        assert restored.test_score() == ref.test_score()
        assert restored.state_dict()["engine_class"] == "DataProgrammingSession"


class TestFailClosedLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(tmp_path / "nope.ckpt.npz")

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "garbage.ckpt.npz"
        path.write_bytes(b"this is not an npz archive at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_archive(self, tmp_path):
        path = tmp_path / "truncated.ckpt.npz"
        save_checkpoint(path, {"x": np.arange(1000)})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_future_format_version(self, tmp_path, monkeypatch):
        import repro.io.checkpoint as ckpt

        path = tmp_path / "future.ckpt.npz"
        monkeypatch.setattr(ckpt, "CHECKPOINT_FORMAT_VERSION", CHECKPOINT_FORMAT_VERSION + 1)
        save_checkpoint(path, {"x": np.arange(3)})
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(path)

    def test_npz_without_session_payload(self, tmp_path, binary_dataset):
        path = tmp_path / "foreign.ckpt.npz"
        save_checkpoint(path, {"something": np.arange(3)})
        session = _binary_session(binary_dataset, "metal")
        with pytest.raises(CheckpointError, match="session snapshot"):
            load_session_checkpoint(session, path)

    def test_wrong_dataset_rejected(self, binary_dataset, tmp_path):
        session = _binary_session(binary_dataset, "metal")
        for _ in range(4):
            session.step()
        path = save_session_checkpoint(session, tmp_path / "yt.ckpt.npz")
        other = load_dataset("sms", scale="tiny", seed=0)
        target = DataProgrammingSession(
            other, SEUSelector(), SimulatedUser(other, seed=11), seed=3, **ENGINE_KWARGS
        )
        with pytest.raises(CheckpointError, match="dataset"):
            load_session_checkpoint(target, path)

    def test_wrong_engine_class_rejected(self, binary_dataset, tmp_path):
        # Same dataset and alphabet: only the session class differs.
        from repro.core.batch_session import BatchDataProgrammingSession, BatchRandomSelector

        session = _binary_session(binary_dataset, "metal")
        path = save_session_checkpoint(session, tmp_path / "bin.ckpt.npz")
        target = BatchDataProgrammingSession(
            binary_dataset, BatchRandomSelector(), SimulatedUser(binary_dataset, seed=11), seed=3
        )
        with pytest.raises(CheckpointError, match="DataProgrammingSession"):
            load_session_checkpoint(target, path)

    @pytest.mark.parametrize("direction", ["binary-into-kclass", "kclass-into-binary"])
    def test_cross_alphabet_restore_rejected(
        self, direction, binary_dataset, mc_dataset, tmp_path
    ):
        # One session class runs both alphabets, so the engine-class check
        # cannot tell them apart: the abstain sentinel must.  The snapshot's
        # dataset identity is rewritten to the target's so that only the
        # alphabet differs.
        binary = _binary_session(binary_dataset, "metal")
        kclass = _mc_session(mc_dataset)
        source, target = (
            (binary, kclass) if direction == "binary-into-kclass" else (kclass, binary)
        )
        source.run(4)
        state = load_checkpoint(save_session_checkpoint(source, tmp_path / "src.ckpt.npz"))
        state["session"].update(
            dataset_name=target.dataset.name,
            n_train=target.dataset.train.n,
            n_valid=target.dataset.valid.n,
        )
        path = save_checkpoint(tmp_path / "cross.ckpt.npz", state)
        with pytest.raises(ValueError, match="abstain"):
            load_session_checkpoint(target, path)

    def test_wrong_label_model_family_rejected(self, binary_dataset, tmp_path):
        session = _binary_session(binary_dataset, "metal")
        for _ in range(4):
            session.step()
        path = save_session_checkpoint(session, tmp_path / "metal.ckpt.npz")
        target = _binary_session(binary_dataset, "dawid-skene")
        with pytest.raises(CheckpointError):
            load_session_checkpoint(target, path)


class TestCheckpointValueRoundTrip:
    def test_nested_trees_and_dtypes(self, tmp_path):
        state = {
            "ints": {"a": 1, "b": [1, 2, 3]},
            "floats": 1.5,
            "none": None,
            "bool": True,
            "string": "hello",
            "arr_f64": np.linspace(0, 1, 7),
            "arr_i8": np.array([-1, 0, 1], dtype=np.int8),
            "nested": {"deep": {"arr": np.arange(6).reshape(2, 3)}},
            "big_int": 2**100,  # RNG states carry 128-bit integers
        }
        path = save_checkpoint(tmp_path / "tree.ckpt.npz", state)
        loaded = load_checkpoint(path)
        assert loaded["ints"] == {"a": 1, "b": [1, 2, 3]}
        assert loaded["floats"] == 1.5
        assert loaded["none"] is None
        assert loaded["bool"] is True
        assert loaded["string"] == "hello"
        assert loaded["big_int"] == 2**100
        np.testing.assert_array_equal(loaded["arr_f64"], state["arr_f64"])
        assert loaded["arr_i8"].dtype == np.int8
        np.testing.assert_array_equal(loaded["nested"]["deep"]["arr"], np.arange(6).reshape(2, 3))

    def test_unsupported_type_rejected_at_save(self, tmp_path):
        with pytest.raises(TypeError, match="unsupported type"):
            save_checkpoint(tmp_path / "bad.ckpt.npz", {"x": object()})

    def test_atomic_write_preserves_previous_on_failure(self, tmp_path, monkeypatch):
        path = tmp_path / "atomic.ckpt.npz"
        save_checkpoint(path, {"x": np.arange(3)})
        import repro.io.checkpoint as ckpt

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(ckpt.np, "savez", boom)
        with pytest.raises(OSError):
            save_checkpoint(path, {"x": np.arange(5)})
        monkeypatch.undo()
        loaded = load_checkpoint(path)  # the old complete checkpoint survives
        np.testing.assert_array_equal(loaded["x"], np.arange(3))
        assert list(tmp_path.glob("*.tmp")) == []
