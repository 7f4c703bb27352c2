"""SessionManager: isolation, durability, rotation, and restore parity."""

import numpy as np
import pytest

from repro.serve.manager import (
    BadSessionRequest,
    ServeError,
    SessionConflictError,
    SessionExistsError,
    SessionManager,
    UnknownSessionError,
)

CFG_A = dict(method="snorkel", dataset="amazon", scale="tiny", seed=11)
CFG_B = dict(method="seu", dataset="amazon", scale="tiny", seed=23)


def fingerprint(manager: SessionManager, name: str) -> tuple:
    """Everything observable about one session's learning state."""
    info = manager.info(name)
    session = manager._get(name).session
    return (
        info["iteration"],
        tuple((lf["primitive"], lf["label"]) for lf in info["lfs"]),
        manager.score(name)["test_score"],
        tuple(np.asarray(session.soft_labels).ravel().tolist()),
    )


class TestLifecycle:
    def test_create_duplicate_and_unknown(self, tmp_path):
        manager = SessionManager(tmp_path)
        manager.create("s1", **CFG_A)
        with pytest.raises(SessionExistsError):
            manager.create("s1", **CFG_A)
        with pytest.raises(UnknownSessionError):
            manager.info("nope")
        with pytest.raises(BadSessionRequest):
            manager.create("../escape", **CFG_A)
        with pytest.raises(BadSessionRequest):
            manager.create("ok", method="unknown-method")

    def test_non_protocol_method_rejected(self, tmp_path):
        manager = SessionManager(tmp_path)
        with pytest.raises(BadSessionRequest, match="protocol"):
            manager.create("al", method="us", dataset="amazon", scale="tiny")

    def test_bad_lf_keeps_interaction_open(self, tmp_path):
        manager = SessionManager(tmp_path)
        manager.create("s1", **CFG_A)
        proposal = manager.propose("s1")
        with pytest.raises(BadSessionRequest):
            manager.submit("s1", "no-such-primitive", 1)
        session = manager._get("s1").session
        assert session.pending is not None  # retry is possible
        result = manager.submit("s1", sorted(proposal["primitives"])[0], 1)
        assert result["outcome"] == "submitted"

    def test_refit_failure_after_commit_is_not_a_client_error(self, tmp_path, monkeypatch):
        """A post-commit refit failure must not masquerade as a 400.

        The engine clears the pending interaction at its commit point, so
        a refit exception means the LF is durable — report a server-side
        failure (the client must not retry submit) and still count the
        commit toward the snapshot cadence.
        """
        manager = SessionManager(tmp_path, snapshot_every=1)
        manager.create("s1", **CFG_A)
        proposal = manager.propose("s1")
        live = manager._get("s1")
        monkeypatch.setattr(
            live.session, "_refit", lambda: (_ for _ in ()).throw(ValueError("boom"))
        )
        with pytest.raises(ServeError) as err:
            manager.submit("s1", sorted(proposal["primitives"])[0], 1)
        assert err.value.status == 500
        assert "committed" in str(err.value)
        assert live.session.pending is None
        assert live.session.iteration == 1  # the commit landed
        assert live.commits_since_snapshot == 0  # cadence counted it (snapshotted)
        monkeypatch.undo()
        assert manager.step("s1")["iteration"] == 2  # session still serves

    def test_snapshot_with_open_interaction_conflicts(self, tmp_path):
        manager = SessionManager(tmp_path)
        manager.create("s1", **CFG_A)
        manager.propose("s1")
        with pytest.raises(SessionConflictError):
            manager.snapshot("s1")
        manager.decline("s1")
        assert manager.snapshot("s1")["iteration"] == 1


class TestMultiSessionIsolation:
    """Satellite: interleaved sessions == the same sessions run sequentially."""

    def test_interleaved_equals_sequential(self, tmp_path):
        interleaved = SessionManager(tmp_path / "a", snapshot_every=3)
        interleaved.create("s1", **CFG_A)
        interleaved.create("s2", **CFG_B)
        for _ in range(8):  # strict alternation
            interleaved.step("s1")
            interleaved.step("s2")

        sequential = SessionManager(tmp_path / "b", snapshot_every=3)
        sequential.create("s1", **CFG_A)
        for _ in range(8):
            sequential.step("s1")
        sequential.create("s2", **CFG_B)
        for _ in range(8):
            sequential.step("s2")

        assert fingerprint(interleaved, "s1") == fingerprint(sequential, "s1")
        assert fingerprint(interleaved, "s2") == fingerprint(sequential, "s2")

    def test_managed_session_equals_plain_session(self, tmp_path):
        """manager.step drives the same commands as InteractiveMethod.step."""
        from repro.experiments.registry import resolve_factory

        manager = SessionManager(tmp_path, snapshot_every=2)
        manager.create("s1", **CFG_A, user_threshold=0.5)
        for _ in range(6):
            manager.step("s1")

        dataset = manager._dataset(manager._get("s1").meta)
        plain = resolve_factory(CFG_A["method"], CFG_A["dataset"], 0.5)(
            dataset, CFG_A["seed"]
        )
        for _ in range(6):
            plain.step()
        info = manager.info("s1")
        assert info["iteration"] == plain.iteration
        assert [(lf["primitive"], lf["label"]) for lf in info["lfs"]] == [
            (str(lf.primitive), int(lf.label)) for lf in plain.lfs
        ]
        assert manager.score("s1")["test_score"] == plain.test_score()

    def test_command_records_are_per_session(self, tmp_path):
        manager = SessionManager(tmp_path)
        manager.create("s1", **CFG_A)
        manager.create("s2", **CFG_B)
        manager.step("s1")
        s1 = manager._get("s1").session
        s2 = manager._get("s2").session
        assert s1.rng is not s2.rng
        # Each engine reports only its own commands; the one shared
        # observer sums them, so s2 (never stepped) contributed nothing.
        assert s1.last_command_obs is not None
        assert s2.last_command_obs is None
        assert s1.observer is s2.observer is manager.observer
        commands = dict(manager.observer.commands.items())
        assert commands[("propose",)] == 1
        totals = manager.observer.totals()
        assert totals["phase_seconds"]["select"] > 0.0
        assert totals["refits"] == s1.refit_counts


class TestDurability:
    def test_restart_restores_and_continues_bit_identically(self, tmp_path):
        """Kill after un-snapshotted commits → replay equals uninterrupted."""
        root = tmp_path / "killed"
        first = SessionManager(root, snapshot_every=2, keep_last=2)
        first.create("s1", **CFG_A)
        for _ in range(7):  # snapshots at 2, 4, 6; commit 7 is lost
            first.step("s1")
        del first  # "SIGKILL": nothing flushed beyond the atomic snapshots

        resumed = SessionManager(root, snapshot_every=2, keep_last=2)
        assert resumed.info("s1")["iteration"] == 6  # latest rotated snapshot
        for _ in range(4):  # replay 7, then 8..10
            resumed.step("s1")

        reference = SessionManager(tmp_path / "ref", snapshot_every=2, keep_last=2)
        reference.create("s1", **CFG_A)
        for _ in range(10):
            reference.step("s1")
        assert fingerprint(resumed, "s1") == fingerprint(reference, "s1")

    def test_rotation_keeps_last_n(self, tmp_path):
        manager = SessionManager(tmp_path, snapshot_every=1, keep_last=3)
        manager.create("s1", **CFG_A)
        for _ in range(8):
            manager.step("s1")
        files = manager._checkpoint_files("s1")
        assert len(files) == 3
        assert [f.name for f in files] == sorted(f.name for f in files)
        assert files[-1].name == "step-00000008.ckpt.npz"

    def test_listing_does_not_restore(self, tmp_path):
        root = tmp_path
        manager = SessionManager(root)
        manager.create("s1", **CFG_A)
        for _ in range(5):
            manager.step("s1")
        fresh = SessionManager(root)
        infos = fresh.sessions()
        assert [i["name"] for i in infos] == ["s1"]
        assert infos[0]["live"] is False
        assert infos[0]["last_snapshot_iteration"] == 5
        assert fresh._live == {}  # listing never deserialized an engine

    def test_multiclass_session_serves_and_restores(self, tmp_path):
        """The protocol is cardinality-generic: topics sessions serve too."""
        manager = SessionManager(tmp_path, snapshot_every=1)
        manager.create(
            "mc", method="snorkel-mc", dataset="topics", scale="tiny", seed=4
        )
        proposal = manager.propose("mc")
        assert proposal["primitives"]
        result = manager.submit("mc", sorted(proposal["primitives"])[0], 0)
        assert result["outcome"] == "submitted" and result["lf"]["label"] == 0
        manager.step("mc")
        fresh = SessionManager(tmp_path, snapshot_every=1)
        assert fresh.info("mc")["iteration"] == 2
        assert fresh.score("mc") == manager.score("mc")

    def test_corrupt_checkpoint_falls_back_to_older(self, tmp_path):
        manager = SessionManager(tmp_path, snapshot_every=1, keep_last=3)
        manager.create("s1", **CFG_A)
        for _ in range(4):
            manager.step("s1")
        files = manager._checkpoint_files("s1")
        files[-1].write_bytes(b"torn garbage")
        fresh = SessionManager(tmp_path, snapshot_every=1, keep_last=3)
        assert fresh.info("s1")["iteration"] == 3  # newest loadable snapshot

    def test_checkpoint_order_survives_padding_rollover(self, tmp_path):
        """Iterations ≥ 10^8 overflow the 8-digit padding: ``step-100000000``
        sorts lexicographically *before* ``step-99999999``, so a filename
        sort would restore the older snapshot as "newest"."""
        import shutil

        manager = SessionManager(tmp_path, snapshot_every=1, keep_last=3)
        manager.create("s1", **CFG_A)
        manager.step("s1")  # snapshot @1
        manager.step("s1")  # snapshot @2
        directory = manager.session_dir("s1")
        # Re-stamp the snapshots as a rollover pair: iteration 99 999 999
        # holds the @1 state, iteration 100 000 000 the (newer) @2 state.
        shutil.move(directory / "step-00000001.ckpt.npz", directory / "step-99999999.ckpt.npz")
        shutil.move(directory / "step-00000002.ckpt.npz", directory / "step-100000000.ckpt.npz")
        (directory / "step-00000000.ckpt.npz").unlink()

        fresh = SessionManager(tmp_path, snapshot_every=1, keep_last=3)
        assert [p.name for p in fresh._checkpoint_files("s1")] == [
            "step-99999999.ckpt.npz",
            "step-100000000.ckpt.npz",
        ]
        # Newest-first restore picks the 10^8 file (the @2 state).
        assert fresh.info("s1")["iteration"] == 2
