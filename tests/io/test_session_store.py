"""Tests for session transcripts: round-trip, replay equivalence, guards."""

import json

import pytest

from repro.core.lf import PrimitiveLF
from repro.core.session import DataProgrammingSession
from repro.data import load_dataset
from repro.interactive.basic_selectors import RandomSelector
from repro.interactive.simulated_user import SimulatedUser
from repro.io import (
    ReplayUser,
    ScriptedSelector,
    SessionTranscript,
    TranscriptEntry,
    load_transcript,
    replay_session,
    save_transcript,
    transcript_from_session,
)
from repro.io.session_store import _lf_from_dict, _lf_to_dict
from repro.multiclass.lf import MultiClassLF


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("amazon", scale="tiny", seed=0)


@pytest.fixture(scope="module")
def recorded(dataset):
    """A short live session and its transcript."""
    session = DataProgrammingSession(
        dataset, RandomSelector(), SimulatedUser(dataset, seed=3), seed=3
    )
    session.run(10)
    transcript = transcript_from_session(session, metadata={"method": "snorkel"})
    return session, transcript


class TestLFSerialization:
    def test_binary_round_trip(self):
        lf = PrimitiveLF(primitive_id=7, primitive="perfect", label=1)
        assert _lf_from_dict(_lf_to_dict(lf)) == lf

    def test_multiclass_round_trip(self):
        lf = MultiClassLF(primitive_id=3, primitive="goal", label=2)
        assert _lf_from_dict(_lf_to_dict(lf)) == lf

    def test_kind_distinguishes_types(self):
        binary = _lf_to_dict(PrimitiveLF(primitive_id=0, primitive="x", label=1))
        mc = _lf_to_dict(MultiClassLF(primitive_id=0, primitive="x", label=1))
        assert binary["kind"] == "binary"
        assert mc["kind"] == "multiclass"
        assert isinstance(_lf_from_dict(binary), PrimitiveLF)
        assert isinstance(_lf_from_dict(mc), MultiClassLF)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown LF kind"):
            _lf_from_dict({"kind": "ternary", "primitive_id": 0, "primitive": "x", "label": 1})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            _lf_to_dict(object())


class TestTranscriptModel:
    def test_from_session_captures_lineage(self, recorded):
        session, transcript = recorded
        assert len(transcript) == len(session.lineage)
        for entry, record in zip(transcript.entries, session.lineage.records):
            assert entry.dev_index == record.dev_index
            assert entry.lf == record.lf

    def test_metadata_preserved(self, recorded):
        _, transcript = recorded
        assert transcript.metadata["method"] == "snorkel"

    def test_unordered_entries_rejected(self):
        lf = PrimitiveLF(primitive_id=0, primitive="x", label=1)
        with pytest.raises(ValueError, match="ordered"):
            SessionTranscript(
                dataset_name="d",
                entries=[
                    TranscriptEntry(iteration=2, dev_index=0, lf=lf),
                    TranscriptEntry(iteration=1, dev_index=1, lf=lf),
                ],
            )

    def test_duplicate_iterations_rejected(self):
        lf = PrimitiveLF(primitive_id=0, primitive="x", label=1)
        with pytest.raises(ValueError, match="distinct"):
            SessionTranscript(
                dataset_name="d",
                entries=[
                    TranscriptEntry(iteration=1, dev_index=0, lf=lf),
                    TranscriptEntry(iteration=1, dev_index=1, lf=lf),
                ],
            )


class TestJsonRoundTrip:
    def test_save_load_identity(self, recorded, tmp_path):
        _, transcript = recorded
        path = save_transcript(transcript, tmp_path / "session.json")
        loaded = load_transcript(path)
        assert loaded.dataset_name == transcript.dataset_name
        assert loaded.metadata == transcript.metadata
        assert loaded.entries == transcript.entries

    def test_file_is_plain_json(self, recorded, tmp_path):
        _, transcript = recorded
        path = save_transcript(transcript, tmp_path / "session.json")
        data = json.loads(path.read_text())
        assert data["format_version"] == 1
        assert data["dataset_name"] == transcript.dataset_name

    def test_version_guard(self, recorded, tmp_path):
        _, transcript = recorded
        data = transcript.to_dict()
        data["format_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="format version"):
            load_transcript(path)

    def test_save_leaves_no_temp_files(self, recorded, tmp_path):
        _, transcript = recorded
        save_transcript(transcript, tmp_path / "session.json")
        assert [p.name for p in tmp_path.iterdir()] == ["session.json"]

    def test_crash_mid_write_preserves_previous_transcript(
        self, recorded, tmp_path, monkeypatch
    ):
        # Regression: an in-place write that dies midway left a truncated
        # file load_transcript could not parse.  The atomic rename must
        # keep the previous complete transcript readable and clean up its
        # temp file.
        import repro.io.atomic as atomic

        _, transcript = recorded
        path = tmp_path / "session.json"
        save_transcript(transcript, path)
        before = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomic.os, "replace", exploding_replace)
        broken = SessionTranscript(dataset_name="other", entries=[], metadata={})
        with pytest.raises(OSError, match="disk full"):
            save_transcript(broken, path)
        monkeypatch.undo()
        assert path.read_text() == before
        assert load_transcript(path).dataset_name == transcript.dataset_name
        assert [p.name for p in tmp_path.iterdir()] == ["session.json"]

    def test_save_overwrites_atomically(self, recorded, tmp_path):
        _, transcript = recorded
        path = tmp_path / "session.json"
        save_transcript(transcript, path)
        updated = SessionTranscript(
            dataset_name=transcript.dataset_name,
            entries=list(transcript.entries[:1]),
            metadata={"method": "updated"},
        )
        save_transcript(updated, path)
        loaded = load_transcript(path)
        assert loaded.metadata == {"method": "updated"}
        assert len(loaded) == 1


class TestReplay:
    def test_replay_reproduces_lfs_and_score(self, dataset, recorded):
        session, transcript = recorded
        replayed = replay_session(transcript, dataset, seed=0)
        assert [lf.name for lf in replayed.lfs] == [lf.name for lf in session.lfs]
        assert replayed.test_score() == pytest.approx(session.test_score())

    def test_replay_through_different_pipeline(self, dataset, recorded):
        from repro.core.contextualizer import LFContextualizer

        _, transcript = recorded
        contextualized = replay_session(
            transcript, dataset, contextualizer=LFContextualizer(percentile=50.0), seed=0
        )
        assert len(contextualized.lfs) == len(transcript)
        # the refined matrix may abstain where the raw one voted
        assert (contextualized.L_train != 0).sum() >= (
            contextualized._effective_votes().values != 0
        ).sum()

    def test_replay_on_wrong_dataset_rejected(self, recorded):
        _, transcript = recorded
        other = load_dataset("youtube", scale="tiny", seed=0)
        with pytest.raises(ValueError, match="recorded on"):
            replay_session(transcript, other)

    def test_replay_user_detects_divergence(self, dataset, recorded):
        _, transcript = recorded
        user = ReplayUser(transcript)
        session = DataProgrammingSession(dataset, RandomSelector(), user, seed=9)
        state = session.build_state()
        wrong_index = (transcript.entries[0].dev_index + 1) % dataset.train.n
        with pytest.raises(ValueError, match="divergence"):
            user.create_lf(wrong_index, state)

    def test_replay_multiclass_session(self):
        from repro.multiclass import (
            MCRandomSelector,
            MCSimulatedUser,
            MultiClassSession,
            make_topics_dataset,
        )

        ds = make_topics_dataset(n_docs=300, seed=0, vocab_scale=5)
        live = MultiClassSession(ds, MCRandomSelector(), MCSimulatedUser(ds, seed=1), seed=1)
        live.run(8)
        transcript = transcript_from_session(live)
        replayed = replay_session(transcript, ds, seed=0)
        assert [lf.name for lf in replayed.lfs] == [lf.name for lf in live.lfs]
        assert replayed.test_score() == pytest.approx(live.test_score())

    def test_scripted_selector_exhausts_to_none(self, dataset, recorded):
        _, transcript = recorded
        replayed = replay_session(transcript, dataset, seed=0)
        # one extra step after exhaustion is a no-op
        n_before = len(replayed.lfs)
        replayed.step()
        assert len(replayed.lfs) == n_before

    def test_replay_curve_matches_original(self, dataset):
        """Per-iteration scores match, not just the endpoint."""
        live = DataProgrammingSession(
            dataset, RandomSelector(), SimulatedUser(dataset, seed=11), seed=11
        )
        live_scores = []
        for _ in range(8):
            live.step()
            live_scores.append(live.test_score())
        transcript = transcript_from_session(live)
        replayed = DataProgrammingSession(
            dataset,
            ScriptedSelector(transcript),
            ReplayUser(transcript),
            seed=0,
        )
        replay_scores = []
        for _ in range(len(transcript)):
            replayed.step()
            replay_scores.append(replayed.test_score())
        # live sessions may have no-LF iterations; compare LF-bearing points
        assert replay_scores[-1] == pytest.approx(live_scores[-1])
        assert len(replayed.lfs) == len(live.lfs)
