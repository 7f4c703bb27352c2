"""Transcript data model, JSON round-trip, and session replay.

A transcript is the persisted form of the IDP interaction history: the
ordered ``(iteration, dev_index, LF)`` triples of the lineage store
(paper Sec. 3's ``(Λ_t, S_t)`` tuples).  Iterations in which the user
produced no LF are not recorded — they leave the learning state untouched,
so a replay of the recorded triples reproduces the same sequence of label
matrices, label models, and end models.

Both the binary (:class:`repro.core.lf.PrimitiveLF`) and multiclass
(:class:`repro.multiclass.lf.MultiClassLF`) LF types serialize through a
``kind`` tag; primitives are stored by *token* (with the id as a
consistency check), so a transcript survives re-featurization as long as
the vocabulary is stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.lf import PrimitiveLF
from repro.io.atomic import atomic_write_text
from repro.core.selection import DevDataSelector, SessionState
from repro.core.session import DataProgrammingSession, LFDeveloper

TRANSCRIPT_FORMAT_VERSION = 1

_LF_KINDS = {"binary", "multiclass"}


def _lf_to_dict(lf) -> dict:
    """Serialize a PrimitiveLF or MultiClassLF to plain JSON types."""
    from repro.multiclass.lf import MultiClassLF

    if isinstance(lf, PrimitiveLF):
        kind = "binary"
    elif isinstance(lf, MultiClassLF):
        kind = "multiclass"
    else:
        raise TypeError(f"cannot serialize LF of type {type(lf).__name__}")
    return {
        "kind": kind,
        "primitive_id": int(lf.primitive_id),
        "primitive": str(lf.primitive),
        "label": int(lf.label),
    }


def _lf_from_dict(data: dict):
    """Inverse of :func:`_lf_to_dict`."""
    kind = data.get("kind")
    if kind not in _LF_KINDS:
        raise ValueError(f"unknown LF kind {kind!r}; expected one of {sorted(_LF_KINDS)}")
    if kind == "binary":
        return PrimitiveLF(
            primitive_id=int(data["primitive_id"]),
            primitive=str(data["primitive"]),
            label=int(data["label"]),
        )
    from repro.multiclass.lf import MultiClassLF

    return MultiClassLF(
        primitive_id=int(data["primitive_id"]),
        primitive=str(data["primitive"]),
        label=int(data["label"]),
    )


@dataclass(frozen=True)
class TranscriptEntry:
    """One recorded interaction: the ``(Λ_t, S_t)`` tuple of iteration ``t``."""

    iteration: int
    dev_index: int
    lf: object  # PrimitiveLF | MultiClassLF

    def to_dict(self) -> dict:
        return {
            "iteration": int(self.iteration),
            "dev_index": int(self.dev_index),
            "lf": _lf_to_dict(self.lf),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TranscriptEntry":
        return cls(
            iteration=int(data["iteration"]),
            dev_index=int(data["dev_index"]),
            lf=_lf_from_dict(data["lf"]),
        )


@dataclass
class SessionTranscript:
    """A persisted IDP interaction history.

    Attributes
    ----------
    dataset_name:
        Name of the dataset the session ran on (consistency check at
        replay time).
    entries:
        The recorded interactions, ordered by iteration.
    metadata:
        Free-form provenance (method name, seed, user parameters, ...).
    """

    dataset_name: str
    entries: list[TranscriptEntry] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def __post_init__(self) -> None:
        iterations = [e.iteration for e in self.entries]
        if iterations != sorted(iterations):
            raise ValueError("transcript entries must be ordered by iteration")
        if len(set(iterations)) != len(iterations):
            raise ValueError("transcript entries must have distinct iterations")

    def to_dict(self) -> dict:
        return {
            "format_version": TRANSCRIPT_FORMAT_VERSION,
            "dataset_name": self.dataset_name,
            "metadata": dict(self.metadata),
            "entries": [e.to_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionTranscript":
        version = data.get("format_version")
        if version != TRANSCRIPT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported transcript format version {version!r}; "
                f"this build reads version {TRANSCRIPT_FORMAT_VERSION}"
            )
        return cls(
            dataset_name=str(data["dataset_name"]),
            entries=[TranscriptEntry.from_dict(e) for e in data["entries"]],
            metadata=dict(data.get("metadata", {})),
        )


def transcript_from_session(session, metadata: dict | None = None) -> SessionTranscript:
    """Extract the transcript of a (binary or multiclass) session.

    Works on any object exposing a ``lineage`` store and a ``dataset``,
    such as a :class:`~repro.core.session.DataProgrammingSession`.
    """
    entries = [
        TranscriptEntry(iteration=r.iteration, dev_index=r.dev_index, lf=r.lf)
        for r in session.lineage.records
    ]
    return SessionTranscript(
        dataset_name=session.dataset.name,
        entries=entries,
        metadata=dict(metadata or {}),
    )


def save_transcript(transcript: SessionTranscript, path: str | Path) -> Path:
    """Write a transcript as JSON atomically; returns the path written.

    An in-place write that crashes midway leaves a truncated file
    :func:`load_transcript` cannot parse, destroying the very history the
    transcript exists to preserve — so the write goes through
    :func:`repro.io.atomic.atomic_write_text` (temp file + rename):
    readers see either the old complete transcript or the new one, never a
    torn write.
    """
    payload = json.dumps(transcript.to_dict(), indent=2) + "\n"
    return atomic_write_text(path, payload)


def load_transcript(path: str | Path) -> SessionTranscript:
    """Read a transcript written by :func:`save_transcript`."""
    return SessionTranscript.from_dict(json.loads(Path(path).read_text()))


class ScriptedSelector(DevDataSelector):
    """Replays the recorded development-data choices, one per step.

    Returns ``None`` once the transcript is exhausted (the session then
    consumes the iteration without learning, as with an empty pool).
    """

    name = "scripted"

    def __init__(self, transcript: SessionTranscript) -> None:
        self.transcript = transcript
        self._cursor = 0

    def select(self, state: SessionState) -> int | None:
        if self._cursor >= len(self.transcript.entries):
            return None
        entry = self.transcript.entries[self._cursor]
        self._cursor += 1
        n = state.n_train
        if not 0 <= entry.dev_index < n:
            raise ValueError(
                f"transcript dev_index {entry.dev_index} out of range for "
                f"train split of size {n}"
            )
        return entry.dev_index


class ReplayUser(LFDeveloper):
    """Replays the recorded LFs, one per step, verifying the dev index.

    The replayed LF is rebuilt against the *current* dataset's primitive
    domain by token, so replay fails loudly (rather than silently voting
    through the wrong column) if the vocabulary changed.
    """

    def __init__(self, transcript: SessionTranscript) -> None:
        self.transcript = transcript
        self._cursor = 0

    def create_lf(self, dev_index: int, state):
        if self._cursor >= len(self.transcript.entries):
            return None
        entry = self.transcript.entries[self._cursor]
        self._cursor += 1
        if entry.dev_index != dev_index:
            raise ValueError(
                f"replay divergence at entry {self._cursor - 1}: recorded dev "
                f"index {entry.dev_index}, session selected {dev_index}"
            )
        rebuilt = state.family.make_by_token(entry.lf.primitive, entry.lf.label)
        if rebuilt.primitive_id != entry.lf.primitive_id:
            raise ValueError(
                f"primitive {entry.lf.primitive!r} moved from column "
                f"{entry.lf.primitive_id} to {rebuilt.primitive_id}; the "
                f"dataset was featurized differently from the recording"
            )
        return rebuilt


def replay_session(
    transcript: SessionTranscript,
    dataset,
    **session_kwargs,
) -> DataProgrammingSession:
    """Re-drive a recorded interaction history through a learning pipeline.

    Parameters
    ----------
    transcript:
        The recorded history.
    dataset:
        The featurized dataset the transcript was recorded on (or an
        identically-featurized rebuild; name and vocabulary are checked).
        Its label space picks the vote alphabet, so binary and multiclass
        transcripts replay alike.
    **session_kwargs:
        Forwarded to :class:`~repro.core.session.DataProgrammingSession` —
        this is where a *different* learning
        pipeline is plugged in (``contextualizer=...``,
        ``label_model_factory=...``) to re-score recorded LFs, as the
        paper does for ImplyLoss on the Snorkel user-study LFs.

    Returns
    -------
    The session after all recorded interactions have been replayed.
    """
    if dataset.name != transcript.dataset_name:
        raise ValueError(
            f"transcript was recorded on {transcript.dataset_name!r} but the "
            f"given dataset is {dataset.name!r}"
        )
    session = DataProgrammingSession(
        dataset,
        ScriptedSelector(transcript),
        ReplayUser(transcript),
        **session_kwargs,
    )
    for _ in range(len(transcript.entries)):
        session.step()
    return session
