"""Instrumentation is determinism-neutral: on vs off changes nothing.

ENGINE.md §9's contract: attaching an observer, a metrics registry, and
an active request span must not perturb a single bit of a session's
transcript or its checkpoint payload.  These tests run identical seeded
sessions with instrumentation fully enabled and fully disabled and
compare exactly.
"""

import numpy as np
import pytest

from repro.io.checkpoint import save_session_checkpoint
from repro.obs import EngineObserver, MetricsRegistry, request_span


@pytest.fixture(scope="module")
def binary_dataset():
    from repro.data import load_dataset

    return load_dataset("amazon", scale="tiny", seed=0)


def _nemo_session(dataset, instrumented: bool):
    from repro.core.contextualizer import LFContextualizer, PercentileTuner
    from repro.core.session import DataProgrammingSession
    from repro.core.seu import SEUSelector
    from repro.interactive.simulated_user import SimulatedUser

    session = DataProgrammingSession(
        dataset,
        SEUSelector(),
        SimulatedUser(dataset, seed=1),
        contextualizer=LFContextualizer(),
        percentile_tuner=PercentileTuner(metric=dataset.metric),
        seed=0,
    )
    if instrumented:
        session.observer = EngineObserver(MetricsRegistry())
    return session


def _transcript(session):
    return {
        "lfs": [(int(lf.primitive_id), int(lf.label)) for lf in session.lfs],
        "selected": sorted(int(i) for i in session.selected),
        "percentile": session.active_percentile_,
        "score": session.test_score(),
    }


class TestTranscriptParity:
    def test_instrumented_run_is_bit_identical(self, binary_dataset):
        bare = _nemo_session(binary_dataset, instrumented=False)
        bare.run(10)
        instrumented = _nemo_session(binary_dataset, instrumented=True)
        with request_span("test.run"):  # engine annotates the active span
            instrumented.run(10)
        assert _transcript(instrumented) == _transcript(bare)
        np.testing.assert_array_equal(
            instrumented.soft_labels, bare.soft_labels
        )
        # ... and the instrumentation actually ran (not vacuous parity)
        commands = instrumented.observer.registry.get("repro_engine_commands_total")
        assert sum(v for _, v in commands.items()) >= 10


class TestCheckpointParity:
    def test_payloads_identical_with_and_without_observer(
        self, binary_dataset, tmp_path
    ):
        """On vs off: same keys, same bytes, same header — checkpoints
        carry no wall-clock readings, so nothing is exempt."""
        import json

        bare = _nemo_session(binary_dataset, instrumented=False)
        bare.run(6)
        instrumented = _nemo_session(binary_dataset, instrumented=True)
        with request_span("test.ckpt"):
            instrumented.run(6)

        extra = {"job_key": "parity", "iteration": 6}
        p_bare = save_session_checkpoint(bare, tmp_path / "bare.ckpt.npz", extra=extra)
        p_inst = save_session_checkpoint(
            instrumented, tmp_path / "inst.ckpt.npz", extra=extra
        )
        with np.load(p_bare, allow_pickle=True) as a, np.load(
            p_inst, allow_pickle=True
        ) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                if key == "__checkpoint__":
                    continue
                assert a[key].tobytes() == b[key].tobytes(), key
            header_a = json.loads(a["__checkpoint__"].tobytes().decode("utf-8"))
            header_b = json.loads(b["__checkpoint__"].tobytes().decode("utf-8"))
        assert header_a == header_b

    def test_instrumented_checkpoint_round_trip_is_bit_identical(
        self, binary_dataset, tmp_path
    ):
        """Save → load → save with the observer attached throughout:
        the second file's payload is byte-for-byte the first's."""
        from repro.io.checkpoint import load_session_checkpoint

        first = _nemo_session(binary_dataset, instrumented=True)
        first.run(6)
        p1 = save_session_checkpoint(first, tmp_path / "one.ckpt.npz", extra={"i": 6})

        restored = _nemo_session(binary_dataset, instrumented=True)
        with request_span("test.restore"):
            extra = load_session_checkpoint(restored, p1)
        assert extra == {"i": 6}
        p2 = save_session_checkpoint(restored, tmp_path / "two.ckpt.npz", extra={"i": 6})

        with np.load(p1, allow_pickle=True) as a, np.load(p2, allow_pickle=True) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                assert a[key].tobytes() == b[key].tobytes(), key

    def test_state_dict_carries_no_obs_fields(self, binary_dataset):
        instrumented = _nemo_session(binary_dataset, instrumented=True)
        instrumented.run(3)
        state = instrumented.state_dict()
        for forbidden in ("observer", "refit_counts", "end_fit_counts",
                          "open_interval_seconds", "last_command_obs"):
            assert forbidden not in state
