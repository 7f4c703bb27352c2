"""Sweep records carry engine observability sections and aggregate them."""

from repro.obs import ENGINE_PHASES
from repro.sweep import ResultStore, SweepSpec, session_obs
from repro.sweep.worker import run_sweep_job

SPEC_KW = dict(
    datasets=("youtube",), n_seeds=1, n_iterations=6, eval_every=3, scale="tiny"
)


def _run(tmp_path, method: str) -> tuple[dict, ResultStore]:
    spec = SweepSpec(methods=(method,), **SPEC_KW)
    store = ResultStore(tmp_path / "out")
    store.bind_spec(spec)
    (job,) = spec.jobs()
    _, payload = run_sweep_job(job.to_dict(), str(tmp_path / "out"))
    return payload, store


class TestSweepObs:
    def test_engine_job_records_obs_section(self, tmp_path):
        payload, _ = _run(tmp_path, "snorkel")
        obs = payload["obs"]
        assert set(obs) == {
            "phase_seconds",
            "refits",
            "end_fits",
            "em_iterations",
            "label_fit_seconds",
            "open_interval_seconds",
        }
        assert obs["phase_seconds"]  # engine sessions always accrue phases
        assert set(obs["phase_seconds"]) == set(ENGINE_PHASES)
        assert all(isinstance(v, float) for v in obs["phase_seconds"].values())
        # Every protocol iteration ends in exactly one refit.
        assert sum(obs["refits"].values()) == SPEC_KW["n_iterations"]
        assert sum(obs["end_fits"].values()) == SPEC_KW["n_iterations"]
        # Label-model attribution: EM iterations ran and wall time accrued.
        assert set(obs["em_iterations"]) <= {"warm", "cold"}
        assert sum(obs["em_iterations"].values()) > 0
        assert all(v >= 0.0 for v in obs["label_fit_seconds"].values())
        assert obs["open_interval_seconds"] >= 0.0

    def test_non_engine_baseline_has_no_obs_section(self, tmp_path):
        # "us" (uncertainty sampling) is a hand-label baseline without the
        # engine's phase instrumentation; its record must stay obs-free.
        payload, _ = _run(tmp_path, "us")
        assert "obs" not in payload

    def test_obs_round_trips_through_store_json(self, tmp_path):
        payload, store = _run(tmp_path, "snorkel")
        stored = store.read_result(payload["key"])
        assert stored["obs"] == payload["obs"]

    def test_summarize_obs_aggregates_engine_jobs_only(self, tmp_path):
        spec = SweepSpec(methods=("snorkel", "us"), **SPEC_KW)
        store = ResultStore(tmp_path / "out")
        store.bind_spec(spec)
        for job in spec.jobs():
            run_sweep_job(job.to_dict(), str(tmp_path / "out"))
        summary = store.summarize_obs()
        assert summary["jobs"] == 1  # only the engine-backed method contributes
        assert sum(summary["refits"].values()) == SPEC_KW["n_iterations"]
        assert summary["phase_seconds"]

    def test_summarize_obs_on_empty_store(self, tmp_path):
        summary = ResultStore(tmp_path / "empty").summarize_obs()
        assert summary == {
            "jobs": 0,
            "phase_seconds": {},
            "refits": {},
            "end_fits": {},
            "open_interval_seconds": 0.0,
        }

    def test_session_obs_requires_an_engine_observer(self):
        class Bare:
            observer = None

        assert session_obs(Bare()) is None
