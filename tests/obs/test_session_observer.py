"""EngineObserver wired to a real engine session: counts and attribution.

The engine reports each command once, as one record; the observer is the
only place those records are summed.  These tests hold the observer's
counters and :meth:`EngineObserver.totals` to the records themselves.
"""

import pytest

from repro.obs import ENGINE_PHASES, EngineObserver, MetricsRegistry, request_span


class RecordingObserver(EngineObserver):
    """An observer that also keeps every command record it was handed."""

    def __init__(self, registry=None):
        super().__init__(registry)
        self.records = []

    def on_command(self, info):
        self.records.append(info)
        super().on_command(info)


@pytest.fixture(scope="module")
def dataset():
    from repro.data import load_dataset

    return load_dataset("amazon", scale="tiny", seed=0)


@pytest.fixture(scope="module")
def topics():
    from repro.multiclass import make_topics_dataset

    return make_topics_dataset(n_docs=200, seed=0, vocab_scale=6)


def _session(dataset, seed=0):
    from repro.core.session import DataProgrammingSession
    from repro.core.seu import SEUSelector
    from repro.interactive.simulated_user import SimulatedUser

    return DataProgrammingSession(
        dataset, SEUSelector(), SimulatedUser(dataset, seed=1), seed=seed
    )


def _nemo_session(dataset, seed=0):
    """The paper's full system: SEU plus the contextualized pipeline."""
    from repro.core.config import NemoConfig
    from repro.interactive.simulated_user import SimulatedUser

    return NemoConfig().create_session(dataset, SimulatedUser(dataset, seed=1), seed=seed)


def _mc_session(topics, seed=0):
    from repro.multiclass.selection import MCRandomSelector
    from repro.multiclass.session import MultiClassSession
    from repro.multiclass.simulated_user import MCSimulatedUser

    return MultiClassSession(
        topics, MCRandomSelector(), MCSimulatedUser(topics, seed=1), seed=seed
    )


def _summed_records(records):
    """The totals, recomputed from the command records in arrival order."""
    phases = {p: 0.0 for p in ENGINE_PHASES}
    refits = {"cold": 0, "warm": 0}
    end_fits = {}
    em = {"cold": 0, "warm": 0}
    fit_seconds = {"cold": 0.0, "warm": 0.0}
    open_interval = 0.0
    for rec in records:
        for phase, seconds in rec["phases"].items():
            phases[phase] += seconds
        refit = rec["refit"]
        if refit:
            path = refit["path"]
            refits[path] += 1
            end_fits[refit["end_fit_mode"]] = end_fits.get(refit["end_fit_mode"], 0) + 1
            em[path] += refit["em_iterations"]
            fit_seconds[path] += refit["fit_seconds"]
        if rec["open_interval_seconds"] is not None:
            open_interval += rec["open_interval_seconds"]
    return {
        "phase_seconds": phases,
        "refits": refits,
        "end_fits": dict(sorted(end_fits.items())),
        "em_iterations": em,
        "label_fit_seconds": fit_seconds,
        "open_interval_seconds": open_interval,
    }


class TestEngineObserver:
    def test_command_counts_match_protocol(self, dataset):
        registry = MetricsRegistry()
        session = _session(dataset)
        session.observer = EngineObserver(registry)
        n = 6
        session.run(n)

        commands = registry.get("repro_engine_commands_total")
        by_cmd = dict(
            (labels[0], value) for labels, value in commands.items()
        )
        assert by_cmd["propose"] == n
        # every iteration resolves as exactly one submit or decline
        assert by_cmd.get("submit", 0) + by_cmd.get("decline", 0) == n

        refits = registry.get("repro_engine_refits_total")
        assert sum(v for _, v in refits.items()) == n
        end_fits = registry.get("repro_engine_end_fits_total")
        assert sum(v for _, v in end_fits.items()) == n

    def test_label_model_attribution_counters(self, dataset):
        registry = MetricsRegistry()
        session = _session(dataset)
        observer = session.observer = RecordingObserver(registry)
        session.run(5)
        refits = [rec["refit"] for rec in observer.records if rec["refit"]]

        em = dict(
            (labels[0], value)
            for labels, value in registry.get(
                "repro_labelmodel_em_iterations_total"
            ).items()
        )
        assert set(em) <= {"warm", "cold"}
        assert sum(em.values()) > 0
        # The observer's counters sum the per-command refit facts.
        for path, total in em.items():
            assert total == sum(r["em_iterations"] for r in refits if r["path"] == path)

        fit_seconds = dict(
            (labels[0], value)
            for labels, value in registry.get(
                "repro_labelmodel_fit_seconds_total"
            ).items()
        )
        assert set(fit_seconds) == set(em)
        for path, total in fit_seconds.items():
            assert total == pytest.approx(
                sum(r["fit_seconds"] for r in refits if r["path"] == path)
            )
            assert total >= 0.0

    def test_phase_seconds_accrue_known_phases(self, dataset):
        registry = MetricsRegistry()
        session = _session(dataset)
        observer = session.observer = RecordingObserver(registry)
        session.run(4)
        phases = dict(
            (labels[0], value)
            for labels, value in registry.get("repro_engine_phase_seconds_total").items()
        )
        assert "select" in phases and "develop" in phases
        assert all(v >= 0.0 for v in phases.values())
        # the counters hold exactly what the command records carried
        for phase, seconds in phases.items():
            recorded = sum(rec["phases"].get(phase, 0.0) for rec in observer.records)
            assert seconds == pytest.approx(recorded, rel=1e-12, abs=1e-15)

    def test_open_interval_excluded_from_develop(self, dataset):
        import time

        from repro.core.protocol import SimulatedDriver

        registry = MetricsRegistry()
        session = _session(dataset)
        observer = session.observer = EngineObserver(registry)
        driver = SimulatedDriver(session)
        before = observer.totals()["phase_seconds"]["develop"]
        session.propose()  # idempotent: driver.step() reuses this pending
        time.sleep(0.05)  # user "thinks" — must not count as develop compute
        driver.step()
        think_free = observer.totals()["phase_seconds"]["develop"] - before
        assert think_free < 0.05
        assert session.last_command_obs["open_interval_seconds"] >= 0.05
        assert observer.totals()["open_interval_seconds"] >= 0.05
        open_total = registry.get("repro_engine_open_interval_seconds_total")
        assert open_total.value() >= 0.05

    def test_span_annotated_when_active(self, dataset):
        from repro.core.protocol import SimulatedDriver

        session = _session(dataset)
        session.observer = EngineObserver(MetricsRegistry())
        driver = SimulatedDriver(session)
        with request_span("http.step") as span:
            driver.step()
        assert any(k.startswith("engine.") for k in span.phases)
        assert span.annotations.get("refit_path") in {"warm", "cold"}
        assert "end_fit_mode" in span.annotations
        assert "open_interval_ms" in span.annotations

    def test_observer_is_transient_not_checkpointed(self, dataset):
        session = _session(dataset)
        session.observer = EngineObserver(MetricsRegistry())
        state = session.state_dict()
        flat = repr(sorted(state))
        assert "observer" not in flat
        assert "refit_counts" not in flat
        assert "open_interval" not in flat
        assert "em_iteration_counts" not in flat
        assert "label_fit_seconds" not in flat


class TestTotals:
    """``totals()`` is the one summed view, and it sums the records."""

    @pytest.mark.parametrize("kind", ["binary-nemo", "multiclass"])
    def test_totals_equal_summed_records(self, kind, dataset, topics):
        if kind == "multiclass":
            session = _mc_session(topics)
        else:
            session = _nemo_session(dataset)
        observer = session.observer = RecordingObserver()
        session.run(6)
        session.propose()
        session.decline()

        totals = observer.totals()
        assert totals == _summed_records(observer.records)
        assert sum(totals["refits"].values()) == sum(
            rec["command"] == "submit" for rec in observer.records
        )
        if kind == "binary-nemo":
            assert totals["phase_seconds"]["contextualize"] > 0.0

    def test_totals_shape_is_zero_filled(self):
        totals = EngineObserver().totals()
        assert totals == {
            "phase_seconds": {p: 0.0 for p in sorted(ENGINE_PHASES)},
            "refits": {"cold": 0, "warm": 0},
            "end_fits": {},
            "em_iterations": {"cold": 0, "warm": 0},
            "label_fit_seconds": {"cold": 0.0, "warm": 0.0},
            "open_interval_seconds": 0.0,
        }

    @pytest.mark.parametrize("kind", ["binary", "binary-nemo", "multiclass"])
    def test_each_command_reports_its_own_phases(self, kind, dataset, topics):
        if kind == "multiclass":
            session = _mc_session(topics)
        elif kind == "binary-nemo":
            session = _nemo_session(dataset)
        else:
            session = _session(dataset)
        observer = session.observer = RecordingObserver()
        session.run(4)
        session.propose()
        session.decline()

        submit_phases = {"develop", "label_model", "end_model"}
        if session.contextualizer is not None:
            submit_phases.add("contextualize")
        expected = {"propose": {"select"}, "submit": submit_phases, "decline": set()}
        seen = set()
        for rec in observer.records:
            assert set(rec["phases"]) == expected[rec["command"]], rec
            assert (rec["refit"] is not None) == (rec["command"] == "submit")
            seen.add(rec["command"])
        assert seen == {"propose", "submit", "decline"}
        assert session.last_command_obs is observer.records[-1]

    @pytest.mark.parametrize("kind", ["binary", "multiclass"])
    def test_engine_keeps_no_running_totals(self, kind, dataset, topics):
        import repro.core.engine as engine

        session = _mc_session(topics) if kind == "multiclass" else _session(dataset)
        session.run(3)
        for name in (
            "phase_timings",
            "em_iteration_counts",
            "label_fit_seconds",
            "end_fit_counts",
            "open_interval_seconds",
            "last_open_interval",
            "last_refit_obs",
            "_phase_deltas",
            "_record_open_interval",
        ):
            assert not hasattr(session, name), name
        assert not hasattr(engine, "PHASES")
        # the one running count left, read by the in-process bench harness
        assert sum(session.refit_counts.values()) == 3
