"""EngineObserver: the one place engine command records are summed.

``IncrementalSessionEngine`` reports each command once: after
``propose``/``submit``/``decline`` it builds one plain dict
(``last_command_obs``) and hands it to its transient ``observer``
attribute (never checkpointed — see ``obs-no-state-leak``).  The record
says which command ran, its per-phase compute seconds, the refit facts
(path, end-model fit mode, EM iterations, label-fit seconds) and — for
submit/decline — how long the proposal sat open (human think-time, kept
apart from compute).

The engine keeps no totals of its own.  :class:`EngineObserver` sums the
records into a metrics registry, and :meth:`EngineObserver.totals` is the
one view of those sums that ``/statusz``, sweep records and the
throughput benchmark read.  One observer instance is shared across all
live sessions of a :class:`~repro.serve.manager.SessionManager`; label
cardinality stays bounded (phase names, fit modes), never per-session.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .trace import current_span

__all__ = ["COMPUTE_PHASES", "ENGINE_PHASES", "EngineObserver"]

#: Engine phases a command record may carry, in IDP-loop order.
ENGINE_PHASES = ("select", "develop", "label_model", "end_model", "contextualize")

#: The phases that partition a command's compute.  ``contextualize`` (the
#: Eq.-4 refinement) runs inside the ``label_model`` refit, so it is a
#: slice of that phase and never adds into a compute total.
COMPUTE_PHASES = ENGINE_PHASES[:4]

#: Label-model refit paths (ENGINE.md §2).
REFIT_PATHS = ("cold", "warm")


class EngineObserver:
    """Sums engine command records into a metrics registry."""

    def __init__(self, registry=None):
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.commands = r.counter(
            "repro_engine_commands_total",
            "Engine commands executed, by command.",
            ("command",),
        )
        self.phase_seconds = r.counter(
            "repro_engine_phase_seconds_total",
            "Engine compute seconds accrued, by phase.",
            ("phase",),
        )
        self.refits = r.counter(
            "repro_engine_refits_total",
            "Label-model refits, by path (warm or cold backstop).",
            ("path",),
        )
        self.end_fits = r.counter(
            "repro_engine_end_fits_total",
            "End-model fits, by mode.",
            ("mode",),
        )
        self.open_interval_seconds = r.counter(
            "repro_engine_open_interval_seconds_total",
            "Wall seconds proposals sat open awaiting the user (not compute).",
        )
        self.em_iterations = r.counter(
            "repro_labelmodel_em_iterations_total",
            "Label-model EM iterations run, by refit path.",
            ("path",),
        )
        self.label_fit_seconds = r.counter(
            "repro_labelmodel_fit_seconds_total",
            "Label-model fit wall seconds, by refit path.",
            ("path",),
        )

    def on_command(self, info):
        """Record one engine command record.

        ``info`` is engine-built and JSON-safe: ``command`` (str),
        ``phases`` ({phase: seconds}), optional ``refit``
        ({"path", "end_fit_mode", "em_iterations", "fit_seconds"}),
        optional ``open_interval_seconds`` (float).
        """
        command = info.get("command", "unknown")
        self.commands.inc(command)
        phases = info.get("phases") or {}
        for phase, seconds in phases.items():
            self.phase_seconds.inc(phase, amount=float(seconds))
        refit = info.get("refit")
        if refit:
            path = refit.get("path", "unknown")
            self.refits.inc(path)
            mode = refit.get("end_fit_mode")
            if mode:
                self.end_fits.inc(mode)
            em_iterations = refit.get("em_iterations")
            if em_iterations is not None:
                self.em_iterations.inc(path, amount=int(em_iterations))
            fit_seconds = refit.get("fit_seconds")
            if fit_seconds is not None:
                self.label_fit_seconds.inc(path, amount=float(fit_seconds))
        open_interval = info.get("open_interval_seconds")
        if open_interval is not None:
            self.open_interval_seconds.inc(amount=float(open_interval))

        span = current_span()
        if span is not None:
            for phase, seconds in phases.items():
                span.add_phase(f"engine.{phase}", float(seconds))
            if refit:
                span.annotate(
                    refit_path=refit.get("path"),
                    end_fit_mode=refit.get("end_fit_mode"),
                )
            if open_interval is not None:
                span.annotate(open_interval_ms=round(float(open_interval) * 1000.0, 3))

    def totals(self) -> dict:
        """Everything recorded so far, as plain JSON with sorted keys.

        ``phase_seconds`` covers every :data:`ENGINE_PHASES` entry, and the
        per-path maps (``refits``, ``em_iterations``,
        ``label_fit_seconds``) cover both refit paths, zero-filled;
        ``end_fits`` lists the modes that ran.  ``contextualize`` is a
        slice of ``label_model``: a compute total sums
        :data:`COMPUTE_PHASES` only.
        """

        def by_label(counter, keys, cast):
            seen = {labels[0]: value for labels, value in counter.items()}
            return {k: cast(seen.get(k, 0)) for k in sorted(set(keys) | set(seen))}

        return {
            "phase_seconds": by_label(self.phase_seconds, ENGINE_PHASES, float),
            "refits": by_label(self.refits, REFIT_PATHS, int),
            "end_fits": by_label(self.end_fits, (), int),
            "em_iterations": by_label(self.em_iterations, REFIT_PATHS, int),
            "label_fit_seconds": by_label(self.label_fit_seconds, REFIT_PATHS, float),
            "open_interval_seconds": float(self.open_interval_seconds.value()),
        }
