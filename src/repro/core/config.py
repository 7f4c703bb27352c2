"""High-level configuration for assembling Nemo sessions.

:class:`NemoConfig` captures every system knob of the paper in one place
and assembles a :class:`~repro.core.session.DataProgrammingSession` from
it.  The full Nemo system is the default configuration; each ablation row
of Tables 4–9 corresponds to flipping one field (see
:mod:`repro.experiments.runners` for the named method registry).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.contextualizer import LFContextualizer, PercentileTuner
from repro.core.selection import DevDataSelector
from repro.core.session import DataProgrammingSession, LFDeveloper
from repro.core.seu import SEUSelector
from repro.data.dataset import FeaturizedDataset
from repro.endmodel.logistic import SoftLabelLogisticRegression
from repro.labelmodel import make_label_model


@dataclass
class NemoConfig:
    """Declarative Nemo system configuration.

    Attributes
    ----------
    selector:
        ``"seu"`` (default) or ``"random"``/``"abstain"``/``"disagree"``;
        alternatively pass a :class:`DevDataSelector` instance.
    user_model / utility:
        SEU components (only used when ``selector == "seu"``):
        Eq. 2's ``"accuracy"`` model (default) or the ``"uniform"``
        ablation; Eq. 3's ``"full"`` utility or the Table-7 ablations.
    contextualize:
        Whether to run the contextualized learning pipeline (Eq. 4).
    distance_metric:
        ``"cosine"`` (default) or ``"euclidean"`` for the contextualizer.
    percentile:
        Initial refinement percentile ``p``.
    context_gamma:
        Recency-decay ``γ`` of the weighted context-sequence contextualizer
        (the paper's Sec.-3 future-work direction, see
        :mod:`repro.core.context_sequence`).  The default 0.0 keeps the
        paper's single-point Eq.-4 refinement.
    tune_percentile:
        Re-tune ``p`` on validation soft-label accuracy during the loop.
    percentile_grid:
        Candidate grid for the tuner.
    label_model:
        Registry name of the aggregator (``"metal"`` default as in the
        paper; the pipeline is label-model agnostic).
    end_model_l2:
        L2 strength of the logistic-regression end model.
    """

    selector: str | DevDataSelector = "seu"
    user_model: str = "accuracy"
    utility: str = "full"
    contextualize: bool = True
    distance_metric: str = "cosine"
    percentile: float = 75.0
    context_gamma: float = 0.0
    tune_percentile: bool = True
    percentile_grid: tuple[float, ...] = (20.0, 35.0, 50.0, 75.0, 90.0, 100.0)
    tune_every: int = 5
    label_model: str = "metal"
    label_model_kwargs: dict = field(default_factory=dict)
    end_model_l2: float = 1e-2

    def build_selector(self) -> DevDataSelector:
        """Resolve the selector field to a concrete instance."""
        if isinstance(self.selector, DevDataSelector):
            return self.selector
        if self.selector == "seu":
            return SEUSelector(user_model=self.user_model, utility=self.utility)
        # Basic selectors live in repro.interactive; import lazily to keep
        # the core package free of upward dependencies.
        from repro.interactive.basic_selectors import make_basic_selector

        return make_basic_selector(self.selector)

    def create_session(
        self,
        dataset: FeaturizedDataset,
        user: LFDeveloper,
        seed=None,
    ) -> DataProgrammingSession:
        """Assemble a ready-to-run session for ``dataset`` with this config."""
        if not self.contextualize:
            contextualizer = None
        elif self.context_gamma > 0.0:
            from repro.core.context_sequence import ContextSequenceContextualizer

            contextualizer = ContextSequenceContextualizer(
                gamma=self.context_gamma,
                metric=self.distance_metric,
                percentile=self.percentile,
            )
        else:
            contextualizer = LFContextualizer(
                metric=self.distance_metric, percentile=self.percentile
            )
        tuner = (
            PercentileTuner(self.percentile_grid, metric=dataset.metric)
            if (self.contextualize and self.tune_percentile)
            else None
        )
        prior = dataset.label_prior
        label_model_factory = lambda: make_label_model(  # noqa: E731
            self.label_model, class_prior=prior, **self.label_model_kwargs
        )
        return DataProgrammingSession(
            dataset=dataset,
            selector=self.build_selector(),
            user=user,
            label_model_factory=label_model_factory,
            end_model=SoftLabelLogisticRegression(l2=self.end_model_l2),
            contextualizer=contextualizer,
            percentile_tuner=tuner,
            tune_every=self.tune_every,
            seed=seed,
        )


def nemo_config() -> NemoConfig:
    """The full Nemo system (SEU + contextualized learning)."""
    return NemoConfig()


def snorkel_config() -> NemoConfig:
    """The prevailing-practice baseline: random selection, standard pipeline."""
    return NemoConfig(selector="random", contextualize=False)
