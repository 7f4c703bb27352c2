"""The Interactive Data Programming session engine (paper Fig. 4 / Sec. 3).

:class:`DataProgrammingSession` drives the atomic IDP loop: select one
development example, obtain one LF from the (simulated) user, optionally
contextualize the collected LFs, then refit the label model and end model.
Every paper method that supplies LFs — Snorkel, Snorkel-Abs/Dis, SEU-only,
contextualized-only, and full Nemo, binary or K-class — is an instantiation
of this class with different components plugged in; the vote alphabet is
read from the dataset.  The active-learning and IWS baselines
implement the same :class:`InteractiveMethod` interface in
:mod:`repro.interactive`.

The user need not be in-process: the loop is expressed as the two-phase
command protocol of :mod:`repro.core.protocol`
(``propose``/``submit``/``decline``, ENGINE.md §6), with ``step()`` a
:class:`~repro.core.protocol.SimulatedDriver` binding an
:class:`LFDeveloper` to it.  A remote client — e.g. a human behind the
:mod:`repro.serve` HTTP service — issues exactly the same commands.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable

import numpy as np

from repro.core.contextualizer import LFContextualizer, PercentileTuner
from repro.core.convention import BINARY, convention_for
from repro.core.engine import IncrementalSessionEngine
from repro.core.lf import PrimitiveLF
from repro.core.selection import DevDataSelector, SessionState
from repro.data.dataset import FeaturizedDataset
from repro.endmodel.linear import SoftLabelLinearModel
from repro.labelmodel.base import LabelModel
from repro.utils.rng import ensure_rng


class InteractiveMethod(ABC):
    """One interactive learning scheme, driven one interaction at a time.

    The experiment protocol (Sec. 5.1) calls :meth:`step` once per
    iteration and :meth:`test_score` at evaluation points.  The dataset's
    label space fixes the method's :class:`~repro.core.convention.VoteConvention`,
    which supplies the test metric and the prior fallback predictions.
    """

    def __init__(self, dataset: FeaturizedDataset, seed=None) -> None:
        self.dataset = dataset
        self.convention = convention_for(dataset)
        self.rng = ensure_rng(seed)
        self._metric_fn = self.convention.metric_fn(dataset.metric)

    @abstractmethod
    def step(self) -> None:
        """Run one user interaction and update internal models."""

    @abstractmethod
    def predict_test(self) -> np.ndarray:
        """Hard predictions of the current end model on the test split."""

    def test_score(self) -> float:
        """The dataset's metric (accuracy or F1) on the test split."""
        return self._metric_fn(self.dataset.test.y, self.predict_test())

    def _prior_predictions(self, n: int) -> np.ndarray:
        """Fallback predictions before any model exists: the prior class."""
        return self.convention.posterior_to_votes(
            self.convention.prior_posterior(self.dataset, n)
        )


class LFDeveloper(ABC):
    """The user in the loop: turns a development example into an LF.

    Concrete implementations: the oracle simulated user of Sec. 5.1
    (:class:`repro.interactive.simulated_user.SimulatedUser`) and the noisy
    per-participant variant used for the user-study bench.
    """

    @abstractmethod
    def create_lf(self, dev_index: int, state: SessionState) -> PrimitiveLF | None:
        """Return a new LF developed from ``dev_index``, or ``None``.

        ``None`` models a user unable to extract a (sufficiently accurate,
        non-duplicate) heuristic from the shown example; the iteration is
        still consumed.
        """


class DataProgrammingSession(IncrementalSessionEngine, InteractiveMethod):
    """The end-to-end DP pipeline with pluggable IDP components.

    The one session class for every vote alphabet: the select → develop →
    contextualize → learn loop lives in
    :class:`~repro.core.engine.IncrementalSessionEngine`, and everything
    that differs between label spaces — the LF family, the prior-filled
    posterior, the default aggregator (MeTaL / Dawid–Skene) and end model
    (logistic / softmax), the hard-label view and the test metric — comes
    from the :class:`~repro.core.convention.VoteConvention` the dataset
    calls for (:func:`~repro.core.convention.convention_for`).

    Parameters
    ----------
    dataset:
        Featurized dataset, binary or K-class
        (:class:`~repro.multiclass.data.MCFeaturizedDataset`).
    selector:
        Development-data selection strategy (Random/Abstain/Disagree/SEU).
    user:
        The :class:`LFDeveloper` producing LFs from selected examples.
    label_model_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.labelmodel.base.LabelModel`; defaults to the
        convention's aggregator with the dataset's class prior (MeTaL, the
        paper's default, for binary data).
    end_model:
        Soft-label classifier, a
        :class:`~repro.endmodel.linear.SoftLabelLinearModel`: the engine
        calls its ``fit`` (with ``max_iter=`` on warm refits),
        ``fit_minibatch`` and ``state_dict``/``load_state_dict``
        directly.  Defaults to the convention's end model (logistic
        regression, which the paper fixes for all methods, or its softmax
        generalization).
    contextualizer:
        Optional :class:`~repro.core.contextualizer.LFContextualizer`;
        ``None`` gives the *standard* (uncontextualized) learning pipeline.
    percentile_tuner:
        Optional :class:`~repro.core.contextualizer.PercentileTuner`; when
        provided (and contextualization is on), the refinement percentile is
        re-tuned on validation soft-label accuracy every ``tune_every``
        iterations.
    tune_every:
        Cadence of percentile re-tuning.
    full_refit_every / warm_after / warm_min_train:
        The refit schedule — when refits are cold or warm-started; see
        :meth:`~repro.core.engine.IncrementalSessionEngine._init_engine`
        and ENGINE.md §2.
    seed:
        Seed for all session randomness.
    """

    def __init__(
        self,
        dataset: FeaturizedDataset,
        selector: DevDataSelector,
        user: LFDeveloper,
        label_model_factory: Callable[[], LabelModel] | None = None,
        end_model: SoftLabelLinearModel | None = None,
        contextualizer: LFContextualizer | None = None,
        percentile_tuner: PercentileTuner | None = None,
        tune_every: int = 5,
        full_refit_every: int = 10,
        warm_after: int = 8,
        warm_min_train: int = 2000,
        seed=None,
    ) -> None:
        InteractiveMethod.__init__(self, dataset, seed)
        convention = self.convention
        if label_model_factory is None:
            label_model_factory = convention.default_label_model_factory(dataset)
        if end_model is None:
            end_model = convention.default_end_model(dataset)
        self.family = convention.lf_family(dataset)

        n_train = dataset.train.n
        self.soft_labels = convention.prior_posterior(dataset, n_train)
        self.entropies = convention.posterior_entropy(self.soft_labels)
        self.proxy_proba = convention.prior_posterior(dataset, n_train)
        if convention is BINARY:
            # Binary sessions once drew prior-sampled hard proxies here.
            # Nothing reads them any more, but the draw fixes where every
            # seeded binary session's RNG stream starts, so the recorded
            # binary runs (goldens, transcripts) stay byte-identical.
            self.rng.random(n_train)
        self._init_engine(
            selector=selector,
            user=user,
            label_model_factory=label_model_factory,
            end_model=end_model,
            contextualizer=contextualizer,
            percentile_tuner=percentile_tuner,
            tune_every=tune_every,
            full_refit_every=full_refit_every,
            warm_after=warm_after,
            warm_min_train=warm_min_train,
        )

    @property
    def proxy_labels(self) -> np.ndarray:
        """Hard proxy labels: ``proxy_proba`` in the vote alphabet."""
        return self.convention.posterior_to_votes(self.proxy_proba)

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def predict_test(self) -> np.ndarray:
        if not self._end_model_fitted:
            return self._prior_predictions(self.dataset.test.n)
        return self.end_model.predict(self.dataset.test.X)

    def predict_proba_test(self) -> np.ndarray:
        """Test-split posterior (``P(y=+1|x)``, or ``(n, K)``); the prior pre-model."""
        if not self._end_model_fitted:
            return self.convention.prior_posterior(self.dataset, self.dataset.test.n)
        return self.end_model.predict_proba(self.dataset.test.X)
