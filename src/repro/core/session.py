"""The Interactive Data Programming session engine (paper Fig. 4 / Sec. 3).

:class:`DataProgrammingSession` drives the atomic IDP loop: select one
development example, obtain one LF from the (simulated) user, optionally
contextualize the collected LFs, then refit the label model and end model.
Every paper method that supplies LFs — Snorkel, Snorkel-Abs/Dis, SEU-only,
contextualized-only, and full Nemo — is an instantiation of this class with
different components plugged in; the active-learning and IWS baselines
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
from repro.core.convention import BINARY
from repro.core.engine import IncrementalSessionEngine
from repro.core.lf import LFFamily, PrimitiveLF
from repro.core.selection import DevDataSelector, SessionState
from repro.data.dataset import FeaturizedDataset
from repro.endmodel.logistic import SoftLabelLogisticRegression
from repro.endmodel.metrics import get_metric
from repro.labelmodel.base import LabelModel, posterior_entropy
from repro.utils.rng import ensure_rng


class InteractiveMethod(ABC):
    """One interactive learning scheme, driven one interaction at a time.

    The experiment protocol (Sec. 5.1) calls :meth:`step` once per
    iteration and :meth:`test_score` at evaluation points.
    """

    def __init__(self, dataset: FeaturizedDataset, seed=None) -> None:
        self.dataset = dataset
        self.rng = ensure_rng(seed)
        self._metric_fn = get_metric(dataset.metric)

    @abstractmethod
    def step(self) -> None:
        """Run one user interaction and update internal models."""

    @abstractmethod
    def predict_test(self) -> np.ndarray:
        """±1 predictions of the current end model on the test split."""

    def test_score(self) -> float:
        """The dataset's metric (accuracy or F1) on the test split."""
        return self._metric_fn(self.dataset.test.y, self.predict_test())

    def _prior_predictions(self, n: int) -> np.ndarray:
        """Fallback predictions before any model exists: the prior class."""
        majority = 1 if self.dataset.label_prior >= 0.5 else -1
        return np.full(n, majority, dtype=int)


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

    The select → develop → contextualize → learn loop itself lives in
    :class:`~repro.core.engine.IncrementalSessionEngine` (shared with the
    multiclass session); this class binds the binary
    :class:`~repro.core.convention.VoteConvention` — which carries the ±1
    vote alphabet, the MeTaL default aggregator, and the logistic end
    model — and supplies the ``proxy_labels`` plumbing.

    Parameters
    ----------
    dataset:
        Featurized dataset.
    selector:
        Development-data selection strategy (Random/Abstain/Disagree/SEU).
    user:
        The :class:`LFDeveloper` producing LFs from selected examples.
    label_model_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.labelmodel.base.LabelModel`; defaults to the
        MeTaL-style model with the dataset's class prior (the paper's
        default aggregator).
    end_model:
        Soft-label classifier; defaults to logistic regression (the paper
        fixes logistic regression for all methods).
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

    convention = BINARY
    abstain_value = BINARY.abstain

    #: The binary session adds the hard ±1 proxy to the checkpointed arrays.
    _CHECKPOINT_ARRAY_FIELDS = IncrementalSessionEngine._CHECKPOINT_ARRAY_FIELDS + (
        "proxy_labels",
    )

    def __init__(
        self,
        dataset: FeaturizedDataset,
        selector: DevDataSelector,
        user: LFDeveloper,
        label_model_factory: Callable[[], LabelModel] | None = None,
        end_model: SoftLabelLogisticRegression | None = None,
        contextualizer: LFContextualizer | None = None,
        percentile_tuner: PercentileTuner | None = None,
        tune_every: int = 5,
        full_refit_every: int = 10,
        warm_after: int = 8,
        warm_min_train: int = 2000,
        seed=None,
    ) -> None:
        InteractiveMethod.__init__(self, dataset, seed)
        if label_model_factory is None:
            label_model_factory = self.convention.default_label_model_factory(dataset)
        if end_model is None:
            end_model = self.convention.default_end_model(dataset)
        self.family = LFFamily(dataset.primitive_names, dataset.train.B)

        n_train = dataset.train.n
        prior = dataset.label_prior
        self.soft_labels = np.full(n_train, prior)
        self.entropies = posterior_entropy(self.soft_labels)
        # Prior-sampled proxy labels until the first end model exists.
        self.proxy_labels = np.where(self.rng.random(n_train) < prior, 1, -1)
        self.proxy_proba = np.full(n_train, prior)
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

    # ------------------------------------------------------------------ #
    # engine hooks
    # ------------------------------------------------------------------ #
    def build_state(self) -> SessionState:
        """Snapshot the session for selectors and the user."""
        return SessionState(
            dataset=self.dataset,
            family=self.family,
            iteration=self.iteration,
            lfs=self.lfs,
            L_train=self.L_train,
            soft_labels=(
                self.selection_soft_labels
                if self.selection_soft_labels is not None
                else self.soft_labels
            ),
            entropies=(
                self.selection_entropies
                if self.selection_entropies is not None
                else self.entropies
            ),
            proxy_labels=self.proxy_labels,
            proxy_proba=self.proxy_proba,
            selected=self.selected,
            rng=self.rng,
            cache=self._selector_cache,
            proxy_provider=self._resolve_proxy,
        )

    def _refresh_proxy(self) -> None:
        self.proxy_proba = self.end_model.predict_proba(self.dataset.train.X)
        self.proxy_labels = np.where(self.proxy_proba >= 0.5, 1, -1)
        self._proxy_stale = False

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def predict_test(self) -> np.ndarray:
        if not self._end_model_fitted:
            return self._prior_predictions(self.dataset.test.n)
        return self.end_model.predict(self.dataset.test.X)

    def predict_proba_test(self) -> np.ndarray:
        """``P(y=+1|x)`` on the test split (prior before any model exists)."""
        if not self._end_model_fitted:
            return np.full(self.dataset.test.n, self.dataset.label_prior)
        return self.end_model.predict_proba(self.dataset.test.X)
