"""The multiclass IDP session engine.

A thin K-class adapter over the shared
:class:`~repro.core.engine.IncrementalSessionEngine`: the select → develop
→ contextualize → learn loop, the append-only vote storage, the
warm-started refits, and the selector-cache plumbing are all inherited;
this module only binds the K-class
:class:`~repro.core.convention.VoteConvention` — which carries the
``-1``-abstain vote alphabet, the Dawid–Skene default aggregator, and the
softmax end model — and supplies the ``(n, K)`` proxy plumbing.
Reuses the binary package's :class:`~repro.core.lineage.LineageStore`
unchanged — lineage is about *where* an LF came from, not what it votes.
The two-phase command protocol (``propose``/``submit``/``decline``,
ENGINE.md §6) is inherited from the engine as well, so multiclass
sessions are served over :mod:`repro.serve` exactly like binary ones.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.convention import multiclass_convention
from repro.core.engine import IncrementalSessionEngine
from repro.core.session import LFDeveloper
from repro.endmodel.softmax import SoftLabelSoftmaxRegression
from repro.multiclass.base import MultiClassLabelModel, posterior_entropy_mc
from repro.multiclass.contextualizer import MCContextualizer, MCPercentileTuner
from repro.multiclass.data import MCFeaturizedDataset
from repro.multiclass.lf import MultiClassLFFamily
from repro.multiclass.matrix import MC_ABSTAIN
from repro.multiclass.selection import MCDevDataSelector, MCSessionState
from repro.utils.rng import ensure_rng

#: The user in the loop, turning a development example into a K-class LF.
#: The contract is identical to the binary one (``create_lf(dev_index,
#: state) -> LF | None``), so this is the same ABC — kept under its
#: historical name for import and ``isinstance`` compatibility.
MCLFDeveloper = LFDeveloper


class MultiClassSession(IncrementalSessionEngine):
    """The end-to-end K-class DP pipeline with pluggable IDP components.

    Parameters
    ----------
    dataset:
        Multiclass featurized dataset.
    selector:
        Development-data selection strategy
        (:class:`~repro.multiclass.selection.MCDevDataSelector`).
    user:
        The :class:`MCLFDeveloper` producing LFs from selected examples.
    label_model_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.multiclass.base.MultiClassLabelModel`; defaults to
        the abstain-aware Dawid–Skene model with the dataset's priors.
    end_model:
        Soft-label classifier; defaults to softmax regression.
    contextualizer:
        Optional :class:`~repro.multiclass.contextualizer.MCContextualizer`;
        ``None`` gives the standard (uncontextualized) pipeline.
    percentile_tuner:
        Optional :class:`~repro.multiclass.contextualizer.MCPercentileTuner`
        re-tuning the refinement percentile on validation accuracy.
    tune_every:
        Cadence of percentile re-tuning.
    full_refit_every / warm_after / warm_min_train:
        The refit schedule — when refits are cold or warm-started; see
        :meth:`~repro.core.engine.IncrementalSessionEngine._init_engine`
        and ENGINE.md §2.
    seed:
        Seed for all session randomness.
    """

    abstain_value = MC_ABSTAIN

    def __init__(
        self,
        dataset: MCFeaturizedDataset,
        selector: MCDevDataSelector,
        user: MCLFDeveloper,
        label_model_factory: Callable[[], MultiClassLabelModel] | None = None,
        end_model: SoftLabelSoftmaxRegression | None = None,
        contextualizer: MCContextualizer | None = None,
        percentile_tuner: MCPercentileTuner | None = None,
        tune_every: int = 5,
        full_refit_every: int = 10,
        warm_after: int = 8,
        warm_min_train: int = 2000,
        seed=None,
    ) -> None:
        self.dataset = dataset
        self.rng = ensure_rng(seed)
        K = dataset.n_classes
        self.convention = multiclass_convention(K)
        if label_model_factory is None:
            label_model_factory = self.convention.default_label_model_factory(dataset)
        if end_model is None:
            end_model = self.convention.default_end_model(dataset)
        self.family = MultiClassLFFamily(dataset.primitive_names, dataset.train.B, K)
        n_train = dataset.train.n
        self.soft_labels = np.tile(dataset.class_priors, (n_train, 1))
        self.entropies = posterior_entropy_mc(self.soft_labels)
        self.proxy_proba = np.tile(dataset.class_priors, (n_train, 1))
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
    def build_state(self) -> MCSessionState:
        """Snapshot the session for selectors and the user."""
        return MCSessionState(
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
            proxy_proba=self.proxy_proba,
            selected=self.selected,
            rng=self.rng,
            cache=self._selector_cache,
            proxy_provider=self._resolve_proxy,
        )

    def _refresh_proxy(self) -> None:
        self.proxy_proba = self.end_model.predict_proba(self.dataset.train.X)
        self._proxy_stale = False

    # ------------------------------------------------------------------ #
    # prediction / evaluation
    # ------------------------------------------------------------------ #
    def predict_test(self) -> np.ndarray:
        """Hard class predictions on the test split (prior argmax pre-model)."""
        if not self._end_model_fitted:
            majority = int(np.argmax(self.dataset.class_priors))
            return np.full(self.dataset.test.n, majority, dtype=int)
        return self.end_model.predict(self.dataset.test.X)

    def predict_proba_test(self) -> np.ndarray:
        """``(n_test, K)`` class probabilities on the test split."""
        if not self._end_model_fitted:
            return np.tile(self.dataset.class_priors, (self.dataset.test.n, 1))
        return self.end_model.predict_proba(self.dataset.test.X)

    def test_score(self) -> float:
        """Accuracy on the test split."""
        return float((self.predict_test() == self.dataset.test.y).mean())
