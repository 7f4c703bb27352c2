"""ImplyLoss-L as an interactive method (the paper's CL-only IDP baseline).

Couples random development-data selection (the paper pairs ImplyLoss with
random sampling, Sec. 5.2) with the joint rule/classification model of
Awasthi et al. [3]: the learning stage replaces both the label model *and*
the end model with :class:`~repro.labelmodel.implyloss.ImplyLossModel`,
consuming each LF's lineage (its exemplar) directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.selection import DevDataSelector
from repro.core.session import DataProgrammingSession, LFDeveloper
from repro.data.dataset import FeaturizedDataset
from repro.interactive.basic_selectors import RandomSelector
from repro.labelmodel.base import posterior_entropy
from repro.labelmodel.implyloss import ImplyLossModel


class ImplyLossSession(DataProgrammingSession):
    """IDP session whose learning stage is the ImplyLoss joint model.

    Parameters
    ----------
    dataset / user / seed:
        As for :class:`DataProgrammingSession`.
    selector:
        Defaults to random selection, matching the paper's ImplyLoss-L
        configuration (contextualized learning only, no strategic
        selection).
    gamma / n_epochs / learning_rate:
        Forwarded to :class:`ImplyLossModel`.
    """

    def __init__(
        self,
        dataset: FeaturizedDataset,
        user: LFDeveloper,
        selector: DevDataSelector | None = None,
        gamma: float = 0.1,
        n_epochs: int = 120,
        learning_rate: float = 0.1,
        seed=None,
    ) -> None:
        super().__init__(
            dataset,
            selector=selector if selector is not None else RandomSelector(),
            user=user,
            seed=seed,
        )
        self.gamma = gamma
        self.n_epochs = n_epochs
        self.learning_rate = learning_rate
        self.imply_model_: ImplyLossModel | None = None
        self._dirty = False

    def _refit(self) -> tuple[dict, None]:
        """Defer the (expensive) joint-model fit until predictions are needed.

        ImplyLoss training is by far the costliest learning stage, and this
        baseline pairs it with *random* selection (paper Sec. 5.2) — no
        component consumes the model state between evaluations — so marking
        the model dirty here and fitting lazily in :meth:`predict_test`
        is behaviour-preserving.  No refit ran, so the command record gets
        no learning phases and no refit facts.
        """
        self._dirty = True
        self._selector_cache.clear()
        return {}, None

    def _refit_now(self) -> None:
        model = ImplyLossModel(
            class_prior=self.dataset.label_prior,
            gamma=self.gamma,
            n_epochs=self.n_epochs,
            learning_rate=self.learning_rate,
            seed=self.rng,
        )
        model.fit(
            self.dataset.train.X,
            self.L_train,
            self.lineage.dev_indices,
            self.lineage.exemplar_labels,
        )
        self.imply_model_ = model
        self.soft_labels = model.predict_proba(self.dataset.train.X)
        self.entropies = posterior_entropy(self.soft_labels)
        self.proxy_proba = self.soft_labels
        self.proxy_labels = np.where(self.soft_labels >= 0.5, 1, -1)
        self._end_model_fitted = True
        self._selector_cache.clear()

    def predict_test(self) -> np.ndarray:
        if self._dirty:
            self._refit_now()
            self._dirty = False
        if self.imply_model_ is None:
            return self._prior_predictions(self.dataset.test.n)
        return self.imply_model_.predict(self.dataset.test.X)

    def predict_proba_test(self) -> np.ndarray:
        if self._dirty:
            self._refit_now()
            self._dirty = False
        if self.imply_model_ is None:
            return np.full(self.dataset.test.n, self.dataset.label_prior)
        return self.imply_model_.predict_proba(self.dataset.test.X)
