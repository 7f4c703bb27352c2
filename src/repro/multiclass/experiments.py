"""Named multiclass method registry and evaluation protocol.

The K-class mirror of :mod:`repro.experiments.runners` /
:mod:`repro.experiments.protocol`: resolve a method name to a ready-to-run
:class:`~repro.core.session.DataProgrammingSession` factory, and evaluate
it over seeds with the paper's learning-curve protocol.  The binary
protocol's :class:`~repro.experiments.protocol.LearningCurve` /
``RunResult`` containers are reused as-is — they only consume
``step()``/``test_score()``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core.session import DataProgrammingSession
from repro.experiments.protocol import RunResult, evaluate_method
from repro.multiclass.contextualizer import MCContextualizer, MCPercentileTuner
from repro.multiclass.data import MCFeaturizedDataset
from repro.multiclass.dawid_skene import MCDawidSkeneModel
from repro.multiclass.majority import MCMajorityVote
from repro.multiclass.selection import (
    MCAbstainSelector,
    MCDevDataSelector,
    MCDisagreeSelector,
    MCRandomSelector,
    MCUncertaintySelector,
)
from repro.multiclass.seu import MCSEUSelector
from repro.multiclass.simulated_user import MCSimulatedUser
from repro.utils.rng import stable_hash_seed

#: Default simulated-user accuracy threshold (paper Sec. 5.1: t = 0.5).
DEFAULT_MC_USER_THRESHOLD = 0.5

_SELECTORS: dict[str, Callable[[], MCDevDataSelector]] = {
    "seu": MCSEUSelector,
    "random": MCRandomSelector,
    "abstain": MCAbstainSelector,
    "disagree": MCDisagreeSelector,
    "uncertainty": MCUncertaintySelector,
}

#: (selector, contextualize, label_model) per registry name.
_MC_METHODS: dict[str, tuple[str, bool, str]] = {
    "nemo-mc": ("seu", True, "dawid-skene"),
    "seu-mc": ("seu", False, "dawid-skene"),
    "ctx-mc": ("random", True, "dawid-skene"),
    "snorkel-mc": ("random", False, "dawid-skene"),
    "abstain-mc": ("abstain", False, "dawid-skene"),
    "disagree-mc": ("disagree", False, "dawid-skene"),
    "uncertainty-mc": ("uncertainty", False, "dawid-skene"),
    "snorkel-mc-majority": ("random", False, "majority"),
}

MC_METHOD_NAMES = tuple(_MC_METHODS)


def make_mc_label_model_factory(name: str, dataset: MCFeaturizedDataset):
    """A zero-argument factory for a named multiclass label model."""
    K = dataset.n_classes
    priors = dataset.class_priors
    if name == "dawid-skene":
        return lambda: MCDawidSkeneModel(n_classes=K, class_priors=priors)
    if name == "majority":
        return lambda: MCMajorityVote(n_classes=K, class_priors=priors)
    raise ValueError(f"unknown multiclass label model {name!r}")


def make_mc_method(
    name: str, user_threshold: float = DEFAULT_MC_USER_THRESHOLD
) -> Callable[[MCFeaturizedDataset, int], DataProgrammingSession]:
    """Resolve a registry name to a ``(dataset, seed) -> session`` factory.

    Recognized names: ``nemo-mc`` (SEU + contextualized), ``seu-mc``,
    ``ctx-mc``, ``snorkel-mc``, ``abstain-mc``, ``disagree-mc``,
    ``uncertainty-mc``, and ``snorkel-mc-majority`` (majority-vote
    aggregation).
    """
    try:
        selector_name, contextualize, label_model = _MC_METHODS[name]
    except KeyError:
        raise ValueError(
            f"unknown multiclass method {name!r}; choose from {sorted(_MC_METHODS)}"
        ) from None
    return _MCSessionFactory(selector_name, contextualize, label_model, user_threshold)


@dataclass
class _MCSessionFactory:
    """Picklable ``(dataset, seed) -> session`` factory for the MC registry.

    A module-level class rather than a closure so the parallel experiment
    runner can ship resolved factories to worker processes.
    """

    selector_name: str
    contextualize: bool
    label_model: str
    user_threshold: float

    def __call__(self, dataset: MCFeaturizedDataset, seed) -> DataProgrammingSession:
        user_seed = stable_hash_seed("mc-user", dataset.name, seed)
        user = MCSimulatedUser(
            dataset, accuracy_threshold=self.user_threshold, seed=user_seed
        )
        return DataProgrammingSession(
            dataset,
            _SELECTORS[self.selector_name](),
            user,
            label_model_factory=make_mc_label_model_factory(self.label_model, dataset),
            contextualizer=(
                MCContextualizer(n_classes=dataset.n_classes)
                if self.contextualize
                else None
            ),
            percentile_tuner=MCPercentileTuner() if self.contextualize else None,
            seed=seed,
        )


def evaluate_mc_method(
    method_name: str,
    dataset: MCFeaturizedDataset,
    n_iterations: int = 50,
    eval_every: int = 5,
    n_seeds: int = 3,
    base_seed: int = 0,
    user_threshold: float = DEFAULT_MC_USER_THRESHOLD,
    jobs: int = 1,
) -> RunResult:
    """Run a registry method across seeds; returns the aggregate result.

    Delegates to the generic
    :func:`~repro.experiments.protocol.evaluate_method` — same seed
    derivation, same serial/parallel (``jobs > 1``) execution — after
    resolving the name through the multiclass registry.
    """
    factory = make_mc_method(method_name, user_threshold=user_threshold)
    return evaluate_method(
        factory,
        method_name,
        dataset,
        n_iterations=n_iterations,
        eval_every=eval_every,
        n_seeds=n_seeds,
        base_seed=base_seed,
        jobs=jobs,
    )
