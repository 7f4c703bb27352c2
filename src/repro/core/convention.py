"""The VoteConvention contract: one label-space, many cardinalities.

Nemo's IDP loop is label-space agnostic — the contextualizer (Eq. 4) only
moves votes to *abstain*, and the SEU user/utility models (Eq. 1–3) are
written over posteriors, not class counts.  What actually differs between
the binary and the K-class pipelines is a small bundle of conventions:

* the **vote alphabet** — which integers may appear in the vote matrix and
  which of them means *abstain* (binary: votes ±1, ``0`` abstains;
  multiclass: votes ``0..K-1``, ``-1`` abstains);
* the **posterior shape** — ``(n,)`` ``P(y=+1|·)`` vectors vs ``(n, K)``
  row-stochastic matrices, with the matching entropy / hard-label maps;
* the **accuracy bookkeeping** — how per-(primitive, label) accuracy
  tables are estimated from ground truth or from a soft proxy;
* the **default learners** — MeTaL + logistic regression vs Dawid–Skene +
  softmax regression;
* the **session bundle** — the LF family, the prior-filled posterior a
  session starts from (and falls back to before any end model exists),
  and the test metric.

:class:`VoteConvention` formalizes that bundle.  Every interaction-layer
component (contextualizer, simulated users, user models, utilities, the
basic selectors, SEU, and the one session class
:class:`~repro.core.session.DataProgrammingSession`) is written once
against this contract and reads its convention from the dataset
(:func:`convention_for`).

Canonical label order
---------------------
Anything tabulated per label (accuracy tables, pick weights, utility
tables, prior vectors, agreement matrices) uses the convention's
``labels`` tuple as its column order: ``(+1, -1)`` for binary, ``(0, ...,
K-1)`` for multiclass.  :meth:`VoteConvention.label_index` maps a vote
value to its column.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache

import numpy as np

from repro.labelmodel import matrix as vote_matrix


class VoteConvention(ABC):
    """Everything the interaction layer needs to know about a label space.

    Attributes
    ----------
    name:
        Short identifier (``"binary"`` / ``"multiclass"``).
    abstain:
        The abstain sentinel of the vote matrix.
    n_classes:
        The cardinality ``K`` of the label space.
    labels:
        The non-abstain vote values, in canonical column order.
    """

    name: str = "abstract"
    abstain: int = 0
    n_classes: int = 2
    labels: tuple[int, ...] = ()

    # ------------------------------------------------------------------ #
    # vote alphabet
    # ------------------------------------------------------------------ #
    def label_index(self, label: int) -> int:
        """Column index of a vote value in the canonical label order."""
        try:
            return self.labels.index(int(label))
        except ValueError:
            raise ValueError(
                f"label {label!r} is not a vote value of the {self.name} convention "
                f"(expected one of {self.labels})"
            ) from None

    def validate_matrix(self, L: np.ndarray) -> np.ndarray:
        """Check that ``L`` holds only this convention's vote values; int8."""
        return vote_matrix.validate_label_matrix(L, self.abstain, self.labels)

    def coverage_mask(self, L: np.ndarray) -> np.ndarray:
        """Boolean ``(n,)`` mask of examples with ≥1 non-abstain vote."""
        return vote_matrix.coverage_mask(L, self.abstain)

    def abstain_counts(self, L: np.ndarray) -> np.ndarray:
        """Per-example number of abstaining LFs."""
        return vote_matrix.abstain_counts(L, self.abstain)

    def conflict_counts(self, L: np.ndarray) -> np.ndarray:
        """Per-example number of conflicting vote *pairs* (``p · q`` for K = 2)."""
        return vote_matrix.conflict_counts(L, self.labels)

    # ------------------------------------------------------------------ #
    # posterior helpers
    # ------------------------------------------------------------------ #
    @abstractmethod
    def posterior_entropy(self, proba: np.ndarray) -> np.ndarray:
        """Shannon entropy (nats) per example — ψ_uncertainty of Eq. 3."""

    @abstractmethod
    def posterior_to_votes(self, proba: np.ndarray) -> np.ndarray:
        """Hard labels (in the vote alphabet) from a posterior."""

    @abstractmethod
    def proxy_matrix(self, proxy: np.ndarray) -> np.ndarray:
        """``(n, K)`` per-label proxy probabilities in canonical label order.

        Accepts whatever graded ground-truth proxy the convention's session
        carries (binary ``(n,)`` ``P(y=+1)`` vectors — also hard ±1
        predictions — or multiclass ``(n, K)`` matrices).
        """

    def signed_agreement(self, proxy: np.ndarray) -> np.ndarray:
        """Chance-centered correctness values ``(n, K)`` per label.

        ``(K·P − 1) / (K − 1)`` column-wise over :meth:`proxy_matrix` —
        +1 at certainty-correct, 0 at chance, −1/(K−1) at certainty-wrong;
        recovers Eq. 3's ``λ(x)·ŷ ∈ [−1, 1]`` exactly for K = 2.  The
        formula (and its range validation) is owned by
        :func:`repro.core.utility.signed_agreement`.
        """
        from repro.core.utility import signed_agreement

        return signed_agreement(self.proxy_matrix(proxy))

    # ------------------------------------------------------------------ #
    # accuracy tables (canonical label order columns)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def accuracy_table(self, family, proxy: np.ndarray) -> np.ndarray:
        """``(|Z|, K)`` estimated accuracy of ``λ_{z,label}`` under a proxy.

        ``table[z, j] = P̂(y = labels[j] | z ∈ x)`` against the end model's
        graded predictions — the ``acc(λ)`` of Eq. 2 (Sec. 4.2).  Rows of
        uncovered primitives get the uninformative ``1/K``.
        """

    @abstractmethod
    def true_accuracy_table(self, B, y: np.ndarray) -> np.ndarray:
        """``(|Z|, K)`` ground-truth accuracy of ``λ_{z,label}``.

        Same layout as :meth:`accuracy_table` but computed from true labels
        — what the oracle simulated user thresholds on (Sec. 5.1).
        """

    @abstractmethod
    def class_prior_vector(self, dataset) -> np.ndarray:
        """``(K,)`` prior ``P(y = labels[j])`` in canonical label order."""

    @abstractmethod
    def metric_fn(self, name: str):
        """Hard-label scoring function ``(y_true, y_pred) -> float``.

        Used by the percentile tuner to score posterior-derived predictions
        against validation ground truth with the dataset's metric.
        """

    # ------------------------------------------------------------------ #
    # user simulation
    # ------------------------------------------------------------------ #
    @abstractmethod
    def corrupt_label(self, label: int, rng: np.random.Generator) -> int:
        """A mislabeled reading of ``label`` (NoisyUser step-1 errors)."""

    # ------------------------------------------------------------------ #
    # default learners
    # ------------------------------------------------------------------ #
    @abstractmethod
    def default_label_model_factory(self, dataset):
        """Zero-argument factory for the convention's default aggregator."""

    @abstractmethod
    def default_end_model(self, dataset):
        """A fresh instance of the convention's default end model."""

    # ------------------------------------------------------------------ #
    # session bundle
    # ------------------------------------------------------------------ #
    @abstractmethod
    def lf_family(self, dataset):
        """The primitive-LF family over the dataset's train split."""

    @abstractmethod
    def prior_posterior(self, dataset, n: int) -> np.ndarray:
        """A fresh ``n``-row posterior filled with the class prior.

        What a session's soft labels and proxy hold before the first refit,
        and what its test predictions fall back to before any end model
        exists (hard labels through :meth:`posterior_to_votes`).
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(abstain={self.abstain}, K={self.n_classes})"


class BinaryVoteConvention(VoteConvention):
    """The paper-native binary convention: votes ±1, ``0`` abstains.

    Posteriors are ``(n,)`` vectors ``P(y = +1 | ·)``; the canonical label
    order is ``(+1, −1)`` so column 0 of every table is the positive LF.
    """

    name = "binary"
    abstain = 0
    n_classes = 2
    labels = (1, -1)

    def posterior_entropy(self, proba: np.ndarray) -> np.ndarray:
        from repro.labelmodel.base import posterior_entropy

        return posterior_entropy(proba)

    def posterior_to_votes(self, proba: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(proba, dtype=float) >= 0.5, 1, -1)

    def proxy_matrix(self, proxy: np.ndarray) -> np.ndarray:
        p = np.asarray(proxy, dtype=float)
        if p.ndim == 2 and p.shape[1] == 2:
            if np.any(p < -1e-9) or np.any(p > 1 + 1e-9):
                raise ValueError("proxy_proba entries must lie in [0, 1]")
            return p
        if p.ndim != 1:
            raise ValueError(f"binary proxy must be 1-D, got shape {p.shape}")
        if p.size and p.min() < 0.0:  # negative values: must be hard ±1 labels
            if not ((p == -1.0) | (p == 1.0)).all():
                raise ValueError("proxy must be ±1 hard labels or probabilities in [0, 1]")
            p = (p + 1.0) / 2.0
        elif p.size and p.max() > 1.0:
            raise ValueError("proxy must be ±1 hard labels or probabilities in [0, 1]")
        return np.stack([p, 1.0 - p], axis=1)

    def signed_agreement(self, proxy: np.ndarray) -> np.ndarray:
        # The positive column is Eq. 3's 2p − 1; the negative column is its
        # *exact IEEE negation* (matching λ(x)·ŷ sign symmetry), not the
        # generic per-column formula, so both columns share every bit.
        s = 2.0 * self.proxy_matrix(proxy)[:, 0] - 1.0
        return np.stack([s, -s], axis=1)

    def accuracy_table(self, family, proxy: np.ndarray) -> np.ndarray:
        acc_pos = family.empirical_accuracies(proxy)
        return np.stack([acc_pos, 1.0 - acc_pos], axis=1)

    def true_accuracy_table(self, B, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        coverage = np.asarray(B.sum(axis=0)).ravel()
        pos = np.asarray(B.T @ (y == 1).astype(float)).ravel()
        acc_pos = np.divide(
            pos, coverage, out=np.full(len(pos), 0.5), where=coverage > 0
        )
        return np.stack([acc_pos, 1.0 - acc_pos], axis=1)

    def class_prior_vector(self, dataset) -> np.ndarray:
        prior = float(dataset.label_prior)
        return np.array([prior, 1.0 - prior])

    def metric_fn(self, name: str):
        from repro.endmodel.metrics import get_metric

        return get_metric(name)

    def corrupt_label(self, label: int, rng: np.random.Generator) -> int:
        return -label

    def default_label_model_factory(self, dataset):
        from repro.labelmodel.metal import MetalLabelModel

        prior = dataset.label_prior
        return lambda: MetalLabelModel(class_prior=prior)

    def default_end_model(self, dataset):
        from repro.endmodel.logistic import SoftLabelLogisticRegression

        return SoftLabelLogisticRegression()

    def lf_family(self, dataset):
        from repro.core.lf import LFFamily

        return LFFamily(dataset.primitive_names, dataset.train.B)

    def prior_posterior(self, dataset, n: int) -> np.ndarray:
        return np.full(n, dataset.label_prior)


class MulticlassVoteConvention(VoteConvention):
    """The K-class convention of the weak-supervision literature.

    Votes name a class in ``{0, ..., K-1}`` and ``-1`` abstains; posteriors
    are row-stochastic ``(n, K)`` matrices and the canonical label order is
    simply ``(0, ..., K-1)``.
    """

    name = "multiclass"
    abstain = -1

    def __init__(self, n_classes: int) -> None:
        self.n_classes = vote_matrix.check_n_classes(n_classes)
        self.labels = tuple(range(self.n_classes))

    def label_index(self, label: int) -> int:
        label = int(label)
        if not 0 <= label < self.n_classes:
            raise ValueError(
                f"label {label!r} is not a vote value of the {self.name} convention "
                f"(expected one of {self.labels})"
            )
        return label

    def posterior_entropy(self, proba: np.ndarray) -> np.ndarray:
        from repro.multiclass.base import posterior_entropy_mc

        return posterior_entropy_mc(proba)

    def posterior_to_votes(self, proba: np.ndarray) -> np.ndarray:
        return np.argmax(np.asarray(proba, dtype=float), axis=1).astype(int)

    def proxy_matrix(self, proxy: np.ndarray) -> np.ndarray:
        P = np.asarray(proxy, dtype=float)
        if P.ndim != 2:
            raise ValueError(f"proxy_proba must be 2-D (n, K), got shape {P.shape}")
        if np.any(P < -1e-9) or np.any(P > 1 + 1e-9):
            raise ValueError("proxy_proba entries must lie in [0, 1]")
        if P.shape[1] != self.n_classes:
            raise ValueError(
                f"proxy_proba must have {self.n_classes} class columns, got {P.shape[1]}"
            )
        return P

    def accuracy_table(self, family, proxy: np.ndarray) -> np.ndarray:
        return family.empirical_class_mass(proxy)

    def true_accuracy_table(self, B, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        K = self.n_classes
        coverage = np.asarray(B.sum(axis=0)).ravel()
        onehot = np.zeros((len(y), K))
        onehot[np.arange(len(y)), y] = 1.0
        mass = np.asarray(B.T @ onehot)  # (|Z|, K)
        uniform = np.full_like(mass, 1.0 / K)
        return np.divide(mass, coverage[:, None], out=uniform, where=coverage[:, None] > 0)

    def class_prior_vector(self, dataset) -> np.ndarray:
        return np.asarray(dataset.class_priors, dtype=float)

    def metric_fn(self, name: str):
        if name != "accuracy":
            raise ValueError(
                f"the multiclass convention only scores 'accuracy', got {name!r}"
            )
        return lambda y_true, y_pred: float(
            (np.asarray(y_pred) == np.asarray(y_true)).mean()
        )

    def corrupt_label(self, label: int, rng: np.random.Generator) -> int:
        others = [k for k in range(self.n_classes) if k != label]
        return int(rng.choice(others))

    def default_label_model_factory(self, dataset):
        from repro.multiclass.dawid_skene import MCDawidSkeneModel

        K = self.n_classes
        priors = dataset.class_priors
        return lambda: MCDawidSkeneModel(n_classes=K, class_priors=priors)

    def default_end_model(self, dataset):
        from repro.endmodel.softmax import SoftLabelSoftmaxRegression

        return SoftLabelSoftmaxRegression(n_classes=self.n_classes)

    def lf_family(self, dataset):
        from repro.multiclass.lf import MultiClassLFFamily

        return MultiClassLFFamily(dataset.primitive_names, dataset.train.B, self.n_classes)

    def prior_posterior(self, dataset, n: int) -> np.ndarray:
        return np.tile(dataset.class_priors, (n, 1))


#: The shared binary convention instance (stateless).
BINARY = BinaryVoteConvention()


@lru_cache(maxsize=None)
def multiclass_convention(n_classes: int) -> MulticlassVoteConvention:
    """The (cached) K-class convention instance for a given cardinality."""
    return MulticlassVoteConvention(n_classes)


def convention_for(dataset) -> VoteConvention:
    """The vote convention a dataset's label space calls for.

    Multiclass featurized datasets carry an ``n_classes`` attribute; the
    binary :class:`~repro.data.dataset.FeaturizedDataset` does not.
    """
    n_classes = getattr(dataset, "n_classes", None)
    if n_classes is None:
        return BINARY
    return multiclass_convention(int(n_classes))
