"""Development-data selection: session states and the baseline selectors.

Every selector sees a session-state snapshot — the label matrix, the label
model's posterior/uncertainty, and the end model's current predictions —
and returns the index of the next development example.  This is the
"Development Data Selection Stage" of the IDP loop (paper Sec. 3).

The state and the selectors are cardinality-generic: all label-space
specifics (abstain sentinel, conflict counting, entropy, the hard-label
view of the proxy) are read from the state's
:class:`~repro.core.convention.VoteConvention`, which the dataset fixes.
One :class:`SessionState` serves every alphabet (``BaseSessionState`` and
``MulticlassSessionState`` are its historical names);
``repro.interactive.basic_selectors`` and ``repro.multiclass.selection``
re-export the selector classes under their historical names.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.convention import BINARY, VoteConvention, convention_for
from repro.core.lf import LFFamily, PrimitiveLF
from repro.data.dataset import FeaturizedDataset
from repro.utils.rng import ensure_rng


@dataclass
class SessionState:
    """Cardinality-generic snapshot of an IDP session at selection time.

    Attributes
    ----------
    dataset:
        The featurized dataset (selectors may read features/primitives but
        never ground-truth train labels); its label space fixes the
        state's :attr:`convention`.
    family:
        The primitive-LF family over the train split.
    iteration:
        Zero-based index of the upcoming interaction.
    lfs:
        LFs collected so far.
    L_train:
        ``(n_train, m)`` *unrefined* vote matrix of those LFs, in the
        state's vote convention.
    soft_labels:
        Current label-model posterior (from the session's active pipeline —
        refined votes if contextualization is on); ``(n,)`` for binary,
        ``(n, K)`` for multiclass.
    entropies:
        ``(n_train,)`` posterior entropies (ψ_uncertainty of Eq. 3).
    proxy_labels:
        ``(n_train,)`` hard end-model predictions ŷ in the vote alphabet
        (the ground-truth proxy of Sec. 4.2); derived from ``proxy_proba``
        when not given.
    proxy_proba:
        End-model probabilities — ``(n_train,)`` ``P(y=+1|x)`` for binary,
        ``(n_train, K)`` for multiclass — the *graded* ground-truth proxy
        SEU consumes.  Hard predictions collapse to a single class early in
        the loop (one-sided LF sets), zeroing an entire branch of the user
        model and locking SEU onto one polarity; probabilities preserve the
        ranking signal (see DESIGN.md).  A binary state built from ±1
        ``proxy_labels`` alone derives it from them.
    selected:
        Train indices already shown to the user (selectors avoid repeats).
    rng:
        Shared random generator (tie-breaking, sampling).
    cache:
        Optional dict scoped to the interval between refits: the session
        clears it on every refit, and selectors memoize refit-stable
        aggregates (SEU's ``B.T @ proxy``, utility tables, the expected
        utility vector) in it.  ``None`` (the default for hand-built
        states) disables caching entirely.
    proxy_provider:
        Optional callable materializing deferred proxy predictions (set by
        sessions running with on-demand proxy; see :meth:`resolve_proxy`).
    """

    dataset: FeaturizedDataset
    family: LFFamily
    iteration: int
    lfs: list[PrimitiveLF]
    L_train: np.ndarray
    soft_labels: np.ndarray
    entropies: np.ndarray
    proxy_labels: np.ndarray = None
    proxy_proba: np.ndarray = None
    selected: set[int] = field(default_factory=set)
    # Sessions always thread their own stream; the hand-built-state
    # default is a *deterministic* seed-0 stream, not OS entropy, so a
    # state built without an rng still replays bit-identically.
    rng: np.random.Generator = field(default_factory=lambda: ensure_rng(0))
    cache: dict | None = None
    proxy_provider: object = None

    def __post_init__(self) -> None:
        if self.proxy_proba is None:
            if self.proxy_labels is None or self.convention is not BINARY:
                raise TypeError(
                    "SessionState requires proxy_proba (binary states may give "
                    "proxy_labels instead)"
                )
            self.proxy_proba = (np.asarray(self.proxy_labels, dtype=float) + 1.0) / 2.0
        elif self.proxy_labels is None:
            self.proxy_labels = self.convention.posterior_to_votes(self.proxy_proba)

    @property
    def convention(self) -> VoteConvention:
        return convention_for(self.dataset)

    @property
    def n_classes(self) -> int:
        return self.convention.n_classes

    @property
    def B(self) -> sp.csr_matrix:
        """Train-split primitive incidence matrix."""
        return self.dataset.train.B

    @property
    def n_train(self) -> int:
        return self.dataset.train.n

    def candidate_mask(self) -> np.ndarray:
        """Examples still eligible for selection.

        Excludes previously-selected dev points and examples containing no
        primitives (no LF can be written from them).
        """
        has_primitive = self.family.examples_with_primitives()
        if has_primitive.shape[0] != self.n_train:  # family built on another split
            has_primitive = np.asarray(self.B.sum(axis=1)).ravel() > 0
        mask = has_primitive.copy()
        if self.selected:
            mask[list(self.selected)] = False
        return mask

    def resolve_proxy(self) -> np.ndarray:
        """The graded ground-truth proxy, materialized on demand.

        Sessions running with on-demand proxy prediction (ENGINE.md §4)
        attach a ``proxy_provider`` that performs any deferred end-model
        refresh before handing the array out; the result is memoized in
        the refit-scoped ``cache`` so repeat reads between refits are
        dict lookups, and the ``proxy_proba``/``proxy_labels`` fields are
        kept consistent with it.  Hand-built states (no provider) fall
        back to the plain ``proxy_proba`` array — the full-split proxy
        they were constructed with.
        """
        if self.proxy_provider is None:
            return self.proxy_proba
        if self.cache is not None and "proxy_resolved" in self.cache:
            proxy = self.cache["proxy_resolved"]
        else:
            proxy = self.proxy_provider()
            if self.cache is not None:
                self.cache["proxy_resolved"] = proxy
        if proxy is not self.proxy_proba:
            self.proxy_proba = proxy
            self.proxy_labels = self.convention.posterior_to_votes(proxy)
        return proxy


#: Historical names of :class:`SessionState`: the cardinality-generic base
#: and the K-class snapshot it once had beside the binary one.
BaseSessionState = MulticlassSessionState = SessionState


class DevDataSelector(ABC):
    """Strategy choosing the next development example (paper Sec. 4.2)."""

    name: str = "abstract"

    @abstractmethod
    def select(self, state: SessionState) -> int | None:
        """Return the chosen train index, or ``None`` if nothing is eligible."""

    @staticmethod
    def _argmax_with_ties(
        scores: np.ndarray, mask: np.ndarray, rng: np.random.Generator
    ) -> int | None:
        """Argmax over masked scores with uniform random tie-breaking."""
        if not mask.any():
            return None
        masked = np.where(mask, scores, -np.inf)
        best = masked.max()
        if not np.isfinite(best):
            eligible = np.flatnonzero(mask)
            return int(rng.choice(eligible))
        ties = np.flatnonzero(masked >= best - 1e-12)
        return int(rng.choice(ties))


class RandomSelector(DevDataSelector):
    """Uniform sampling from the eligible unlabeled pool.

    The prevailing practice (Snorkel's implicit selector).
    """

    name = "random"

    def select(self, state: SessionState) -> int | None:
        mask = state.candidate_mask()
        if not mask.any():
            return None
        eligible = np.flatnonzero(mask)
        return int(state.rng.choice(eligible))


class AbstainSelector(DevDataSelector):
    """Selects the example with the most abstaining LFs ([9])."""

    name = "abstain"

    def select(self, state: SessionState) -> int | None:
        mask = state.candidate_mask()
        if state.L_train.shape[1] == 0:
            # No LFs yet: every example ties at zero votes; fall back to random.
            return RandomSelector().select(state)
        scores = state.convention.abstain_counts(state.L_train).astype(float)
        return self._argmax_with_ties(scores, mask, state.rng)


class DisagreeSelector(DevDataSelector):
    """Selects the example where the current LFs conflict the most ([9])."""

    name = "disagree"

    def select(self, state: SessionState) -> int | None:
        mask = state.candidate_mask()
        if state.L_train.shape[1] == 0:
            return RandomSelector().select(state)
        scores = state.convention.conflict_counts(state.L_train).astype(float)
        if scores.max() <= 0:
            # No conflicts anywhere yet: disagreement is uninformative;
            # degrade gracefully to random (matching [9]'s behaviour).
            return RandomSelector().select(state)
        return self._argmax_with_ties(scores, mask, state.rng)


class UncertaintySelector(DevDataSelector):
    """Pick the example with the highest label-model posterior entropy.

    Classic uncertainty sampling read off the label model (not the end
    model) — an intermediate baseline between Abstain/Disagree and SEU.
    """

    name = "uncertainty"

    def select(self, state: SessionState) -> int | None:
        mask = state.candidate_mask()
        if state.L_train.shape[1] == 0:
            return RandomSelector().select(state)
        return self._argmax_with_ties(np.asarray(state.entropies, float), mask, state.rng)


BASIC_SELECTORS = {
    "random": RandomSelector,
    "abstain": AbstainSelector,
    "disagree": DisagreeSelector,
    "uncertainty": UncertaintySelector,
}


def make_basic_selector(name: str) -> DevDataSelector:
    """Instantiate a baseline selector by registry name."""
    try:
        cls = BASIC_SELECTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown selector {name!r}; choose from {sorted(BASIC_SELECTORS)} or 'seu'"
        ) from None
    return cls()
