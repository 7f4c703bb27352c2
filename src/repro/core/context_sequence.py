"""Weighted context-sequence contextualizer (the paper's stated future work).

Section 3 of the paper notes that the development context of an LF created
at iteration ``t`` is really the whole sequence of development data the
user has seen, ``(S_1, ..., S_t)``, but restricts the context window to the
current example and "leave[s] the incorporation of longer weighted
context-sequence as a future direction".  This module implements that
direction.

Rationale: by iteration ``t`` the user has internalized patterns from every
example seen so far; the heuristic they extract from ``S_t`` is shaped by —
and plausibly generalizes toward — earlier examples too, with influence
fading for older ones.  We therefore measure each example's distance to an
LF not from the single development point but from the *recency-weighted
context sequence*:

    d_ctx(x, λ_j) = Σ_{k ≤ t_j} w_k · dist(x, s_k)  /  Σ_{k ≤ t_j} w_k,
    w_k = γ^{t_j − k}

where ``s_k`` is the development point of iteration ``k``, ``t_j`` the
iteration at which λ_j was created, and ``γ ∈ [0, 1]`` the recency-decay
factor.  ``γ = 0`` uses only the current development point (``0^0 = 1``),
recovering the paper's Eq. 4 exactly; ``γ = 1`` weighs the entire history
uniformly.  Radii are, as in Eq. 4, the ``p``-th percentile of the
context distances over the train split, so the two variants are directly
comparable at equal ``p``.
"""

from __future__ import annotations

import numpy as np

from repro.core.contextualizer import LFContextualizer
from repro.core.lineage import LineageStore
from repro.utils.validation import check_in_range


class ContextSequenceContextualizer(LFContextualizer):
    """Eq. 4 with recency-weighted multi-point development context.

    Parameters
    ----------
    gamma:
        Recency-decay factor ``γ ∈ [0, 1]``.  Older development points get
        weight ``γ^age``; ``γ = 0`` reduces to the single-point
        :class:`~repro.core.contextualizer.LFContextualizer`.
    metric:
        ``"cosine"`` (default) or ``"euclidean"``.
    percentile:
        The radius percentile ``p`` (overridable per call).
    max_window:
        Optional hard cap on how many most-recent development points enter
        the context (``None`` = unbounded).  With γ < 1 the tail weights
        vanish anyway; the cap bounds compute for γ = 1.
    """

    def __init__(
        self,
        gamma: float = 0.5,
        metric: str = "cosine",
        percentile: float = 75.0,
        max_window: int | None = None,
    ) -> None:
        super().__init__(metric=metric, percentile=percentile)
        check_in_range("gamma", gamma, 0.0, 1.0)
        if max_window is not None and max_window < 1:
            raise ValueError(f"max_window must be >= 1, got {max_window}")
        self.gamma = gamma
        self.max_window = max_window

    # ------------------------------------------------------------------ #
    # context distances (the per-column hook of LFContextualizer)
    # ------------------------------------------------------------------ #
    def column_distances(self, lineage: LineageStore, split: str, j: int) -> np.ndarray:
        """``(n_split,)`` recency-weighted context distances ``d_ctx(x, λ_j)``.

        The context of λ_j consists of the development points of all
        records with ``iteration <= iteration_j`` (the user had seen them
        when writing λ_j), ordered by iteration.  Radii and refinement are
        inherited: Eq. 4 runs on these distances instead of the single
        development point's.
        """
        iterations = np.array([r.iteration for r in lineage.records], dtype=int)
        # Records visible to the author of λ_j, most recent last.
        visible = np.flatnonzero(iterations <= iterations[j])
        visible = visible[np.argsort(iterations[visible], kind="stable")]
        if self.max_window is not None:
            visible = visible[-self.max_window :]
        ages = iterations[j] - iterations[visible]
        with np.errstate(invalid="ignore"):
            weights = np.where(ages == 0, 1.0, self.gamma**ages)
        base = np.stack(
            [lineage.distance_column(split, self.metric, k) for k in visible], axis=1
        )
        return (base @ weights) / weights.sum()

    def context_distances(self, lineage: LineageStore, split: str) -> np.ndarray:
        """``(n_split, m)`` context distances; column ``j`` is :meth:`column_distances`."""
        if not len(lineage):
            return np.zeros((lineage.dataset.splits[split].n, 0))
        return np.stack(
            [self.column_distances(lineage, split, j) for j in range(len(lineage))], axis=1
        )
