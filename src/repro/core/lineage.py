"""LF ↔ development-data lineage tracking.

The paper's third hypothesis is that the *lineage* of each LF to the
development example it was created from carries exploitable signal
(Sec. 1, "Dropped Data-to-LF Lineage").  The :class:`LineageStore` records
the ``(Λ_t, S_t)`` tuples of the IDP loop (Sec. 3) and serves the cached
distance vectors the contextualizer needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lf import PrimitiveLF
from repro.data.dataset import FeaturizedDataset
from repro.text.distance import get_distance_fn


@dataclass(frozen=True)
class LineageRecord:
    """One LF together with its development context.

    Attributes
    ----------
    lf:
        The labeling function the user created.
    dev_index:
        Row of the *train* split the user was looking at (``x_λ``).
    iteration:
        IDP iteration at which the LF was created.
    """

    lf: PrimitiveLF
    dev_index: int
    iteration: int


class LineageStore:
    """Ordered collection of lineage records with distance caching.

    Distances from each development point to every example of a split are
    computed once per (record, split, metric) and cached.  The store also
    holds each contextualizer's refinement state (``refinements``: the
    radii and the append-only refined vote matrices of
    :meth:`~repro.core.contextualizer.LFContextualizer.refine`), so every
    LF column is refined once per percentile and split, when its record
    arrives, rather than on every refit.  Both caches live and die with the
    store, and a restored session builds a fresh one.  A refined matrix is
    tied to the raw vote matrix it was grown from, so a session that
    replaces its raw matrix gets that split refined afresh.
    """

    def __init__(self, dataset: FeaturizedDataset) -> None:
        self.dataset = dataset
        self.records: list[LineageRecord] = []
        self._distance_cache: dict[tuple[str, str, int], np.ndarray] = {}
        self.refinements: dict = {}

    def __len__(self) -> int:
        return len(self.records)

    def add(self, lf: PrimitiveLF, dev_index: int, iteration: int) -> LineageRecord:
        """Append a record; returns it."""
        n_train = self.dataset.train.n
        if not 0 <= dev_index < n_train:
            raise ValueError(f"dev_index {dev_index} out of range [0, {n_train})")
        record = LineageRecord(lf=lf, dev_index=int(dev_index), iteration=int(iteration))
        self.records.append(record)
        return record

    @property
    def lfs(self) -> list[PrimitiveLF]:
        return [r.lf for r in self.records]

    @property
    def dev_indices(self) -> np.ndarray:
        return np.array([r.dev_index for r in self.records], dtype=int)

    @property
    def exemplar_labels(self) -> np.ndarray:
        """The label each LF assigns — the exemplar label for ImplyLoss."""
        return np.array([r.lf.label for r in self.records], dtype=int)

    def distance_column(self, split: str, metric: str, j: int) -> np.ndarray:
        """``(n_split,)`` distances from every split example to record ``j``'s dev point."""
        dev_index = self.records[j].dev_index
        key = (split, metric, dev_index)
        column = self._distance_cache.get(key)
        if column is None:
            point = self.dataset.train.X[dev_index]
            column = get_distance_fn(metric)(self.dataset.splits[split].X, point)
            self._distance_cache[key] = column
        return column

    def distances(self, split: str, metric: str = "cosine") -> np.ndarray:
        """``(n_split, m)`` distances from every split example to each dev point.

        Column ``j`` is ``dist(x_i, x_{λ_j})`` for all ``i`` in the split.
        """
        if not self.records:
            return np.zeros((self.dataset.splits[split].n, 0))
        return np.stack(
            [self.distance_column(split, metric, j) for j in range(len(self.records))],
            axis=1,
        )
