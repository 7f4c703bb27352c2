"""The LF contextualizer: radius-based refinement of LFs (paper Eq. 4).

Each LF is restricted to be active only within a radius of its development
data point:

    λ'_j(x) = λ_j(x)  if dist(x, x_{λ_j}) ≤ r_j   else abstain,

where ``r_j`` is the ``p``-th percentile of the distances from all train
examples to ``x_{λ_j}``.  The refinement is a pure pre-processing step on
the label matrix, which is what makes the contextualized pipeline
label-model agnostic (Sec. 4.3) — and label-*space* agnostic too: Eq. 4
only ever moves votes to *abstain*, so the implementation is written once
against the :class:`~repro.core.convention.VoteConvention` contract
(matrix validation + abstain sentinel) and serves both the binary and the
K-class pipelines (:mod:`repro.multiclass.contextualizer` binds the
latter).
"""

from __future__ import annotations

import numpy as np

from repro.core.convention import BINARY, VoteConvention
from repro.core.lineage import LineageStore
from repro.labelmodel.matrix import VoteMatrix
from repro.text.distance import DISTANCE_NAMES
from repro.utils.validation import check_in_range


class LFContextualizer:
    """Refines label matrices using LF development context.

    Parameters
    ----------
    metric:
        ``"cosine"`` (paper default and Table-9 winner) or ``"euclidean"``.
    percentile:
        The radius percentile ``p`` (system hyperparameter).  May be
        overridden per call, which is how the validation tuner works.
    convention:
        The vote convention of the matrices to refine (binary default).
    """

    def __init__(
        self,
        metric: str = "cosine",
        percentile: float = 75.0,
        convention: VoteConvention = BINARY,
    ) -> None:
        if metric not in DISTANCE_NAMES:
            raise ValueError(f"metric must be one of {DISTANCE_NAMES}, got {metric!r}")
        check_in_range("percentile", percentile, 0.0, 100.0)
        self.metric = metric
        self.percentile = percentile
        self.convention = convention

    def column_distances(self, lineage: LineageStore, split: str, j: int) -> np.ndarray:
        """``(n_split,)`` distances of every split example to LF ``j``.

        The one per-column hook of Eq. 4: ``dist(x, x_{λ_j})`` to the LF's
        development point here; subclasses measure a different context.
        """
        return lineage.distance_column(split, self.metric, j)

    def _resolve_percentile(self, percentile: float | None) -> float:
        p = self.percentile if percentile is None else percentile
        check_in_range("percentile", p, 0.0, 100.0)
        return float(p)

    def _radius(self, lineage: LineageStore, j: int, p: float) -> float:
        return np.percentile(self.column_distances(lineage, "train", j), p)

    def radii(self, lineage: LineageStore, percentile: float | None = None) -> np.ndarray:
        """Per-LF refinement radii ``r_j`` from train-split distances."""
        p = self._resolve_percentile(percentile)
        return np.array([self._radius(lineage, j, p) for j in range(len(lineage))], dtype=float)

    def refine(
        self,
        L: np.ndarray | VoteMatrix,
        lineage: LineageStore,
        split: str = "train",
        percentile: float | None = None,
    ) -> np.ndarray | VoteMatrix:
        """Apply Eq. 4: abstain votes outside each LF's radius.

        Column ``j`` of the result depends only on lineage record ``j`` and
        raw column ``j``: the raw column's votes are kept where
        ``dist_j <= r_j``, and nothing else changes.

        Parameters
        ----------
        L:
            The votes of the *unrefined* LFs on ``split``, one column per
            lineage record.  A dense ``(n_split, m)`` array is validated
            and refined into a new array.  A :class:`VoteMatrix` (the
            session's append-only store) returns the refined
            :class:`VoteMatrix` cached on ``lineage`` for this
            contextualizer, split and percentile: only the columns
            appended since the previous call are refined, each once.
        lineage:
            Store holding the m records aligned with L's columns.
        split:
            Which split ``L`` was computed on; radii always come from train.
        percentile:
            Optional override of the configured ``p``.
        """
        p = self._resolve_percentile(percentile)
        if isinstance(L, VoteMatrix):
            self._check_shape(L.shape, lineage, split)
            state = self._refinement(lineage, p)
            cached = state.matrices.get(split)
            if cached is None or cached[0] is not L:
                cached = state.matrices[split] = (L, VoteMatrix(L.n_rows, abstain=L.abstain))
            return self._extend(cached[1], L, lineage, split, state.radii)
        L = self.convention.validate_matrix(L)
        self._check_shape(L.shape, lineage, split)
        abstain = self.convention.abstain
        refined = VoteMatrix(L.shape[0], abstain=abstain, capacity=max(1, L.shape[1]))
        raw = VoteMatrix.from_dense(L, abstain=abstain)
        return self._extend(refined, raw, lineage, split, self.radii(lineage, p)).values

    def _extend(
        self,
        refined: VoteMatrix,
        raw: VoteMatrix,
        lineage: LineageStore,
        split: str,
        radii,
    ) -> VoteMatrix:
        """Append the refinement of raw columns ``refined.m:`` to ``refined``."""
        stats = raw.stats
        for j in range(refined.m, raw.m):
            rows = stats.rows(j)
            keep = self.column_distances(lineage, split, j)[rows] <= radii[j]
            refined.append_sparse(rows[keep], stats.values(j)[keep])
        return refined

    def _refinement(self, lineage: LineageStore, p: float) -> "_Refinement":
        """This contextualizer's cached state at ``p`` on ``lineage``, grown to date.

        A cached column stays valid while records arrive in iteration
        order: every record after the cached ones comes from a later
        iteration.  Engine sessions always append that way (a batch adds
        its records before it refits); anything else rebuilds the state,
        because a context that reads earlier iterations
        (:class:`~repro.core.context_sequence.ContextSequenceContextualizer`)
        would see a new record in an old column.
        """
        key = (self, p)
        state = lineage.refinements.get(key)
        records = lineage.records
        done = 0 if state is None else len(state.radii)
        if state is None or (
            0 < done < len(records)
            and max(r.iteration for r in records[:done])
            >= min(r.iteration for r in records[done:])
        ):
            state = lineage.refinements[key] = _Refinement()
        state.radii.extend(
            self._radius(lineage, j, p) for j in range(len(state.radii), len(records))
        )
        return state

    @staticmethod
    def _check_shape(shape: tuple[int, int], lineage: LineageStore, split: str) -> None:
        n, m = shape
        if m != len(lineage):
            raise ValueError(
                f"label matrix has {m} columns but lineage has {len(lineage)} records"
            )
        n_split = lineage.dataset.splits[split].n
        if n != n_split:
            raise ValueError(
                f"distance rows ({n_split}) do not match label matrix rows ({n})"
            )


class _Refinement:
    """One contextualizer's refinement state at one percentile on one lineage.

    ``radii`` holds ``r_j`` for the first ``len(radii)`` records, and
    ``matrices`` maps a split to ``(raw, refined)``: the raw
    :class:`VoteMatrix` it was refined from (identity-checked, so a
    replaced raw matrix is refined afresh) and the refined one.
    """

    __slots__ = ("radii", "matrices")

    def __init__(self) -> None:
        self.radii: list[float] = []
        self.matrices: dict[str, tuple[VoteMatrix, VoteMatrix]] = {}


class PercentileTuner:
    """Selects the refinement percentile on validation soft-label quality.

    The paper tunes ``p`` "based on the validation accuracy of the resultant
    estimated soft labels" (Sec. 4.3).  For each candidate ``p``: refine the
    train votes, fit the label model, refine the validation votes with the
    same radii, and score the validation posterior's hard labels (threshold
    for binary, argmax for K classes) against ground truth — using the
    *dataset's* metric, so that on imbalanced tasks (SMS, scored by F1) the
    tuner does not prefer radii that silently drop all minority-class votes
    (which raw accuracy would reward).

    Parameters
    ----------
    grid:
        Candidate percentiles, coarse by design — the signal is smooth.
    metric:
        Metric name (``"accuracy"`` default, ``"f1"`` for imbalanced binary
        tasks); resolved against the contextualizer's vote convention.
    """

    def __init__(
        self, grid: tuple[float, ...] = (50.0, 75.0, 90.0), metric: str = "accuracy"
    ) -> None:
        if not grid:
            raise ValueError("grid must be non-empty")
        for p in grid:
            check_in_range("percentile", p, 0.0, 100.0)
        self.grid = tuple(grid)
        from repro.endmodel.metrics import get_metric

        get_metric(metric)  # eager name validation; resolution is per-convention
        self.metric_name = metric

    def best_percentile(
        self,
        contextualizer: LFContextualizer,
        L_train: np.ndarray | VoteMatrix,
        L_valid: np.ndarray | VoteMatrix,
        lineage: LineageStore,
        label_model_factory,
        y_valid: np.ndarray,
    ) -> float:
        """Return the grid percentile with the best validation score.

        ``L_train``/``L_valid`` are the raw votes.  A session passes its
        :class:`VoteMatrix` stores, so each candidate's refined matrices
        come from the lineage cache (shared with the engine's own refit).
        A dense array is refined into a new dense array, caches nothing,
        and is wrapped in a :class:`VoteMatrix`.  Either way the label
        model fits on the refined train matrix's stats handle and
        predicts the validation split on the refined valid matrix's.

        Ties resolve toward the *largest* percentile (least refinement):
        early in a session every candidate may score identically (e.g. F1
        is 0 for all of them), and defaulting to aggressive refinement
        would silently discard scarce minority-class votes.
        """
        convention = contextualizer.convention
        metric_fn = convention.metric_fn(self.metric_name)

        def refined(L, split, p) -> VoteMatrix:
            votes = contextualizer.refine(L, lineage, split, percentile=p)
            if isinstance(votes, VoteMatrix):
                return votes
            return VoteMatrix.from_dense(votes, abstain=convention.abstain)

        best_p = max(self.grid)
        best_score = -np.inf
        for p in sorted(self.grid, reverse=True):
            train = refined(L_train, "train", p)
            model = label_model_factory().fit(train.values, stats=train.stats)
            valid = refined(L_valid, "valid", p)
            proba = model.predict_proba(valid.values, stats=valid.stats)
            preds = convention.posterior_to_votes(proba)
            score = metric_fn(y_valid, preds)
            if score > best_score:
                best_score = score
                best_p = p
        return best_p
