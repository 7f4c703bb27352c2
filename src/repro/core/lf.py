"""Primitive-based labeling functions and the LF family F.

The paper focuses on the most widely adopted LF type (Sec. 4):

    λ_{z,y}(x):  return y if x contains z else abstain

with ``z`` from a domain-specific primitive domain Z (uni-grams for text,
object annotations for images).  The family ``F = {λ_{z,y} | z ∈ Z, y ∈ Y}``
is what both the simulated user samples from and the SEU selector reasons
over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.labelmodel.matrix import column_nonzero_rows


@dataclass(frozen=True)
class PrimitiveLF:
    """A keyword/primitive labeling function ``λ_{z,y}``.

    Attributes
    ----------
    primitive_id:
        Column of the primitive-incidence matrix ``B`` this LF keys on.
    primitive:
        The primitive token itself (for display/lineage).
    label:
        The ±1 label emitted when the primitive is present.
    """

    primitive_id: int
    primitive: str
    label: int

    def __post_init__(self) -> None:
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label}")
        if self.primitive_id < 0:
            raise ValueError(f"primitive_id must be >= 0, got {self.primitive_id}")

    @property
    def name(self) -> str:
        """Human-readable name, e.g. ``"perfect->+1"``."""
        sign = "+1" if self.label == 1 else "-1"
        return f"{self.primitive}->{sign}"

    def apply(self, B: sp.spmatrix) -> np.ndarray:
        """Vote vector over the rows of incidence matrix ``B``.

        Returns an ``(n,)`` int8 array in {-1, 0, +1}.  Sparse-native: only
        the rows covered by the primitive are touched (pass a CSC matrix
        for the O(nnz_col) fast path — no densified column is ever built).
        """
        votes = np.zeros(B.shape[0], dtype=np.int8)
        votes[column_nonzero_rows(B, self.primitive_id)] = self.label
        return votes


class LFFamily:
    """The (lazy) family of all primitive LFs over a dataset's primitive domain.

    Wraps the primitive names and the train-split incidence matrix; provides
    candidate enumeration for the simulated user and aggregate statistics
    for SEU.  The primitive bookkeeping does not depend on the label space;
    :meth:`make` and :meth:`empirical_accuracies` are the binary parts, which
    :class:`repro.multiclass.lf.MultiClassLFFamily` replaces for K classes.

    Parameters
    ----------
    primitive_names:
        Token per column of ``B``.
    B:
        Binary ``(n_train, |Z|)`` incidence matrix.
    """

    def __init__(self, primitive_names: list[str], B: sp.csr_matrix) -> None:
        if B.shape[1] != len(primitive_names):
            raise ValueError(
                f"B has {B.shape[1]} columns but {len(primitive_names)} primitive names given"
            )
        self.primitive_names = list(primitive_names)
        self.B = B.tocsr()
        self._B_csc: sp.csc_matrix | None = None
        self._coverage_counts = np.asarray(self.B.sum(axis=0)).ravel()
        # Row nnz of the binary incidence matrix = primitives per example.
        self._example_primitive_counts = np.diff(self.B.indptr)

    @property
    def B_csc(self) -> sp.csc_matrix:
        """Column-major twin of ``B``, built lazily and cached.

        Used for O(nnz_col) covered-row lookups (``explore_examples``,
        sparse LF application on the train split).
        """
        if self._B_csc is None:
            self._B_csc = self.B.tocsc()
        return self._B_csc

    @property
    def n_primitives(self) -> int:
        return len(self.primitive_names)

    def coverage_counts(self) -> np.ndarray:
        """Number of train examples containing each primitive, shape (|Z|,)."""
        return self._coverage_counts.copy()

    def examples_with_primitives(self) -> np.ndarray:
        """Boolean ``(n_train,)`` mask of examples containing ≥1 primitive.

        Precomputed from the CSR row pointers — selectors call this every
        iteration and the mask never changes.
        """
        return self._example_primitive_counts > 0

    def primitives_in(self, example_index: int) -> np.ndarray:
        """Primitive ids present in the given train example.

        Direct CSR index arithmetic — no intermediate sparse row object.
        """
        i = int(example_index)
        return self.B.indices[self.B.indptr[i] : self.B.indptr[i + 1]].copy()

    def make(self, primitive_id: int, label: int) -> PrimitiveLF:
        """Construct the LF ``λ_{z,y}`` for a primitive id and label."""
        return PrimitiveLF(
            primitive_id=int(primitive_id),
            primitive=self.primitive_names[int(primitive_id)],
            label=int(label),
        )

    def make_by_token(self, token: str, label: int) -> PrimitiveLF:
        """Construct an LF from a primitive token (raises if unknown)."""
        try:
            pid = self.primitive_names.index(token)
        except ValueError:
            raise KeyError(f"primitive {token!r} is not in the primitive domain") from None
        return self.make(pid, label)

    def explore_examples(self, primitive_id: int, k: int = 5, rng=None) -> np.ndarray:
        """The primitive-based example explorer (paper Sec. 7).

        Returns up to ``k`` randomly-sampled train indices of examples that
        contain the primitive — the UI feature that lets a user judge how
        well a candidate LF would generalize before committing to it.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        from repro.utils.rng import ensure_rng

        rng = ensure_rng(rng)
        covered = column_nonzero_rows(self.B_csc, primitive_id)
        if covered.size <= k:
            return np.sort(covered)
        return np.sort(rng.choice(covered, size=k, replace=False))

    def empirical_accuracies(self, proxy: np.ndarray) -> np.ndarray:
        """Accuracy of ``λ_{z,+1}`` for every ``z`` under a ground-truth proxy.

        Returns ``(|Z|,)`` array ``acc(z, +1)``; by symmetry
        ``acc(z, -1) = 1 - acc(z, +1)`` on covered examples.  Primitives with
        zero coverage get 0.5 (uninformative).  This is the ``acc(λ)`` of
        Eq. 2, computed against the end model's current predictions because
        ground truth is unavailable (Sec. 4.2).

        ``proxy`` may be hard ±1 predictions or probabilities
        ``P(y=+1|x) ∈ [0,1]``; probabilities are preferred — hard
        predictions zero out a whole user-model branch whenever the end
        model momentarily predicts a single class.
        """
        proxy = np.asarray(proxy, dtype=float)
        if proxy.shape[0] != self.B.shape[0]:
            raise ValueError(
                f"proxy has length {proxy.shape[0]}, expected {self.B.shape[0]}"
            )
        if proxy.size and proxy.min() < 0.0:  # hard ±1 encoding -> [0, 1]
            proxy = (proxy + 1.0) / 2.0
        pos_mass = np.asarray(self.B.T @ proxy).ravel()
        cov = self._coverage_counts
        return np.divide(
            pos_mass, cov, out=np.full(self.n_primitives, 0.5), where=cov > 0
        )
