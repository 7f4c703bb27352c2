"""Multiclass primitive labeling functions and the LF family.

The primitive-based LF form of the paper (Sec. 4) is label-space agnostic:

    λ_{z,y}(x):  return y if x contains z else abstain

Here ``y`` ranges over ``{0, ..., K-1}``, so the family is
``F = {λ_{z,k} | z ∈ Z, k < K}`` — ``K`` LFs per primitive instead of two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.lf import LFFamily
from repro.labelmodel.matrix import check_n_classes, column_nonzero_rows
from repro.multiclass.matrix import MC_ABSTAIN


@dataclass(frozen=True)
class MultiClassLF:
    """A keyword/primitive labeling function ``λ_{z,k}`` for class ``k``.

    Attributes
    ----------
    primitive_id:
        Column of the primitive-incidence matrix ``B`` this LF keys on.
    primitive:
        The primitive token itself (for display/lineage).
    label:
        The class id in ``{0, ..., K-1}`` emitted when the primitive is
        present.
    """

    primitive_id: int
    primitive: str
    label: int

    def __post_init__(self) -> None:
        if self.label < 0:
            raise ValueError(f"label must be a class id >= 0, got {self.label}")
        if self.primitive_id < 0:
            raise ValueError(f"primitive_id must be >= 0, got {self.primitive_id}")

    @property
    def name(self) -> str:
        """Human-readable name, e.g. ``"goal->2"``."""
        return f"{self.primitive}->{self.label}"

    def apply(self, B: sp.spmatrix) -> np.ndarray:
        """Vote vector over the rows of incidence matrix ``B``.

        Returns an ``(n,)`` int8 array in {-1, label}.  Sparse-native: only
        the rows covered by the primitive are touched (pass a CSC matrix
        for the O(nnz_col) fast path).
        """
        votes = np.full(B.shape[0], MC_ABSTAIN, dtype=np.int8)
        votes[column_nonzero_rows(B, self.primitive_id)] = self.label
        return votes


class MultiClassLFFamily(LFFamily):
    """The family of all multiclass primitive LFs over a primitive domain.

    The primitive bookkeeping (coverage, explorer, token lookup) is the
    label-space-agnostic :class:`~repro.core.lf.LFFamily`; this subclass
    adds the class count, emits :class:`MultiClassLF` s, and estimates
    per-class accuracies.

    Parameters
    ----------
    primitive_names:
        Token per column of ``B``.
    B:
        Binary ``(n_train, |Z|)`` incidence matrix.
    n_classes:
        The number of classes ``K``.
    """

    def __init__(self, primitive_names: list[str], B: sp.csr_matrix, n_classes: int) -> None:
        super().__init__(primitive_names, B)
        self.n_classes = check_n_classes(n_classes)

    def make(self, primitive_id: int, label: int) -> MultiClassLF:
        """Construct the LF ``λ_{z,k}`` for a primitive id and class id."""
        if not 0 <= label < self.n_classes:
            raise ValueError(f"label must be in [0, {self.n_classes}), got {label}")
        return MultiClassLF(
            primitive_id=int(primitive_id),
            primitive=self.primitive_names[int(primitive_id)],
            label=int(label),
        )

    def empirical_class_mass(self, proxy_proba: np.ndarray) -> np.ndarray:
        """Accuracy of ``λ_{z,k}`` for every ``(z, k)`` under a soft proxy.

        Returns the ``(|Z|, K)`` matrix ``acc[z, k] = P̂(y = k | z ∈ x)``
        estimated against a soft ground-truth proxy — the multiclass
        generalization of the binary family's ``empirical_accuracies``.
        Rows of uncovered primitives get the uniform ``1/K``.

        Parameters
        ----------
        proxy_proba:
            ``(n_train, K)`` end-model class probabilities (or a one-hot
            encoding of hard predictions).
        """
        P = np.asarray(proxy_proba, dtype=float)
        if P.shape != (self.B.shape[0], self.n_classes):
            raise ValueError(
                f"proxy_proba must have shape ({self.B.shape[0]}, {self.n_classes}), "
                f"got {P.shape}"
            )
        mass = np.asarray((self.B.T @ P))  # (|Z|, K)
        cov = self._coverage_counts[:, None]
        uniform = np.full_like(mass, 1.0 / self.n_classes)
        return np.divide(mass, cov, out=uniform, where=cov > 0)
