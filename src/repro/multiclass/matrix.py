"""The K-class vote alphabet bound to the shared label-matrix layer.

Multiclass votes are ``L[i, j] ∈ {-1, 0, ..., K-1}`` with ``MC_ABSTAIN = -1``
meaning *abstain*; these names fix the ``abstain``/``labels`` arguments of
the alphabet-generic functions in :mod:`repro.labelmodel.matrix`.
"""

from functools import partial

import numpy as np

from repro.labelmodel.matrix import (
    abstain_counts, apply_lfs, check_n_classes, conflict_counts, coverage, coverage_mask,
    label_vote_counts, lf_accuracies, summary, validate_label_matrix,
)

MC_ABSTAIN = -1

apply_mc_lfs = partial(apply_lfs, abstain=MC_ABSTAIN)
mc_coverage_mask = partial(coverage_mask, abstain=MC_ABSTAIN)
mc_coverage = partial(coverage, abstain=MC_ABSTAIN)
mc_abstain_counts = partial(abstain_counts, abstain=MC_ABSTAIN)
mc_lf_accuracies = partial(lf_accuracies, abstain=MC_ABSTAIN)


def validate_mc_label_matrix(L: np.ndarray, n_classes: int) -> np.ndarray:
    """Check that ``L`` is 2-D with entries in {-1, 0, ..., K-1}; return int8."""
    return validate_label_matrix(L, MC_ABSTAIN, range(check_n_classes(n_classes)))


def validate_mc_labels(name: str, y: np.ndarray, n_classes: int) -> np.ndarray:
    """Validate a ground-truth label vector in {0, ..., K-1} (no abstains)."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    bad = np.setdiff1d(arr, np.arange(n_classes))
    if bad.size:
        raise ValueError(f"{name} must contain classes in [0, {n_classes}), found {bad.tolist()}")
    return arr.astype(int)


def mc_vote_counts(L: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-example per-class vote counts, shape ``(n, K)``, as floats."""
    return label_vote_counts(L, range(n_classes)).astype(float)


def mc_conflict_counts(L: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-example number of vote pairs naming different classes."""
    return conflict_counts(L, range(n_classes))


def mc_summary(L: np.ndarray, n_classes: int, y: np.ndarray | None = None) -> dict[str, float]:
    """Aggregate diagnostics dict (coverage/overlap/conflict [+ accuracy])."""
    return summary(L, y, abstain=MC_ABSTAIN, labels=range(n_classes))
