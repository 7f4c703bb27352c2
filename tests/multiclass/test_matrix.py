"""Tests for multiclass label-matrix utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.multiclass.matrix import (
    MC_ABSTAIN,
    apply_mc_lfs,
    mc_abstain_counts,
    mc_conflict_counts,
    mc_coverage,
    mc_coverage_mask,
    mc_lf_accuracies,
    mc_summary,
    mc_vote_counts,
    validate_mc_label_matrix,
    validate_mc_labels,
)

MC_MATRICES = arrays(
    np.int8,
    st.tuples(st.integers(1, 20), st.integers(0, 6)),
    elements=st.sampled_from([-1, 0, 1, 2]),
)


class TestValidation:
    def test_valid_matrix_passes(self):
        L = np.array([[0, 1, -1], [2, -1, -1]])
        out = validate_mc_label_matrix(L, 3)
        assert out.dtype == np.int8

    def test_vote_beyond_k_rejected(self):
        with pytest.raises(ValueError, match="entries must be in"):
            validate_mc_label_matrix(np.array([[3]]), 3)

    def test_below_abstain_rejected(self):
        with pytest.raises(ValueError, match="entries must be in"):
            validate_mc_label_matrix(np.array([[-2]]), 3)

    def test_one_dim_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            validate_mc_label_matrix(np.array([0, 1]), 3)

    def test_n_classes_below_two_rejected(self):
        with pytest.raises(ValueError, match="n_classes"):
            validate_mc_label_matrix(np.zeros((1, 1)), 1)

    def test_non_integer_votes_rejected(self):
        # Membership in the alphabet, not a numeric range: -0.5 must not
        # be truncated into a vote for class 0, nor 1.5 into class 1.
        with pytest.raises(ValueError, match="entries must be in"):
            validate_mc_label_matrix(np.array([[1.5, -0.5]]), 3)

    def test_integral_float_votes_accepted(self):
        out = validate_mc_label_matrix(np.array([[1.0, -1.0]]), 3)
        np.testing.assert_array_equal(out, [[1, -1]])
        assert out.dtype == np.int8

    def test_n_classes_beyond_int8_rejected(self):
        # Class 150 would wrap to -106 in the int8 vote store.
        with pytest.raises(ValueError, match="int8"):
            validate_mc_label_matrix(np.array([[150]]), 200)

    def test_labels_vector_non_integer_rejected(self):
        with pytest.raises(ValueError, match="classes in"):
            validate_mc_labels("y", np.array([0.5, 1.0]), 3)

    def test_labels_vector_valid(self):
        out = validate_mc_labels("y", np.array([0, 1, 2]), 3)
        assert out.dtype == int

    def test_labels_vector_abstain_rejected(self):
        with pytest.raises(ValueError, match="classes in"):
            validate_mc_labels("y", np.array([0, -1]), 3)


class TestCoverage:
    def test_coverage_mask(self):
        L = np.array([[-1, -1], [0, -1], [-1, 2]])
        np.testing.assert_array_equal(mc_coverage_mask(L), [False, True, True])

    def test_coverage_fraction(self):
        L = np.array([[-1, -1], [0, -1], [-1, 2], [1, 1]])
        assert mc_coverage(L) == pytest.approx(0.75)

    def test_empty_matrix_coverage_zero(self):
        assert mc_coverage(np.zeros((0, 3))) == 0.0
        assert mc_coverage(np.full((3, 0), MC_ABSTAIN)) == 0.0


class TestVoteCounts:
    def test_counts_by_class(self):
        L = np.array([[0, 0, 1], [2, -1, 2]])
        counts = mc_vote_counts(L, 3)
        np.testing.assert_array_equal(counts, [[2, 1, 0], [0, 0, 2]])

    def test_abstain_counts(self):
        L = np.array([[0, -1, -1], [-1, -1, -1]])
        np.testing.assert_array_equal(mc_abstain_counts(L), [2, 3])


class TestConflicts:
    def test_no_conflict_when_agreeing(self):
        L = np.array([[1, 1, 1]])
        assert mc_conflict_counts(L, 3)[0] == 0

    def test_pairwise_conflict_count(self):
        # votes (0, 0, 1, 2): pairs across classes = 2*1 + 2*1 + 1*1 = 5
        L = np.array([[0, 0, 1, 2]])
        assert mc_conflict_counts(L, 3)[0] == 5

    def test_binary_reduction_matches_product(self):
        # For K=2 the formula reduces to pos * neg
        L = np.array([[0, 0, 1, 1, 1]])
        assert mc_conflict_counts(L, 2)[0] == 2 * 3

    @given(L=MC_MATRICES)
    @settings(max_examples=30, deadline=None)
    def test_conflicts_nonnegative(self, L):
        assert np.all(mc_conflict_counts(L, 3) >= 0)


class TestAccuracies:
    def test_perfect_lf(self):
        y = np.array([0, 1, 2])
        L = y[:, None].astype(np.int8)
        assert mc_lf_accuracies(L, y)[0] == pytest.approx(1.0)

    def test_uncovered_lf_is_nan(self):
        L = np.full((3, 1), MC_ABSTAIN, dtype=np.int8)
        assert np.isnan(mc_lf_accuracies(L, np.array([0, 1, 2]))[0])

    def test_partial_accuracy(self):
        y = np.array([0, 0, 1, 1])
        L = np.array([[0], [1], [1], [-1]], dtype=np.int8)
        assert mc_lf_accuracies(L, y)[0] == pytest.approx(2.0 / 3.0)


class TestApplyLFs:
    def test_apply_matches_incidence(self, topics_dataset):
        from repro.multiclass.lf import MultiClassLFFamily

        family = MultiClassLFFamily(
            topics_dataset.primitive_names, topics_dataset.train.B, 4
        )
        lfs = [family.make(0, 1), family.make(1, 3)]
        L = apply_mc_lfs(lfs, topics_dataset.train.B)
        col0 = np.asarray(topics_dataset.train.B[:, 0].todense()).ravel()
        np.testing.assert_array_equal(L[:, 0], np.where(col0 > 0, 1, MC_ABSTAIN))
        assert set(np.unique(L[:, 1])) <= {MC_ABSTAIN, 3}

    def test_empty_lf_list(self):
        import scipy.sparse as sp

        L = apply_mc_lfs([], sp.csr_matrix((5, 3)))
        assert L.shape == (5, 0)


class TestSummary:
    def test_summary_keys(self):
        L = np.array([[0, 1], [-1, -1]], dtype=np.int8)
        stats = mc_summary(L, 2, y=np.array([0, 1]))
        for key in ("n_examples", "n_lfs", "coverage", "overlap", "conflict"):
            assert key in stats
        assert "mean_lf_accuracy" in stats

    @given(L=MC_MATRICES)
    @settings(max_examples=30, deadline=None)
    def test_summary_fractions_in_unit_interval(self, L):
        stats = mc_summary(L, 3)
        for key in ("coverage", "overlap", "conflict"):
            assert 0.0 <= stats[key] <= 1.0
