"""Unit tests for the append-only :class:`VoteMatrix` and its running stats."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.labelmodel.matrix import (
    VoteMatrix,
    abstain_counts,
    column_nonzero_rows,
    conflict_counts,
    coverage_mask,
)
from repro.multiclass.matrix import mc_abstain_counts, mc_conflict_counts, mc_coverage_mask


def random_votes(rng, n, values, abstain, p_fire=0.4):
    votes = np.full(n, abstain, dtype=np.int8)
    fired = rng.random(n) < p_fire
    votes[fired] = rng.choice(values, size=int(fired.sum()))
    return votes


class TestColumnNonzeroRows:
    def test_csc_fast_path_matches_dense(self):
        rng = np.random.default_rng(0)
        dense = (rng.random((20, 7)) < 0.3).astype(float)
        B = sp.csc_matrix(dense)
        for j in range(7):
            np.testing.assert_array_equal(
                np.sort(column_nonzero_rows(B, j)), np.flatnonzero(dense[:, j])
            )

    def test_csr_fallback_matches_dense(self):
        rng = np.random.default_rng(1)
        dense = (rng.random((15, 5)) < 0.4).astype(float)
        B = sp.csr_matrix(dense)
        for j in range(5):
            np.testing.assert_array_equal(
                np.sort(column_nonzero_rows(B, j)), np.flatnonzero(dense[:, j])
            )


class TestBinaryVoteMatrix:
    def test_appends_match_column_stack(self):
        rng = np.random.default_rng(2)
        n = 30
        vm = VoteMatrix(n, abstain=0, capacity=1)
        reference = np.zeros((n, 0), dtype=np.int8)
        for _ in range(10):
            col = random_votes(rng, n, values=[-1, 1], abstain=0)
            vm.append_column(col)
            reference = np.column_stack([reference, col]).astype(np.int8)
        np.testing.assert_array_equal(vm.values, reference)
        assert vm.shape == reference.shape

    def test_append_rows_matches_dense_lf_column(self):
        rng = np.random.default_rng(3)
        n = 25
        vm_sparse = VoteMatrix(n, abstain=0)
        vm_dense = VoteMatrix(n, abstain=0)
        for label in (1, -1, 1):
            rows = rng.choice(n, size=8, replace=False)
            col = np.zeros(n, dtype=np.int8)
            col[rows] = label
            vm_sparse.append_rows(rows, label)
            vm_dense.append_column(col)
        np.testing.assert_array_equal(vm_sparse.values, vm_dense.values)

    def test_running_stats_match_recomputed(self):
        rng = np.random.default_rng(4)
        n = 40
        vm = VoteMatrix(n, abstain=0)
        for _ in range(12):
            vm.append_column(random_votes(rng, n, values=[-1, 1], abstain=0))
            L = vm.values
            np.testing.assert_array_equal(vm.coverage_mask(), coverage_mask(L))
            np.testing.assert_array_equal(vm.conflict_counts(), conflict_counts(L))
            np.testing.assert_array_equal(vm.abstain_counts(), abstain_counts(L))
            np.testing.assert_array_equal(vm.vote_counts(1), (L == 1).sum(axis=1))
            np.testing.assert_array_equal(vm.vote_counts(-1), (L == -1).sum(axis=1))

    def test_values_is_a_view_not_a_copy(self):
        vm = VoteMatrix(5, abstain=0)
        vm.append_rows(np.array([0, 2]), 1)
        assert vm.values.base is vm._buf

    def test_growth_preserves_content(self):
        vm = VoteMatrix(6, abstain=0, capacity=1)
        columns = []
        rng = np.random.default_rng(5)
        for _ in range(9):  # forces multiple buffer doublings
            col = random_votes(rng, 6, values=[-1, 1], abstain=0)
            columns.append(col)
            vm.append_column(col)
        np.testing.assert_array_equal(vm.values, np.column_stack(columns))

    def test_from_dense_round_trips(self):
        rng = np.random.default_rng(6)
        L = np.column_stack(
            [random_votes(rng, 12, values=[-1, 1], abstain=0) for _ in range(4)]
        )
        vm = VoteMatrix.from_dense(L, abstain=0)
        np.testing.assert_array_equal(vm.values, L)
        np.testing.assert_array_equal(vm.coverage_mask(), coverage_mask(L))

    def test_rejects_abstain_vote_value(self):
        vm = VoteMatrix(4, abstain=0)
        with pytest.raises(ValueError, match="abstain"):
            vm.append_rows(np.array([1]), 0)

    def test_rejects_vote_value_beyond_int8(self):
        vm = VoteMatrix(4, abstain=-1)
        with pytest.raises(ValueError, match="int8"):
            vm.append_rows(np.array([1, 2]), 150)
        assert vm.m == 0 and not vm.coverage_mask().any()

    def test_rejects_negative_row_indices(self):
        # Negative indices would silently wrap to the end of the buffer,
        # corrupting both the votes and every running tally.
        vm = VoteMatrix(10, abstain=0)
        with pytest.raises(ValueError, match=r"row indices"):
            vm.append_rows(np.array([2, -1]), 1)
        assert vm.m == 0 and not vm.coverage_mask().any()

    def test_rejects_out_of_range_row_indices(self):
        vm = VoteMatrix(10, abstain=0)
        with pytest.raises(ValueError, match=r"row indices"):
            vm.append_rows(np.array([0, 10]), 1)
        assert vm.m == 0

    def test_boundary_rows_accepted(self):
        vm = VoteMatrix(10, abstain=0)
        vm.append_rows(np.array([0, 9]), 1)
        np.testing.assert_array_equal(np.flatnonzero(vm.values[:, 0]), [0, 9])

    def test_rejects_non_integer_rows(self):
        vm = VoteMatrix(10, abstain=0)
        with pytest.raises(ValueError, match="integer"):
            vm.append_rows(np.array([0.5, 2.0]), 1)

    def test_rejects_duplicate_rows(self):
        # Duplicates would write the dense vote once but double-count it in
        # the running tallies and the ColumnStats fire structure.
        vm = VoteMatrix(10, abstain=0)
        with pytest.raises(ValueError, match="unique"):
            vm.append_rows(np.array([3, 3]), 1)
        assert vm.m == 0

    def test_empty_rows_accepted(self):
        vm = VoteMatrix(10, abstain=0)
        vm.append_rows(np.array([], dtype=int), 1)
        assert vm.m == 1 and not vm.coverage_mask().any()

    def test_rejects_bad_column_shape(self):
        vm = VoteMatrix(4, abstain=0)
        with pytest.raises(ValueError, match="shape"):
            vm.append_column(np.zeros(5, dtype=np.int8))

    def test_empty_matrix_diagnostics(self):
        vm = VoteMatrix(8, abstain=0)
        assert vm.coverage() == 0.0
        assert not vm.coverage_mask().any()
        assert vm.values.shape == (8, 0)


class TestMulticlassVoteMatrix:
    def test_running_stats_match_recomputed(self):
        rng = np.random.default_rng(7)
        n, K = 30, 4
        vm = VoteMatrix(n, abstain=-1)
        for _ in range(10):
            vm.append_column(random_votes(rng, n, values=list(range(K)), abstain=-1))
            L = vm.values
            np.testing.assert_array_equal(vm.coverage_mask(), mc_coverage_mask(L))
            np.testing.assert_array_equal(vm.conflict_counts(), mc_conflict_counts(L, K))
            np.testing.assert_array_equal(vm.abstain_counts(), mc_abstain_counts(L))
            for k in range(K):
                np.testing.assert_array_equal(vm.vote_counts(k), (L == k).sum(axis=1))

    def test_class_zero_votes_are_counted(self):
        # Class id 0 is a legitimate (non-abstain) vote under the -1 sentinel.
        vm = VoteMatrix(5, abstain=-1)
        vm.append_rows(np.array([0, 3]), 0)
        np.testing.assert_array_equal(vm.vote_counts(0), [1, 0, 0, 1, 0])
        np.testing.assert_array_equal(vm.coverage_mask(), [True, False, False, True, False])


class TestAppendSparse:
    def test_matches_append_column_exactly(self):
        rng = np.random.default_rng(3)
        n = 40
        dense_vm = VoteMatrix(n, abstain=-1)
        sparse_vm = VoteMatrix(n, abstain=-1)
        for _ in range(8):
            votes = random_votes(rng, n, values=[0, 1, 2], abstain=-1)
            dense_vm.append_column(votes)
            fired = np.flatnonzero(votes != -1)
            # Shuffled caller order must not matter: storage is canonical.
            order = rng.permutation(fired.size)
            sparse_vm.append_sparse(fired[order], votes[fired][order])
        np.testing.assert_array_equal(dense_vm.values, sparse_vm.values)
        np.testing.assert_array_equal(dense_vm.coverage_mask(), sparse_vm.coverage_mask())
        for k in range(3):
            np.testing.assert_array_equal(dense_vm.vote_counts(k), sparse_vm.vote_counts(k))
        for j in range(8):
            np.testing.assert_array_equal(dense_vm.stats.rows(j), sparse_vm.stats.rows(j))
            np.testing.assert_array_equal(dense_vm.stats.values(j), sparse_vm.stats.values(j))

    def test_validation(self):
        vm = VoteMatrix(5, abstain=0)
        with pytest.raises(ValueError, match="abstain"):
            vm.append_sparse(np.array([1]), np.array([0]))
        with pytest.raises(ValueError, match="same length"):
            vm.append_sparse(np.array([1, 2]), np.array([1]))
        with pytest.raises(ValueError, match="unique"):
            vm.append_sparse(np.array([1, 1]), np.array([1, -1]))
        with pytest.raises(ValueError, match=r"\[0, 5\)"):
            vm.append_sparse(np.array([5]), np.array([1]))
        with pytest.raises(ValueError, match="integer"):
            vm.append_sparse(np.array([1.5]), np.array([1]))
        assert vm.m == 0  # nothing was appended by the failed calls


class TestStateArrays:
    @pytest.mark.parametrize("abstain,values", [(0, [-1, 1]), (-1, [0, 1, 2])])
    def test_round_trip_is_bit_identical(self, abstain, values):
        rng = np.random.default_rng(9)
        n = 30
        vm = VoteMatrix(n, abstain=abstain)
        for _ in range(6):
            vm.append_column(random_votes(rng, n, values=values, abstain=abstain))
        state = vm.state_arrays()
        rebuilt = VoteMatrix.from_state_arrays(n, abstain, state)
        np.testing.assert_array_equal(vm.values, rebuilt.values)
        np.testing.assert_array_equal(vm.coverage_mask(), rebuilt.coverage_mask())
        np.testing.assert_array_equal(vm.conflict_counts(), rebuilt.conflict_counts())
        for j in range(vm.m):
            np.testing.assert_array_equal(vm.stats.rows(j), rebuilt.stats.rows(j))
            np.testing.assert_array_equal(vm.stats.values(j), rebuilt.stats.values(j))
        # The CSC assemblies (what the EM label models consume) agree too.
        a, b = vm.stats.fires_csc(), rebuilt.stats.fires_csc()
        np.testing.assert_array_equal(a.toarray(), b.toarray())

    def test_empty_matrix_round_trips(self):
        vm = VoteMatrix(7, abstain=0)
        rebuilt = VoteMatrix.from_state_arrays(7, 0, vm.state_arrays())
        assert rebuilt.shape == (7, 0)

    def test_malformed_state_rejected(self):
        with pytest.raises(ValueError, match="indptr"):
            VoteMatrix.from_state_arrays(
                5, 0, {"indptr": np.array([0, 3]), "rows": np.array([1]),
                       "values": np.array([1], dtype=np.int8)}
            )
        with pytest.raises(ValueError, match="non-decreasing"):
            VoteMatrix.from_state_arrays(
                5, 0, {"indptr": np.array([0, 2, 1]), "rows": np.array([1, 2]),
                       "values": np.array([1, 1], dtype=np.int8)}
            )
        with pytest.raises(ValueError, match="malformed"):
            VoteMatrix.from_state_arrays(5, 0, {"rows": np.array([1])})
