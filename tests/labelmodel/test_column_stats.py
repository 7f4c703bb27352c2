"""Tests for the incremental sufficient-statistics handle (`ColumnStats`).

The tentpole contract (ENGINE.md §4): warm label-model fits given the
vote matrix's stats handle must be *bit-identical* to warm fits that build
the statistics themselves from the dense matrix, and the handle's sparse
assemblies must describe exactly the matrix they claim to.
"""

import numpy as np
import pytest

from repro.labelmodel.matrix import ColumnStats, VoteMatrix, column_stats_from_dense


def planted_binary(rng, n=200, m=6, p_fire=0.4, acc=0.8):
    y = np.where(rng.random(n) < 0.5, 1, -1)
    L = np.zeros((n, m), dtype=np.int8)
    for j in range(m):
        fires = rng.random(n) < p_fire
        correct = rng.random(n) < acc
        L[fires, j] = np.where(correct[fires], y[fires], -y[fires])
    return L


def planted_mc(rng, n=200, m=6, K=3, p_fire=0.4, acc=0.8):
    y = rng.integers(K, size=n)
    L = np.full((n, m), -1, dtype=np.int8)
    for j in range(m):
        fires = rng.random(n) < p_fire
        correct = rng.random(n) < acc
        wrong = (y + rng.integers(1, K, size=n)) % K
        L[fires, j] = np.where(correct[fires], y[fires], wrong[fires])
    return L


class TestColumnStatsStructure:
    def test_csc_assemblies_reproduce_dense_matrix(self):
        rng = np.random.default_rng(0)
        L = planted_binary(rng)
        stats = VoteMatrix.from_dense(L).stats
        np.testing.assert_array_equal(stats.signed_csc().toarray(), L.astype(float))
        np.testing.assert_array_equal(
            stats.fires_csc().toarray(), (L != 0).astype(float)
        )
        np.testing.assert_array_equal(
            stats.value_csc(1).toarray(), (L == 1).astype(float)
        )
        np.testing.assert_array_equal(
            stats.value_csc(-1).toarray(), (L == -1).astype(float)
        )

    def test_mc_value_csc_per_class(self):
        rng = np.random.default_rng(1)
        K = 4
        L = planted_mc(rng, K=K)
        stats = VoteMatrix.from_dense(L, abstain=-1).stats
        for k in range(K):
            np.testing.assert_array_equal(
                stats.value_csc(k).toarray(), (L == k).astype(float)
            )

    def test_counts_match_dense(self):
        rng = np.random.default_rng(2)
        L = planted_binary(rng)
        stats = VoteMatrix.from_dense(L).stats
        np.testing.assert_array_equal(stats.col_nnz(), (L != 0).sum(axis=0))
        np.testing.assert_array_equal(stats.value_col_counts(-1), (L == -1).sum(axis=0))
        np.testing.assert_array_equal(stats.row_value_counts(1), (L == 1).sum(axis=1))
        np.testing.assert_array_equal(stats.coverage_mask(), (L != 0).any(axis=1))

    def test_handle_is_live_across_appends(self):
        vm = VoteMatrix(10, abstain=0)
        stats = vm.stats
        vm.append_rows(np.array([0, 3]), 1)
        assert stats.m == 1
        first = stats.fires_csc()
        vm.append_rows(np.array([1, 3]), -1)
        assert stats.m == 2
        assert stats.fires_csc().shape == (10, 2)
        assert first.shape == (10, 1)  # the old assembly is not mutated

    def test_matches_ties_handle_to_view(self):
        vm = VoteMatrix(8, abstain=0)
        vm.append_rows(np.array([1, 2]), 1)
        assert vm.stats.matches(vm.values)
        assert not vm.stats.matches(vm.values.copy())
        assert not vm.stats.matches(np.zeros((8, 1), dtype=np.int8))
        other = VoteMatrix(8, abstain=0)
        other.append_rows(np.array([1, 2]), 1)
        assert not vm.stats.matches(other.values)

    def test_from_dense_structure_identical_to_live_appends(self):
        # Uniform-valued columns appended sparse-natively (the session path)
        # must yield the same CSC structure as a one-shot dense scan — this
        # is what makes handle-threaded and self-built warm fits bit-equal.
        rng = np.random.default_rng(3)
        n, m = 60, 5
        live = VoteMatrix(n, abstain=0)
        L = np.zeros((n, m), dtype=np.int8)
        for j in range(m):
            rows = np.sort(rng.choice(n, size=12, replace=False))
            label = 1 if j % 2 == 0 else -1
            live.append_rows(rows, label)
            L[rows, j] = label
        detached = column_stats_from_dense(L)
        for kind in ("fires", "signed"):
            ma = getattr(live.stats, f"{kind}_csc")()
            mb = getattr(detached, f"{kind}_csc")()
            np.testing.assert_array_equal(ma.indices, mb.indices)
            np.testing.assert_array_equal(ma.indptr, mb.indptr)
            np.testing.assert_array_equal(ma.data, mb.data)


class TestWarmFitBitIdentity:
    """Warm fits with the engine-threaded handle vs the self-built one."""

    def _binary_session(self, tiny_dataset=None):
        from repro.core.session import DataProgrammingSession
        from repro.data import load_dataset
        from repro.interactive.basic_selectors import RandomSelector
        from repro.interactive.simulated_user import SimulatedUser

        ds = load_dataset("amazon", scale="tiny", seed=0)
        session = DataProgrammingSession(
            ds,
            RandomSelector(),
            SimulatedUser(ds, seed=11),
            warm_min_train=0,
            warm_after=3,
            seed=7,
        )
        session.run(12)
        return session

    def test_binary_session_warm_fit_bit_identical(self):
        from repro.labelmodel.metal import MetalLabelModel

        session = self._binary_session()
        prev = session.label_model_
        assert isinstance(prev, MetalLabelModel) and len(session.lfs) > 3
        with_handle = session.label_model_factory().fit_warm(
            session.L_train, prev, max_iter=3, stats=session._L_train.stats
        )
        dense_copy = session.L_train.copy()
        without = session.label_model_factory().fit_warm(dense_copy, prev, max_iter=3)
        np.testing.assert_array_equal(with_handle.accuracies_, without.accuracies_)
        np.testing.assert_array_equal(with_handle.propensities_, without.propensities_)
        assert with_handle.prior_ == without.prior_

    def test_multiclass_session_warm_fit_bit_identical(self):
        from repro.multiclass import make_topics_dataset
        from repro.multiclass.selection import MCRandomSelector
        from repro.multiclass.session import MultiClassSession
        from repro.multiclass.simulated_user import MCSimulatedUser

        ds = make_topics_dataset(n_docs=400, seed=0)
        session = MultiClassSession(
            ds,
            MCRandomSelector(),
            MCSimulatedUser(ds, seed=5),
            warm_min_train=0,
            warm_after=3,
            seed=3,
        )
        session.run(12)
        prev = session.label_model_
        with_handle = session.label_model_factory().fit_warm(
            session.L_train, prev, max_iter=3, stats=session._L_train.stats
        )
        without = session.label_model_factory().fit_warm(
            session.L_train.copy(), prev, max_iter=3
        )
        np.testing.assert_array_equal(with_handle.confusions_, without.confusions_)
        np.testing.assert_array_equal(with_handle.propensities_, without.propensities_)
        np.testing.assert_array_equal(with_handle.priors_, without.priors_)

    def test_binary_dawid_skene_warm_fit_bit_identical(self):
        from repro.labelmodel.dawid_skene import DawidSkene

        rng = np.random.default_rng(9)
        L = planted_binary(rng, n=300, m=7)
        prev = DawidSkene().fit(L[:, :-1])
        vm = VoteMatrix.from_dense(L)
        with_handle = DawidSkene().fit_warm(vm.values, prev, max_iter=3, stats=vm.stats)
        without = DawidSkene().fit_warm(L.copy(), prev, max_iter=3)
        np.testing.assert_array_equal(with_handle.confusion_, without.confusion_)
        assert with_handle.prior_ == without.prior_

    def test_dawid_skene_warm_prior_seeded_from_majority(self):
        # The first class-balance update of a warm fit must come from the
        # smoothed majority posterior (as a cold fit's does), not from the
        # previous fit's converged posterior — the latter is a positive
        # feedback loop that collapses one-sided LF sets onto one class.
        from repro.labelmodel.dawid_skene import DawidSkene

        rng = np.random.default_rng(13)
        n, m = 300, 5
        # One-sided set: every LF votes +1.
        L = np.zeros((n, m), dtype=np.int8)
        for j in range(m):
            L[rng.random(n) < 0.4, j] = 1
        prev = DawidSkene().fit(L[:, :-1])
        warm = DawidSkene(n_iter=1).fit_warm(L, prev, max_iter=1)
        pos = (L == 1).sum(axis=1)
        q_majority = np.where(pos > 0, (pos + 0.5) / (pos + 1.0), 0.5)
        expected_prior = float(np.clip(q_majority.mean(), 0.01, 0.99))
        assert warm.prior_ == expected_prior

    def test_mismatched_handle_fails_loudly(self):
        from repro.labelmodel.metal import MetalLabelModel

        rng = np.random.default_rng(10)
        L = planted_binary(rng)
        vm = VoteMatrix.from_dense(L)
        prev = MetalLabelModel().fit(L[:, :-1])
        with pytest.raises(ValueError, match="stats handle"):
            MetalLabelModel().fit_warm(L.copy(), prev, stats=vm.stats)
        with pytest.raises(ValueError, match="stats handle"):
            MetalLabelModel().fit(L.copy(), stats=vm.stats)

    def test_cold_fit_with_handle_is_bit_identical_to_plain_fit(self):
        """The handle only skips validation on cold fits; the posterior
        kernel follows the handle, so the posteriors agree to tolerance."""
        from repro.labelmodel.metal import MetalLabelModel

        rng = np.random.default_rng(12)
        L = planted_binary(rng)
        vm = VoteMatrix.from_dense(L)
        a = MetalLabelModel().fit(L)
        b = MetalLabelModel().fit(vm.values, stats=vm.stats)
        np.testing.assert_array_equal(a.accuracies_, b.accuracies_)
        np.testing.assert_array_equal(a.propensities_, b.propensities_)
        np.testing.assert_allclose(
            a.predict_proba(L), b.predict_proba(vm.values, stats=vm.stats), rtol=1e-9
        )


def _fitted_bytes(model) -> list[bytes]:
    names = ("accuracies_", "propensities_", "prior_", "confusion_", "confusions_", "priors_")
    return [np.asarray(getattr(model, n)).tobytes() for n in names if hasattr(model, n)]


class TestCachedTransposes:
    """M-steps read ``(m, n)`` transposes cached on the handle, not ``.T``
    rebuilt every EM iteration; the cached object is the same CSR matrix."""

    def test_transposes_are_cached_per_column_count(self):
        rng = np.random.default_rng(4)
        L = planted_binary(rng, n=50, m=3)
        vm = VoteMatrix.from_dense(L)
        stats = vm.stats
        pairs = [
            (stats.fires_t, stats.fires_csc),
            (stats.signed_t, stats.signed_csc),
            (lambda: stats.value_t(1), lambda: stats.value_csc(1)),
            (lambda: stats.value_t(-1), lambda: stats.value_csc(-1)),
        ]
        for transposed, csc in pairs:
            t = transposed()
            assert t is transposed()
            reference = csc().T
            assert t.format == reference.format == "csr"
            for attr in ("data", "indices", "indptr"):
                assert getattr(t, attr).tobytes() == getattr(reference, attr).tobytes()
        first = stats.fires_t()
        vm.append_rows(np.array([0, 7]), 1)
        assert stats.fires_t().shape == (4, 50)
        assert first.shape == (3, 50)  # the old transpose is not mutated

    @pytest.mark.parametrize("family", ["metal", "dawid-skene", "mc-dawid-skene"])
    def test_fits_are_byte_identical_to_per_iteration_transposes(self, family, monkeypatch):
        from repro.labelmodel.dawid_skene import DawidSkene
        from repro.labelmodel.metal import MetalLabelModel
        from repro.multiclass.dawid_skene import MCDawidSkeneModel

        rng = np.random.default_rng(14)
        if family == "mc-dawid-skene":
            L, abstain = planted_mc(rng, n=300, m=7, K=3), -1
            factory = lambda: MCDawidSkeneModel(n_classes=3)  # noqa: E731
        else:
            L, abstain = planted_binary(rng, n=300, m=7), 0
            factory = MetalLabelModel if family == "metal" else DawidSkene

        def fits():
            vm = VoteMatrix.from_dense(L, abstain=abstain)
            cold = factory().fit(vm.values, stats=vm.stats)
            prev = factory().fit(L[:, :-1].copy())
            warm = factory().fit_warm(vm.values, prev, max_iter=3, stats=vm.stats)
            return _fitted_bytes(cold) + _fitted_bytes(warm)

        cached = fits()
        # The models' former arithmetic: a fresh ``.T`` on every call.
        monkeypatch.setattr(ColumnStats, "_transposed", lambda self, key, csc: csc.T)
        assert cached == fits()


class TestColumnStatsType:
    def test_stats_property_returns_columnstats_singleton(self):
        vm = VoteMatrix(4, abstain=0)
        assert isinstance(vm.stats, ColumnStats)
        assert vm.stats is vm.stats
