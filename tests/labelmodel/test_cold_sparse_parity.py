"""Sparse cold fits: O(nnz) EM agrees with the dense reference arithmetic.

ENGINE.md §10's contract, tested here over randomized sparse vote matrices
spanning n, m, K, coverage, and one-sided vote sets:

* **Handle-source parity (byte-equal).**  A cold fit that builds its own
  :class:`ColumnStats` handle from the dense matrix and a cold fit handed
  the live engine handle (grown by appends) produce *byte-identical*
  fitted state, and so do their stats posteriors — the structure identity
  contract: identical per-column structure ⇒ identical flat entry arrays
  ⇒ identical gather/segment-sum results.
* **One posterior kernel (byte-equal).**  ``predict_proba`` without a
  handle builds one and runs the same table kernel as the call handed
  the live handle, so the two agree bitwise.
* **Dense oracle (allclose).**  The stats fits agree with the dense EM of
  ``benchmarks/dense_reference.py`` to float tolerance (summation orders
  differ, so byte equality is not promised across kernels).
"""

import numpy as np
import pytest

from benchmarks.dense_reference import (
    DenseDawidSkene,
    DenseMCDawidSkeneModel,
    DenseMetalLabelModel,
)
from repro.labelmodel.dawid_skene import DawidSkene
from repro.labelmodel.matrix import VoteMatrix
from repro.labelmodel.metal import MetalLabelModel
from repro.multiclass.dawid_skene import MCDawidSkeneModel
from repro.multiclass.matrix import MC_ABSTAIN

#: The dense reference model of each production label model.
DENSE_REFERENCE = {
    MetalLabelModel: DenseMetalLabelModel,
    DawidSkene: DenseDawidSkene,
    MCDawidSkeneModel: DenseMCDawidSkeneModel,
}


def planted_binary(rng, n, m, p_fire=0.4, acc=0.8, one_sided=()):
    """Random planted binary matrix; columns in ``one_sided`` emit one label."""
    y = np.where(rng.random(n) < 0.5, 1, -1)
    L = np.zeros((n, m), dtype=np.int8)
    for j in range(m):
        fires = rng.random(n) < p_fire
        correct = rng.random(n) < acc
        votes = np.where(correct, y, -y)
        if j in one_sided:
            side = 1 if j % 2 == 0 else -1
            fires &= votes == side
        L[fires, j] = votes[fires]
    return L


def planted_mc(rng, n, m, K, p_fire=0.4, acc=0.8, one_sided=()):
    y = rng.integers(K, size=n)
    L = np.full((n, m), MC_ABSTAIN, dtype=np.int8)
    for j in range(m):
        fires = rng.random(n) < p_fire
        correct = rng.random(n) < acc
        wrong = (y + rng.integers(1, K, size=n)) % K
        votes = np.where(correct, y, wrong)
        if j in one_sided:
            fires &= votes == (j % K)
        L[fires, j] = votes[fires]
    return L


def appended_matrix(L, abstain):
    """A live ``VoteMatrix`` grown column-by-column, as the engine grows it."""
    vm = VoteMatrix(L.shape[0], abstain=abstain)
    for j in range(L.shape[1]):
        vm.append_column(L[:, j])
    return vm


BINARY_CASES = [
    # (seed, n, m, p_fire, one_sided)
    (0, 300, 6, 0.4, ()),
    (1, 800, 12, 0.15, ()),
    (2, 500, 8, 0.5, (1, 4)),
    (3, 2500, 10, 0.05, (0,)),
    (4, 150, 3, 0.9, ()),
]

MC_CASES = [
    # (seed, n, m, K, p_fire, one_sided)
    (0, 300, 6, 3, 0.4, ()),
    (1, 700, 10, 4, 0.2, (2, 5)),
    (2, 2500, 8, 5, 0.08, ()),
    (3, 200, 4, 3, 0.7, (0,)),
]


def _fitted_state(model):
    return {a: getattr(model, a) for a in model._FITTED_ATTRS}


def _assert_byte_equal_state(a, b):
    sa, sb = _fitted_state(a), _fitted_state(b)
    assert sa.keys() == sb.keys()
    for key in sa:
        va, vb = sa[key], sb[key]
        if isinstance(va, np.ndarray):
            assert va.tobytes() == vb.tobytes(), key
        else:
            assert va == vb, key


def _assert_posteriors(model, L, vm):
    """Stats posteriors byte-equal across handle sources, and without one."""
    built = VoteMatrix.from_dense(L.copy(), abstain=vm.abstain)
    handed = model.predict_proba(vm.values, stats=vm.stats)
    assert model.predict_proba(built.values, stats=built.stats).tobytes() == handed.tobytes()
    assert model.predict_proba(L.copy()).tobytes() == handed.tobytes()


class TestHandleSourceParityByteEqual:
    @pytest.mark.parametrize("seed,n,m,p_fire,one_sided", BINARY_CASES)
    @pytest.mark.parametrize("model_cls", [MetalLabelModel, DawidSkene])
    def test_binary_cold_fit(self, model_cls, seed, n, m, p_fire, one_sided):
        rng = np.random.default_rng(seed)
        L = planted_binary(rng, n, m, p_fire=p_fire, one_sided=one_sided)
        vm = appended_matrix(L, abstain=0)

        self_built = model_cls().fit(L.copy())
        handed = model_cls().fit(vm.values, stats=vm.stats)

        _assert_byte_equal_state(self_built, handed)
        _assert_posteriors(handed, L, vm)

    @pytest.mark.parametrize("seed,n,m,K,p_fire,one_sided", MC_CASES)
    def test_mc_cold_fit(self, seed, n, m, K, p_fire, one_sided):
        rng = np.random.default_rng(seed)
        L = planted_mc(rng, n, m, K, p_fire=p_fire, one_sided=one_sided)
        vm = appended_matrix(L, abstain=MC_ABSTAIN)

        self_built = MCDawidSkeneModel(n_classes=K).fit(L.copy())
        handed = MCDawidSkeneModel(n_classes=K).fit(vm.values, stats=vm.stats)

        _assert_byte_equal_state(self_built, handed)
        _assert_posteriors(handed, L, vm)


class TestDenseOracle:
    @pytest.mark.parametrize("seed,n,m,p_fire,one_sided", BINARY_CASES)
    @pytest.mark.parametrize("model_cls", [MetalLabelModel, DawidSkene])
    def test_binary_stats_matches_dense(self, model_cls, seed, n, m, p_fire, one_sided):
        rng = np.random.default_rng(seed)
        L = planted_binary(rng, n, m, p_fire=p_fire, one_sided=one_sided)

        sparse = model_cls().fit(L.copy())
        dense = DENSE_REFERENCE[model_cls]().fit(L.copy())

        assert sparse.converged_ == dense.converged_
        assert sparse.em_iterations_ == dense.em_iterations_
        for key, va in _fitted_state(sparse).items():
            vb = getattr(dense, key)
            if isinstance(va, np.ndarray):
                np.testing.assert_allclose(va, vb, rtol=1e-9, atol=1e-12, err_msg=key)
            elif isinstance(va, float):
                assert va == pytest.approx(vb, rel=1e-9, abs=1e-12), key
            else:
                assert va == vb, key
        vm = appended_matrix(L, abstain=0)
        np.testing.assert_allclose(
            sparse.predict_proba(vm.values, stats=vm.stats),
            dense.predict_proba(L.copy()),
            rtol=1e-9,
            atol=1e-12,
        )

    @pytest.mark.parametrize("seed,n,m,K,p_fire,one_sided", MC_CASES)
    def test_mc_stats_matches_dense(self, seed, n, m, K, p_fire, one_sided):
        rng = np.random.default_rng(seed)
        L = planted_mc(rng, n, m, K, p_fire=p_fire, one_sided=one_sided)

        sparse = MCDawidSkeneModel(n_classes=K).fit(L.copy())
        dense = DenseMCDawidSkeneModel(n_classes=K).fit(L.copy())

        assert sparse.converged_ == dense.converged_
        assert sparse.em_iterations_ == dense.em_iterations_
        np.testing.assert_allclose(sparse.confusions_, dense.confusions_, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(sparse.propensities_, dense.propensities_, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(sparse.priors_, dense.priors_, rtol=1e-9, atol=1e-12)
        vm = appended_matrix(L, abstain=MC_ABSTAIN)
        np.testing.assert_allclose(
            sparse.predict_proba(vm.values, stats=vm.stats),
            dense.predict_proba(L.copy()),
            rtol=1e-9,
            atol=1e-12,
        )
