"""One label-model kernel per step, chosen by the caller's inputs.

ENGINE.md §10's routing contract for the three stats-aware label models:

* ``fit`` and ``fit_warm`` always run the O(nnz) stats EM.  Handed a
  :class:`ColumnStats` handle they use it; without one they build one
  with a single scan of the dense matrix.  The dense posterior never runs
  inside a fit.
* ``predict_proba`` runs the stats posterior when a handle is passed and
  the dense posterior when none is, without building a handle.

The routing follows an input the caller already supplies (the handle),
never the matrix size.  These tests spy on the module-level handle
builder and on both posterior kernels of each model.
"""

import numpy as np
import pytest

from benchmarks.dense_reference import (
    DenseDawidSkene,
    DenseMCDawidSkeneModel,
    DenseMetalLabelModel,
)
from repro.labelmodel import dawid_skene as ds_module
from repro.labelmodel import metal as metal_module
from repro.labelmodel.dawid_skene import DawidSkene
from repro.labelmodel.matrix import VoteMatrix
from repro.labelmodel.metal import MetalLabelModel
from repro.multiclass import dawid_skene as mcds_module
from repro.multiclass.dawid_skene import MCDawidSkeneModel
from repro.multiclass.matrix import MC_ABSTAIN

from tests.labelmodel.test_cold_sparse_parity import (
    appended_matrix,
    planted_binary,
    planted_mc,
)

K = 3


class Spec:
    """How to build, fit and spy on one label model."""

    def __init__(self, name, cls, module, abstain, stats_kernel, dense_kernel, make_L, make, make_dense):
        self.name = name
        self.cls = cls
        self.module = module
        self.abstain = abstain
        self.stats_kernel = stats_kernel
        self.dense_kernel = dense_kernel
        self.make_L = make_L
        self.make = make
        self.make_dense = make_dense


SPECS = [
    Spec(
        "metal",
        MetalLabelModel,
        metal_module,
        0,
        "_posterior_stats",
        "_posterior_dense",
        lambda rng: planted_binary(rng, 400, 7),
        MetalLabelModel,
        DenseMetalLabelModel,
    ),
    Spec(
        "dawid-skene",
        DawidSkene,
        ds_module,
        0,
        "_e_step_stats",
        "_e_step_dense",
        lambda rng: planted_binary(rng, 400, 7),
        DawidSkene,
        DenseDawidSkene,
    ),
    Spec(
        "mc-dawid-skene",
        MCDawidSkeneModel,
        mcds_module,
        MC_ABSTAIN,
        "_posterior_stats",
        "_posterior_dense",
        lambda rng: planted_mc(rng, 400, 7, K),
        lambda: MCDawidSkeneModel(n_classes=K),
        lambda: DenseMCDawidSkeneModel(n_classes=K),
    ),
]
SPEC_IDS = [s.name for s in SPECS]


def _spy(monkeypatch, owner, name):
    """Wrap ``owner.name`` (a static/class/instance function) with a call counter."""
    calls = []
    original = owner.__dict__[name]
    target = original.__func__ if isinstance(original, (staticmethod, classmethod)) else original

    def counted(*args, **kwargs):
        calls.append(1)
        return target(*args, **kwargs)

    if isinstance(original, staticmethod):
        monkeypatch.setattr(owner, name, staticmethod(counted))
    elif isinstance(original, classmethod):
        monkeypatch.setattr(owner, name, classmethod(counted))
    else:
        monkeypatch.setattr(owner, name, counted)
    return calls


def _spies(monkeypatch, spec):
    return {
        "builds": _spy(monkeypatch, spec.module, "column_stats_from_dense"),
        "stats": _spy(monkeypatch, spec.cls, spec.stats_kernel),
        "dense": _spy(monkeypatch, spec.cls, spec.dense_kernel),
    }


def _fixture(spec, seed=0):
    L = spec.make_L(np.random.default_rng(seed))
    vm = appended_matrix(L, abstain=spec.abstain)
    return L, vm


def _fitted_state(model):
    return {a: getattr(model, a) for a in model._FITTED_ATTRS}


def _with_state(model, source):
    """``model`` carrying ``source``'s fitted state (the same arrays)."""
    for attr, value in _fitted_state(source).items():
        setattr(model, attr, value)
    return model


def _assert_byte_equal_state(a, b):
    sa, sb = _fitted_state(a), _fitted_state(b)
    assert sa.keys() == sb.keys()
    for key in sa:
        va, vb = sa[key], sb[key]
        if isinstance(va, np.ndarray):
            assert va.tobytes() == vb.tobytes(), key
        else:
            assert va == vb, key


class TestFitRunsTheStatsKernel:
    @pytest.mark.parametrize("handle", [True, False], ids=["handle", "no-handle"])
    @pytest.mark.parametrize("entry", ["fit", "fit_warm"])
    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_one_scan_only_without_a_handle_and_never_the_dense_posterior(
        self, monkeypatch, spec, entry, handle
    ):
        L, vm = _fixture(spec)
        previous = spec.make().fit(L.copy())
        spies = _spies(monkeypatch, spec)

        model = spec.make()
        stats = vm.stats if handle else None
        if entry == "fit":
            model.fit(vm.values if handle else L.copy(), stats=stats)
        else:
            model.fit_warm(vm.values if handle else L.copy(), previous, max_iter=3, stats=stats)

        assert len(spies["builds"]) == (0 if handle else 1)
        assert spies["stats"], "the stats EM never ran"
        assert not spies["dense"], "a fit ran the dense posterior"


class TestPosteriorKernelFollowsTheHandle:
    @pytest.mark.parametrize("handle", [True, False], ids=["handle", "no-handle"])
    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_predict_proba_runs_exactly_one_kernel(self, monkeypatch, spec, handle):
        L, vm = _fixture(spec)
        model = spec.make().fit(vm.values, stats=vm.stats)
        spies = _spies(monkeypatch, spec)

        if handle:
            model.predict_proba(vm.values, stats=vm.stats)
        else:
            model.predict_proba(L.copy())

        assert not spies["builds"], "predict_proba built a stats handle"
        assert len(spies["stats"]) == (1 if handle else 0)
        assert len(spies["dense"]) == (0 if handle else 1)


class TestDenseReferenceStandsIn:
    """``benchmarks/dense_reference.py`` overrides only the cold fit and posterior."""

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_reference_posterior_is_the_no_handle_kernel(self, spec):
        L, vm = _fixture(spec, seed=1)
        reference = spec.make_dense().fit(L.copy())
        production = _with_state(spec.make(), reference)

        expected = production.predict_proba(L.copy()).tobytes()
        assert reference.predict_proba(L.copy()).tobytes() == expected
        # The reference ignores a handle: its posterior is always dense.
        assert reference.predict_proba(vm.values, stats=vm.stats).tobytes() == expected

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_reference_warm_fit_is_inherited(self, spec):
        L, vm = _fixture(spec, seed=2)
        # Warm fits continue only from a previous fit of their own class,
        # so each side gets the same previous state in its own class.
        previous = spec.make().fit(L[:, :-1].copy())
        previous_ref = _with_state(spec.make_dense(), previous)

        reference = spec.make_dense().fit_warm(vm.values, previous_ref, max_iter=3, stats=vm.stats)
        production = spec.make().fit_warm(vm.values, previous, max_iter=3, stats=vm.stats)

        assert reference.em_iterations_ <= 3, "the reference fell back to its dense cold fit"

        _assert_byte_equal_state(reference, production)


def test_live_and_detached_handles_select_the_same_kernel(monkeypatch):
    # A detached handle built from the dense matrix routes exactly like
    # the live one: the handle's presence, not its source, decides.
    spec = SPECS[0]
    L, _ = _fixture(spec)
    built = VoteMatrix.from_dense(L.copy(), abstain=0)
    model = spec.make().fit(built.values, stats=built.stats)
    spies = _spies(monkeypatch, spec)
    model.predict_proba(built.values, stats=built.stats)
    assert (len(spies["stats"]), len(spies["dense"]), len(spies["builds"])) == (1, 0, 0)
