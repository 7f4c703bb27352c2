"""One posterior kernel per label model, and one call shape for all of them.

ENGINE.md §10's contract:

* ``fit`` and ``fit_warm`` of the three EM label models always run the
  O(nnz) stats EM.  Handed a :class:`ColumnStats` handle they use it;
  without one they build one with a single scan of the dense matrix.
* ``predict_proba`` runs the one stats posterior.  Without a handle it
  builds one with a single scan, and its bytes equal those of the call
  handed the live handle.
* The dense arithmetic lives in ``benchmarks/dense_reference.py`` and
  agrees with production to rtol 1e-9.
* Every session label model — the three EM models, ``MajorityVote``,
  ``TripletLabelModel`` and ``MCMajorityVote`` — takes ``stats=`` on
  ``fit``, ``fit_warm`` and ``predict_proba``, and its output is
  byte-equal to the no-handle call.

These tests spy on the one handle builder (``VoteMatrix.from_dense``) and
on each EM model's stats kernel.
"""

import numpy as np
import pytest

from benchmarks.dense_reference import (
    DenseDawidSkene,
    DenseMCDawidSkeneModel,
    DenseMetalLabelModel,
)
from repro.labelmodel.dawid_skene import DawidSkene
from repro.labelmodel.majority import MajorityVote
from repro.labelmodel.matrix import VoteMatrix
from repro.labelmodel.metal import MetalLabelModel
from repro.labelmodel.triplet import TripletLabelModel
from repro.multiclass.dawid_skene import MCDawidSkeneModel
from repro.multiclass.majority import MCMajorityVote
from repro.multiclass.matrix import MC_ABSTAIN

from tests.labelmodel.test_cold_sparse_parity import (
    appended_matrix,
    planted_binary,
    planted_mc,
)

K = 3


class Spec:
    """How to build, fit and spy on one EM label model."""

    def __init__(self, name, cls, abstain, stats_kernel, make_L, make, make_dense):
        self.name = name
        self.cls = cls
        self.abstain = abstain
        self.stats_kernel = stats_kernel
        self.make_L = make_L
        self.make = make
        self.make_dense = make_dense


SPECS = [
    Spec(
        "metal",
        MetalLabelModel,
        0,
        "_posterior_stats",
        lambda rng: planted_binary(rng, 400, 7),
        MetalLabelModel,
        DenseMetalLabelModel,
    ),
    Spec(
        "dawid-skene",
        DawidSkene,
        0,
        "_e_step_stats",
        lambda rng: planted_binary(rng, 400, 7),
        DawidSkene,
        DenseDawidSkene,
    ),
    Spec(
        "mc-dawid-skene",
        MCDawidSkeneModel,
        MC_ABSTAIN,
        "_posterior_stats",
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
        "builds": _spy(monkeypatch, VoteMatrix, "from_dense"),
        "stats": _spy(monkeypatch, spec.cls, spec.stats_kernel),
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
    def test_one_scan_only_without_a_handle(self, monkeypatch, spec, entry, handle):
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


class TestOnePosteriorKernel:
    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_no_handle_call_builds_one_handle_and_equals_the_handle_call(
        self, monkeypatch, spec
    ):
        L, vm = _fixture(spec)
        model = spec.make().fit(vm.values, stats=vm.stats)
        spies = _spies(monkeypatch, spec)

        handed = model.predict_proba(vm.values, stats=vm.stats)
        assert (len(spies["builds"]), len(spies["stats"])) == (0, 1)
        built = model.predict_proba(L.copy())
        assert (len(spies["builds"]), len(spies["stats"])) == (1, 2)
        assert built.tobytes() == handed.tobytes()

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_detached_handle_equals_the_live_one(self, monkeypatch, spec):
        # A handle built from the dense matrix up front is used as given:
        # no second scan, and the same bytes as the live handle.
        L, vm = _fixture(spec)
        detached = VoteMatrix.from_dense(L.copy(), abstain=spec.abstain)
        model = spec.make().fit(vm.values, stats=vm.stats)
        spies = _spies(monkeypatch, spec)

        got = model.predict_proba(detached.values, stats=detached.stats)
        assert (len(spies["builds"]), len(spies["stats"])) == (0, 1)
        assert got.tobytes() == model.predict_proba(vm.values, stats=vm.stats).tobytes()


class TestDenseReferenceStandsIn:
    """``benchmarks/dense_reference.py`` overrides only the cold fit and posterior."""

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_reference_posterior_agrees_with_production(self, spec):
        L, vm = _fixture(spec, seed=1)
        reference = spec.make_dense().fit(L.copy())
        production = _with_state(spec.make(), reference)

        expected = reference.predict_proba(L.copy())
        # The reference ignores a handle: its posterior is always dense.
        assert reference.predict_proba(vm.values, stats=vm.stats).tobytes() == expected.tobytes()
        np.testing.assert_allclose(
            production.predict_proba(vm.values, stats=vm.stats), expected, rtol=1e-9, atol=1e-12
        )

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


#: Every label model a session can hold: (id, factory, abstain sentinel).
SESSION_MODELS = [
    ("metal", MetalLabelModel, 0),
    ("dawid-skene", DawidSkene, 0),
    ("majority", MajorityVote, 0),
    ("triplet", TripletLabelModel, 0),
    ("mc-dawid-skene", lambda: MCDawidSkeneModel(n_classes=K), MC_ABSTAIN),
    ("mc-majority", lambda: MCMajorityVote(n_classes=K), MC_ABSTAIN),
]


@pytest.mark.parametrize("entry", ["fit", "fit_warm", "predict_proba"])
@pytest.mark.parametrize(
    "make,abstain", [m[1:] for m in SESSION_MODELS], ids=[m[0] for m in SESSION_MODELS]
)
def test_every_session_label_model_takes_the_handle(make, abstain, entry):
    # The engine calls every model with stats=; the handle may save work
    # but never changes a byte of the result.
    rng = np.random.default_rng(3)
    L = planted_binary(rng, 300, 6) if abstain == 0 else planted_mc(rng, 300, 6, K)
    vm = appended_matrix(L, abstain=abstain)

    def run(with_handle):
        votes, stats = (vm.values, vm.stats) if with_handle else (L.copy(), None)
        model = make()
        if entry == "fit":
            return model.fit(votes, stats=stats)
        if entry == "fit_warm":
            previous = make().fit(L[:, :-1].copy())
            return model.fit_warm(votes, previous, max_iter=3, stats=stats)
        return model.fit(L.copy()).predict_proba(votes, stats=stats)

    handed, plain = run(True), run(False)
    if entry == "predict_proba":
        assert handed.tobytes() == plain.tobytes()
        return
    _assert_byte_equal_state(handed, plain)
    assert handed.predict_proba(L.copy()).tobytes() == plain.predict_proba(L.copy()).tobytes()
