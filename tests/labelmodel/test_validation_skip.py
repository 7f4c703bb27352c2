"""Every stats-aware entry point honors the promised validation skip.

The ``stats=`` contract (ENGINE.md §4): a :class:`VoteMatrix` validates
each vote on append, so when a caller hands the matrix's live stats
handle to ``fit`` / ``fit_warm`` / ``predict_proba``, the model must not
re-scan the dense matrix for validity — the handle replaces the O(n·m)
``validate_label_matrix`` pass with an O(1) identity check.  These
regressions poison the validator and assert the stats-supplied entry
points never call it (and that the unsupplied paths still do).
"""

import numpy as np
import pytest

from repro.labelmodel.dawid_skene import DawidSkene
from repro.labelmodel.matrix import VoteMatrix
from repro.labelmodel.metal import MetalLabelModel
from repro.multiclass.dawid_skene import MCDawidSkeneModel
from repro.multiclass.matrix import MC_ABSTAIN

from tests.labelmodel.test_cold_sparse_parity import planted_binary, planted_mc


class _ValidatorPoisoned(AssertionError):
    pass


def _poison(monkeypatch, cls):
    def boom(*args, **kwargs):
        raise _ValidatorPoisoned(f"{cls.__name__} re-validated despite a stats handle")

    monkeypatch.setattr(cls, "_validated", staticmethod(boom))


def _binary_fixture():
    L = planted_binary(np.random.default_rng(0), 300, 6)
    vm = VoteMatrix.from_dense(L, abstain=0)
    return vm


def _mc_fixture(K=3):
    L = planted_mc(np.random.default_rng(0), 300, 6, K)
    vm = VoteMatrix.from_dense(L, abstain=MC_ABSTAIN)
    return vm


def _call(entry, model, vm, previous):
    if entry == "fit":
        model.fit(vm.values, stats=vm.stats)
    elif entry == "fit_warm":
        model.fit_warm(vm.values, previous, max_iter=2, stats=vm.stats)
    else:
        model.predict_proba(vm.values, stats=vm.stats)


ENTRY_POINTS = ["fit", "fit_warm", "predict_proba"]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("model_cls", [MetalLabelModel, DawidSkene])
def test_binary_entry_points_skip_validation(monkeypatch, model_cls, entry):
    vm = _binary_fixture()
    previous = model_cls().fit(vm.values.copy())
    model = model_cls().fit(vm.values.copy()) if entry == "predict_proba" else model_cls()

    _poison(monkeypatch, model_cls)
    _call(entry, model, vm, previous)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_mc_entry_points_skip_validation(monkeypatch, entry):
    vm = _mc_fixture()
    previous = MCDawidSkeneModel(n_classes=3).fit(vm.values.copy())
    model = (
        MCDawidSkeneModel(n_classes=3).fit(vm.values.copy())
        if entry == "predict_proba"
        else MCDawidSkeneModel(n_classes=3)
    )

    _poison(monkeypatch, MCDawidSkeneModel)
    _call(entry, model, vm, previous)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "make,fixture",
    [
        (MetalLabelModel, _binary_fixture),
        (DawidSkene, _binary_fixture),
        (lambda: MCDawidSkeneModel(n_classes=3), _mc_fixture),
    ],
    ids=["MetalLabelModel", "DawidSkene", "MCDawidSkeneModel"],
)
def test_validator_still_runs_without_stats(monkeypatch, make, fixture, entry):
    vm = fixture()
    model = make().fit(vm.values.copy())
    L = vm.values.copy()
    _poison(monkeypatch, type(model))
    with pytest.raises(_ValidatorPoisoned):
        if entry == "fit":
            make().fit(L)
        elif entry == "fit_warm":
            make().fit_warm(L, model, max_iter=2)
        else:
            model.predict_proba(L)


def test_mismatched_handle_fails_loudly():
    vm = _binary_fixture()
    other = np.array(vm.values.copy())  # same content, detached buffer
    with pytest.raises(ValueError, match="stats handle"):
        MetalLabelModel().fit(other, stats=vm.stats)
