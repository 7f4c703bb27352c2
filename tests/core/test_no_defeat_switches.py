"""No defeat switches: each step's code path follows observable inputs.

ENGINE.md §2: the label-model kernel follows the stats handle the caller
passes, the warm end-model refit follows the end model's capabilities
and the covered-row gate, and the proxy refresh follows the refit path.
None of them is a constructor setting, so a knob that forces a second
code path must not come back.  Each retired knob is pinned here: passing
it fails at the call, and its module-level constants stay gone.  The same
holds for the retired refit-schedule knobs: ``warm_start`` (a second
spelling of ``full_refit_every=1``), the warm iteration caps (now engine
constants) and the drift-adaptive ``full_refit_every="auto"`` cadence, and
for the second optimizers: ``MetalLabelModel(method="sgd")`` and the
binary session's Platt-calibrated proxy (``calibrate_proxy``).
"""

import importlib

import pytest

from repro.core.config import NemoConfig
from repro.core.session import DataProgrammingSession
from repro.endmodel.logistic import SoftLabelLogisticRegression
from repro.endmodel.softmax import SoftLabelSoftmaxRegression
from repro.interactive.basic_selectors import RandomSelector
from repro.interactive.simulated_user import SimulatedUser
from repro.labelmodel.dawid_skene import DawidSkene
from repro.labelmodel.metal import MetalLabelModel
from repro.multiclass import make_topics_dataset
from repro.multiclass.dawid_skene import MCDawidSkeneModel
from repro.multiclass.selection import MCRandomSelector
from repro.multiclass.session import MultiClassSession
from repro.multiclass.simulated_user import MCSimulatedUser


@pytest.mark.parametrize(
    "make",
    [
        lambda: MetalLabelModel(cold_path="dense"),
        lambda: DawidSkene(cold_path="dense"),
        lambda: MCDawidSkeneModel(n_classes=3, cold_path="dense"),
    ],
    ids=["metal", "dawid-skene", "mc-dawid-skene"],
)
def test_label_models_take_no_cold_path(make):
    with pytest.raises(TypeError, match="cold_path"):
        make()


@pytest.mark.parametrize("knob,value", [("method", "sgd"), ("learning_rate", 0.1)])
def test_metal_takes_no_optimizer_knobs(knob, value):
    # EM with closed-form M-steps is MetalLabelModel's only optimizer; the
    # Adam path and its step size are gone.
    with pytest.raises(TypeError, match=knob):
        MetalLabelModel(**{knob: value})


def test_binary_session_takes_no_calibrate_proxy():
    # The proxy is the raw end-model prediction, refreshed on the refit
    # path's schedule; the eager Platt-calibrated variant is gone.
    with pytest.raises(TypeError, match="calibrate_proxy"):
        DataProgrammingSession(None, None, None, calibrate_proxy=True)


@pytest.mark.parametrize(
    "knob,value",
    [
        ("warm_end_mode", "lbfgs"),
        ("lazy_proxy", False),
        ("warm_start", False),  # a second spelling of full_refit_every=1
        ("warm_label_iter", 3),  # now the constant WARM_LABEL_ITER
        ("warm_end_iter", 15),  # now the constant WARM_END_ITER
    ],
)
@pytest.mark.parametrize(
    "session_cls", [DataProgrammingSession, MultiClassSession], ids=["binary", "multiclass"]
)
def test_sessions_take_no_routing_knobs(session_cls, knob, value):
    # Keyword binding fails before the constructor body runs, so the
    # positional arguments never need to be real.
    with pytest.raises(TypeError, match=knob):
        session_cls(None, None, None, **{knob: value})


def test_sessions_take_no_auto_cadence(tiny_dataset):
    # The drift-adaptive backstop is gone: the cadence is a fixed integer.
    with pytest.raises(ValueError, match="full_refit_every"):
        DataProgrammingSession(
            tiny_dataset,
            RandomSelector(),
            SimulatedUser(tiny_dataset, seed=0),
            full_refit_every="auto",
        )
    topics = make_topics_dataset(n_docs=200, seed=0, vocab_scale=6)
    with pytest.raises(ValueError, match="full_refit_every"):
        MultiClassSession(
            topics,
            MCRandomSelector(),
            MCSimulatedUser(topics, seed=0),
            full_refit_every="auto",
        )


def test_config_takes_no_warm_end_mode():
    with pytest.raises(TypeError, match="warm_end_mode"):
        NemoConfig(warm_end_mode="lbfgs")


@pytest.mark.parametrize(
    "end_model_cls",
    [SoftLabelLogisticRegression, SoftLabelSoftmaxRegression],
    ids=["logistic", "softmax"],
)
def test_end_models_predict_full_matrices_only(end_model_cls):
    # Row-subset prediction served only the retired eager/lazy proxy
    # comparison; the proxy is always a full-matrix prediction.
    assert not hasattr(end_model_cls, "predict_proba_rows")


@pytest.mark.parametrize(
    "module,name",
    [
        ("repro.labelmodel.matrix", "COLD_STATS_MIN_ROWS"),
        ("repro.labelmodel.matrix", "COLD_PATHS"),
        ("repro.labelmodel.matrix", "resolve_cold_path"),
        ("repro.core.engine", "WARM_END_MODES"),
        ("repro.core.engine", "AUTO_REFIT_BASE"),
        ("repro.core.engine", "AUTO_DRIFT_TOL"),
        ("repro.core.engine", "AUTO_MAX_SKIPS"),
        ("repro.endmodel", "PlattCalibrator"),
    ],
)
def test_routing_constants_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)
