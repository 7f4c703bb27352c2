"""No defeat switches: each step's code path follows observable inputs.

ENGINE.md §2: each label model has one posterior kernel, the warm
end-model refit follows the covered-row gate, and the proxy refresh
follows the refit path.  None of them is a constructor setting, and the
engine probes no model for capabilities: it calls every label model with
``stats=`` and the end model through the ``SoftLabelLinearModel``
contract.  So a knob, a dense twin or a capability probe that forces a
second code path must not come back.  Each retired knob is pinned here: passing
it fails at the call, and its module-level constants stay gone.  The same
holds for the retired refit-schedule knobs: ``warm_start`` (a second
spelling of ``full_refit_every=1``), the warm iteration caps (now engine
constants) and the drift-adaptive ``full_refit_every="auto"`` cadence, and
for the second optimizers: ``MetalLabelModel(method="sgd")`` and the
binary session's Platt-calibrated proxy (``calibrate_proxy``).  The end
models' optimizer settings are constants of their shared core
(``repro.endmodel.linear``): no caller set them, so they are not options.
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
        ("repro.labelmodel.base", "accepts_stats"),
        ("repro.core.engine", "inspect"),
    ],
)
def test_routing_constants_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize(
    "cls,name",
    [
        (MetalLabelModel, "_posterior_dense"),
        (DawidSkene, "_e_step_dense"),
        (MCDawidSkeneModel, "_posterior_dense"),
        (MetalLabelModel, "_marginal_ll"),
        (MCDawidSkeneModel, "marginal_ll"),
    ],
)
def test_label_models_have_one_posterior_kernel(cls, name):
    # The dense posteriors live in benchmarks/dense_reference.py and the
    # log-likelihood oracles in the tests that use them.
    assert not hasattr(cls, name)


@pytest.fixture(scope="module")
def stepped_session(tiny_dataset):
    return DataProgrammingSession(
        tiny_dataset, RandomSelector(), SimulatedUser(tiny_dataset, seed=0)
    ).run(3)


@pytest.mark.parametrize(
    "name",
    [
        "_end_model_accepts_max_iter",
        "_end_model_accepts_minibatch",
        "_end_model_snapshotable",
        "_lm_accepts_stats",
        "_label_model_accepts_stats",
        "_predict_label_model",
        "_end_refit_uncapped_due",
    ],
)
def test_sessions_probe_no_model_capabilities(stepped_session, name):
    assert not hasattr(stepped_session, name)


END_MODELS = pytest.mark.parametrize(
    "make",
    [SoftLabelLogisticRegression, lambda **kw: SoftLabelSoftmaxRegression(n_classes=2, **kw)],
    ids=["logistic", "softmax"],
)


@END_MODELS
@pytest.mark.parametrize(
    "knob,value", [("penalize_intercept", True), ("max_iter", 50), ("tol", 1e-3)]
)
def test_end_models_take_no_optimizer_knobs(make, knob, value):
    # max_iter and tol are the core's MAX_ITER and TOL; intercepts are
    # never penalized.
    with pytest.raises(TypeError, match=knob):
        make(**{knob: value})


@END_MODELS
def test_end_model_fit_takes_no_sample_weight(make):
    with pytest.raises(TypeError, match="sample_weight"):
        make().fit(None, None, sample_weight=None)


@END_MODELS
@pytest.mark.parametrize(
    "knob,value",
    [("epochs", 1), ("batch_size", 256), ("lr", 0.1), ("sample_weight", None)],
)
def test_end_model_fit_minibatch_takes_no_schedule_knobs(make, knob, value):
    # The Adam continuation runs the fixed MIN_STEPS_PER_CALL budget at
    # batch MINIBATCH_SIZE and step size MINIBATCH_LR.
    with pytest.raises(TypeError, match=knob):
        make().fit_minibatch(None, None, **{knob: value})


@END_MODELS
def test_end_models_have_no_clone_unfitted(make):
    assert not hasattr(make(), "clone_unfitted")


def test_minibatch_module_is_gone():
    # Its helpers are methods of the shared core now.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.endmodel.minibatch")
