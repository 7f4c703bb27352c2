"""The benchmark's own arithmetic: tail choice, quality, self time, transport."""

import inspect

import numpy as np
import pytest

from perfbench import arith, hostspeed, inproc, metrics, serve_live
from perfbench.spans import Span, Tracer


# --------------------------------------------------------------------- #
# tail percentile: the highest with at least 10 samples beyond it
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, 50.0),
        (37, 50.0),
        (38, 75.0),
        (91, 75.0),
        (92, 90.0),
        (150, 90.0),
        (181, 90.0),
        (182, 95.0),
        (300, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_ladder(n, expected):
    assert arith.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 37, 38, 60, 91, 92, 99, 120, 150, 183, 300, 1000, 1234])
def test_tail_has_ten_beyond_and_the_next_rung_does_not(n):
    values = np.random.default_rng(n).permutation(np.arange(n, dtype=float))
    t = arith.tail(values)
    beyond = int(np.sum(values > t["value"]))
    assert beyond >= arith.MIN_BEYOND
    assert t["beyond"] >= arith.MIN_BEYOND and t["n"] == n
    assert t["value"] == pytest.approx(np.percentile(values, t["percentile"]))
    higher = [p for p in arith.TAIL_LADDER if p > t["percentile"]]
    if higher:
        next_rung = min(higher)
        assert int(np.sum(values > np.percentile(values, next_rung))) < arith.MIN_BEYOND


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        arith.tail(range(19))


# --------------------------------------------------------------------- #
# quality: lm_acc, majority vote, mv_gap
# --------------------------------------------------------------------- #
def test_binary_quality_and_mv_gap():
    # Votes are +-1, 0 abstains; row 3 is uncovered and ignored.
    L = np.array([[1, 1], [1, -1], [-1, -1], [0, 0], [-1, 0]])
    y = np.array([1, -1, -1, 1, 1])
    proba = np.array([0.9, 0.2, 0.4, 0.5, 0.7])  # P(y = +1)
    q = arith.quality(L, proba, y, (-1, 1))
    # LM: right on rows 0, 1, 2, 4 -> 4/4.
    assert q["lm_acc"] == pytest.approx(1.0)
    # MV: row 0 right, row 1 a tie (half credit), row 2 right, row 4 wrong.
    assert q["mv_acc"] == pytest.approx(2.5 / 4)
    assert q["mv_gap"] == pytest.approx(1.0 - 2.5 / 4)
    assert q["covered"] == 4


def test_multiclass_quality_and_negative_gap():
    # Votes 0..2, -1 abstains.
    L = np.array([[0, 0, -1], [1, 2, 2], [2, -1, -1], [-1, -1, -1]])
    y = np.array([0, 2, 1, 0])
    proba = np.array(
        [[0.2, 0.7, 0.1], [0.1, 0.1, 0.8], [1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0]]
    )
    q = arith.quality(L, proba, y, (0, 1, 2))
    # LM: wrong, right, three-way tie (1/3).  MV: right, right, wrong.
    assert q["lm_acc"] == pytest.approx((0 + 1 + 1 / 3) / 3)
    assert q["mv_acc"] == pytest.approx(2 / 3)
    assert q["mv_gap"] < 0


def test_quality_needs_a_covered_row():
    with pytest.raises(ValueError):
        arith.quality(np.zeros((3, 2)), np.full(3, 0.5), np.ones(3), (-1, 1))


# --------------------------------------------------------------------- #
# self time and the span tree
# --------------------------------------------------------------------- #
def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)]
    # Covered: [1, 4] + [6, 7] + [9, 10] = 5 of the parent's 10.
    assert arith.covered_length(0.0, 10.0, children) == pytest.approx(5.0)
    assert arith.self_time(0.0, 10.0, children) == pytest.approx(5.0)
    assert arith.self_time(0.0, 10.0, []) == pytest.approx(10.0)


def test_breakdown_sums_back_to_the_root_spans():
    tracer = Tracer()
    tracer.spans = [
        Span("engine.submit", 0.0, 10.0),
        Span("labelmodel.fit.cold", 1.0, 4.0, parent=0),
        Span("contextualizer.tune", 5.0, 8.0, parent=0),
        Span("labelmodel.fit.cold", 5.5, 7.0, parent=2),  # inside the tuner
        Span("engine.propose", 20.0, 22.0),
        Span("selection.select", 20.5, 21.5, parent=4),
        Span("checkpoint.save", 30.0, 31.0),  # not under the engine
    ]
    tree = tracer.breakdown("engine.")
    assert tree["roots"] == 2
    assert tree["root_s"] == pytest.approx(12.0)
    assert tree["self_s"] == pytest.approx((10 - 3 - 3) + (2 - 1))
    kids = tree["child_spans"]
    assert [s.seconds for s in kids["labelmodel.fit.cold"]] == [3.0]  # direct only
    child_total = sum(s.seconds for spans in kids.values() for s in spans)
    assert child_total + tree["self_s"] == pytest.approx(tree["root_s"])


class _Model:
    def fit(self, L, stats=None):
        self.em_iterations_ = 7
        return self


def test_patch_records_spans_keeps_the_signature_and_unpatches():
    original = _Model.fit
    tracer = Tracer()
    record = lambda span, model: span.attrs.update(em=model.em_iterations_)  # noqa: E731
    with tracer.installed([(_Model, "fit", "labelmodel.fit.cold", record)]):
        # The engine routes on the signature; the wrapper must keep it.
        assert "stats" in inspect.signature(_Model().fit).parameters
        _Model().fit(None)
        with tracer.span("outer"):
            _Model().fit(None)
    assert _Model.fit is original
    names = [s.name for s in tracer.spans]
    assert names == ["labelmodel.fit.cold", "outer", "labelmodel.fit.cold"]
    assert tracer.spans[2].parent == 1 and tracer.spans[0].parent is None
    assert tracer.spans[0].attrs == {"em": 7}


def test_patch_of_an_inherited_method_is_removed_again():
    class Child(_Model):
        pass

    tracer = Tracer()
    with tracer.installed([(Child, "fit", "x")]):
        assert "fit" in vars(Child)
    assert "fit" not in vars(Child)


# --------------------------------------------------------------------- #
# transport and the server's per-layer figures
# --------------------------------------------------------------------- #
def test_transport_is_client_minus_server():
    assert arith.transport_ms(44.6, 0.6) == pytest.approx(44.0)


def test_rescale_beyond_keeps_the_fixed_part():
    assert arith.rescale_beyond(0.112, 0.080, 0.5) == pytest.approx(0.096)
    assert arith.rescale_beyond(0.080, 0.080, 0.5) == pytest.approx(0.080)
    assert arith.rescale_beyond(2.0, 0.0, 0.5) == pytest.approx(1.0)


def test_server_layers_use_exact_server_means_over_the_measured_turns():
    def key(metric, **labels):
        return metric + "{" + ",".join(f'{k}="{v}"' for k, v in labels.items()) + "}"

    samples = {
        key("repro_http_request_seconds_sum", command="propose"): 0.0024,
        key("repro_http_request_seconds_count", command="propose"): 4,
        key("repro_http_request_seconds_sum", command="submit"): 0.12,
        key("repro_http_request_seconds_count", command="submit"): 3,
        key("repro_http_request_seconds_sum", command="decline"): 0.003,
        key("repro_engine_commands_total", command="propose"): 4,
        key("repro_engine_phase_seconds_total", phase="select"): 0.001,
        key("repro_engine_phase_seconds_total", phase="label_model"): 0.05,
        key("repro_engine_phase_seconds_total", phase="end_model"): 0.04,
        key("repro_engine_refits_total", path="cold"): 3,
    }
    stats = serve_live.ClientStats(
        latencies={"propose": [0.040, 0.046, 0.044, 0.042], "submit": [0.08, 0.09, 0.1]},
        turns=[0.1] * 4,
    )
    layers = serve_live.server_layers(samples, {"lost_commands_total": 0}, stats, 1)
    # 0.6 ms each, exactly, although every propose is under the first
    # 1 ms histogram bucket.
    assert layers["serve.server_ms.propose"] == pytest.approx(0.6)
    assert layers["serve.transport_ms.propose"] == pytest.approx(43.0 - 0.6)
    assert layers["serve.server_ms.submit"] == pytest.approx(40.0)
    assert layers["serve.transport_ms.submit"] == pytest.approx(90.0 - 40.0)
    # Request seconds of all four turns minus every engine phase, per turn.
    assert layers["engine.self_ms"] == pytest.approx(1000.0 * (0.1254 - 0.091) / 4)
    assert layers["labelmodel.refits.cold"] == 3
    assert layers["endmodel.fit_ms"] == pytest.approx(40.0 / 3)


# --------------------------------------------------------------------- #
# host-speed rescaling
# --------------------------------------------------------------------- #
def test_host_scale_is_reference_over_trimmed_mean():
    ref = hostspeed.REF_S
    # One preempted call and one fast outlier are trimmed; the rest average.
    samples = [50 * ref] + [1.5 * ref, 2.5 * ref] * 4 + [0.1 * ref]
    assert hostspeed.scale(samples) == pytest.approx(0.5)
    assert hostspeed.scale([ref, 3 * ref]) == pytest.approx(0.5)


def test_timings_pool_workers():
    def worker(session_s, turns, restores):
        sessions = [{"session_s": session_s, "turns": turns}]
        return {"sessions": sessions, "restores_s": restores}

    slow = worker(4.0, [0.2] * 20, [0.02, 0.02])
    fast = worker(2.0, [0.1] * 20, [0.01])
    values, tail = inproc.timings([slow, fast, worker(3.0, [0.3] * 20, [])], [10.0, 5.0, 6.0])
    assert values["setup_s"] == pytest.approx(6.0)
    assert values["session_s"] == pytest.approx(3.0)
    assert values["turn_p50_ms"] == pytest.approx(200.0)
    # The mean of per-worker medians; a worker without restores adds none.
    assert values["restore_p50_ms"] == pytest.approx(15.0)
    assert tail["n"] == 60


# --------------------------------------------------------------------- #
# the result's metric selection
# --------------------------------------------------------------------- #
def test_select_requires_every_end_to_end_metric():
    values = {name: 1.0 for name in metrics.END_TO_END}
    out = metrics.select(values, trace=False)
    assert list(out) == list(metrics.END_TO_END)
    assert all(out[n]["unit"] == u for n, u in metrics.END_TO_END.items())
    del values["setup_s"]
    with pytest.raises(KeyError):
        metrics.select(values, trace=False)


def test_select_fills_layers_a_workload_does_not_exercise_with_zero():
    out = metrics.select({"selection.select_ms": 2.5}, trace=True)
    assert list(out) == list(metrics.PER_LAYER)
    assert out["selection.select_ms"]["value"] == 2.5
    assert out["contextualizer.ms"] == {"value": 0.0, "unit": "ms"}
