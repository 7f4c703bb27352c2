"""The benchmark's own arithmetic: percentiles, quality, self time, transport.

Pure functions over plain numbers and arrays, so the tests in
``perfbench/tests/test_arith.py`` pin every figure the benchmark derives
without running a workload.
"""

from __future__ import annotations

import statistics

import numpy as np

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def beyond_count(n: int, p: float) -> int:
    """How many of ``n`` distinct samples lie above their ``p``-th percentile.

    The percentile is NumPy's default (linear interpolation), which sits at
    sorted position ``(n - 1) * p / 100``; every sample past that position
    lies beyond it.
    """
    return n - 1 - int(np.floor((n - 1) * p / 100.0 + 1e-9))


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    above it (fewer than 20 samples).
    """
    for p in TAIL_LADDER:
        if beyond_count(n, p) >= MIN_BEYOND:
            return p
    return None


def tail(values) -> dict:
    """The tail of ``values``: its percentile, value and sample counts."""
    values = np.asarray(values, dtype=float)
    p = tail_percentile(values.size)
    if p is None:
        raise ValueError(f"{values.size} samples are too few for a tail")
    return {
        "percentile": p,
        "value": float(np.percentile(values, p)),
        "n": int(values.size),
        "beyond": beyond_count(values.size, p),
    }


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


# --------------------------------------------------------------------- #
# quality
# --------------------------------------------------------------------- #
def tie_accuracy(scores: np.ndarray, truth: np.ndarray) -> float:
    """Expected accuracy of argmax with ties broken uniformly at random.

    ``scores`` is ``(n, K)``; ``truth`` holds column indices.  A row whose
    true class shares the maximum with ``t - 1`` others scores ``1/t``.
    """
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=int)
    if scores.shape[0] == 0:
        raise ValueError("no rows to score")
    top = scores.max(axis=1, keepdims=True)
    winners = np.isclose(scores, top, rtol=0.0, atol=1e-12)
    hit = winners[np.arange(truth.size), truth]
    return float(np.mean(hit / winners.sum(axis=1)))


def vote_counts(L: np.ndarray, classes) -> np.ndarray:
    """``(n, K)`` per-class vote counts; values outside ``classes`` abstain."""
    L = np.asarray(L)
    return np.stack([(L == c).sum(axis=1) for c in classes], axis=1).astype(float)


def posterior_scores(proba: np.ndarray) -> np.ndarray:
    """``(n, K)`` class scores from a posterior; binary ``P(+1)`` becomes
    the two columns ``[P(-1), P(+1)]``."""
    proba = np.asarray(proba, dtype=float)
    if proba.ndim == 1:
        return np.stack([1.0 - proba, proba], axis=1)
    return proba


def quality(L: np.ndarray, proba: np.ndarray, y: np.ndarray, classes) -> dict:
    """Label-model and majority-vote accuracy on the rows any LF covers.

    ``classes`` lists the vote values in column order (binary ``(-1, 1)``,
    K-class ``range(K)``); ``y`` holds those values.  ``mv_gap`` is
    ``lm_acc - mv_acc``: negative means the label model does worse than a
    majority vote over the same votes.
    """
    counts = vote_counts(L, classes)
    covered = counts.sum(axis=1) > 0
    if not covered.any():
        raise ValueError("no covered rows")
    index = {c: i for i, c in enumerate(classes)}
    truth = np.array([index[int(v)] for v in np.asarray(y)[covered]])
    lm_acc = tie_accuracy(posterior_scores(proba)[covered], truth)
    mv_acc = tie_accuracy(counts[covered], truth)
    return {
        "lm_acc": lm_acc,
        "mv_acc": mv_acc,
        "mv_gap": lm_acc - mv_acc,
        "covered": int(covered.sum()),
    }


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
def covered_length(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if min(b, end) > max(a, start)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered_length(start, end, children)


def rescale_beyond(seconds: float, fixed: float, scale: float) -> float:
    """``seconds`` with the part beyond ``fixed`` multiplied by ``scale``:
    a fixed wait (a network timer) stays as it is, compute is rescaled."""
    return fixed + (seconds - fixed) * scale


def transport_ms(client_ms: float, server_ms: float) -> float:
    """Client-observed time minus the server's own time for one command:
    both are means over the same requests, so this is their mean time
    outside the server's handler."""
    return client_ms - server_ms
