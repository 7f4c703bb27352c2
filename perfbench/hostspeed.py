"""Host speed: a fixed reference kernel timed beside the measured work.

On a shared machine the same code runs up to 2x slower for minutes at a
time while other guests load the host, and steal time accounts for a
small part of it (the vCPU mostly runs, only slower).  Every CPU-bound stretch slowed by a similar
factor: dataset generation and checkpoint restores 2.1x, sessions 1.8x.
The benchmark therefore times this kernel (interpreter loops, NumPy
vector work and a SciPy sparse product, the mix the program runs) beside
its CPU-bound work and rescales those times to a reference speed at
which one kernel call takes ``REF_S``.  The kernel is part of the
benchmark, not the program, so a change to the program moves the
rescaled times exactly as it moves the raw ones; the raw times stay in
the run's record.
"""

from __future__ import annotations

import functools
import statistics
import time

#: Seconds one kernel call takes at the reference speed.
REF_S = 0.015

#: Kernel calls per sample.
CALLS = 9

#: Share of the fastest and of the slowest calls :func:`scale` ignores.
TRIM = 0.1


@functools.cache
def _inputs():
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(12345)
    tokens = rng.integers(0, 5_000, size=120_000).tolist()
    vec = rng.standard_normal(200_000)
    rows, cols, nnz = 60_000, 2_000, 360_000
    mat = sp.csr_matrix(
        (rng.standard_normal(nnz), (rng.integers(0, rows, nnz), rng.integers(0, cols, nnz))),
        shape=(rows, cols),
    )
    return tokens, vec, mat, rng.standard_normal(cols), rng.standard_normal(rows)


def kernel() -> float:
    """One call of the reference work; returns a checksum."""
    tokens, vec, mat, x, y = _inputs()
    counts: dict = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    z = (vec * 1.5 + 0.25) ** 2
    order = z.argsort()
    s = float(mat @ x @ y) + float((mat.T @ y).sum())
    return len(counts) + float(z[order[-1]]) + s


def timed_calls(n: int) -> list[float]:
    """Seconds of each of ``n`` kernel calls."""
    _inputs()
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def sample() -> float:
    """Median seconds of ``CALLS`` kernel calls."""
    return statistics.median(timed_calls(CALLS))


def scale(samples) -> float:
    """Factor that turns seconds measured beside ``samples`` into seconds
    at the reference speed.

    The samples' mean, not their median: contention that comes and goes
    within a run slows the measured work by its average, and a median
    flips between the slow and the fast state.  The ``TRIM`` shares at
    either end are dropped, so one call preempted for 100 ms does not
    count.
    """
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    return REF_S / statistics.fmean(ordered[cut : len(ordered) - cut])
