"""The general (batched) IDP setup of paper Section 7.

The evaluated system is *atomic*: one development example, one LF per
iteration (|S_t| = |Λ_t| = 1).  Section 7 sketches the general setup where
the user consumes ``batch_size`` examples and may return several LFs per
iteration, with the multi-LF user model of Eq. 5/6:

    x* = argmax_x E_{P(Λ|x)}[ Σ_{λ∈Λ} Ψ_t(λ) ],
    P(Λ|x) = Π_λ P(λ|x),
    P(λ_{z,y}|x) ∝ acc(λ_{z,y}) · 1[acc(λ_{z,y}) > 0.5].

Under independent picks, the expectation of the summed utility decomposes
into per-example single-LF expectations, so batch selection reduces to
taking the top-``batch_size`` examples under the *thresholded* user model —
which is exactly how :class:`BatchDataProgrammingSession` selects.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.selection import DevDataSelector, SessionState
from repro.core.session import DataProgrammingSession
from repro.core.seu import SEUSelector


class BatchSEUSelector(SEUSelector):
    """Top-k SEU selection with the Sec.-7 thresholded user model (Eq. 6)."""

    name = "batch-seu"

    def __init__(self, batch_size: int = 3, warmup: int = 3) -> None:
        super().__init__(user_model="thresholded", utility="full", warmup=warmup)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size

    def select_batch(self, state: SessionState) -> list[int]:
        """The ``batch_size`` highest-expected-utility eligible examples."""
        mask = state.candidate_mask()
        if not mask.any():
            return []
        eligible = np.flatnonzero(mask)
        if self._in_cold_start(state):
            size = min(self.batch_size, eligible.size)
            return [int(i) for i in state.rng.choice(eligible, size=size, replace=False)]
        scores = self.expected_utilities(state)
        order = eligible[np.argsort(scores[eligible])[::-1]]
        return [int(i) for i in order[: self.batch_size]]


class BatchRandomSelector(DevDataSelector):
    """Uniform batch selection (the batched Snorkel baseline)."""

    name = "batch-random"

    def __init__(self, batch_size: int = 3) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size

    def select(self, state: SessionState) -> int | None:  # pragma: no cover - unused
        batch = self.select_batch(state)
        return batch[0] if batch else None

    def select_batch(self, state: SessionState) -> list[int]:
        mask = state.candidate_mask()
        if not mask.any():
            return []
        eligible = np.flatnonzero(mask)
        size = min(self.batch_size, eligible.size)
        return [int(i) for i in state.rng.choice(eligible, size=size, replace=False)]


class BatchDataProgrammingSession(DataProgrammingSession):
    """IDP session consuming a *batch* of development examples per iteration.

    Each :meth:`step` selects ``selector.select_batch(...)`` examples, asks
    the user for an LF on each, and refits the pipeline **once** at the end
    of the batch — the efficiency trade-off Sec. 7 discusses: the selector
    cannot adapt within a batch, so batched sessions may collect redundant
    LFs relative to the atomic setting.

    All other configuration matches :class:`DataProgrammingSession`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not hasattr(self.selector, "select_batch"):
            raise TypeError(
                "BatchDataProgrammingSession needs a selector with select_batch() "
                "(e.g. BatchSEUSelector or BatchRandomSelector)"
            )

    def step(self) -> None:
        """Select a batch, develop an LF per example, and refit once.

        The step reports one command record to the observer (ENGINE.md
        §9): ``"submit"`` when it refits, with the batch's selection,
        develop commits and learning phases and the time the simulated
        user spent on the batch as the open interval; ``"decline"`` when
        no LF was appended, with the selection phase and the user's time.
        """
        t0 = time.perf_counter()
        state = self.build_state()
        batch = self.selector.select_batch(state)
        select = time.perf_counter() - t0
        self.iteration += 1
        develop = user_seconds = 0.0
        appended = 0
        for dev_index in batch:
            self.selected.add(dev_index)
            t0 = time.perf_counter()
            lf = self.user.create_lf(dev_index, state)
            t1 = time.perf_counter()
            user_seconds += t1 - t0
            if lf is None:
                continue
            # The engine's all-or-nothing develop commit (votes + lineage
            # staged before any mutation) — same guarantee as submit().
            self._commit_develop(lf, dev_index, self.iteration - 1)
            state.lfs.append(lf)  # visible to later picks in the same batch
            appended += 1
            develop += time.perf_counter() - t1
        if not appended:
            self._notify_obs(
                "decline",
                {"select": select},
                open_interval_seconds=user_seconds if batch else None,
            )
            return
        phases, refit = self._refit()
        self._notify_obs(
            "submit",
            {"select": select, "develop": develop, **phases},
            refit=refit,
            open_interval_seconds=user_seconds,
        )
