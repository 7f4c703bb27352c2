"""The shared incremental IDP session engine.

Both the binary (:class:`repro.core.session.DataProgrammingSession`) and the
multiclass (:class:`repro.multiclass.session.MultiClassSession`) pipelines
drive the same atomic loop (paper Fig. 4): select one development example,
obtain one LF from the user, optionally contextualize, then refit the label
model and the end model.  Historically the two implementations were
line-for-line mirrors; this module hosts the single engine both now extend,
parameterized by cardinality through a handful of hooks.

The engine is *incremental* along these axes (see ENGINE.md for the
contract):

1. **Append-only vote storage** — the train/valid vote matrices are
   :class:`~repro.labelmodel.matrix.VoteMatrix` buffers that grow by column
   without re-copying, and new LF columns are materialized from a CSC
   column slice of the incidence matrix (O(nnz_col), no densification).
2. **Warm-started refits** — the label model is re-fitted via
   ``fit_warm`` seeded from the previous refit's posterior, with a full
   cold refit forced every ``full_refit_every`` iterations as a
   correctness backstop (and whenever warm-starting is unsound, e.g. the
   very first refit).  The end models warm-start natively.
3. **Per-refit aggregate caching** — a cache dict scoped to the interval
   between refits is threaded to selectors through the session state, so
   SEU's sparse aggregates (``B.T @ proxy``, utility tables, the expected
   utility vector itself) are computed at most once per refit.

4. **Incremental sufficient statistics & on-demand proxy** — label-model
   refits, warm and cold, receive the vote matrix's
   :class:`~repro.labelmodel.matrix.ColumnStats` handle so every EM
   iteration runs on the per-column fire structure (O(nnz)) instead of
   re-scanning ``(L != 0)`` over the dense matrix, and the re-validation
   of votes the matrix already validated on append is skipped.  On warm
   refits the end model does not predict the train split eagerly: the
   refresh is deferred to the first time a selector actually reads the
   proxy (bit-identical values when it does, no prediction at all for
   selectors that never read it), with every cold refit refreshing
   eagerly.

Setting ``full_refit_every=1`` reproduces the from-scratch semantics of
the original sessions exactly — that configuration is both the regression
baseline for the equivalence tests and the recorded baseline of
``benchmarks/bench_perf_session.py``.

The atomic step itself is expressed as a two-phase **command protocol**
(ENGINE.md §6): :meth:`IncrementalSessionEngine.propose` runs the
selector without consuming the iteration, and
:meth:`~IncrementalSessionEngine.submit` /
:meth:`~IncrementalSessionEngine.decline` close the interaction with a
transactional develop commit.  :meth:`~IncrementalSessionEngine.step` and
:meth:`~IncrementalSessionEngine.run` are a thin
:class:`~repro.core.protocol.SimulatedDriver` over those commands with
the in-process user — bit-identical to the historical hard-wired loop —
while the serve layer (:mod:`repro.serve`) drives the same commands from
remote clients.
"""

from __future__ import annotations

import inspect
import time

import numpy as np

from repro.core.convention import VoteConvention
from repro.core.covered import CoveredFeatureBuffer
from repro.core.lineage import LineageStore
from repro.core.protocol import PendingInteraction, ProtocolError, SimulatedDriver
from repro.labelmodel.matrix import VoteMatrix, column_nonzero_rows
from repro.utils.rng import ensure_rng, stable_hash_seed

#: Saturation point of the covered-row gate on warm minibatch end refits
#: (``_fit_end_model``): the gate tracks ``warm_min_train`` below this
#: value but never demands more covered rows than this.  Deliberately
#: decoupled upward: ``warm_min_train`` decides whether a *session* is
#: big enough for warm paths at all, and raising that floor must not
#: silently push out the point where the end model switches optimizers —
#: past ~a thousand covered rows the capped L-BFGS is already the
#: expensive path the minibatch continuation exists to replace.
MINIBATCH_MIN_COVERED = 1000

#: EM iteration cap of a warm label-model refit (``fit_warm``); cold
#: refits are never capped.
WARM_LABEL_ITER = 3

#: L-BFGS iteration cap of a warm end-model refit that cannot take the
#: minibatch continuation (no ``fit_minibatch``, or a covered set below
#: the gate of ``_fit_end_model``); backstop fits run uncapped.
WARM_END_ITER = 15


class IncrementalSessionEngine:
    """Cardinality-agnostic select → develop → contextualize → learn loop.

    Subclasses bind the label-space specifics through a
    :class:`~repro.core.convention.VoteConvention` (``self.convention``,
    set before :meth:`_init_engine`): the abstain sentinel, posterior
    entropy, and coverage masking all default to the convention's
    implementations.  Two hooks remain genuinely per-session:

    * :meth:`_refresh_proxy` — recompute the ground-truth proxy from the
      current end model (its shape differs);
    * :meth:`build_state` — the selector/user-facing state snapshot.

    Subclasses are expected to set ``dataset``, ``rng``, ``family``,
    ``soft_labels``, ``entropies`` and their proxy fields before calling
    :meth:`_init_engine`.

    Each command is timed once, into its own record
    (``last_command_obs``): the compute seconds of every phase it ran
    (``"contextualize"`` is the Eq.-4 refinement inside the label-model
    phase), the refit facts, and the wall time the proposal sat open
    awaiting the user (human think-time, kept apart from the
    ``"develop"`` commit compute).  The record goes to an optional
    transient ``observer`` (:class:`repro.obs.EngineObserver`, ENGINE.md
    §9), which alone keeps totals; the engine sums nothing.  No record
    enters :meth:`state_dict`: clock readings would make two snapshots of
    the same session differ.
    """

    #: The session's vote convention; subclasses MUST assign one (class or
    #: instance attribute) before calling _init_engine — fail-closed so a
    #: new label-space session cannot silently run with wrong semantics.
    convention: VoteConvention | None = None

    #: Abstain sentinel of the vote convention (kept as a mirror of
    #: ``convention.abstain`` for backward compatibility).
    abstain_value: int = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _init_engine(
        self,
        selector,
        user,
        label_model_factory,
        end_model,
        contextualizer,
        percentile_tuner,
        tune_every: int,
        full_refit_every: int = 10,
        warm_after: int = 8,
        warm_min_train: int = 2000,
    ) -> None:
        """Bind the IDP components and the refit schedule.

        The component arguments are documented on the session classes.
        The schedule (ENGINE.md §2) decides, per refit, whether the label
        model is fitted cold or warm-started (``fit_warm`` capped at
        :data:`WARM_LABEL_ITER` EM iterations) and whether the end model
        is fitted uncapped or continued warm (the minibatch continuation
        of ENGINE.md §7, or an L-BFGS fit capped at
        :data:`WARM_END_ITER`).  Warm refits also defer the proxy refresh
        to the first selector read (ENGINE.md §4).

        tune_every:
            Cadence, in LFs, of percentile re-tuning once past the first
            six LFs (:meth:`_should_tune`).
        full_refit_every:
            Every this many refits both models are refitted from scratch
            and uncapped — the incremental path's correctness backstop.
            ``1`` makes every refit cold, the original from-scratch
            semantics.
        warm_after:
            Keep label-model refits cold until this many LFs exist while
            the LF set is one-sided or the newest LF opened its class
            (:meth:`_cold_refit_due`).
        warm_min_train:
            Keep the exact from-scratch semantics whenever the training
            split is smaller than this — refit cost scales with
            ``n_train``, so small sessions gain nothing from warm paths.

        Each setting must be an ``int`` (``bool`` is rejected), so a
        fractional cadence cannot silently act as a different one.
        """
        for name, value, floor in (
            ("tune_every", tune_every, 1),
            ("full_refit_every", full_refit_every, 1),
            ("warm_after", warm_after, 0),
            ("warm_min_train", warm_min_train, 0),
        ):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        if not isinstance(self.convention, VoteConvention):
            raise TypeError(
                "session must assign a VoteConvention to self.convention "
                "before calling _init_engine"
            )
        self.selector = selector
        self.user = user
        self.label_model_factory = label_model_factory
        self.end_model = end_model
        self.contextualizer = contextualizer
        self.percentile_tuner = percentile_tuner
        self.tune_every = tune_every
        self.full_refit_every = full_refit_every
        self.warm_after = warm_after
        self.warm_min_train = warm_min_train
        self._end_model_accepts_max_iter = (
            "max_iter" in inspect.signature(end_model.fit).parameters
        )
        self._end_model_accepts_minibatch = hasattr(end_model, "fit_minibatch")
        self._end_model_snapshotable = hasattr(end_model, "state_dict") and hasattr(
            end_model, "load_state_dict"
        )
        self._lm_accepts_stats: bool | None = None  # resolved on first refit
        # Warm end-model plumbing (ENGINE.md §7): the grow-only covered
        # feature buffer, the minibatch shuffle seed stream, and the
        # last-backstop coefficient anchor that keeps backstop fits
        # path-independent of the warm optimizer.
        self._covered_buf: CoveredFeatureBuffer | None = None
        self._end_mb_rng: np.random.Generator | None = None
        self._end_anchor_: dict | None = None

        self.lineage = LineageStore(self.dataset)
        self.iteration = 0
        self.selected: set[int] = set()
        self.abstain_value = self.convention.abstain
        self._L_train = VoteMatrix(self.dataset.train.n, abstain=self.abstain_value)
        self._L_valid = VoteMatrix(self.dataset.valid.n, abstain=self.abstain_value)
        self.selection_soft_labels: np.ndarray | None = None
        self.selection_entropies: np.ndarray | None = None
        self.label_model_ = None
        self._selection_model_ = None
        self._end_model_fitted = False
        self._refit_count = 0
        self._cold_warranted_ = True
        self._end_uncapped_ = True
        self._selector_cache: dict = {}
        # Whether a warm refit deferred its proxy refresh to the first
        # selector read (see _resolve_proxy).
        self._proxy_stale = False
        # The open interaction of the two-phase command protocol (see
        # repro.core.protocol) and its transient proposal counter.
        self._pending: PendingInteraction | None = None
        self._proposal_token = 0
        # Transient observability (never checkpointed — the obs-no-state-leak
        # lint rule keeps it that way): an optional observer sink with an
        # ``on_command(info)`` method (repro.obs.EngineObserver) and the
        # latest command record.  ``refit_counts`` is the one running count
        # the engine keeps, for the in-process harness of perfbench/.
        self.observer = None
        self.last_command_obs: dict | None = None
        self.refit_counts: dict[str, int] = {"warm": 0, "cold": 0}
        self.active_percentile_: float | None = (
            contextualizer.percentile if contextualizer is not None else None
        )

    # ------------------------------------------------------------------ #
    # vote storage
    # ------------------------------------------------------------------ #
    @property
    def lfs(self) -> list:
        return self.lineage.lfs

    @property
    def L_train(self) -> np.ndarray:
        """``(n_train, m)`` unrefined vote matrix (a view into the buffer)."""
        return self._L_train.values

    @L_train.setter
    def L_train(self, L: np.ndarray) -> None:
        self._L_train = VoteMatrix.from_dense(L, abstain=self.abstain_value)
        # A wholesale matrix replacement voids the append-only coverage
        # history the buffer was built from; it is rebuilt lazily.
        self._covered_buf = None

    @property
    def L_valid(self) -> np.ndarray:
        """``(n_valid, m)`` unrefined validation vote matrix (a view)."""
        return self._L_valid.values

    @L_valid.setter
    def L_valid(self, L: np.ndarray) -> None:
        self._L_valid = VoteMatrix.from_dense(L, abstain=self.abstain_value)

    def _stage_votes(self, lf) -> tuple[np.ndarray, np.ndarray]:
        """Validate one LF's train/valid vote columns; mutate nothing.

        Returns the canonical staged row arrays for both splits.  The
        train lookup reuses the family's cached CSC (the family is built
        over the train incidence matrix, so materializing
        ``dataset.train.B_csc`` as well would hold a second copy).
        """
        if not 0 <= int(lf.primitive_id) < self.family.n_primitives:
            raise ValueError(
                f"LF primitive_id {lf.primitive_id} is out of range "
                f"[0, {self.family.n_primitives})"
            )
        rows_train = self._L_train.stage_rows(
            column_nonzero_rows(self.family.B_csc, lf.primitive_id), lf.label
        )
        rows_valid = self._L_valid.stage_rows(
            column_nonzero_rows(self.dataset.valid.B_csc, lf.primitive_id), lf.label
        )
        return rows_train, rows_valid

    def _commit_develop(self, lf, dev_index: int, iteration_index: int) -> None:
        """All-or-nothing develop commit: both vote columns + the lineage.

        Everything fallible — primitive bounds, vote staging against both
        splits, the dev-index range — is validated before the first
        mutation, and the staged appends cannot fail, so an exception
        leaves no phantom lineage entry or half-appended votes.  Shared
        by :meth:`submit` and the batched session's step.  Counters and
        the refit stay with the caller.
        """
        if not 0 <= int(dev_index) < self.dataset.train.n:
            raise ValueError(
                f"dev_index {dev_index} out of range [0, {self.dataset.train.n})"
            )
        rows_train, rows_valid = self._stage_votes(lf)
        # -- commit point: nothing below can fail ------------------------ #
        self._L_train.append_staged(rows_train, lf.label)
        self._L_valid.append_staged(rows_valid, lf.label)
        self.lineage.add(lf, dev_index, iteration_index)

    # ------------------------------------------------------------------ #
    # the two-phase command protocol (ENGINE.md §6)
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> PendingInteraction | None:
        """The open interaction, or ``None`` between interactions."""
        return self._pending

    def propose(self) -> PendingInteraction:
        """Phase 1: run the selector; return the candidate interaction.

        Nothing is consumed yet — no counter, vote, or lineage mutation
        happens until the interaction is closed with :meth:`submit` or
        :meth:`decline`.  Idempotent while an interaction is open: the
        same :class:`~repro.core.protocol.PendingInteraction` is returned
        rather than re-running the selector (whose RNG draw must happen
        exactly once per interaction).
        """
        if self._pending is not None:
            return self._pending
        t0 = time.perf_counter()
        state = self.build_state()
        dev_index = self.selector.select(state)
        t1 = time.perf_counter()
        self._proposal_token += 1
        self._pending = PendingInteraction(
            token=self._proposal_token,
            iteration=self.iteration,
            dev_index=None if dev_index is None else int(dev_index),
            state=state,
            ready_at=t1,
        )
        self._notify_obs("propose", {"select": t1 - t0})
        return self._pending

    def _require_pending(self) -> PendingInteraction:
        if self._pending is None:
            raise ProtocolError("no open interaction: call propose() first")
        return self._pending

    def submit(self, lf) -> PendingInteraction:
        """Phase 2a: commit the user's LF for the open interaction.

        The develop commit — both vote-column appends, the lineage
        record, the selected-set entry, and the iteration counter — is
        applied all-or-nothing: everything fallible (primitive bounds,
        vote staging against both splits) is validated *before* the first
        mutation, so a rejected LF leaves the session exactly as proposed
        (the interaction stays open for a corrected retry).  After the
        commit the learning pipeline refits; a refit failure propagates
        with the commit already durable and self-consistent (votes and
        lineage agree — the next successful refit incorporates them).
        """
        pending = self._require_pending()
        if pending.dev_index is None:
            raise ProtocolError(
                "the selector found no eligible example; decline() is the only "
                "legal close for this interaction"
            )
        if lf is None:
            raise ProtocolError("submit() requires an LF; use decline() instead")
        # Open-interval wall: how long the proposal sat awaiting the user.
        # Human think-time, not compute — it is reported apart from the
        # phases, so "develop" times only the commit itself.
        open_wall = time.perf_counter() - pending.ready_at
        t0 = time.perf_counter()
        self._commit_develop(lf, pending.dev_index, pending.iteration)
        self.selected.add(pending.dev_index)
        self.iteration = pending.iteration + 1
        self._pending = None
        develop = time.perf_counter() - t0
        phases, refit = self._refit()
        self._notify_obs(
            "submit",
            {"develop": develop, **phases},
            refit=refit,
            open_interval_seconds=open_wall,
        )
        return pending

    def decline(self) -> PendingInteraction:
        """Phase 2b: close the open interaction without an LF.

        Models a user unable to extract a (sufficiently accurate, novel)
        heuristic from the shown example: the iteration is consumed and
        the example is marked as shown, but the learning state is
        untouched.  Also the only legal close when the selector found no
        eligible example.
        """
        pending = self._require_pending()
        open_wall = None
        if pending.dev_index is not None:
            self.selected.add(pending.dev_index)
            # No commit compute happens on decline: the open interval is
            # think-time, reported apart from the (empty) phases.
            open_wall = time.perf_counter() - pending.ready_at
        self.iteration = pending.iteration + 1
        self._pending = None
        self._notify_obs("decline", {}, open_interval_seconds=open_wall)
        return pending

    # ------------------------------------------------------------------ #
    # transient observability (ENGINE.md §9)
    # ------------------------------------------------------------------ #
    def _notify_obs(
        self,
        command: str,
        phases: dict,
        refit: dict | None = None,
        open_interval_seconds: float | None = None,
    ) -> None:
        """Build this command's record and hand it to the observer.

        Everything here is transient and JSON-safe; it never enters
        :meth:`state_dict`, touches no RNG, and a ``None`` observer makes
        the whole path a dict build — cheap enough to leave always-on.
        """
        self.last_command_obs = {
            "command": command,
            "iteration": int(self.iteration),
            "phases": phases,
            "refit": refit,
            "open_interval_seconds": open_interval_seconds,
        }
        if self.observer is not None:
            self.observer.on_command(self.last_command_obs)

    def cancel(self) -> PendingInteraction | None:
        """Discard the open interaction without consuming the iteration.

        The selector's side effects (its RNG draw, cache fills) are *not*
        rewound — a cancelled-then-reproposed session diverges from one
        that never proposed.  Bit-identical restart semantics come from
        restoring a pre-propose snapshot instead (see :meth:`state_dict`).
        """
        pending, self._pending = self._pending, None
        return pending

    # ------------------------------------------------------------------ #
    # IDP loop (the simulated-user driver over the protocol)
    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """One IDP iteration: select → develop → contextualize → learn.

        A thin :class:`~repro.core.protocol.SimulatedDriver` pass over
        :meth:`propose`/:meth:`submit`/:meth:`decline` with the session's
        in-process user — bit-identical to the historical hard-wired loop
        (pinned by the golden parity tests).
        """
        SimulatedDriver(self, self.user).step()

    def run(self, n_iterations: int):
        """Run ``n_iterations`` steps; returns self for chaining.

        Dispatches through :meth:`step` (not the driver directly) so
        subclasses overriding the step shape — e.g. the batched Sec.-7
        session — keep their semantics.  Any proxy refresh deferred by
        the final refit is materialized before returning, so the public
        ``proxy_proba``/``proxy_labels`` attributes reflect the current
        end model at the API boundary (callers driving :meth:`step`
        directly can read ``build_state().resolve_proxy()`` for the same
        guarantee).
        """
        for _ in range(n_iterations):
            self.step()
        self._resolve_proxy()
        return self

    # ------------------------------------------------------------------ #
    # learning stage
    # ------------------------------------------------------------------ #
    def _cold_refit_due(self) -> bool:
        """Whether this refit must be a from-scratch fit.

        Cold refits happen (a) on the ``full_refit_every`` cadence — the
        correctness backstop, every refit when it is ``1``; (b) while
        fewer than ``warm_after`` LFs exist *and* the LF set is one-sided
        or the newest LF opened its class; and (c) whenever the training
        split is smaller than ``warm_min_train``.  The low-LF regime is
        where the label model's likelihood is most multimodal — but the
        failure mode the guard exists for is specific: a *one-sided* LF
        coalition can collapse the posterior onto one class (the
        label-swap mode discussed in :mod:`repro.labelmodel.metal`), and a
        warm continuation seeded from that posterior would stay stuck
        there.  Once the developed
        LFs span at least two classes the swap mode is penalized by the
        fire-propensity evidence and the majority-vote-seeded balance
        estimate, so warm continuation is safe — and at large ``n_train``
        those early full-``n`` cold EM runs are the dominant label-model
        cost of an incremental session, so keying the guard on the actual
        risk condition instead of a fixed LF count is a real throughput
        lever.  The size gate is a cost argument: every refit cost scales
        with ``n_train``, so below ``warm_min_train`` the exact path is
        already fast and the engine keeps its from-scratch semantics
        outright.
        """
        if self._backstop_due():
            return True
        if len(self.lineage) > self.warm_after:
            return False
        return self._lf_set_one_sided() or self._newest_lf_opened_class()

    def _lf_set_one_sided(self) -> bool:
        """Whether every developed LF votes the same class.

        The degenerate label-model optimum that motivates the low-LF cold
        guard needs a one-sided coalition; with two classes represented the
        propensity terms make the swap mode strictly worse.  Selector
        warm-up phases (e.g. :class:`~repro.core.seu.SEUSelector`) keep
        the LF set two-sided from the second iteration precisely to
        protect the label model, so in practice this clears the guard
        almost immediately.
        """
        return len({int(lf.label) for lf in self.lineage.lfs}) < 2

    def _newest_lf_opened_class(self) -> bool:
        """Whether the most recent LF is its class's only representative.

        The first LF of a class re-opens the multimodality hazard for that
        class's parameters: the previous refit's posterior has never
        placed mass there, so a warm continuation seeded from it can
        settle far from the from-scratch optimum (observed as a drift
        spike exactly at class-introduction iterations).  A pure function
        of the lineage, so the warm cadence stays checkpoint/resume
        deterministic without extra persisted state.
        """
        lfs = self.lineage.lfs
        if not lfs:
            return True
        newest = lfs[-1]
        return all(int(lf.label) != int(newest.label) for lf in lfs[:-1])

    def _backstop_due(self) -> bool:
        """The exact-semantics opt-outs plus the periodic backstop cadence.

        Shared by both uncapped-fit conditions so the end-model cap can
        never silently desynchronize from the label-model backstop.
        """
        if not self._warm_cadence_active():
            return True
        return self._refit_count % self.full_refit_every == 0

    def _end_refit_uncapped_due(self) -> bool:
        """Whether this refit's *end-model* fit must be uncapped.

        Same opt-outs and backstop cadence as :meth:`_cold_refit_due`, but
        **without** the low-LF (``warm_after``) clause: that guard exists
        for the label model's multimodal likelihood, while the end models'
        losses are strictly convex — a capped warm L-BFGS continuation is
        always on the path to the unique optimum, and the periodic
        uncapped fit at the backstop cadence bounds the truncation drift.
        Uncapping the convex fit through the early-LF regime was pure
        waste (100+ L-BFGS iterations per refit at large n).
        """
        return self._backstop_due()

    def _label_model_accepts_stats(self, model) -> bool:
        if self._lm_accepts_stats is None:
            params_ok = all(
                "stats" in inspect.signature(fn).parameters
                for fn in (model.fit, model.fit_warm, model.predict_proba)
            )
            self._lm_accepts_stats = params_ok
        return self._lm_accepts_stats

    def _fit_label_model(self, L: np.ndarray, previous, stats=None):
        """Fresh label model fitted on ``L``, warm-seeded when allowed.

        ``stats`` is the vote matrix's sufficient-statistics handle; it is
        forwarded to models that accept it, so warm and cold fits alike
        skip the redundant re-validation scan and run every EM iteration
        on the O(nnz) kernels (ENGINE.md §10).
        """
        model = self.label_model_factory()
        kwargs = (
            {"stats": stats}
            if stats is not None and self._label_model_accepts_stats(model)
            else {}
        )
        if self._cold_warranted_ or previous is None or type(previous) is not type(model):
            model.fit(L, **kwargs)
        else:
            model.fit_warm(L, previous, max_iter=WARM_LABEL_ITER, **kwargs)
        return model

    def _predict_label_model(self, model, L: np.ndarray, stats=None) -> np.ndarray:
        if stats is not None and self._label_model_accepts_stats(model):
            return model.predict_proba(L, stats=stats)
        return model.predict_proba(L)

    def _refit(self) -> tuple[dict, dict | None]:
        """Refit the label model, the selection view and the end model.

        Returns ``(phases, refit)`` for the command record: ``phases`` holds
        the ``label_model`` and ``end_model`` seconds, plus the
        ``contextualize`` slice of ``label_model`` when a contextualizer is
        set; ``refit`` holds the path, the end-model fit mode, the EM
        iterations and the label-fit seconds (``None`` from an override
        that defers the fit).
        """
        t0 = time.perf_counter()
        self._cold_warranted_ = self._cold_refit_due()
        self._end_uncapped_ = self._end_refit_uncapped_due()
        self._refit_count += 1
        tc = time.perf_counter()
        L_effective = self._effective_label_matrix()
        contextualize = time.perf_counter() - tc
        refined = self.contextualizer is not None
        # The handle is only valid for the raw vote matrix; refinement
        # produces a detached dense matrix (warm fits on it build their own
        # stats by a single scan).
        stats = None if refined else self._L_train.stats
        model = self._fit_label_model(L_effective, self.label_model_, stats)
        label_fit_seconds = time.perf_counter() - t0
        self.label_model_ = model
        self.soft_labels = self._predict_label_model(model, L_effective, stats)
        self.entropies = self._entropy(self.soft_labels)
        self._refit_selection_view(refined)
        t1 = time.perf_counter()
        if refined:
            covered = self._coverage_mask(L_effective)
        else:
            covered = self._L_train.coverage_mask()
        mode = "skipped"
        if covered.any():
            mode = self._fit_end_model(covered, refined)
            self._end_model_fitted = True
            self._update_proxy()
        phases = {"label_model": t1 - t0, "end_model": time.perf_counter() - t1}
        if refined:
            phases["contextualize"] = contextualize
        self._selector_cache.clear()
        path = "cold" if self._cold_warranted_ else "warm"
        self.refit_counts[path] += 1
        refit = {
            "path": path,
            "end_fit_mode": mode,
            "em_iterations": int(getattr(model, "em_iterations_", 0) or 0),
            "fit_seconds": label_fit_seconds,
        }
        return phases, refit

    # ------------------------------------------------------------------ #
    # end-model refits (ENGINE.md §7)
    # ------------------------------------------------------------------ #
    def _warm_cadence_active(self) -> bool:
        """Whether warm refits actually happen between backstops.

        The complement of the always-backstop opt-outs in
        :meth:`_backstop_due`; the end-model backstop anchor is only
        maintained under this cadence, so the exact-semantics
        configurations (``full_refit_every=1`` / small train split) keep
        their historical fit sequence untouched.
        """
        return self.full_refit_every > 1 and self.dataset.train.n >= self.warm_min_train

    def _end_minibatch_rng(self) -> np.random.Generator:
        """The minibatch shuffle seed stream (lazily spawned once).

        A child spawned off the session RNG's seed sequence: adopting it
        never advances the parent stream, so selector/user draws stay
        bit-identical whichever optimizer the warm refits use.  It
        only seeds the end model's *first* ``fit_minibatch`` call — the
        model owns (and checkpoints) the stream state from then on — and
        spawning is deterministic per session seed, so a restored session
        re-derives the identical stream.
        """
        if self._end_mb_rng is None:
            if isinstance(self.rng, np.random.Generator) and hasattr(self.rng, "spawn"):
                self._end_mb_rng = self.rng.spawn(1)[0]
            else:
                self._end_mb_rng = ensure_rng(stable_hash_seed("warm_end_minibatch"))
        return self._end_mb_rng

    def _covered_training_set(self, covered: np.ndarray):
        """``(X_covered, targets)`` for a warm minibatch refit.

        Served from the grow-only :class:`CoveredFeatureBuffer` (amortized
        O(new·d) per refit); falls back to the exact fancy-index slice if
        the buffer reports a coverage regression — impossible under the
        append-only vote contract, but asserted rather than assumed.
        """
        X = self.dataset.train.X
        if self._covered_buf is None:
            self._covered_buf = CoveredFeatureBuffer(X)
        if self._covered_buf.sync(covered):
            return self._covered_buf.matrix(), self.soft_labels[self._covered_buf.rows]
        self._covered_buf = None  # stale — rebuilt lazily on the next sync
        idx = np.flatnonzero(covered)
        return X[idx], self.soft_labels[idx]

    def _restore_end_anchor(self) -> None:
        """Reset the end model to the last backstop's state (ENGINE.md §7).

        Restoring the anchor before every uncapped fit makes the backstop
        sequence a pure function of the backstop inputs — each full
        L-BFGS fit warm-starts from the previous backstop's solution, not
        from wherever the warm path drifted — so backstop label/end state
        is bit-identical whichever optimizer ran in between.  The minibatch
        shuffle stream is carried over: it advances monotonically with
        the session, never rewinding to the anchor's position.
        """
        if self._end_anchor_ is None:
            return
        keep_rng = getattr(self.end_model, "mb_rng_state_", None)
        self.end_model.load_state_dict(self._end_anchor_)
        if keep_rng is not None:
            self.end_model.mb_rng_state_ = keep_rng

    def _fit_end_model(self, covered: np.ndarray, refined: bool) -> str:
        """Route one end-model refit: backstop, warm-capped, or minibatch.

        Returns the mode that ran: ``"uncapped"``, ``"warm_capped"`` or
        ``"minibatch"``.  Uncapped (backstop) fits always use the exact
        ascending-order fancy-index slice, so their inputs are bit-for-bit
        those of the from-scratch path.  Warm refits stream the covered
        buffer through the end model's ``fit_minibatch``; refined
        (contextualized) coverage is not monotone, so those sessions keep
        the exact slice as input even for minibatch fits.  A warm refit
        falls back to the L-BFGS fit capped at :data:`WARM_END_ITER` when
        the end model has no ``fit_minibatch`` or the covered set is below
        the gate described next.

        Like warm starts themselves, stochastic refits are a *scale*
        feature: on a small covered set a "minibatch" is just full-batch
        gradient descent — no cheaper than the capped L-BFGS it replaces
        and lower-fidelity — so the covered-row gate tracks
        ``warm_min_train``, saturating at ``MINIBATCH_MIN_COVERED``
        (raising the session floor must not push the optimizer switch
        point out with it).
        """
        use_minibatch = (
            not self._end_uncapped_
            and self._end_model_fitted
            and self._end_model_accepts_minibatch
            and int(covered.sum()) >= max(min(self.warm_min_train, MINIBATCH_MIN_COVERED), 1)
        )
        if use_minibatch:
            if refined:
                idx = np.flatnonzero(covered)
                X_covered, targets = self.dataset.train.X[idx], self.soft_labels[idx]
            else:
                X_covered, targets = self._covered_training_set(covered)
            self.end_model.fit_minibatch(X_covered, targets, rng=self._end_minibatch_rng())
            return "minibatch"
        idx = np.flatnonzero(covered)
        X_covered = self.dataset.train.X[idx]
        targets = self.soft_labels[covered]
        if self._end_uncapped_ or not self._end_model_accepts_max_iter:
            anchored = (
                self._end_uncapped_
                and self._warm_cadence_active()
                and self._end_model_snapshotable
            )
            if anchored:
                self._restore_end_anchor()
            self.end_model.fit(X_covered, targets)
            if anchored:
                self._end_anchor_ = self.end_model.state_dict()
            return "uncapped"
        self.end_model.fit(X_covered, targets, max_iter=WARM_END_ITER)
        return "warm_capped"

    def _effective_label_matrix(self) -> np.ndarray:
        if self.contextualizer is None:
            return self.L_train
        if self.percentile_tuner is not None and self._should_tune():
            self.active_percentile_ = self.percentile_tuner.best_percentile(
                self.contextualizer,
                self.L_train,
                self.L_valid,
                self.lineage,
                self.label_model_factory,
                self.dataset.valid.y,
            )
        return self.contextualizer.refine(
            self.L_train, self.lineage, "train", percentile=self.active_percentile_
        )

    def _refit_selection_view(self, refined: bool) -> None:
        """Posterior over the *unrefined* votes, for selectors only.

        Refinement makes over-generalizing LFs abstain far from their
        development data — good for learning, but it erases the conflict
        signal there, and conflicts are exactly where the
        uncertainty-seeking selectors should look (Eq. 3's ψ peaks on
        "examples on which the LFs disagree the most").  Selectors
        therefore see the posterior of the raw vote matrix; the learning
        pipeline keeps the refined one.
        """
        if not refined:
            self.selection_soft_labels = None
            self.selection_entropies = None
            self._selection_model_ = None
            return
        stats = self._L_train.stats  # the selection view always fits raw votes
        raw_model = self._fit_label_model(self.L_train, self._selection_model_, stats)
        self._selection_model_ = raw_model
        self.selection_soft_labels = self._predict_label_model(
            raw_model, self.L_train, stats
        )
        self.selection_entropies = self._entropy(self.selection_soft_labels)

    def _should_tune(self) -> bool:
        # The refinement radius matters most in the low-LF regime (each vote
        # carries a large posterior weight), so tune on every new LF early,
        # then back off to every ``tune_every`` LFs.
        m = len(self.lineage)
        return m >= 1 and (m <= 6 or m % self.tune_every == 0)

    # ------------------------------------------------------------------ #
    # cardinality hooks (defaults read the vote convention)
    # ------------------------------------------------------------------ #
    def _entropy(self, soft_labels: np.ndarray) -> np.ndarray:
        return self.convention.posterior_entropy(soft_labels)

    def _coverage_mask(self, L: np.ndarray) -> np.ndarray:
        return self.convention.coverage_mask(L)

    # ------------------------------------------------------------------ #
    # on-demand proxy plumbing
    # ------------------------------------------------------------------ #
    def _update_proxy(self) -> None:
        """Refresh the proxy after an end-model refit, or defer it.

        Warm refits defer the refresh to the first selector read
        (:meth:`_resolve_proxy`), so selectors that never read the proxy
        never pay for end-model prediction between cold refits.  Cold
        refits always refresh eagerly, so the exact-at-backstop contract
        covers the proxy too.
        """
        if self._cold_warranted_:
            self._refresh_proxy()
        else:
            self._proxy_stale = True

    def _resolve_proxy(self) -> np.ndarray:
        """Materialize a deferred proxy refresh; return the proxy array.

        Called (through ``SessionState.resolve_proxy``) the first time a
        selector actually reads the ground-truth proxy after a refit: a
        session whose selector never reads it (Random/Abstain/Disagree/
        Uncertainty) never pays for end-model prediction between cold
        refits.  The refresh covers the full split with the *current* end
        model — exactly the values the eager path would have produced at
        refit time (the model has not changed in between), so reading
        selectors like SEU see bit-identical proxies with or without
        deferral.  A sliced refresh of only the changed rows was measured
        to be a false economy: the untouched rows' staleness compounds
        across warm refits and costs SEU real selection quality, while a
        full 50k-row prediction costs ~2 ms.
        """
        if self._proxy_stale:
            self._proxy_stale = False
            self._refresh_proxy()
        return self.proxy_proba

    def _refresh_proxy(self) -> None:
        """Recompute the proxy from the current end model (session hook)."""
        raise NotImplementedError

    def build_state(self):
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # durable snapshot / restore (ENGINE.md §5)
    # ------------------------------------------------------------------ #
    #: Array-valued session fields captured by state_dict (``None`` values
    #: are recorded as absent).  Subclasses extend this with their
    #: cardinality-specific proxy fields.
    _CHECKPOINT_ARRAY_FIELDS: tuple[str, ...] = (
        "soft_labels",
        "entropies",
        "selection_soft_labels",
        "selection_entropies",
        "proxy_proba",
    )

    def _capture_rng_state(self, rng) -> dict | None:
        if isinstance(rng, np.random.Generator):
            return rng.bit_generator.state
        return None

    def state_dict(self) -> dict:
        """Everything needed to continue this session bit-identically.

        The snapshot covers the vote matrices (sparse column structure —
        the :class:`~repro.labelmodel.matrix.ColumnStats` handle is rebuilt
        identically from it), the lineage (LFs stored by token, verified
        against the restored dataset's primitive domain), the fitted label
        / selection-view / end models, the session and user RNG streams,
        and every loop counter the refit cadence depends on.  Deliberately
        *not* covered: the refit-scoped selector cache and the lineage's
        distance cache (memoized pure functions of the captured state —
        recomputed bit-identically on demand) and all component
        hyperparameters (the restoring session is constructed with the
        same configuration; see :meth:`load_state_dict`).

        Any deferred proxy refresh (ENGINE.md §4) is materialized first
        — the end model has not changed since it was deferred, so the
        values are exactly what the first selector read would have
        produced, and the snapshot stays self-contained.

        Snapshotting is only legal *between* interactions: an open
        :meth:`propose` has already advanced the session RNG, so a
        restore followed by a fresh ``propose()`` would run the selector
        a second time and diverge from the uninterrupted session.  The
        serve layer therefore snapshots at commit boundaries only.
        """
        if self._pending is not None:
            raise ProtocolError(
                "cannot snapshot with an open interaction: the selector has "
                "already advanced the session RNG, so a restored session would "
                "re-run it and diverge; submit(), decline(), or cancel() first"
            )
        self._resolve_proxy()
        arrays = {}
        for name in self._CHECKPOINT_ARRAY_FIELDS:
            value = getattr(self, name)
            if value is not None:
                arrays[name] = np.asarray(value).copy()
        return {
            "kind": "session-engine",
            "engine_class": type(self).__name__,
            "dataset_name": self.dataset.name,
            "n_train": int(self.dataset.train.n),
            "n_valid": int(self.dataset.valid.n),
            "abstain": int(self.abstain_value),
            "iteration": int(self.iteration),
            "refit_count": int(self._refit_count),
            "cold_warranted": bool(self._cold_warranted_),
            "end_uncapped": bool(self._end_uncapped_),
            "end_model_fitted": bool(self._end_model_fitted),
            "selected": sorted(int(i) for i in self.selected),
            "active_percentile": (
                None if self.active_percentile_ is None else float(self.active_percentile_)
            ),
            "rng_state": self._capture_rng_state(self.rng),
            "user_rng_state": self._capture_rng_state(getattr(self.user, "rng", None)),
            "lineage": [
                {
                    "iteration": int(r.iteration),
                    "dev_index": int(r.dev_index),
                    "primitive": str(r.lf.primitive),
                    "primitive_id": int(r.lf.primitive_id),
                    "label": int(r.lf.label),
                }
                for r in self.lineage.records
            ],
            "votes_train": self._L_train.state_arrays(),
            "votes_valid": self._L_valid.state_arrays(),
            "arrays": arrays,
            "label_model": (
                None if self.label_model_ is None else self.label_model_.state_dict()
            ),
            "selection_model": (
                None
                if self._selection_model_ is None
                else self._selection_model_.state_dict()
            ),
            "end_model": self.end_model.state_dict(),
            "end_anchor": self._end_anchor_,
            "covered_rows": (
                None if self._covered_buf is None else self._covered_buf.rows.copy()
            ),
        }

    def load_state_dict(self, state: dict) -> "IncrementalSessionEngine":
        """Restore a :meth:`state_dict` snapshot onto this fresh session.

        The session must have been constructed with the same dataset
        (name, split sizes, featurization) and an equivalent component
        configuration as the one that was snapshotted — the checkpoint
        carries fitted state only, never configuration.  Identity checks
        are fail-closed: engine class, dataset name, split sizes, abstain
        sentinel, and every LF's primitive token → column mapping must
        match, otherwise the restore raises instead of continuing a
        session that would silently diverge.  After a successful restore,
        :meth:`step` continues exactly as the snapshotted session would
        have (see the checkpoint round-trip tests).  Fields written by
        earlier builds and no longer read (``label_anchor``,
        ``backstops_skipped``, ``phase_timings``) are ignored.
        """
        if not isinstance(state, dict) or state.get("kind") != "session-engine":
            raise ValueError("not a session-engine state dict")
        if state.get("engine_class") != type(self).__name__:
            raise ValueError(
                f"checkpoint was captured from {state.get('engine_class')!r} but is "
                f"being loaded into {type(self).__name__!r}"
            )
        if state.get("dataset_name") != self.dataset.name:
            raise ValueError(
                f"checkpoint was captured on dataset {state.get('dataset_name')!r} "
                f"but this session runs on {self.dataset.name!r}"
            )
        if (
            int(state.get("n_train", -1)) != self.dataset.train.n
            or int(state.get("n_valid", -1)) != self.dataset.valid.n
        ):
            raise ValueError(
                "checkpoint split sizes do not match the session's dataset "
                f"(got train={state.get('n_train')}, valid={state.get('n_valid')}, "
                f"expected train={self.dataset.train.n}, valid={self.dataset.valid.n})"
            )
        if int(state.get("abstain", self.abstain_value)) != self.abstain_value:
            raise ValueError(
                f"checkpoint abstain sentinel {state.get('abstain')} does not match "
                f"the session's {self.abstain_value}"
            )

        # Lineage first: LFs are rebuilt by token against the *current*
        # featurization and verified against the recorded column, so a
        # vocabulary drift fails loudly here before any state is touched.
        lineage = LineageStore(self.dataset)
        for entry in state.get("lineage", ()):
            rebuilt = self.family.make_by_token(entry["primitive"], int(entry["label"]))
            if rebuilt.primitive_id != int(entry["primitive_id"]):
                raise ValueError(
                    f"primitive {entry['primitive']!r} moved from column "
                    f"{entry['primitive_id']} to {rebuilt.primitive_id}; the dataset "
                    "was featurized differently from the checkpointed session"
                )
            lineage.add(rebuilt, int(entry["dev_index"]), int(entry["iteration"]))
        self.lineage = lineage

        self._L_train = VoteMatrix.from_state_arrays(
            self.dataset.train.n, self.abstain_value, state["votes_train"]
        )
        self._L_valid = VoteMatrix.from_state_arrays(
            self.dataset.valid.n, self.abstain_value, state["votes_valid"]
        )

        self.iteration = int(state["iteration"])
        self._refit_count = int(state["refit_count"])
        self._cold_warranted_ = bool(state["cold_warranted"])
        self._end_uncapped_ = bool(state["end_uncapped"])
        self._end_model_fitted = bool(state["end_model_fitted"])
        self.selected = {int(i) for i in state["selected"]}
        ap = state.get("active_percentile")
        self.active_percentile_ = None if ap is None else float(ap)

        rng_state = state.get("rng_state")
        if rng_state is not None:
            self.rng.bit_generator.state = rng_state
        user_rng_state = state.get("user_rng_state")
        user_rng = getattr(self.user, "rng", None)
        if user_rng_state is not None:
            if not isinstance(user_rng, np.random.Generator):
                raise ValueError(
                    "checkpoint carries a user RNG stream but this session's user "
                    "has none — the user configuration does not match"
                )
            user_rng.bit_generator.state = user_rng_state

        arrays = state.get("arrays", {})
        for name in self._CHECKPOINT_ARRAY_FIELDS:
            setattr(self, name, arrays[name].copy() if name in arrays else None)

        def _restore_model(payload, factory):
            if payload is None:
                return None
            model = factory()
            model.load_state_dict(payload)
            return model

        self.label_model_ = _restore_model(state.get("label_model"), self.label_model_factory)
        self._selection_model_ = _restore_model(
            state.get("selection_model"), self.label_model_factory
        )
        self.end_model.load_state_dict(state["end_model"])
        anchor = state.get("end_anchor")
        self._end_anchor_ = anchor if anchor else None
        covered_rows = state.get("covered_rows")
        if covered_rows is None:
            self._covered_buf = None
        else:
            # The buffer's row order is first-covered order, which a lazy
            # rebuild from the current coverage mask would not reproduce —
            # restore the exact recorded order so minibatch gradient sums
            # stay bit-identical to the uninterrupted session.
            buf = CoveredFeatureBuffer(self.dataset.train.X)
            buf.preload(np.asarray(covered_rows, dtype=np.intp))
            self._covered_buf = buf

        # The refit-scoped cache holds memoized pure functions of the
        # restored state; dropping it is bit-identical (entries are
        # recomputed on first read).  The snapshot materialized any
        # deferred proxy refresh, so the restored proxy is current.
        # Snapshots are taken at commit boundaries only, so a restored
        # session never has an open interaction.
        self._selector_cache = {}
        self._proxy_stale = False
        self._pending = None
        return self
