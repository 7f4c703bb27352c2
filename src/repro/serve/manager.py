"""Many named live IDP sessions behind one durable, lock-guarded manager.

The :class:`SessionManager` is the serve layer's core: it owns a root
directory of named sessions, each a protocol-capable IDP session
(:mod:`repro.core.protocol`) built from the method registry, and keeps
them durable through the PR-4 checkpoint layer:

* every session directory holds ``meta.json`` (the *configuration* —
  method, dataset, scale, seed, threshold; checkpoints deliberately carry
  fitted state only) plus rotated ``step-NNNNNNNN.ckpt.npz`` snapshots;
* snapshots are written at commit boundaries every ``snapshot_every``
  commits (and on demand), then rotated under the
  :class:`~repro.io.checkpoint.RotationPolicy` (``keep_last`` + age cap);
* a manager started over an existing root lazily restores each session
  from its newest checkpoint on first touch — a killed server therefore
  resumes mid-session and continues bit-identically (proposals replay
  from the restored RNG streams; see ENGINE.md §6).

Concurrency: every session carries its own lock, so interactions on
different sessions proceed in parallel under a threaded front end while
commands on one session serialize.  The manager-wide lock guards only the
registry maps — never a disk load: first touches of *different* sessions
restore in parallel, and concurrent first touches of the *same* session
rendezvous on a per-name loading latch (one thread restores, the rest
wait on the latch; a session is never double-loaded).  Sessions share
nothing — RNG streams, refit caches, and phase timings are all
per-session state (pinned by the multi-session isolation tests).

Memory is bounded by the eviction policy (``max_live`` LRU cap +
``idle_evict_seconds`` age cap): evicted sessions are snapshotted first
if they have un-snapshotted commits — checkpoints make eviction safe by
construction — then dropped from memory, and transparently lazy-restore
(bit-identically) on the next touch.  Sessions with an open interaction
are never evicted (the proposal already advanced the RNG, so a snapshot
is illegal there), and neither are sessions a command currently holds.
"""

from __future__ import annotations

import json
import re
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.protocol import ProtocolError, SimulatedDriver
from repro.data.named import load_named_dataset
from repro.experiments.registry import resolve_factory
from repro.io.atomic import atomic_write_text
from repro.io.checkpoint import (
    CheckpointError,
    RotationPolicy,
    load_session_checkpoint,
    rotate_checkpoints,
    save_session_checkpoint,
)
from repro.obs import EngineObserver, MetricsRegistry, current_span, log_event

#: meta.json layout version (bumped on incompatible change; fail-closed).
SESSION_META_VERSION = 1

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")

_CKPT_PREFIX = "step-"
_CKPT_SUFFIX = ".ckpt.npz"


class ServeError(RuntimeError):
    """Base class for serve-layer failures; carries an HTTP-ish status."""

    status = 500


class UnknownSessionError(ServeError):
    """No session of that name exists in the manager's root."""

    status = 404


class SessionExistsError(ServeError):
    """A session of that name already exists."""

    status = 409


class SessionConflictError(ServeError):
    """The command is illegal in the session's current protocol state."""

    status = 409


class BadSessionRequest(ServeError):
    """The request itself is malformed (names, payloads, unknown methods)."""

    status = 400


def _validate_name(name: str) -> str:
    """Session names become directory names — keep them path-safe."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise BadSessionRequest(
            f"invalid session name {name!r}: use 1-64 characters from "
            "[A-Za-z0-9._-], not starting with a punctuation character"
        )
    return name


def _checkpoint_name(iteration: int) -> str:
    return f"{_CKPT_PREFIX}{int(iteration):08d}{_CKPT_SUFFIX}"


def _checkpoint_iteration(path: Path) -> int | None:
    name = path.name
    if not (name.startswith(_CKPT_PREFIX) and name.endswith(_CKPT_SUFFIX)):
        return None
    digits = name[len(_CKPT_PREFIX) : -len(_CKPT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


class _LiveSession:
    """One in-memory session plus its lock and snapshot bookkeeping."""

    def __init__(self, name: str, meta: dict, session) -> None:
        self.name = name
        self.meta = meta
        self.session = session
        self.lock = threading.RLock()
        self.commits_since_snapshot = 0
        self.last_touch = 0.0  # monotonic stamp of the latest _get


class _LoadLatch:
    """One in-flight load (restore or create) of a named session.

    The loading thread owns the latch: it resolves it with either the
    loaded session or the load's exception, then wakes every waiter.
    Waiters re-raise the recorded exception (failed loads are not
    sticky — the latch is unregistered first, so the next touch retries).
    """

    __slots__ = ("done", "live", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.live: _LiveSession | None = None
        self.error: BaseException | None = None


class SessionManager:
    """Named live sessions with periodic rotated snapshots under one root.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per session (created lazily).
    snapshot_every:
        Commit cadence of the periodic snapshots: every this many closed
        interactions (submit *or* decline) the session is checkpointed
        and its directory rotated.
    keep_last / max_age_seconds:
        The :class:`~repro.io.checkpoint.RotationPolicy` applied to each
        session's checkpoint directory after every snapshot.
    max_live:
        Soft cap on in-memory sessions (``None`` = unbounded).  Going
        over the cap evicts least-recently-touched sessions (snapshot
        first if dirty); sessions that are busy or have an open
        interaction are skipped, so the cap can be transiently exceeded.
    idle_evict_seconds:
        Additionally evict sessions untouched for this long (``None`` =
        never).  Checked on every touch and by :meth:`evict`, which a
        server can also call from a periodic sweeper.
    metrics:
        Optional shared :class:`~repro.obs.MetricsRegistry`.  A private
        registry is created when omitted; either way it backs the serve
        front end's ``GET /metrics`` and :meth:`statusz`.
    """

    def __init__(
        self,
        root: str | Path,
        snapshot_every: int = 5,
        keep_last: int = 3,
        max_age_seconds: float | None = None,
        max_live: int | None = None,
        idle_evict_seconds: float | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        if max_live is not None and max_live < 1:
            raise ValueError(f"max_live must be >= 1 or None, got {max_live}")
        if idle_evict_seconds is not None and idle_evict_seconds <= 0:
            raise ValueError(
                f"idle_evict_seconds must be > 0 or None, got {idle_evict_seconds}"
            )
        self.root = Path(root)
        self.snapshot_every = snapshot_every
        self.policy = RotationPolicy(keep_last=keep_last, max_age_seconds=max_age_seconds)
        self.max_live = max_live
        self.idle_evict_seconds = idle_evict_seconds
        self._lock = threading.Lock()
        self._live: dict[str, _LiveSession] = {}
        self._loading: dict[str, _LoadLatch] = {}
        self._datasets: dict[tuple[str, str, int], object] = {}
        self._datasets_lock = threading.Lock()
        # Observability (ENGINE.md §9).  The registry backs GET /metrics
        # and statusz(); one shared EngineObserver funnels per-session
        # engine attribution into it (bounded labels — phase names and fit
        # modes, never session names).  All of this is process state: it
        # never enters session state_dicts or checkpoints.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        r = self.metrics
        self.observer = EngineObserver(r)
        self._started_wall = time.time()
        self._m_commands = r.counter(
            "repro_serve_commands_total",
            "Manager commands executed, by command and outcome class.",
            ("command", "outcome"),
        )
        self._m_command_seconds = r.histogram(
            "repro_serve_command_seconds",
            "Manager command latency in seconds, by command.",
            ("command",),
        )
        self._m_sessions_live = r.gauge(
            "repro_serve_sessions_live", "Sessions currently held in memory."
        )
        self._m_evictions = r.counter(
            "repro_serve_evictions_total", "Sessions evicted from memory."
        )
        self._m_snapshots = r.counter(
            "repro_serve_snapshots_total", "Session checkpoints written."
        )
        self._m_cold_starts = r.counter(
            "repro_serve_cold_starts_total",
            "Session loads into memory, by kind (create or restore).",
            ("kind",),
        )
        self._m_cold_start_seconds = r.histogram(
            "repro_serve_cold_start_seconds",
            "Wall seconds to bring a session into memory, by kind.",
            ("kind",),
        )
        self._m_latch_wait_seconds = r.histogram(
            "repro_serve_latch_wait_seconds",
            "Wall seconds commands waited on another thread's in-flight load.",
        )
        self._m_restore_failures = r.counter(
            "repro_serve_restore_failures_total", "Session loads that raised."
        )

    #: Monotonic clock for touch stamps / idle ages (patchable in tests).
    _now = staticmethod(time.monotonic)

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def session_dir(self, name: str) -> Path:
        return self.root / name

    def _meta_path(self, name: str) -> Path:
        return self.session_dir(name) / "meta.json"

    def _checkpoint_files(self, name: str) -> list[Path]:
        """This session's snapshots, oldest → newest (iteration order).

        Ordered by the *parsed* iteration, not the filename string: the
        zero padding is 8 digits, so iterations ≥ 10^8 widen the field
        and a lexicographic sort would rank ``step-100000000`` before
        ``step-99999999`` — breaking newest-first restore.
        """
        directory = self.session_dir(name)
        if not directory.exists():
            return []
        found = [
            p
            for p in directory.glob(f"{_CKPT_PREFIX}*{_CKPT_SUFFIX}")
            if _checkpoint_iteration(p) is not None
        ]
        return sorted(found, key=_checkpoint_iteration)

    # ------------------------------------------------------------------ #
    # construction / restore
    # ------------------------------------------------------------------ #
    def _dataset(self, meta: dict):
        """The (cached) dataset behind a meta record.

        Thread-safe without holding the manager lock: misses are loaded
        under a dedicated lock per cache, so a cold-start storm builds
        each dataset once while session restores proceed in parallel.
        """
        key = (meta["dataset"], meta["scale"], int(meta["dataset_seed"]))
        with self._datasets_lock:
            dataset = self._datasets.get(key)
            if dataset is None:
                dataset = self._datasets[key] = load_named_dataset(
                    key[0], scale=key[1], seed=key[2]
                )
        return dataset

    def _build_session(self, meta: dict):
        """A fresh (iteration-0) session from a meta record."""
        try:
            factory = resolve_factory(
                meta["method"], meta["dataset"], float(meta["user_threshold"])
            )
        except ValueError as exc:
            raise BadSessionRequest(str(exc)) from exc
        session = factory(self._dataset(meta), int(meta["seed"]))
        if not (hasattr(session, "propose") and hasattr(session, "state_dict")):
            raise BadSessionRequest(
                f"method {meta['method']!r} does not speak the session protocol "
                "(active-learning baselines drive their own loop and cannot be "
                "served interactively)"
            )
        # Transient wiring only — the observer never enters state_dict, so
        # checkpoints stay bit-identical with or without it.
        session.observer = self.observer
        return session

    def create(
        self,
        name: str,
        method: str = "nemo",
        dataset: str = "amazon",
        scale: str = "tiny",
        seed: int = 0,
        user_threshold: float = 0.5,
        dataset_seed: int = 0,
    ) -> dict:
        """Create, persist, and register a new named session.

        The configuration is pinned to ``meta.json`` (checkpoints carry
        fitted state only — restore always reconstructs the session from
        this record) and an iteration-0 snapshot is written immediately,
        so even a server killed before the first commit restarts cleanly.

        The name is reserved under the manager lock (a loading latch, so
        concurrent creates/touches of the same name serialize) but the
        session is built and snapshotted *outside* it — a create storm
        does not stall every other session's traffic.
        """
        with self._observe("create"):
            return self._create(
                name, method, dataset, scale, seed, user_threshold, dataset_seed
            )

    def _create(
        self,
        name: str,
        method: str,
        dataset: str,
        scale: str,
        seed: int,
        user_threshold: float,
        dataset_seed: int,
    ) -> dict:
        name = _validate_name(name)
        meta = {
            "format_version": SESSION_META_VERSION,
            "name": name,
            "method": str(method),
            "dataset": str(dataset),
            "scale": str(scale),
            "seed": int(seed),
            "user_threshold": float(user_threshold),
            "dataset_seed": int(dataset_seed),
            "created_at": time.time(),
        }
        with self._lock:
            if (
                name in self._live
                or name in self._loading
                or self._meta_path(name).exists()
            ):
                raise SessionExistsError(f"session {name!r} already exists")
            latch = self._loading[name] = _LoadLatch()
        t0 = time.perf_counter()
        try:
            session = self._build_session(meta)
            atomic_write_text(self._meta_path(name), json.dumps(meta, indent=2) + "\n")
            live = _LiveSession(name, meta, session)
            with live.lock:  # uncontended — the session is not registered yet
                self._snapshot_locked(live)
                info = self._info_locked(live)
        except BaseException as exc:
            with self._lock:
                self._loading.pop(name, None)
            latch.error = exc
            latch.done.set()
            raise
        self._record_cold_start("create", time.perf_counter() - t0)
        self._resolve_latch(name, latch, live)
        self.evict()
        return info

    def _read_meta(self, name: str) -> dict:
        path = self._meta_path(name)
        try:
            meta = json.loads(path.read_text())
        except FileNotFoundError:
            raise UnknownSessionError(f"no session named {name!r}") from None
        except ValueError as exc:
            raise ServeError(f"{path} is corrupted: {exc}") from exc
        if not isinstance(meta, dict) or meta.get("format_version") != SESSION_META_VERSION:
            raise ServeError(
                f"{path} has unsupported format_version "
                f"{meta.get('format_version') if isinstance(meta, dict) else None!r}"
            )
        return meta

    def _restore(self, name: str) -> _LiveSession:
        """Rebuild a session from disk: meta.json + the newest checkpoint.

        Tries checkpoints newest-first; a file that fails the fail-closed
        load is skipped (each attempt restores onto a *fresh* session, so
        a partial restore never leaks into the next attempt).  Existing
        checkpoints that all fail are an error — silently restarting a
        long-lived session from iteration 0 would be data loss.
        """
        meta = self._read_meta(name)
        checkpoints = self._checkpoint_files(name)
        session = self._build_session(meta)
        if checkpoints:
            restored = False
            for path in reversed(checkpoints):
                try:
                    load_session_checkpoint(session, path)
                    restored = True
                    break
                except CheckpointError:
                    session = self._build_session(meta)  # discard partial state
            if not restored:
                raise ServeError(
                    f"session {name!r} has {len(checkpoints)} checkpoint(s) but "
                    "none could be restored; refusing to restart from scratch"
                )
        return _LiveSession(name, meta, session)

    def _record_cold_start(self, kind: str, seconds: float) -> None:
        """Account one session load; annotates the current span if any."""
        self._m_cold_starts.inc(kind)
        self._m_cold_start_seconds.observe(kind, value=seconds)
        span = current_span()
        if span is not None:
            span.event("cold_start", kind=kind, seconds=round(seconds, 6))

    def _resolve_latch(self, name: str, latch: _LoadLatch, live: _LiveSession) -> None:
        """Publish a freshly loaded session and wake the latch's waiters."""
        with self._lock:
            self._live[name] = live
            self._loading.pop(name, None)
            live.last_touch = self._now()
            self._m_sessions_live.set(value=len(self._live))
        latch.live = live
        latch.done.set()

    def _get(self, name: str) -> _LiveSession:
        """The live session for ``name``, lazily restoring from disk.

        The restore itself runs *outside* the manager lock: the first
        toucher registers a per-name latch and loads; concurrent touches
        of the same name wait on that latch (never double-load), while
        touches of other names proceed — a cold-start storm over K
        sessions restores them in parallel, not serially.
        """
        name = _validate_name(name)
        while True:
            with self._lock:
                live = self._live.get(name)
                if live is not None:
                    live.last_touch = self._now()
                    return live
                latch = self._loading.get(name)
                if latch is None:
                    latch = self._loading[name] = _LoadLatch()
                    break  # this thread owns the load
            t_wait = time.perf_counter()
            latch.done.wait()
            waited = time.perf_counter() - t_wait
            self._m_latch_wait_seconds.observe(value=waited)
            span = current_span()
            if span is not None:
                span.add_phase("latch_wait", waited)
            if latch.error is not None:
                raise latch.error
            # Loaded by the latch owner — loop to take the fast path (and
            # handle the rare immediate-eviction race by restoring again).
            if latch.live is not None and self._live.get(name) is latch.live:
                with self._lock:
                    latch.live.last_touch = self._now()
                return latch.live
        t0 = time.perf_counter()
        try:
            live = self._restore(name)
        except BaseException as exc:
            self._m_restore_failures.inc()
            with self._lock:
                self._loading.pop(name, None)
            latch.error = exc
            latch.done.set()
            raise
        self._record_cold_start("restore", time.perf_counter() - t0)
        self._resolve_latch(name, latch, live)
        self.evict()
        return live

    @contextmanager
    def _command(self, name: str):
        """Acquire ``name``'s session under its lock, eviction-safe.

        Between ``_get`` returning a live session and the caller entering
        its lock, the eviction sweep may have snapshotted and dropped that
        object; commands must not mutate an orphan.  This re-checks
        registration *after* acquiring the session lock and retries (the
        retry lazy-restores from the eviction snapshot, bit-identically).
        Eviction skips sessions whose lock is held, so once inside the
        session cannot be evicted.
        """
        while True:
            live = self._get(name)
            with live.lock:
                with self._lock:
                    current = self._live.get(name) is live
                if current:
                    yield live
                    return

    # ------------------------------------------------------------------ #
    # snapshots / eviction
    # ------------------------------------------------------------------ #
    def _snapshot_locked(self, live: _LiveSession) -> Path:
        session = live.session
        path = self.session_dir(live.name) / _checkpoint_name(session.iteration)
        save_session_checkpoint(
            session,
            path,
            extra={"name": live.name, "iteration": int(session.iteration)},
        )
        rotate_checkpoints(self.session_dir(live.name), self.policy)
        live.commits_since_snapshot = 0
        self._m_snapshots.inc()
        span = current_span()
        if span is not None:
            span.event("snapshot", iteration=int(session.iteration))
        return path

    def _after_commit_locked(self, live: _LiveSession) -> bool:
        """Count a closed interaction; snapshot when the cadence is due.

        Caller holds ``live.lock`` (the ``_locked`` suffix is the
        contract — enforced by ``repro lint``'s serve-lock-discipline
        rule).
        """
        live.commits_since_snapshot += 1
        if live.commits_since_snapshot >= self.snapshot_every:
            self._snapshot_locked(live)
            return True
        return False

    def snapshot(self, name: str) -> dict:
        """Force a snapshot now (between interactions only)."""
        with self._observe("snapshot"), self._command(name) as live:
            if live.session.pending is not None:
                raise SessionConflictError(
                    "cannot snapshot with an open interaction; submit or "
                    "decline it first"
                )
            path = self._snapshot_locked(live)
            return {"name": name, "path": str(path), "iteration": int(live.session.iteration)}

    def _pick_victim(self) -> _LiveSession | None:
        """Select and lock one evictable session, or ``None``.

        Runs under the manager lock; the victim's session lock is
        acquired *non-blocking* (a busy session is in use, not idle) and
        stays held by the caller.  Sessions with an open interaction are
        refused — their RNG already advanced past the last snapshot, so
        evicting them would lose the proposal.
        """
        over = self.max_live is not None and len(self._live) > self.max_live
        now = self._now()
        candidates = sorted(self._live.values(), key=lambda l: l.last_touch)
        newest = candidates[-1] if candidates else None
        for live in candidates:
            idle = (
                self.idle_evict_seconds is not None
                and now - live.last_touch >= self.idle_evict_seconds
            )
            if not over and not idle:
                break  # candidates are LRU-sorted: the rest are newer still
            if live is newest and not idle:
                # Never cap-evict the hottest session (e.g. the one just
                # created): when everything older is pinned, the cap is
                # transiently exceeded instead.
                continue
            if not live.lock.acquire(blocking=False):
                continue
            if live.session.pending is not None:
                live.lock.release()
                continue
            return live
        return None

    def evict(self) -> list[str]:
        """Apply the eviction policy now; returns the evicted names.

        Runs automatically after every touch that grew the live map, and
        is safe to call from a periodic sweeper.  Each victim is
        snapshotted first if it has un-snapshotted commits (the disk
        write happens *outside* the manager lock, under the victim's own
        session lock), then dropped from memory — the next touch
        lazy-restores it from that snapshot, bit-identically.
        """
        if self.max_live is None and self.idle_evict_seconds is None:
            return []
        evicted: list[str] = []
        while True:
            with self._lock:
                victim = self._pick_victim()
            if victim is None:
                return evicted
            try:
                if victim.commits_since_snapshot > 0:
                    self._snapshot_locked(victim)  # repro-lint: disable=serve-lock-discipline -- victim.lock was acquired non-blocking by _pick_victim and is held until the finally below releases it
                with self._lock:
                    if self._live.get(victim.name) is victim:
                        del self._live[victim.name]
                        evicted.append(victim.name)
                        self._m_evictions.inc()
                        self._m_sessions_live.set(value=len(self._live))
                        span = current_span()
                        if span is not None:
                            span.event("eviction", session=victim.name)
                        log_event("session_evicted", session=victim.name)
            finally:
                victim.lock.release()

    # ------------------------------------------------------------------ #
    # command accounting
    # ------------------------------------------------------------------ #
    @contextmanager
    def _observe(self, command: str):
        """Time one public command into the registry (and current span).

        Outcome labels are a bounded class — ``ok``, ``client_error``
        (4xx-status serve errors), ``conflict`` (protocol), ``error`` —
        never raw messages or session names.
        """
        t0 = time.perf_counter()
        outcome = "ok"
        try:
            yield
        except ServeError as exc:
            outcome = "client_error" if exc.status < 500 else "error"
            raise
        except ProtocolError:
            outcome = "conflict"
            raise
        except BaseException:
            outcome = "error"
            raise
        finally:
            elapsed = time.perf_counter() - t0
            self._m_commands.inc(command, outcome)
            self._m_command_seconds.observe(command, value=elapsed)
            span = current_span()
            if span is not None:
                span.add_phase(f"manager.{command}", elapsed)

    # ------------------------------------------------------------------ #
    # interaction commands
    # ------------------------------------------------------------------ #
    def propose(self, name: str) -> dict:
        """Run the selector; return the candidate interaction (idempotent)."""
        with self._observe("propose"), self._command(name) as live:
            session = live.session
            pending = session.propose()
            if pending.dev_index is None:
                primitives: list[str] = []
            else:
                family = session.family
                primitives = [
                    family.primitive_names[int(pid)]
                    for pid in family.primitives_in(pending.dev_index)
                ]
            return {
                "name": name,
                "token": int(pending.token),
                "iteration": int(pending.iteration),
                "dev_index": pending.dev_index,
                "primitives": primitives,
                "n_lfs": len(session.lfs),
            }

    def submit(self, name: str, primitive: str, label: int) -> dict:
        """Commit an LF (by primitive token) for the open interaction."""
        with self._observe("submit"), self._command(name) as live:
            session = live.session
            try:
                lf = session.family.make_by_token(str(primitive), int(label))
            except KeyError as exc:
                raise BadSessionRequest(str(exc)) from exc
            except (TypeError, ValueError) as exc:
                raise BadSessionRequest(f"invalid LF payload: {exc}") from exc
            try:
                pending = session.submit(lf)
            except ProtocolError as exc:
                raise SessionConflictError(str(exc)) from exc
            except Exception as exc:
                if session.pending is not None:
                    # Staging rejected the LF before the commit point: the
                    # interaction is still open for a corrected retry.
                    if isinstance(exc, ValueError):
                        raise BadSessionRequest(str(exc)) from exc
                    raise
                # The commit is durable (the engine clears the pending at
                # its commit point); only the post-commit refit failed.
                # Count the commit toward the snapshot cadence and say
                # what actually happened — a 400 here would invite a
                # retry against an interaction that no longer exists.
                self._after_commit_locked(live)
                raise ServeError(
                    f"LF committed at iteration {session.iteration} but the "
                    f"refit failed: {exc}"
                ) from exc
            snapshotted = self._after_commit_locked(live)
            return {
                "name": name,
                "outcome": "submitted",
                "iteration": int(session.iteration),
                "dev_index": int(pending.dev_index),
                "lf": {"primitive": str(lf.primitive), "label": int(lf.label)},
                "n_lfs": len(session.lfs),
                "snapshotted": snapshotted,
            }

    def decline(self, name: str) -> dict:
        """Close the open interaction without an LF."""
        with self._observe("decline"), self._command(name) as live:
            session = live.session
            try:
                pending = session.decline()
            except ProtocolError as exc:
                raise SessionConflictError(str(exc)) from exc
            snapshotted = self._after_commit_locked(live)
            return {
                "name": name,
                "outcome": "declined",
                "iteration": int(session.iteration),
                "dev_index": pending.dev_index,
                "n_lfs": len(session.lfs),
                "snapshotted": snapshotted,
            }

    def step(self, name: str) -> dict:
        """One interaction answered by the session's own simulated user.

        Drives the same propose → submit/decline commands a remote client
        would issue, so simulated and live traffic share one code path;
        the user's RNG stream is part of the session snapshot, making
        stepped sessions restore bit-identically too.
        """
        with self._observe("step"), self._command(name) as live:
            session = live.session
            if session.pending is not None:
                raise SessionConflictError(
                    "cannot auto-step with an open interaction; submit or "
                    "decline it first"
                )
            outcome = SimulatedDriver(session).step()
            snapshotted = self._after_commit_locked(live)
            return {
                "name": name,
                "outcome": outcome.kind,
                "iteration": int(session.iteration),
                "dev_index": outcome.dev_index,
                "lf": (
                    None
                    if outcome.lf is None
                    else {
                        "primitive": str(outcome.lf.primitive),
                        "label": int(outcome.lf.label),
                    }
                ),
                "n_lfs": len(session.lfs),
                "snapshotted": snapshotted,
            }

    def score(self, name: str) -> dict:
        """The session's current test-split score."""
        with self._observe("score"), self._command(name) as live:
            return {
                "name": name,
                "iteration": int(live.session.iteration),
                "test_score": float(live.session.test_score()),
            }

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def _info_locked(self, live: _LiveSession) -> dict:
        session = live.session
        meta = live.meta
        checkpoints = self._checkpoint_files(live.name)
        latest = checkpoints[-1] if checkpoints else None
        return {
            "name": live.name,
            "method": meta["method"],
            "dataset": meta["dataset"],
            "scale": meta["scale"],
            "seed": int(meta["seed"]),
            "iteration": int(session.iteration),
            "n_lfs": len(session.lfs),
            "lfs": [
                {"primitive": str(lf.primitive), "label": int(lf.label)}
                for lf in session.lfs
            ],
            "pending": session.pending is not None,
            "live": True,
            "n_checkpoints": len(checkpoints),
            "last_snapshot_iteration": (
                None if latest is None else _checkpoint_iteration(latest)
            ),
            "last_snapshot_age_seconds": (
                None if latest is None else max(0.0, time.time() - latest.stat().st_mtime)
            ),
        }

    def info(self, name: str) -> dict:
        """Full info for one session (loads it if not yet in memory)."""
        with self._observe("info"), self._command(name) as live:
            return self._info_locked(live)

    def statusz(self) -> dict:
        """A JSON-safe operational snapshot of the whole manager.

        Backs ``GET /statusz`` and ``repro metrics``: session population
        (live / loading / stored on disk), per-command latency summaries
        estimated from the registry histograms, cold-start stats,
        snapshot-cadence health (how far live sessions have drifted past
        ``snapshot_every`` without a checkpoint), and the shared engine
        observer's command counts and
        :meth:`~repro.obs.EngineObserver.totals`.  Pure
        read: touches no session locks beyond the manager registry lock,
        restores nothing, and mutates no counters.
        """
        with self._lock:
            live = list(self._live.values())
            loading = len(self._loading)
        stored = 0
        if self.root.exists():
            stored = sum(
                1
                for child in self.root.iterdir()
                if child.is_dir() and (child / "meta.json").exists()
            )
        # Reading pending/commits without the session locks is a benign
        # race: statusz reports a point-in-time estimate, not a contract.
        open_interactions = sum(1 for l in live if l.session.pending is not None)
        dirty = [l.commits_since_snapshot for l in live if l.commits_since_snapshot > 0]

        def _latency(histogram, *labels):
            count = histogram.count(*labels)
            if count == 0:
                return {"count": 0, "p50_ms": None, "p99_ms": None}
            return {
                "count": int(count),
                "p50_ms": round(histogram.quantile(0.5, *labels) * 1000.0, 3),
                "p99_ms": round(histogram.quantile(0.99, *labels) * 1000.0, 3),
            }

        commands = {}
        for (command, outcome), count in self._m_commands.items():
            entry = commands.setdefault(command, {"by_outcome": {}})
            entry["by_outcome"][outcome] = int(count)
        for command, entry in commands.items():
            entry.update(_latency(self._m_command_seconds, command))
        return {
            "uptime_seconds": round(time.time() - self._started_wall, 3),
            "sessions": {
                "live": len(live),
                "loading": loading,
                "stored": stored,
                "open_interactions": open_interactions,
                "created_total": int(self._m_cold_starts.value("create")),
                "restored_total": int(self._m_cold_starts.value("restore")),
                "evicted_total": int(self._m_evictions.value()),
                "restore_failures_total": int(self._m_restore_failures.value()),
            },
            "snapshots": {
                "total": int(self._m_snapshots.value()),
                "cadence_commits": int(self.snapshot_every),
                "dirty_sessions": len(dirty),
                "max_commits_since_snapshot": max(dirty, default=0),
            },
            "cold_starts": {
                kind: _latency(self._m_cold_start_seconds, kind)
                for kind in ("create", "restore")
            },
            "latch_waits": _latency(self._m_latch_wait_seconds),
            "commands": commands,
            "engine": {
                "commands": {
                    cmd: int(v) for (cmd,), v in self.observer.commands.items()
                },
                **self.observer.totals(),
            },
        }

    def sessions(self) -> list[dict]:
        """Summaries of every stored session, *without* restoring them.

        Disk-only sessions are summarized from ``meta.json`` plus their
        newest checkpoint's filename (which encodes the iteration) and
        mtime — listing a thousand sessions must not deserialize a
        thousand engines.  Sessions already in memory report their live
        iteration instead.  The live map is snapshotted under the manager
        lock first: iterating it bare would race concurrent
        creates/restores/evictions into a ``RuntimeError``.
        """
        with self._observe("list"):
            return self._sessions()

    def _sessions(self) -> list[dict]:
        with self._lock:
            live_map = dict(self._live)
        names: set[str] = set(live_map)
        if self.root.exists():
            for child in self.root.iterdir():
                if child.is_dir() and (child / "meta.json").exists():
                    names.add(child.name)
        infos = []
        for name in sorted(names):
            live = live_map.get(name)
            if live is not None:
                with live.lock:
                    infos.append(self._info_locked(live))
                continue
            try:
                meta = self._read_meta(name)
            except ServeError:
                continue  # unreadable entry; skip rather than kill the listing
            checkpoints = self._checkpoint_files(name)
            latest = checkpoints[-1] if checkpoints else None
            infos.append(
                {
                    "name": name,
                    "method": meta["method"],
                    "dataset": meta["dataset"],
                    "scale": meta["scale"],
                    "seed": int(meta["seed"]),
                    "iteration": (
                        None if latest is None else _checkpoint_iteration(latest)
                    ),
                    "pending": False,
                    "live": False,
                    "n_checkpoints": len(checkpoints),
                    "last_snapshot_iteration": (
                        None if latest is None else _checkpoint_iteration(latest)
                    ),
                    "last_snapshot_age_seconds": (
                        None
                        if latest is None
                        else max(0.0, time.time() - latest.stat().st_mtime)
                    ),
                }
            )
        return infos
