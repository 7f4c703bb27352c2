"""Worker-side execution of sweep jobs (module-level, multiprocessing-safe).

Everything a pooled worker needs lives here as plain module functions so it
pickles by reference: named-dataset loading (delegating to
:mod:`repro.data.named`, with a per-process cache — each worker builds a
dataset once however many of its jobs share it), method-factory resolution
(delegating to :mod:`repro.experiments.registry`, the dispatch shared with
the serve layer and the CLI), and the resumable job runner that periodically
checkpoints the live session (ENGINE.md §5) and streams the finished
record into the :class:`~repro.sweep.store.ResultStore`.
"""

from __future__ import annotations

import pickle
import time

from repro.data.named import load_named_dataset
from repro.experiments.protocol import LearningCurve, run_learning_curve
from repro.experiments.registry import resolve_factory
from repro.io.checkpoint import (
    CheckpointError,
    load_session_checkpoint,
    save_session_checkpoint,
)
from repro.sweep.spec import SweepJob
from repro.sweep.store import ResultStore

__all__ = [
    "SweepJobCrash",
    "resolve_factory",  # re-exported from repro.experiments.registry
    "run_sweep_job",
    "session_obs",
    "mp_context",
    "parallel_learning_curves",
]


class SweepJobCrash(RuntimeError):
    """Injected mid-job failure (crash-resume tests and the CI smoke)."""


# Per-process dataset cache: workers are long-lived, and every job on the
# same (name, scale, seed) triple shares one featurization.
_DATASET_CACHE: dict = {}


def _cached_dataset(job: SweepJob):
    key = (job.dataset, job.scale, job.dataset_seed)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = load_named_dataset(
            job.dataset, scale=job.scale, seed=job.dataset_seed
        )
    return _DATASET_CACHE[key]


def session_obs(method) -> dict | None:
    """The engine's observability counters as a plain-JSON dict, or ``None``.

    Baselines without the engine's instrumentation (no ``phase_timings``)
    yield ``None`` so their records carry no empty section.  Every field
    is transient — checkpoints carry no clock readings or counters — so
    on a resumed job they all cover the post-resume stretch only.
    """
    timings = getattr(method, "phase_timings", None)
    if not isinstance(timings, dict):
        return None
    return {
        "phase_seconds": {str(k): float(v) for k, v in sorted(timings.items())},
        "refits": {str(k): int(v) for k, v in sorted(getattr(method, "refit_counts", {}).items())},
        "end_fits": {
            str(k): int(v) for k, v in sorted(getattr(method, "end_fit_counts", {}).items())
        },
        "em_iterations": {
            str(k): int(v)
            for k, v in sorted(getattr(method, "em_iteration_counts", {}).items())
        },
        "label_fit_seconds": {
            str(k): float(v)
            for k, v in sorted(getattr(method, "label_fit_seconds", {}).items())
        },
        "open_interval_seconds": float(getattr(method, "open_interval_seconds", 0.0)),
    }


def run_sweep_job(
    job_dict: dict,
    root: str,
    checkpoint_every: int = 10,
    fail_after_iteration: int | None = None,
) -> tuple[str, dict]:
    """Run one job to completion, checkpointing and streaming the result.

    The session is checkpointed every ``checkpoint_every`` protocol
    iterations (engine sessions only — baselines without the snapshot
    protocol simply restart from scratch on resume); an existing
    checkpoint for this job is restored and the learning curve continues
    from its cursor, bit-identically to an uninterrupted run.  The
    finished record is written atomically to the store and the checkpoint
    dropped — the order matters: a crash between the two leaves a
    completed result plus a stale checkpoint, which resume ignores because
    the completed set is checked first.

    ``fail_after_iteration`` injects a :class:`SweepJobCrash` after that
    iteration's hook ran — the crash-resume tests and the CI smoke use it
    to kill a sweep mid-job deterministically.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    job = SweepJob.from_dict(job_dict)
    store = ResultStore(root)
    dataset = _cached_dataset(job)
    factory = resolve_factory(job.method, job.dataset, job.user_threshold)
    method = factory(dataset, job.seed)
    checkpointable = hasattr(method, "state_dict") and hasattr(method, "load_state_dict")

    ckpt_path = store.checkpoint_path(job.key)
    curve = LearningCurve(iterations=[], scores=[])
    start_iteration = 0
    if checkpointable and ckpt_path.exists():
        try:
            extra = load_session_checkpoint(method, ckpt_path)
        except CheckpointError:
            # A torn/foreign checkpoint must not kill the whole sweep; the
            # job just restarts from scratch (atomic writes make this rare).
            method = factory(dataset, job.seed)
        else:
            if extra.get("job_key") != job.key:
                raise CheckpointError(
                    f"checkpoint {ckpt_path} belongs to job {extra.get('job_key')!r}, "
                    f"not {job.key!r}"
                )
            start_iteration = int(extra["iteration"])
            curve = LearningCurve(
                iterations=[int(i) for i in extra["iterations"]],
                scores=[float(s) for s in extra["scores"]],
            )

    def after_iteration(it: int, c: LearningCurve) -> None:
        if checkpointable and it % checkpoint_every == 0 and it < job.n_iterations:
            save_session_checkpoint(
                method,
                ckpt_path,
                extra={
                    "job_key": job.key,
                    "iteration": it,
                    "iterations": list(c.iterations),
                    "scores": list(c.scores),
                },
            )
        if fail_after_iteration is not None and it >= fail_after_iteration:
            raise SweepJobCrash(f"injected crash after iteration {it} of {job.key}")

    t0 = time.perf_counter()
    curve = run_learning_curve(
        method,
        n_iterations=job.n_iterations,
        eval_every=job.eval_every,
        start_iteration=start_iteration,
        curve=curve,
        after_iteration=after_iteration,
    )
    payload = {
        "key": job.key,
        "job": job.to_dict(),
        "seed": int(job.seed),
        "iterations": [int(i) for i in curve.iterations],
        "scores": [float(s) for s in curve.scores],
        "resumed_from_iteration": int(start_iteration),
        "wall_seconds": float(time.perf_counter() - t0),
    }
    obs = session_obs(method)
    if obs is not None:
        payload["obs"] = obs
    store.write_result(job.key, payload)
    store.clear_checkpoint(job.key)
    return job.key, payload


def _pool_run_job(args: tuple) -> tuple[str, dict]:
    """Pool-facing shim (one picklable argument tuple)."""
    job_dict, root, checkpoint_every = args
    return run_sweep_job(job_dict, root, checkpoint_every=checkpoint_every)


# --------------------------------------------------------------------- #
# parallel evaluate_method support
# --------------------------------------------------------------------- #
def mp_context():
    """The multiprocessing context for sweep pools (fork when available).

    Fork keeps per-worker startup negligible on the platforms that have it
    (the sessions themselves are pure numpy/scipy); spawn is the portable
    fallback.
    """
    import multiprocessing as mp

    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context("spawn")


_EVAL_CTX: dict = {}


def _init_eval_pool(factory, dataset) -> None:
    """Pool initializer: park the shared factory/dataset in the worker."""
    _EVAL_CTX["factory"] = factory
    _EVAL_CTX["dataset"] = dataset


def _eval_one(args: tuple) -> tuple[int, list[int], list[float]]:
    run_idx, seed, n_iterations, eval_every = args
    method = _EVAL_CTX["factory"](_EVAL_CTX["dataset"], seed)
    curve = run_learning_curve(method, n_iterations=n_iterations, eval_every=eval_every)
    return run_idx, list(curve.iterations), list(curve.scores)


def parallel_learning_curves(
    method_factory,
    dataset,
    seeds: list[int],
    n_iterations: int,
    eval_every: int,
    jobs: int,
) -> list[LearningCurve]:
    """Per-seed learning curves computed in a worker pool, in seed order.

    Each worker receives the factory and dataset once (pool initializer)
    and then runs whole independent sessions; results are re-ordered by
    run index, so the returned list is exactly what the serial loop
    produces.  Fails fast with a readable error when the factory cannot be
    shipped to workers (closures don't pickle; registry factories do).
    The factory pre-check runs even under fork — where initargs are
    inherited rather than pickled — so jobs>1 code stays portable to
    spawn platforms; the *dataset* is deliberately not pre-pickled: it
    can be tens of MB (a full serialized copy for a mere check), and
    datasets are plain numpy/scipy containers that pickle by
    construction.
    """
    ctx = mp_context()
    try:
        pickle.dumps(method_factory)
    except Exception as exc:
        raise ValueError(
            "parallel evaluation (jobs > 1) requires a picklable method factory; "
            f"pickling failed with: {exc!r}.  Registry factories "
            "(make_method / make_mc_method) are picklable; custom closures are not."
        ) from exc
    tasks = [(i, seed, n_iterations, eval_every) for i, seed in enumerate(seeds)]
    n_workers = max(1, min(jobs, len(tasks)))
    with ctx.Pool(
        processes=n_workers, initializer=_init_eval_pool, initargs=(method_factory, dataset)
    ) as pool:
        outcomes = pool.map(_eval_one, tasks)
    by_idx = {idx: (iters, scores) for idx, iters, scores in outcomes}
    return [
        LearningCurve(iterations=by_idx[i][0], scores=by_idx[i][1])
        for i in range(len(seeds))
    ]
