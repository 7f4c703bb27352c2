"""The in-process workloads: simulated-user IDP sessions in a fresh process.

Each run spawns worker processes of this benchmark (``run.py --worker``).
A worker imports the program, builds the workload's dataset, constructs
a session and runs the selector once; the parent times that stretch from
``Popen`` to the worker's ``READY`` line as one ``setup_s`` sample, so
``setup_s`` is a median over several fresh processes.  Each worker then
runs its share of the measured sessions, timing the reference kernel of
:mod:`perfbench.hostspeed` after its setup, after every third turn and
after its last session; every time the run measured, setups included, is
rescaled by the host speed those calls give.  Memory is read from the workers' own
``/proc/self/status``.

A session is closed-loop: the simulated user writes each LF only after
the proposal it answers.  A turn runs from ``propose`` to the closing
``submit``/``decline``, minus the user's ``create_lf``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from perfbench import arith, hostspeed

ITERATIONS = 30
#: Fresh worker processes per run, each one ``setup_s`` sample.
WORKERS = 3
#: Restores timed per run: at least 10 are required, more steady the median.
RESTORES = 40
#: A session times one reference-kernel call after every this many turns,
#: so the host-speed samples spread over the measured work.
PROBE_EVERY = 3
TRAIN_FRACTION = 0.8  # the 80/10/10 split of the featurizers


@dataclass(frozen=True)
class InprocWorkload:
    name: str
    task: str  # "binary" or "mc"
    n_train: int
    method: str
    #: One measured session per this many seconds of ``--seconds``.  A
    #: multiclass session costs 1.7x a binary one, and a run must stay
    #: short enough that the whole benchmark fits its time budget on a
    #: host running 2.4x slower than a quiet one.
    seconds_per_session: float


WORKLOADS = {
    w.name: w
    for w in (
        InprocWorkload("nemo-10k", "binary", 10_000, "nemo", 1.5),
        InprocWorkload("mc-nemo-5k", "mc", 5_000, "nemo-mc", 2.0),
    )
}

#: Training rows of the ``--smoke`` variant of every in-process workload.
SMOKE_N_TRAIN = 1_000

#: Each workload's corpus is a fixed fixture, as a user's dataset is; the
#: run's seed picks the sessions (selection and simulated-user draws).
DATASET_SEED = 0

def n_sessions(workload: InprocWorkload, seconds: float) -> int:
    return max(2, round(seconds / workload.seconds_per_session))


def session_seed(run_seed: int, k: int) -> int:
    return run_seed * 1000 + k


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
def proc_status_mb(field_name: str, pid="self") -> float:
    """A memory field (``VmRSS``, ``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field_name} missing from /proc/{pid}/status")


def _build_dataset(workload: InprocWorkload, n_train: int):
    n_docs = int(round(n_train / TRAIN_FRACTION))
    if workload.task == "binary":
        from repro.data import load_dataset

        return load_dataset("amazon", scale="bench", seed=DATASET_SEED, n_docs=n_docs)
    from repro.multiclass import make_topics_dataset

    return make_topics_dataset(n_docs=n_docs, seed=DATASET_SEED)


def _factory(workload: InprocWorkload):
    if workload.task == "binary":
        from repro.experiments.runners import make_method

        return make_method(workload.method)
    from repro.multiclass.experiments import make_mc_method

    return make_mc_method(workload.method)


def _classes(dataset, workload: InprocWorkload):
    return (-1, 1) if workload.task == "binary" else tuple(range(dataset.n_classes))


def data_targets():
    from repro.data import recipes, synthetic
    from repro.multiclass import data as mcdata

    return [
        (synthetic.CorpusGenerator, "generate", "data.generate"),
        (recipes, "featurize_corpus", "data.featurize"),
        (mcdata.MCCorpusGenerator, "generate", "data.generate"),
        (mcdata, "featurize_mc_corpus", "data.featurize"),
    ]


def _record_em_iters(span, model) -> None:
    span.attrs["em_iters"] = int(getattr(model, "em_iterations_", 0) or 0)


def session_targets(session):
    """Patch targets around every layer a session calls into."""
    from repro.io import checkpoint

    cls = type(session)
    label_model = type(session.label_model_factory())
    end_model = type(session.end_model)
    targets = [
        (cls, "propose", "engine.propose"),
        (cls, "submit", "engine.submit"),
        (cls, "decline", "engine.decline"),
        (type(session.selector), "select", "selection.select"),
        (label_model, "fit", "labelmodel.fit.cold", _record_em_iters),
        (label_model, "fit_warm", "labelmodel.fit.warm", _record_em_iters),
        (end_model, "fit", "endmodel.fit"),
        (checkpoint, "save_checkpoint", "checkpoint.save"),
        (checkpoint, "load_checkpoint", "checkpoint.load"),
    ]
    if hasattr(end_model, "fit_minibatch"):
        targets.append((end_model, "fit_minibatch", "endmodel.fit"))
    if session.contextualizer is not None:
        targets.append((type(session.contextualizer), "refine", "contextualizer.refine"))
    if session.percentile_tuner is not None:
        targets.append((type(session.percentile_tuner), "best_percentile", "contextualizer.tune"))
    return targets


class _TimedUser:
    """The session's simulated user, with ``create_lf`` time taken out of turns."""

    def __init__(self, user, tracer=None) -> None:
        self.user = user
        self.tracer = tracer
        self.seconds = 0.0

    def create_lf(self, dev_index, state):
        t0 = time.perf_counter()
        if self.tracer is None:
            lf = self.user.create_lf(dev_index, state)
        else:
            with self.tracer.span("user.create_lf"):
                lf = self.user.create_lf(dev_index, state)
        self.seconds += time.perf_counter() - t0
        return lf


def run_session(dataset, workload, seed: int, probes: list, tracer=None):
    """One 30-iteration closed-loop session; returns (session, figures).

    Appends the host-speed kernel calls it makes between turns to
    ``probes``; their time is not part of the session's.
    """
    from repro.core.protocol import SimulatedDriver

    session = _factory(workload)(dataset, seed)
    user = _TimedUser(session.user, tracer)
    driver = SimulatedDriver(session, user)
    turns, probed = [], 0.0
    t_start = time.perf_counter()
    for i in range(ITERATIONS):
        user.seconds = 0.0
        t0 = time.perf_counter()
        driver.step()
        turns.append(time.perf_counter() - t0 - user.seconds)
        if i % PROBE_EVERY == PROBE_EVERY - 1:
            call = hostspeed.timed_calls(1)
            probes += call
            probed += call[0]
    wall = time.perf_counter() - t_start - probed
    figures = {
        "session_s": wall,
        "turns": turns,
        "test_score": float(session.test_score()),
        "refits": dict(session.refit_counts),
        **arith.quality(
            session.L_train, session.soft_labels, dataset.train.y, _classes(dataset, workload)
        ),
    }
    return session, figures


def check_restores(session, dataset, workload, seed: int, path: Path, restores: int):
    """Save ``session``, restore it ``restores`` times into fresh sessions.

    Returns (restore seconds, all faithful): a restore is faithful when the
    restored session's test score and posterior equal the original's.
    """
    import numpy as np

    from repro.io.checkpoint import load_session_checkpoint, save_session_checkpoint

    save_session_checkpoint(session, path)
    score = session.test_score()
    times, faithful = [], True
    for _ in range(restores):
        fresh = _factory(workload)(dataset, seed)
        t0 = time.perf_counter()
        load_session_checkpoint(fresh, path)
        times.append(time.perf_counter() - t0)
        faithful &= fresh.test_score() == score and np.array_equal(
            fresh.soft_labels, session.soft_labels
        )
    return times, faithful


def worker_main(job: dict) -> int:
    """Body of ``run.py --worker``: set up, report READY, run, report RESULT."""
    if job.get("warmup"):
        # Import what a measured worker imports, so that its setup_s does
        # not time a cold page cache.
        import repro.core.protocol  # noqa: F401
        import repro.data  # noqa: F401
        import repro.io.checkpoint  # noqa: F401
        import repro.multiclass.experiments  # noqa: F401

        _factory(WORKLOADS[job["workload"]])
        print("RESULT {}", flush=True)
        return 0
    from perfbench.spans import Tracer

    workload = WORKLOADS[job["workload"]]
    seed, trace = int(job["seed"]), bool(job["trace"])
    tracer = Tracer() if trace else None
    with tracer.installed(data_targets()) if tracer is not None else nullcontext():
        dataset = _build_dataset(workload, job["n_train"])
    first = _factory(workload)(dataset, session_seed(seed, 0))
    pending = first.propose()
    ready = {
        "rss_mb": proc_status_mb("VmRSS"),
        "fingerprint": [
            int(dataset.train.n),
            int(dataset.n_primitives),
            int(dataset.train.B.nnz),
            pending.dev_index,
        ],
    }
    print("READY " + json.dumps(ready), flush=True)

    result = {
        "sessions": [],
        "restores_s": [],
        "checkpoint_bytes": [],
        "ref_s": [],
        "faithful": True,
        "failed": 0,
        "attempted": 1,
    }
    restores = int(job["restores"])
    workdir = Path(job["workdir"])
    result["ref_s"] += hostspeed.timed_calls(hostspeed.CALLS)
    for k in job["session_ids"]:
        s_seed = session_seed(seed, k)
        result["attempted"] += 2 * ITERATIONS + 1 + restores
        try:
            session, figures = run_session(dataset, workload, s_seed, result["ref_s"])
            if tracer is not None:
                with tracer.installed(session_targets(session)):
                    traced, traced_figures = run_session(
                        dataset, workload, s_seed, result["ref_s"], tracer
                    )
                    check_restores(traced, dataset, workload, s_seed, workdir / f"t{k}.npz", 1)
                traced_figures["deterministic"] = all(
                    traced_figures[key] == figures[key]
                    for key in ("test_score", "lm_acc", "mv_acc")
                )
                figures["traced"] = traced_figures
            times, faithful = check_restores(
                session, dataset, workload, s_seed, workdir / f"s{k}.npz", restores
            )
        except Exception as exc:  # a failed session is counted, not fatal
            print(f"session {k} failed: {exc!r}", file=sys.stderr, flush=True)
            result["failed"] += 2 * ITERATIONS + 1 + restores
            continue
        result["sessions"].append(figures)
        result["restores_s"] += times
        result["checkpoint_bytes"].append((workdir / f"s{k}.npz").stat().st_size)
        result["faithful"] &= faithful
    result["ref_s"] += hostspeed.timed_calls(hostspeed.CALLS)
    result["peak_rss_mb"] = proc_status_mb("VmHWM")
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result["sessions"])
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def layer_metrics(tracer, sessions: list[dict]) -> dict:
    """Per-layer figures from the traced sessions' spans."""
    tree = tracer.breakdown("engine.")
    kids = tree["child_spans"]
    turns = len(tracer.named("engine.propose"))
    refits = len(tracer.named("engine.submit"))

    def mean_ms(name: str) -> float:
        spans = kids.get(name, [])
        return 1000.0 * sum(s.seconds for s in spans) / len(spans) if spans else 0.0

    def median_ms(name: str) -> float:
        spans = tracer.named(name)
        return 1000.0 * arith.median([s.seconds for s in spans]) if spans else 0.0

    ctx = sum(
        s.seconds
        for name, spans in kids.items()
        if name.startswith("contextualizer.")
        for s in spans
    )
    values = {
        "data.generate_s": tracer.total_s("data.generate"),
        "data.featurize_s": tracer.total_s("data.featurize"),
        "selection.select_ms": mean_ms("selection.select"),
        "contextualizer.ms": 1000.0 * ctx / refits if refits else 0.0,
        "endmodel.fit_ms": mean_ms("endmodel.fit"),
        "engine.self_ms": 1000.0 * tree["self_s"] / turns if turns else 0.0,
        "checkpoint.save_ms": median_ms("checkpoint.save"),
        "checkpoint.load_ms": median_ms("checkpoint.load"),
    }
    n = max(len(sessions), 1)
    for path in ("warm", "cold"):
        spans = kids.get(f"labelmodel.fit.{path}", [])
        values[f"labelmodel.fit_ms.{path}"] = mean_ms(f"labelmodel.fit.{path}")
        values[f"labelmodel.em_iters.{path}"] = (
            sum(s.attrs["em_iters"] for s in spans) / len(spans) if spans else 0.0
        )
        values[f"labelmodel.refits.{path}"] = (
            sum(s["traced"]["refits"].get(path, 0) for s in sessions) / n
        )
    walls = sum(s["traced"]["session_s"] for s in sessions)
    user = tracer.total_s("user.create_lf")
    values["trace.unattributed_pct"] = (
        100.0 * (walls - tree["root_s"] - user) / walls if walls else 0.0
    )
    return values


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
def spawn_worker(run_py: Path, root: Path, job: dict) -> tuple[float | None, dict, dict]:
    """Run one worker; returns (setup seconds, READY payload, RESULT payload)."""
    import subprocess

    argv = [sys.executable, str(run_py), "--worker", json.dumps(job)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=root)
    setup_s, ready, result = None, {}, None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and setup_s is None:
                setup_s = time.perf_counter() - t0
                ready = json.loads(line[len("READY ") :])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT ") :])
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or result is None:
        raise RuntimeError(f"worker {job} exited with code {code}")
    return setup_s, ready, result


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, ctx) -> dict:
    """One run of an in-process workload; returns the run's raw figures.

    The measured sessions are dealt round-robin to the workers, so
    they sample the whole run rather than one stretch of it.  A traced run
    has one worker, which times each of its sessions twice.
    """
    workload = WORKLOADS[name]
    n_train = SMOKE_N_TRAIN if smoke else workload.n_train
    sessions = 2 if smoke else n_sessions(workload, seconds)
    if trace:
        sessions = max(2, sessions // 2)
    workers = 1 if trace else WORKERS
    base = {
        "workload": name,
        "seed": seed,
        "n_train": n_train,
        "workdir": str(ctx.workdir),
        "trace": trace,
        "restores": math.ceil(RESTORES / sessions),
    }
    spawn_worker(ctx.run_py, ctx.root, {**base, "warmup": True})
    spawned = [
        spawn_worker(
            ctx.run_py, ctx.root, {**base, "session_ids": list(range(w, sessions, workers))}
        )
        for w in range(workers)
    ]
    setups = [setup_s for setup_s, _, _ in spawned]
    readies = [ready for _, ready, _ in spawned]
    return summarize([result for _, _, result in spawned], setups, readies, trace)


def timings(results: list, setups: list) -> tuple[dict, dict]:
    """The raw timing metrics of a run, and the tail they were read at."""
    sessions = [s for r in results for s in r["sessions"]]
    turns = [t for s in sessions for t in s["turns"]]
    tail = arith.tail(turns)
    return {
        "setup_s": arith.median(setups),
        "session_s": arith.median([s["session_s"] for s in sessions]),
        "turn_p50_ms": 1000.0 * arith.median(turns),
        "turn_tail_ms": 1000.0 * tail["value"],
        # Restore speed is a property of the process (two processes
        # restoring the same checkpoint differ by up to 1.7x, steadily),
        # so a pooled median flips with the majority of a run's workers;
        # the mean of each worker's median follows their mix instead.
        "restore_p50_ms": arith.mean(
            [1000.0 * arith.median(r["restores_s"]) for r in results if r["restores_s"]]
        ),
    }, tail


def summarize(results: list, setups: list, readies: list, trace: bool) -> dict:
    sessions = [s for r in results for s in r["sessions"]]
    restores = [t for r in results for t in r["restores_s"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    checks = {
        "no_failures": failed == 0 and bool(sessions),
        "restore_fidelity": all(r["faithful"] for r in results),
        "setup_deterministic": all(r["fingerprint"] == readies[0]["fingerprint"] for r in readies),
        "quality_in_range": all(
            0.0 < s["test_score"] <= 1.0 and 0.0 <= s["lm_acc"] <= 1.0 for s in sessions
        ),
    }
    out = {"attempted": attempted, "failed": failed, "checks": checks}
    if not sessions:
        return out
    raw, tail = timings(results, setups)
    # One factor for the run: host swings last minutes, longer than a run,
    # and pooling every worker's samples outvotes one odd process.
    host_scale = hostspeed.scale([x for r in results for x in r["ref_s"]])
    values = {
        **{name: value * host_scale for name, value in raw.items()},
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "test_score": arith.mean([s["test_score"] for s in sessions]),
        "lm_acc": arith.mean([s["lm_acc"] for s in sessions]),
        "mv_gap": arith.mean([s["mv_gap"] for s in sessions]),
        "ok_ratio": (attempted - failed) / attempted,
    }
    out["values"] = values
    out["raw_timings"] = raw
    out["host_scale"] = host_scale
    out["tail"] = {k: tail[k] for k in ("percentile", "n", "beyond")}
    out["sessions"] = len(sessions)
    out["restores"] = len(restores)
    if trace:
        traced = [s["traced"] for s in sessions]
        checks["traced_deterministic"] = all(t["deterministic"] for t in traced)
        untraced_s = arith.median([s["session_s"] for s in sessions])
        traced_s = arith.median([t["session_s"] for t in traced])
        out["layers"] = {
            **results[0]["layers"],
            "memory.rss_after_setup_mb": readies[0]["rss_mb"],
            "checkpoint.bytes": arith.median(results[0]["checkpoint_bytes"]),
            "obs.trace_overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
            "quality.mv_gap": values["mv_gap"],
        }
    return out
