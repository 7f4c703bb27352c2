"""Command-line interface to the reproduction.

Eight subcommands cover the workflows a downstream user needs without
writing Python:

* ``datasets`` — Table-1-style statistics for the bundled benchmarks.
* ``run``      — evaluate one method on one dataset (learning curve +
  curve-average summary, optional transcript recording).
* ``compare``  — a results table of several methods on one dataset.
* ``sweep``    — a parallel, crash-resumable methods × datasets × seeds
  grid streamed to an on-disk result store (see :mod:`repro.sweep`).
* ``replay``   — re-score a recorded transcript under a different
  learning pipeline (the paper's user-study workflow, Sec. 5.2).
* ``serve``    — a long-lived HTTP session service: named live sessions
  driven over the propose/submit protocol, periodically snapshotted and
  restored across restarts (see :mod:`repro.serve`).
* ``loadtest`` — concurrent clients hammering a session server over real
  HTTP; p50/p99 per-command latency, sessions/sec, and error counts as a
  schema-gated JSON record (see :mod:`repro.serve.loadtest`).
* ``sessions`` — list the sessions stored under a serve root.
* ``lint``     — the repo's AST-based invariant checker: determinism,
  checkpoint, and lock contracts enforced as static rules (see
  :mod:`repro.analysis` and ENGINE.md §8).

Invoke as ``python -m repro <subcommand> --help``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

import numpy as np

from repro.data.named import DATASET_NAMES, MC_DATASET_NAMES, SCALES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nemo (VLDB 2022) reproduction: interactive data programming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_datasets = sub.add_parser("datasets", help="print dataset statistics (Table 1)")
    p_datasets.add_argument("--scale", choices=SCALES, default="bench")
    p_datasets.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="evaluate one method on one dataset")
    _add_common_run_args(p_run)
    p_run.add_argument("--method", default="nemo", help="registry name (e.g. nemo, snorkel, seu)")
    p_run.add_argument(
        "--save-transcript",
        metavar="PATH",
        default=None,
        help="record the first seed's session to a JSON transcript",
    )

    p_compare = sub.add_parser("compare", help="compare several methods on one dataset")
    _add_common_run_args(p_compare)
    p_compare.add_argument(
        "--methods",
        nargs="+",
        default=["nemo", "snorkel"],
        help="registry names to compare",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="parallel, crash-resumable methods x datasets x seeds grid",
        description=(
            "Expand a methods x datasets x seeds grid into independent jobs, "
            "run them on a worker pool, and stream per-job results into OUT. "
            "Re-running with the same OUT resumes: completed jobs are skipped "
            "and in-flight sessions restart from their checkpoints."
        ),
    )
    p_sweep.add_argument(
        "--datasets",
        nargs="+",
        choices=DATASET_NAMES + MC_DATASET_NAMES,
        default=["amazon"],
        help="datasets of the grid ('topics' rows use the *-mc registry)",
    )
    p_sweep.add_argument(
        "--methods",
        nargs="+",
        default=["nemo", "snorkel"],
        help="registry names of the grid",
    )
    p_sweep.add_argument("--scale", choices=SCALES, default="bench")
    p_sweep.add_argument("--iterations", type=int, default=50)
    p_sweep.add_argument("--eval-every", type=int, default=5)
    p_sweep.add_argument("--seeds", type=int, default=5)
    p_sweep.add_argument("--seed", type=int, default=0, help="base seed")
    p_sweep.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="simulated-user LF accuracy threshold t (paper Sec. 5.1)",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process)"
    )
    p_sweep.add_argument(
        "--out",
        default="sweep_out",
        help="result-store directory (reuse to resume a killed sweep)",
    )
    p_sweep.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        help="mid-job session snapshot cadence, in protocol iterations",
    )
    p_sweep.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="stop after this many jobs this invocation (budgeting/smoke aid)",
    )
    p_sweep.add_argument(
        "--checkpoint-max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="treat pending-job checkpoints older than this as abandoned "
        "(the job restarts from scratch); default: no age cap",
    )

    p_serve = sub.add_parser(
        "serve",
        help="long-lived HTTP session service (propose/submit protocol)",
        description=(
            "Serve named live IDP sessions over a stdlib JSON/HTTP API. "
            "Sessions are snapshotted every --snapshot-every commits and the "
            "snapshots rotated (--keep-last / --max-age); restarting the "
            "server over the same --root resumes every session from its "
            "latest snapshot, bit-identically."
        ),
    )
    p_serve.add_argument(
        "--root", default="serve_sessions", help="session store directory"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8765, help="TCP port (0 = pick a free one)"
    )
    p_serve.add_argument(
        "--snapshot-every",
        type=int,
        default=5,
        help="snapshot cadence, in closed interactions per session",
    )
    p_serve.add_argument(
        "--keep-last", type=int, default=3, help="rotated snapshots kept per session"
    )
    p_serve.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also drop retained snapshots older than this (newest always kept)",
    )
    p_serve.add_argument(
        "--max-live",
        type=int,
        default=None,
        metavar="N",
        help="soft cap on in-memory sessions: least-recently-touched sessions "
        "beyond it are snapshotted and evicted (lazy-restored on next touch)",
    )
    p_serve.add_argument(
        "--idle-evict",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also evict sessions untouched for this long (a background "
        "sweeper enforces it even without traffic)",
    )
    p_serve.add_argument(
        "--access-log",
        action="store_true",
        help="emit one structured JSON log line per request on stderr "
        "(request id, outcome, per-phase span timings)",
    )

    p_metrics = sub.add_parser(
        "metrics",
        help="scrape a running server's /statusz (or raw /metrics) and pretty-print it",
        description=(
            "Fetch GET /statusz from a running 'repro serve' endpoint and "
            "pretty-print the operational snapshot: session population, "
            "per-command latency, cold starts, snapshot cadence health, and "
            "engine phase/refit attribution. With --raw, print the raw "
            "Prometheus text exposition from GET /metrics instead."
        ),
    )
    p_metrics.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8765")
    p_metrics.add_argument(
        "--raw",
        action="store_true",
        help="print the raw Prometheus /metrics exposition instead of /statusz",
    )
    p_metrics.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the /statusz payload as JSON instead of the table view",
    )
    p_metrics.add_argument("--timeout", type=float, default=10.0)

    p_loadtest = sub.add_parser(
        "loadtest",
        help="hammer a session server with concurrent clients; report latency",
        description=(
            "Drive N concurrent client threads through full create -> propose "
            "-> submit/decline -> score session lifecycles over real HTTP "
            "(against a spawned server, or --url for an external one), then "
            "report p50/p99 per-command latency, sessions/sec, and error "
            "counts as a schema-gated JSON record. Spawned-server runs also "
            "measure the cold-start storm: restart, then every client's "
            "first touch at once (concurrent lazy restores)."
        ),
    )
    p_loadtest.add_argument(
        "--url",
        default=None,
        help="target an already-running server instead of spawning one "
        "(skips the cold-start phase)",
    )
    p_loadtest.add_argument("--clients", type=int, default=8)
    p_loadtest.add_argument("--sessions-per-client", type=int, default=2)
    p_loadtest.add_argument(
        "--iterations", type=int, default=8, help="interactions per session"
    )
    p_loadtest.add_argument("--method", default="snorkel")
    p_loadtest.add_argument("--dataset", choices=DATASET_NAMES + MC_DATASET_NAMES, default="amazon")
    p_loadtest.add_argument("--scale", choices=SCALES, default="tiny")
    p_loadtest.add_argument("--seed", type=int, default=0)
    p_loadtest.add_argument(
        "--snapshot-every", type=int, default=4, help="spawned server's snapshot cadence"
    )
    p_loadtest.add_argument(
        "--max-live", type=int, default=None, help="spawned server's live-session cap"
    )
    p_loadtest.add_argument(
        "--idle-evict", type=float, default=None, help="spawned server's idle eviction"
    )
    p_loadtest.add_argument(
        "--output",
        default="BENCH_serve_latency.json",
        help="where to write the JSON record",
    )
    p_loadtest.add_argument(
        "--quick",
        action="store_true",
        help=(
            "CI smoke: 2 clients x 1 session x 4 iterations; writes next to "
            "the committed record (never over it) and asserts the committed "
            "record's schema when one is present"
        ),
    )

    p_sessions = sub.add_parser(
        "sessions", help="list the sessions stored under a serve root"
    )
    p_sessions.add_argument(
        "--root", default="serve_sessions", help="session store directory"
    )

    p_lint = sub.add_parser(
        "lint",
        help="AST-based invariant checker (determinism/checkpoint/lock contracts)",
        description=(
            "Walk the given paths (default: src tools benchmarks examples) and "
            "enforce the repo's static invariants: fitted-state completeness, "
            "no in-place mutation of fitted attributes, seeded-RNG discipline, "
            "serve-path lock discipline, and the multiclass adapter budget. "
            "Suppress a finding per line with "
            "'# repro-lint: disable=<rule> -- <reason>' (the reason is "
            "mandatory). Exits 1 on any unsuppressed finding."
        ),
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to walk (default: src tools benchmarks examples)",
    )
    p_lint.add_argument(
        "--root",
        default=".",
        help="directory findings are reported relative to (default: cwd)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="stdout format",
    )
    p_lint.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="also write the JSON findings artifact here (CI uploads this)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="print the registered rules and exit"
    )

    p_replay = sub.add_parser(
        "replay", help="re-score a recorded transcript under a chosen pipeline"
    )
    p_replay.add_argument("transcript", help="path to a JSON transcript")
    p_replay.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    p_replay.add_argument("--scale", choices=SCALES, default="bench")
    p_replay.add_argument("--seed", type=int, default=0)
    p_replay.add_argument(
        "--contextualize",
        action="store_true",
        help="refine the recorded LFs with the Eq.-4 contextualizer",
    )
    p_replay.add_argument(
        "--gamma",
        type=float,
        default=0.0,
        help="context-sequence recency decay (0 = single-point Eq. 4)",
    )
    p_replay.add_argument(
        "--percentile", type=float, default=75.0, help="refinement radius percentile"
    )
    p_replay.add_argument(
        "--label-model",
        default="metal",
        help="aggregator registry name (metal, majority, dawid-skene, triplet)",
    )
    return parser


def _add_common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        choices=DATASET_NAMES + MC_DATASET_NAMES,
        default="amazon",
        help="'topics' selects the multiclass extension (use *-mc methods)",
    )
    parser.add_argument("--scale", choices=SCALES, default="bench")
    parser.add_argument("--iterations", type=int, default=50)
    parser.add_argument("--eval-every", type=int, default=5)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="simulated-user LF accuracy threshold t (paper Sec. 5.1)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the per-seed sessions (1 = serial)",
    )


# --------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------- #
def cmd_datasets(args: argparse.Namespace) -> int:
    from repro.data import load_dataset

    print(f"Benchmark datasets at scale={args.scale} (Table 1):")
    for name in DATASET_NAMES:
        dataset = load_dataset(name, scale=args.scale, seed=args.seed)
        print(f"  {dataset.describe()}")
    return 0


def _evaluate_named(args: argparse.Namespace, method_name: str, dataset):
    """Dispatch to the binary or multiclass registry by dataset kind."""
    if args.dataset in MC_DATASET_NAMES:
        from repro.multiclass.experiments import evaluate_mc_method

        return evaluate_mc_method(
            method_name,
            dataset,
            n_iterations=args.iterations,
            eval_every=args.eval_every,
            n_seeds=args.seeds,
            base_seed=args.seed,
            user_threshold=args.threshold,
            jobs=args.jobs,
        )
    from repro.experiments import evaluate_method, make_method

    return evaluate_method(
        make_method(method_name, user_threshold=args.threshold),
        method_name,
        dataset,
        n_iterations=args.iterations,
        eval_every=args.eval_every,
        n_seeds=args.seeds,
        base_seed=args.seed,
        jobs=args.jobs,
    )


def _load_any_dataset(args: argparse.Namespace):
    from repro.data.named import load_named_dataset

    return load_named_dataset(args.dataset, scale=args.scale, seed=0)


def cmd_run(args: argparse.Namespace) -> int:
    dataset = _load_any_dataset(args)
    print(dataset.describe())
    result = _evaluate_named(args, args.method, dataset)
    mean_curve = result.mean_curve()
    print(f"\nmethod={args.method} seeds={args.seeds}")
    print("iteration: " + " ".join(f"{i:>6d}" for i in mean_curve.iterations))
    print("score:     " + " ".join(f"{s:6.3f}" for s in mean_curve.scores))
    print(
        f"curve average = {result.summary_mean:.4f} "
        f"(± {result.summary_std:.4f} across seeds)"
    )
    if args.save_transcript:
        _record_transcript(args, dataset)
    return 0


def _record_transcript(args: argparse.Namespace, dataset) -> None:
    from repro.core.session import DataProgrammingSession
    from repro.io import save_transcript, transcript_from_session
    from repro.utils.rng import stable_hash_seed

    seed = stable_hash_seed(args.method, dataset.name, 0, args.seed)
    if args.dataset in MC_DATASET_NAMES:
        from repro.multiclass.experiments import make_mc_method

        method = make_mc_method(args.method, user_threshold=args.threshold)(dataset, seed)
    else:
        from repro.experiments import make_method

        method = make_method(args.method, user_threshold=args.threshold)(dataset, seed)
    if not isinstance(method, DataProgrammingSession):
        print(
            f"cannot record {args.method!r}: only LF-producing sessions have "
            f"transcripts (active-learning baselines do not)",
            file=sys.stderr,
        )
        return
    method.run(args.iterations)
    path = save_transcript(
        transcript_from_session(
            method, metadata={"method": args.method, "dataset": dataset.name, "seed": seed}
        ),
        args.save_transcript,
    )
    print(f"transcript ({len(method.lfs)} LFs) written to {path}")


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_table

    dataset = _load_any_dataset(args)
    print(dataset.describe())
    cells = []
    for name in args.methods:
        result = _evaluate_named(args, name, dataset)
        cells.append(result.summary_mean)
    print()
    print(
        format_table(
            f"{args.dataset} (scale={args.scale}, {args.seeds} seeds, "
            f"{args.iterations} iterations)",
            list(args.methods),
            {args.dataset: cells},
        )
    )
    return 0


def _phase_breakdown(phase_seconds: dict) -> tuple[float, str]:
    """``(compute seconds, one-line text)`` for an engine phase-seconds map.

    Only the top-level phases partition compute, so only they add into the
    total and take a share of it; ``contextualize`` runs inside
    ``label_model`` and is shown as a share of that phase.
    """
    from repro.obs import COMPUTE_PHASES

    def share(part: float, whole: float) -> str:
        return f"{100.0 * part / (whole or 1.0):.0f}%"

    seconds = {p: phase_seconds.get(p, 0.0) for p in COMPUTE_PHASES}
    compute = sum(seconds.values())
    parts = [f"{p}={s:.2f}s ({share(s, compute)})" for p, s in seconds.items()]
    contextualize = phase_seconds.get("contextualize", 0.0)
    if contextualize:
        parts.append(
            f"contextualize={contextualize:.2f}s "
            f"({share(contextualize, seconds['label_model'])} of label_model)"
        )
    return compute, "  ".join(parts)


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_table
    from repro.sweep import ResultStore, SweepSpec, run_sweep

    spec = SweepSpec(
        methods=tuple(args.methods),
        datasets=tuple(args.datasets),
        n_seeds=args.seeds,
        base_seed=args.seed,
        n_iterations=args.iterations,
        eval_every=args.eval_every,
        scale=args.scale,
        user_threshold=args.threshold,
    )
    n_total = len(spec.jobs())
    print(
        f"sweep: {len(spec.methods)} methods x {len(spec.datasets)} datasets x "
        f"{args.seeds} seeds = {n_total} jobs -> {args.out} (jobs={args.jobs})"
    )

    def progress(done: int, total: int, key: str, payload: dict) -> None:
        resumed = payload.get("resumed_from_iteration", 0)
        note = f" (resumed from iteration {resumed})" if resumed else ""
        print(f"  [{done}/{total}] {key}: {payload['wall_seconds']:.1f}s{note}")

    report = run_sweep(
        spec,
        args.out,
        jobs=args.jobs,
        checkpoint_every=args.checkpoint_every,
        max_jobs=args.max_jobs,
        progress=progress,
        checkpoint_max_age=args.checkpoint_max_age,
    )
    print(
        f"ran {len(report.ran)} jobs, skipped {len(report.skipped)} already-completed "
        f"in {report.wall_seconds:.1f}s"
    )
    if not report.complete:
        print(f"{len(report.pending)} jobs still pending; rerun to resume")
    obs = ResultStore(args.out).summarize_obs()
    if obs["jobs"]:
        compute, phases = _phase_breakdown(obs["phase_seconds"])
        print(
            f"engine obs ({obs['jobs']} instrumented jobs, "
            f"{compute:.2f}s compute): {phases}"
        )
        if obs["refits"] or obs["end_fits"]:
            refits = " ".join(f"{k}={v}" for k, v in sorted(obs["refits"].items()))
            end_fits = " ".join(f"{k}={v}" for k, v in sorted(obs["end_fits"].items()))
            print(f"  refits: {refits or '-'}; end fits: {end_fits or '-'}")
    # Table of curve averages for every complete cell, one block per dataset.
    for dataset in spec.datasets:
        cells, names = [], []
        for method in spec.methods:
            result = report.results.get((dataset, method))
            if result is not None and len(result.curves) == args.seeds:
                names.append(method)
                cells.append(result.summary_mean)
        if names:
            print()
            print(
                format_table(
                    f"{dataset} (scale={args.scale}, {args.seeds} seeds, "
                    f"{args.iterations} iterations)",
                    names,
                    {dataset: cells},
                )
            )
    return 0 if report.complete else 1


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.core.context_sequence import ContextSequenceContextualizer
    from repro.core.contextualizer import LFContextualizer
    from repro.data import load_dataset
    from repro.io import load_transcript, replay_session
    from repro.labelmodel import make_label_model

    transcript = load_transcript(args.transcript)
    dataset = load_dataset(args.dataset, scale=args.scale, seed=0)
    contextualizer = None
    if args.contextualize or args.gamma > 0:
        if args.gamma > 0:
            contextualizer = ContextSequenceContextualizer(
                gamma=args.gamma, percentile=args.percentile
            )
        else:
            contextualizer = LFContextualizer(percentile=args.percentile)
    prior = dataset.label_prior
    session = replay_session(
        transcript,
        dataset,
        seed=args.seed,
        contextualizer=contextualizer,
        label_model_factory=lambda: make_label_model(args.label_model, class_prior=prior),
    )
    pipeline = "standard" if contextualizer is None else (
        f"context-sequence(gamma={args.gamma})" if args.gamma > 0 else "contextualized"
    )
    print(
        f"replayed {len(transcript)} recorded LFs on {dataset.name} "
        f"[pipeline={pipeline}, label_model={args.label_model}]"
    )
    print(f"test score = {session.test_score():.4f}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.serve import SessionManager, make_server

    if args.access_log:
        from repro.obs import attach_stderr_handler

        attach_stderr_handler()
    manager = SessionManager(
        args.root,
        snapshot_every=args.snapshot_every,
        keep_last=args.keep_last,
        max_age_seconds=args.max_age,
        max_live=args.max_live,
        idle_evict_seconds=args.idle_evict,
    )
    server = make_server(manager, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    stop_sweeper = threading.Event()
    if args.idle_evict is not None:
        # Touch-triggered eviction never fires on a quiet server; a
        # background sweeper keeps idle sessions from pinning memory.
        def sweep() -> None:
            while not stop_sweeper.wait(max(0.5, args.idle_evict / 2)):
                manager.evict()

        threading.Thread(target=sweep, name="idle-evict", daemon=True).start()
    # This exact line is the machine-readable handshake the serve smoke
    # test (and any wrapper script) parses to learn the bound port.
    print(f"serving sessions on http://{host}:{port} (root={manager.root})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        stop_sweeper.set()
        server.server_close()
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.serve.loadtest import LoadTestConfig, check_record, run_loadtest

    clients = args.clients
    sessions_per_client = args.sessions_per_client
    iterations = args.iterations
    output = args.output
    if args.quick:
        clients, sessions_per_client, iterations = 2, 1, 4
        if output == "BENCH_serve_latency.json":
            # A smoke run must not overwrite the committed full record.
            output = "BENCH_serve_latency.quick.json"
    config = LoadTestConfig(
        clients=clients,
        sessions_per_client=sessions_per_client,
        iterations=iterations,
        method=args.method,
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        snapshot_every=args.snapshot_every,
        max_live=args.max_live,
        idle_evict_seconds=args.idle_evict,
        url=args.url,
        quick=args.quick,
    )
    record = run_loadtest(config)
    problems = check_record(record)
    out = Path(output)
    out.write_text(_json.dumps(record, indent=2) + "\n")
    print(f"[loadtest] wrote {out}")
    for command, entry in record["latency_ms"].items():
        print(
            f"[loadtest]   {command:<8} n={entry['n']:<4} p50={entry['p50']}ms "
            f"p99={entry['p99']}ms max={entry['max']}ms"
        )
    if record.get("server_metrics"):
        sm = record["server_metrics"]
        print(
            f"[loadtest] server-side histograms "
            f"({sm['lost_commands_total']} lost command(s)):"
        )
        for command, entry in sm["commands"].items():
            print(
                f"[loadtest]   {command:<8} n={entry['server_count']:<4} "
                f"p50={entry['p50_ms']}ms p99={entry['p99_ms']}ms "
                f"transport={entry['transport_p50_ms']}ms"
            )
    if problems:
        print("[loadtest] record FAILED its own schema check:")
        for problem in problems:
            print(f"[loadtest]   - {problem}")
        return 1
    if args.quick:
        committed = Path("BENCH_serve_latency.json")
        if committed.exists():
            committed_problems = check_record(_json.loads(committed.read_text()))
            if committed_problems:
                print(f"[loadtest] committed record {committed} FAILED the schema check:")
                for problem in committed_problems:
                    print(f"[loadtest]   - {problem}")
                return 1
            print(f"[loadtest] committed record {committed} passes the schema check")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import ServeClientError, SessionClient

    client = SessionClient(args.url, timeout=args.timeout)
    try:
        if args.raw:
            sys.stdout.write(client.metrics())
            return 0
        status = client.statusz()
    except (ServeClientError, OSError) as exc:
        print(f"[metrics] cannot scrape {args.url}: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    if args.as_json:
        print(_json.dumps(status, indent=2))
        return 0
    sessions = status["sessions"]
    snapshots = status["snapshots"]
    print(f"server {args.url}  up {status['uptime_seconds']:.0f}s")
    print(
        f"sessions: {sessions['live']} live, {sessions['loading']} loading, "
        f"{sessions['stored']} stored, {sessions['open_interactions']} open "
        f"interaction(s); {sessions['created_total']} created, "
        f"{sessions['restored_total']} restored, {sessions['evicted_total']} "
        f"evicted, {sessions['restore_failures_total']} restore failure(s)"
    )
    print(
        f"snapshots: {snapshots['total']} written (cadence every "
        f"{snapshots['cadence_commits']} commits); {snapshots['dirty_sessions']} "
        f"dirty session(s), worst {snapshots['max_commits_since_snapshot']} "
        "commit(s) behind"
    )
    if status["commands"]:
        header = f"{'command':<10} {'count':>7} {'p50 ms':>9} {'p99 ms':>9}  outcomes"
        print(header)
        print("-" * len(header))
        for command, entry in sorted(status["commands"].items()):
            outcomes = ", ".join(
                f"{k}={v}" for k, v in sorted(entry["by_outcome"].items())
            )
            p50 = "-" if entry["p50_ms"] is None else f"{entry['p50_ms']:.2f}"
            p99 = "-" if entry["p99_ms"] is None else f"{entry['p99_ms']:.2f}"
            print(f"{command:<10} {entry['count']:>7} {p50:>9} {p99:>9}  {outcomes}")
    engine = status["engine"]
    if engine["commands"]:
        print(f"engine phases: {_phase_breakdown(engine['phase_seconds'])[1]}")
    if sum(engine["refits"].values()):
        refits = ", ".join(f"{k}={v}" for k, v in sorted(engine["refits"].items()))
        end_fits = ", ".join(f"{k}={v}" for k, v in sorted(engine["end_fits"].items()))
        print(f"refits: {refits}; end fits: {end_fits}")
        print(f"open-interval wall: {engine['open_interval_seconds']:.2f}s")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import default_rules, run_lint

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.name:<24} {rule.description}")
        return 0
    report = run_lint(paths=args.paths or None, root=args.root)
    if args.fmt == "json":
        print(report.to_json(), end="")
    else:
        for finding in report.findings:
            print(finding.format())
        n_sup = len(report.suppressed)
        print(
            f"[lint] {report.n_files} files checked: "
            f"{len(report.unsuppressed)} finding(s), {n_sup} suppressed"
        )
    if args.output:
        out = Path(args.output)
        out.write_text(report.to_json())
        if args.fmt != "json":
            print(f"[lint] findings artifact written to {out}")
    return report.exit_code


def cmd_sessions(args: argparse.Namespace) -> int:
    from repro.serve import SessionManager

    manager = SessionManager(args.root)
    infos = manager.sessions()
    if not infos:
        print(f"no sessions under {manager.root}")
        return 0
    header = f"{'name':<20} {'dataset':<10} {'method':<16} {'iter':>5} {'ckpts':>5} {'snapshot age':>12}"
    print(header)
    print("-" * len(header))
    for info in infos:
        age = info["last_snapshot_age_seconds"]
        age_s = "-" if age is None else f"{age:10.1f}s"
        iteration = info["iteration"]
        it_s = "?" if iteration is None else str(iteration)
        print(
            f"{info['name']:<20} {info['dataset']:<10} {info['method']:<16} "
            f"{it_s:>5} {info['n_checkpoints']:>5} {age_s:>12}"
        )
    return 0


COMMANDS = {
    "datasets": cmd_datasets,
    "run": cmd_run,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "replay": cmd_replay,
    "serve": cmd_serve,
    "loadtest": cmd_loadtest,
    "sessions": cmd_sessions,
    "metrics": cmd_metrics,
    "lint": cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=4, suppress=True)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
