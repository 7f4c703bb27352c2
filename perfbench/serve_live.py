"""The ``serve-live`` workload: live ``repro serve`` sessions over HTTP.

Two keep-alive client threads each drive several 30-iteration sessions
(``snorkel``/amazon/tiny, snapshot cadence 4) in a closed loop: a client
sends its next command only after the previous reply.  The server is
then restarted over the same root and every session is restored.  The
server, the clients, the submit rule and the ``/metrics`` reconciliation
all come from :mod:`repro.serve.loadtest`.

Times are rescaled by :mod:`perfbench.hostspeed` where they are CPU-bound:
``setup_s`` (process start, imports, dataset build) whole, and a turn or
session only beyond its transport time.  Transport, the loopback's 40 ms
delayed-ACK stall on every request, is a fixed timer that a slow host
does not stretch; it is measured as client time minus the server's own
request seconds over the same turns.  ``restore_p50_ms`` stays raw.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import arith, hostspeed
from perfbench.inproc import data_targets, proc_status_mb
from perfbench.metrics import SERVE_COMMANDS

CLIENTS = 2
ITERATIONS = 30
SETUPS = 2
MIN_RESTORES = 10
METHOD, DATASET, SCALE = "snorkel", "amazon", "tiny"
SNAPSHOT_EVERY = 4
#: One session per client per this many seconds of ``--seconds``.
SECONDS_PER_SESSION = 2.0
#: The tiny dataset every session serves is a fixed fixture; the seed
#: chooses each session's selection order and hence its LFs.
DATASET_SEED = 0
PHASES = ("select", "develop", "label_model", "end_model")
TURN_COMMANDS = ("propose", "submit", "decline")


@dataclass
class ClientStats:
    latencies: dict = field(default_factory=dict)  # command -> [seconds]
    turns: list = field(default_factory=list)
    sessions: dict = field(default_factory=dict)  # name -> {"session_s", "score"}
    attempted: int = 0
    failed: int = 0

    def timed(self, command: str, call):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:
            self.failed += 1
            raise
        self.latencies.setdefault(command, []).append(time.perf_counter() - t0)
        return result

    def merge(self, other: "ClientStats") -> None:
        for command, values in other.latencies.items():
            self.latencies.setdefault(command, []).extend(values)
        self.turns += other.turns
        self.sessions.update(other.sessions)
        self.attempted += other.attempted
        self.failed += other.failed


def drive_session(client, name: str, seed: int, stats: ClientStats) -> None:
    from repro.serve.loadtest import decide

    stats.timed(
        "create",
        lambda: client.create(
            name, method=METHOD, dataset=DATASET, scale=SCALE, seed=seed, dataset_seed=DATASET_SEED
        ),
    )
    used: set = set()
    t_start = time.perf_counter()
    for _ in range(ITERATIONS):
        t0 = time.perf_counter()
        proposal = stats.timed("propose", lambda: client.propose(name))
        t1 = time.perf_counter()
        choice = decide(proposal, used)
        t2 = time.perf_counter()
        if choice is None:
            stats.timed("decline", lambda: client.decline(name))
        else:
            stats.timed("submit", lambda: client.submit(name, *choice))
            used.add(choice)
        stats.turns.append((t1 - t0) + (time.perf_counter() - t2))
    wall = time.perf_counter() - t_start
    stats.timed("snapshot", lambda: client.snapshot(name))
    score = stats.timed("score", lambda: client.score(name))["test_score"]
    stats.sessions[name] = {"session_s": wall, "score": score, "seed": seed}


def _client_loop(url, jobs, stats: ClientStats, barrier) -> None:
    from repro.serve.client import SessionClient

    client = SessionClient(url, timeout=60.0)
    barrier.wait()
    try:
        for name, seed in jobs:
            try:
                drive_session(client, name, seed, stats)
            except Exception:  # counted by stats.timed; go on with the next
                continue
    finally:
        client.close()


def _newest_checkpoint(directory: Path) -> Path:
    return max(directory.glob("step-*.ckpt.npz"), key=lambda p: int(p.name[5:-9]))


def _timed_setups(server, seed: int, stats: ClientStats) -> tuple[list, list, str, float]:
    """Spawn the server ``SETUPS`` times; each setup runs until a first
    proposal is ready.  The last server stays up for the sessions.

    Returns (setup seconds, host-speed samples taken before each spawn and
    after the last, the last server's url, its RSS after setup).
    """
    from repro.serve.client import SessionClient

    setups, ref = [], []
    for i in range(SETUPS):
        ref.append(hostspeed.sample())
        setup = ClientStats()
        t0 = time.perf_counter()
        url = server.start()
        client = SessionClient(url, timeout=60.0)
        try:
            setup.timed(
                "create",
                lambda: client.create(
                    f"setup-{i}", method=METHOD, dataset=DATASET, scale=SCALE,
                    seed=seed, dataset_seed=DATASET_SEED,
                ),
            )
            setup.timed("propose", lambda: client.propose(f"setup-{i}"))
            setups.append(time.perf_counter() - t0)
        finally:
            client.close()
        if i < SETUPS - 1:
            server.stop()
            stats.attempted += setup.attempted
            stats.failed += setup.failed
        else:
            stats.merge(setup)  # the last server's histograms count these
    ref.append(hostspeed.sample())
    return setups, ref, url, proc_status_mb("VmRSS", server.proc.pid)


def _drive_clients(url: str, seed: int, per_client: int) -> ClientStats:
    """Both clients' closed loops, released together; their merged stats."""
    barrier = threading.Barrier(CLIENTS)
    per_stats = [ClientStats() for _ in range(CLIENTS)]
    threads = []
    for c in range(CLIENTS):
        jobs = [(f"c{c}-s{j}", seed * 1000 + c * 100 + j) for j in range(per_client)]
        thread = threading.Thread(
            target=_client_loop,
            args=(url, jobs, per_stats[c], barrier),
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    measured = ClientStats()
    for client_stats in per_stats:
        measured.merge(client_stats)
    return measured


def _restore_all(url: str, stats: ClientStats) -> tuple[list[float], bool]:
    """Touch one session untimed (it rebuilds the server's dataset cache),
    then time the first touch of every session and check its score."""
    from repro.serve.client import SessionClient

    restorer = SessionClient(url, timeout=60.0)
    restores, faithful = [], True
    try:
        stats.timed("info", lambda: restorer.info("setup-0"))
        for name, figures in sorted(stats.sessions.items()):
            t0 = time.perf_counter()
            stats.timed("info", lambda: restorer.info(name))
            restores.append(time.perf_counter() - t0)
            after = stats.timed("score", lambda: restorer.score(name))["test_score"]
            faithful &= after == figures["score"]
    finally:
        restorer.close()
    return restores, faithful


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, ctx) -> dict:
    """One run of ``serve-live``; returns the run's raw figures."""
    from perfbench.spans import Tracer
    from repro.obs import parse_prometheus_text
    from repro.serve.client import SessionClient
    from repro.serve.loadtest import LoadTestConfig, SpawnedServer, scrape_server_metrics

    per_client = max(
        math.ceil(MIN_RESTORES / CLIENTS), 0 if smoke else round(seconds / SECONDS_PER_SESSION)
    )
    root = ctx.workdir / "sessions"
    server = SpawnedServer(root, LoadTestConfig(snapshot_every=SNAPSHOT_EVERY))
    tracer = Tracer() if trace else None
    stats = ClientStats()
    checks: dict = {}
    try:
        server.start()  # warm-up spawn: page cache, not timed
        server.stop()
        setups, ref, url, rss_after_setup_mb = _timed_setups(server, seed, stats)
        scraper = SessionClient(url, timeout=60.0)
        try:
            before = parse_prometheus_text(scraper.metrics())
            measured = _drive_clients(url, seed, per_client)
            ref.append(hostspeed.sample())
            stats.merge(measured)
            exposition = scraper.metrics()
            scraped = scrape_server_metrics(exposition, scraper.statusz(), stats.latencies)
        finally:
            scraper.close()
        peak_rss_mb = proc_status_mb("VmHWM", server.proc.pid)
        restores, faithful = _restore_all(server.restart(), stats)
    finally:
        server.stop()

    local = read_back(root, stats.sessions, ctx.workdir, tracer)
    checks["no_failures"] = stats.failed == 0 and len(stats.sessions) == CLIENTS * per_client
    checks["no_lost_commands"] = scraped["lost_commands_total"] == 0
    checks["restore_fidelity"] = faithful and local["faithful"]
    checks["quality_in_range"] = all(
        0.0 < f["score"] <= 1.0 and 0.0 <= q["lm_acc"] <= 1.0
        for f, q in zip(stats.sessions.values(), local["quality"])
    )
    checks["enough_samples"] = len(restores) >= MIN_RESTORES
    out = {"attempted": stats.attempted, "failed": stats.failed, "checks": checks}
    if not stats.sessions or not checks["enough_samples"]:
        return out
    tail = arith.tail(stats.turns)
    sessions = stats.sessions.values()
    # Only what the measured sessions did: the setup sessions' commands
    # are in the scrape taken before the clients started.
    after = parse_prometheus_text(exposition)
    delta = {key: value - before.get(key, 0.0) for key, value in after.items()}
    handler_s = sum(
        delta.get(f'repro_http_request_seconds_sum{{command="{c}"}}', 0.0) for c in TURN_COMMANDS
    )
    transport_s = (sum(measured.turns) - handler_s) / len(measured.turns)
    host_scale = hostspeed.scale(ref)
    raw = {
        "setup_s": arith.median(setups),
        "session_s": arith.median([f["session_s"] for f in sessions]),
        "turn_p50_s": arith.median(stats.turns),
        "turn_tail_s": tail["value"],
    }
    out["values"] = {
        "setup_s": raw["setup_s"] * host_scale,
        "session_s": arith.rescale_beyond(raw["session_s"], ITERATIONS * transport_s, host_scale),
        "turn_p50_ms": 1000.0 * arith.rescale_beyond(raw["turn_p50_s"], transport_s, host_scale),
        "turn_tail_ms": 1000.0 * arith.rescale_beyond(raw["turn_tail_s"], transport_s, host_scale),
        "restore_p50_ms": 1000.0 * arith.median(restores),
        "peak_rss_mb": peak_rss_mb,
        "test_score": arith.mean([f["score"] for f in sessions]),
        "lm_acc": arith.mean([q["lm_acc"] for q in local["quality"]]),
        "mv_gap": arith.mean([q["mv_gap"] for q in local["quality"]]),
        "ok_ratio": (stats.attempted - stats.failed) / stats.attempted,
    }
    out["raw_timings"] = raw
    out["host_scale"] = host_scale
    out["transport_per_turn_ms"] = 1000.0 * transport_s
    out["tail"] = {k: tail[k] for k in ("percentile", "n", "beyond")}
    out["sessions"] = len(stats.sessions)
    out["restores"] = len(restores)
    out["server_metrics"] = scraped["commands"]
    if trace:
        out["layers"] = {
            **server_layers(delta, scraped, measured, len(sessions)),
            **local["layers"],
            "memory.rss_after_setup_mb": rss_after_setup_mb,
            # The server is not traced: its per-layer figures come from the
            # always-on /metrics, so tracing adds nothing to its sessions.
            "obs.trace_overhead_pct": 0.0,
            "quality.mv_gap": out["values"]["mv_gap"],
        }
    return out


def server_layers(samples: dict, scraped: dict, stats: ClientStats, n_sessions: int) -> dict:
    """Per-layer figures from the server's ``/metrics`` samples.

    ``samples`` and ``stats`` cover the same commands: those of the
    measured sessions.  Server time per command is exact, the histogram's
    sum over its count; its buckets are too coarse for a propose that
    takes well under their first bound of 1 ms.
    """

    def sample(metric: str, **labels) -> float:
        if labels:
            metric += "{" + ",".join(f'{k}="{v}"' for k, v in labels.items()) + "}"
        return float(samples.get(metric, 0.0))

    proposes = sample("repro_engine_commands_total", command="propose")
    refits = {p: sample("repro_engine_refits_total", path=p) for p in ("warm", "cold")}
    all_refits = sum(refits.values())
    phases = {p: sample("repro_engine_phase_seconds_total", phase=p) for p in PHASES}
    turn_server_s = sum(
        sample("repro_http_request_seconds_sum", command=c) for c in TURN_COMMANDS
    )
    latch_n = sample("repro_serve_latch_wait_seconds_count")
    values = {
        "selection.select_ms": 1000.0 * phases["select"] / proposes if proposes else 0.0,
        "contextualizer.ms": (
            1000.0 * sample("repro_engine_phase_seconds_total", phase="contextualize") / all_refits
            if all_refits
            else 0.0
        ),
        "endmodel.fit_ms": 1000.0 * phases["end_model"] / all_refits if all_refits else 0.0,
        "engine.self_ms": 1000.0 * (turn_server_s - sum(phases.values())) / len(stats.turns),
        "serve.latch_wait_ms": (
            1000.0 * sample("repro_serve_latch_wait_seconds_sum") / latch_n if latch_n else 0.0
        ),
        "serve.lost_commands": float(scraped["lost_commands_total"]),
    }
    for path, n in refits.items():
        fit_s = sample("repro_labelmodel_fit_seconds_total", path=path)
        iters = sample("repro_labelmodel_em_iterations_total", path=path)
        values[f"labelmodel.fit_ms.{path}"] = 1000.0 * fit_s / n if n else 0.0
        values[f"labelmodel.em_iters.{path}"] = iters / n if n else 0.0
        values[f"labelmodel.refits.{path}"] = n / n_sessions
    for command in SERVE_COMMANDS:
        n = sample("repro_http_request_seconds_count", command=command)
        server_s = sample("repro_http_request_seconds_sum", command=command)
        server_ms = 1000.0 * server_s / n if n else 0.0
        client_ms = 1000.0 * arith.mean(stats.latencies.get(command, [0.0]))
        values[f"serve.server_ms.{command}"] = server_ms
        values[f"serve.transport_ms.{command}"] = arith.transport_ms(client_ms, server_ms)
    return values


def read_back(root: Path, sessions: dict, workdir: Path, tracer) -> dict:
    """Restore each session's newest snapshot into a session built here.

    Checks that the snapshot reproduces the score the server reported,
    reads label-model quality from it, and times the checkpoint layer on
    the server's own payloads.
    """
    from repro.data.named import load_named_dataset
    from repro.experiments.registry import resolve_factory
    from repro.io.checkpoint import load_session_checkpoint, save_session_checkpoint

    with tracer.installed(data_targets()) if tracer is not None else nullcontext():
        dataset = load_named_dataset(DATASET, scale=SCALE, seed=DATASET_SEED)
    factory = resolve_factory(METHOD, DATASET, 0.5)
    faithful, quality, loads, saves, sizes = True, [], [], [], []
    for name, figures in sessions.items():
        path = _newest_checkpoint(root / name)
        session = factory(dataset, figures["seed"])
        t0 = time.perf_counter()
        load_session_checkpoint(session, path)
        loads.append(time.perf_counter() - t0)
        faithful &= session.test_score() == figures["score"]
        quality.append(
            arith.quality(session.L_train, session.soft_labels, dataset.train.y, (-1, 1))
        )
        t0 = time.perf_counter()
        save_session_checkpoint(session, workdir / "readback.npz")
        saves.append(time.perf_counter() - t0)
        sizes.append(path.stat().st_size)
    layers = {}
    if tracer is not None:
        layers = {
            "data.generate_s": tracer.total_s("data.generate"),
            "data.featurize_s": tracer.total_s("data.featurize"),
        }
    if sessions:
        layers.update(
            {
                "checkpoint.load_ms": 1000.0 * arith.median(loads),
                "checkpoint.save_ms": 1000.0 * arith.median(saves),
                "checkpoint.bytes": arith.median(sizes),
            }
        )
    return {
        "faithful": faithful and bool(sessions),
        "quality": quality,
        "layers": layers,
    }
