"""``repro loadtest`` — N concurrent clients hammering a live session server.

The serve path's performance ledger: spawn (or target) a ``repro serve``
server, drive ``--clients`` concurrent client threads through full
create → propose → submit/decline → score session lifecycles over real
HTTP, and report per-command latency percentiles (p50/p99), sessions/sec,
commands/sec, and error counts.  The record is written as JSON
(``BENCH_serve_latency.json`` when regenerating the committed ledger) and
schema-gated by :func:`check_record` — run by the tier-1 test
``tests/test_bench_serve_record.py`` against the committed record and by
the CI smoke after a ``--quick`` run, the same validation pattern as the
session- and sweep-throughput benchmarks.

When the harness spawned the server itself it also measures the
*cold-start storm*: the server is stopped and restarted over the same
root, then every client's first touch lands at once, forcing concurrent
lazy restores.  ``cold_start.parallel_speedup`` is the sum of individual
first-touch latencies over the storm's wall clock — above 1 means
restores overlapped (the per-name loading latches at work; the hard
guarantee that K distinct restores run concurrently is pinned by
``tests/serve/test_concurrency.py``, which injects a deterministic delay).

Each client decides submissions with a deterministic pure function of the
proposal (the serve-smoke rule), so runs are reproducible command-for-
command and every error in the report is a real serve-path defect, not
client noise.

Before the warm phase's server is restarted for the cold storm, the
harness scrapes ``GET /metrics`` and ``GET /statusz`` and cross-checks
the server's own per-command request histograms against the client-side
command totals — ``server_metrics`` in the record carries the server's
p50/p99 alongside the client numbers, and the schema gate requires zero
lost commands (every client-counted success accounted server-side).  The
server accounts a request before sending its response, so that count is
exact even when the scrape follows the last reply immediately.  The gate
also bounds propose's transport residual (client p50 minus server p50),
which catches a response path that stalls on the network.

Usage::

    PYTHONPATH=src python -m repro loadtest                # full run
    PYTHONPATH=src python -m repro loadtest --quick        # CI smoke
    PYTHONPATH=src python -m repro loadtest --url http://host:port
"""

from __future__ import annotations

import math
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs import parse_prometheus_text
from repro.serve.client import ServeClientError, SessionClient

SCHEMA_VERSION = 2

#: Commands the schema requires latency aggregates for (a full lifecycle
#: always issues these; ``decline`` appears only when the rule declines).
REQUIRED_COMMANDS = ("create", "propose", "submit", "score")

#: Ceiling on propose's transport residual (client p50 minus server p50).
#: Propose's server time is under a millisecond, so the residual is the
#: network path itself: a few ms on loopback, while a response held back
#: by Nagle's algorithm until the client's delayed ACK adds 40 ms or more.
MAX_PROPOSE_TRANSPORT_MS = 30.0


# --------------------------------------------------------------------- #
# record validation (the tier-1 schema gate)
# --------------------------------------------------------------------- #
def check_record(record: dict) -> list[str]:
    """Validate a loadtest record's shape; returns problems (empty = OK).

    Run by ``tests/test_bench_serve_record.py`` against the committed
    ``BENCH_serve_latency.json`` and by the CI smoke after ``--quick``.
    """
    problems: list[str] = []
    for key in (
        "benchmark",
        "schema_version",
        "quick",
        "machine",
        "config",
        "server",
        "wall_seconds",
        "sessions_total",
        "sessions_per_second",
        "commands_total",
        "commands_per_second",
        "errors",
        "latency_ms",
        "server_metrics",
        "cold_start",
    ):
        if key not in record:
            problems.append(f"record missing key {key!r}")
    if problems:
        return problems
    if record["benchmark"] != "serve_latency":
        problems.append(f"unexpected benchmark tag {record['benchmark']!r}")
    if record["schema_version"] != SCHEMA_VERSION:
        problems.append(f"schema_version {record['schema_version']!r} != {SCHEMA_VERSION}")
    machine = record["machine"]
    for key in ("platform", "python", "cpu_count"):
        if key not in machine:
            problems.append(f"machine missing key {key!r}")
    config = record["config"]
    for key in ("clients", "sessions_per_client", "iterations", "method", "dataset"):
        if key not in config:
            problems.append(f"config missing key {key!r}")
    if config.get("clients", 0) < 2:
        problems.append("config.clients must be >= 2 (a loadtest is multi-client)")
    if not isinstance(record["wall_seconds"], (int, float)) or record["wall_seconds"] <= 0:
        problems.append("wall_seconds must be a positive number")
    if record["sessions_total"] < 2:
        problems.append("sessions_total must be >= 2")
    for key in ("sessions_per_second", "commands_per_second"):
        if not isinstance(record[key], (int, float)) or record[key] <= 0:
            problems.append(f"{key} must be a positive number")
    errors = record["errors"]
    if "total" not in errors or "by_kind" not in errors:
        problems.append("errors must carry 'total' and 'by_kind'")
    elif errors["total"] != 0:
        problems.append(
            f"record has {errors['total']} command error(s): {errors['by_kind']}"
        )
    latency = record["latency_ms"]
    for command in REQUIRED_COMMANDS:
        entry = latency.get(command)
        if not isinstance(entry, dict):
            problems.append(f"latency_ms missing command {command!r}")
            continue
        for key in ("n", "mean", "p50", "p99", "max"):
            if key not in entry:
                problems.append(f"latency_ms[{command!r}] missing {key!r}")
        if entry.get("n", 0) < 1:
            problems.append(f"latency_ms[{command!r}].n must be >= 1")
        p50, p99, peak = entry.get("p50", 0), entry.get("p99", 0), entry.get("max", 0)
        if not (0 < p50 <= p99 <= peak):
            problems.append(
                f"latency_ms[{command!r}] percentiles out of order: "
                f"p50={p50} p99={p99} max={peak}"
            )
    server_metrics = record["server_metrics"]
    if server_metrics is None:
        if record["server"].get("spawned"):
            problems.append("a spawned-server record must include server_metrics")
    else:
        if "commands" not in server_metrics or "lost_commands_total" not in server_metrics:
            problems.append("server_metrics must carry 'commands' and 'lost_commands_total'")
        else:
            # The cross-check that makes the client percentiles trustworthy:
            # the server's own request histograms must account for every
            # command the clients counted as successful — zero lost.
            if server_metrics["lost_commands_total"] != 0:
                problems.append(
                    f"server histograms lost "
                    f"{server_metrics['lost_commands_total']} command(s) vs "
                    "client totals"
                )
            for command in REQUIRED_COMMANDS:
                entry = server_metrics["commands"].get(command)
                if not isinstance(entry, dict):
                    problems.append(f"server_metrics.commands missing {command!r}")
                    continue
                for key in (
                    "server_count",
                    "client_count",
                    "lost",
                    "p50_ms",
                    "p99_ms",
                    "transport_p50_ms",
                ):
                    if key not in entry:
                        problems.append(
                            f"server_metrics.commands[{command!r}] missing {key!r}"
                        )
                if entry.get("lost", 0) != 0:
                    problems.append(
                        f"server_metrics.commands[{command!r}] lost "
                        f"{entry.get('lost')} command(s)"
                    )
                p50, p99 = entry.get("p50_ms"), entry.get("p99_ms")
                if not (
                    isinstance(p50, (int, float))
                    and isinstance(p99, (int, float))
                    and 0 < p50 <= p99
                ):
                    problems.append(
                        f"server_metrics.commands[{command!r}] percentiles invalid: "
                        f"p50={p50} p99={p99}"
                    )
            transport = server_metrics["commands"].get("propose", {}).get("transport_p50_ms")
            if not (
                isinstance(transport, (int, float))
                and transport < MAX_PROPOSE_TRANSPORT_MS
            ):
                problems.append(
                    f"propose transport residual {transport} ms is not below "
                    f"{MAX_PROPOSE_TRANSPORT_MS} ms (client p50 minus server p50); "
                    "responses are stalling on the network path"
                )
    cold = record["cold_start"]
    if cold is not None:
        for key in ("sessions", "wall_seconds", "sum_touch_seconds", "parallel_speedup"):
            if key not in cold:
                problems.append(f"cold_start missing key {key!r}")
        if cold.get("sessions", 0) < 2:
            problems.append("cold_start.sessions must be >= 2")
        if cold.get("parallel_speedup", 0) <= 0:
            problems.append("cold_start.parallel_speedup must be positive")
    elif record["server"].get("spawned"):
        problems.append("a spawned-server record must include the cold_start phase")
    return problems


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #
@dataclass
class LoadTestConfig:
    """One loadtest run: concurrency shape, per-session work, target."""

    clients: int = 8
    sessions_per_client: int = 2
    iterations: int = 8
    method: str = "snorkel"
    dataset: str = "amazon"
    scale: str = "tiny"
    seed: int = 0
    snapshot_every: int = 4
    max_live: int | None = None
    idle_evict_seconds: float | None = None
    url: str | None = None  # external server; None = spawn one
    timeout: float = 120.0
    quick: bool = False

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.sessions_per_client < 1:
            raise ValueError(
                f"sessions_per_client must be >= 1, got {self.sessions_per_client}"
            )
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


# --------------------------------------------------------------------- #
# server lifecycle (spawned-server mode)
# --------------------------------------------------------------------- #
class SpawnedServer:
    """A ``repro serve`` subprocess bound to a root, restartable in place."""

    def __init__(self, root: Path, config: LoadTestConfig) -> None:
        self.root = root
        self.config = config
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None

    def start(self) -> str:
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--root",
            str(self.root),
            "--port",
            "0",
            "--snapshot-every",
            str(self.config.snapshot_every),
        ]
        if self.config.max_live is not None:
            argv += ["--max-live", str(self.config.max_live)]
        if self.config.idle_evict_seconds is not None:
            argv += ["--idle-evict", str(self.config.idle_evict_seconds)]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
        line = self.proc.stdout.readline()
        if "serving sessions on http://" not in line:
            raise RuntimeError(f"unexpected server handshake: {line!r}")
        self.url = line.split("serving sessions on ", 1)[1].split(" ", 1)[0]
        client = SessionClient(self.url, timeout=self.config.timeout)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                client.health()
                client.close()
                return self.url
            except (ServeClientError, OSError):
                if time.monotonic() > deadline:
                    raise RuntimeError("spawned server never became healthy") from None
                time.sleep(0.05)

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait()
        self.proc = None

    def restart(self) -> str:
        self.stop()
        return self.start()


# --------------------------------------------------------------------- #
# the client side: deterministic per-session drivers
# --------------------------------------------------------------------- #
def decide(proposal: dict, used: set[tuple[str, int]]):
    """Deterministic pure function of (proposal, submitted-so-far).

    The serve-smoke rule: submit the lexicographically smallest unused
    primitive of the shown example, labelled by token-length parity (so
    both classes appear and the curve moves), or decline.
    """
    if proposal["dev_index"] is None:
        return None
    for token in sorted(proposal["primitives"]):
        label = 1 if len(token) % 2 == 0 else -1
        if (token, label) not in used:
            return token, label
    return None


@dataclass
class _WorkerStats:
    """One client thread's measurements, merged after the join."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    sessions_done: int = 0
    commands: int = 0

    def timed(self, command: str, call):
        t0 = time.perf_counter()
        try:
            result = call()
        except ServeClientError as exc:
            kind = f"{command}:http_{exc.status}"
            self.errors[kind] = self.errors.get(kind, 0) + 1
            raise
        except OSError as exc:
            kind = f"{command}:{type(exc).__name__}"
            self.errors[kind] = self.errors.get(kind, 0) + 1
            raise
        self.latencies.setdefault(command, []).append(time.perf_counter() - t0)
        self.commands += 1
        return result


def _drive_session(client: SessionClient, name: str, config: LoadTestConfig, stats: _WorkerStats) -> None:
    """One full lifecycle: create, iterate to the target, score."""
    stats.timed(
        "create",
        lambda: client.create(
            name,
            method=config.method,
            dataset=config.dataset,
            scale=config.scale,
            seed=config.seed,
        ),
    )
    used: set[tuple[str, int]] = set()
    for _ in range(config.iterations):
        proposal = stats.timed("propose", lambda: client.propose(name))
        choice = decide(proposal, used)
        if choice is None:
            stats.timed("decline", lambda: client.decline(name))
        else:
            token, label = choice
            stats.timed("submit", lambda: client.submit(name, token, label))
            used.add((token, label))
    stats.timed("score", lambda: client.score(name))
    stats.sessions_done += 1


def _worker(
    index: int,
    url: str,
    run_tag: str,
    config: LoadTestConfig,
    barrier: threading.Barrier,
    stats: _WorkerStats,
) -> None:
    client = SessionClient(url, timeout=config.timeout)
    barrier.wait()
    try:
        for s in range(config.sessions_per_client):
            name = f"lt-{run_tag}-c{index}-s{s}"
            try:
                _drive_session(client, name, config, stats)
            except (ServeClientError, OSError):
                continue  # counted by stats.timed; move to the next session
    finally:
        client.close()


def _cold_toucher(
    url: str,
    name: str,
    config: LoadTestConfig,
    barrier: threading.Barrier,
    out: list,
) -> None:
    client = SessionClient(url, timeout=config.timeout)
    barrier.wait()
    t0 = time.perf_counter()
    try:
        client.info(name)
        out.append(time.perf_counter() - t0)
    except (ServeClientError, OSError):
        out.append(None)
    finally:
        client.close()


# --------------------------------------------------------------------- #
# server-side cross-check (ENGINE.md §9)
# --------------------------------------------------------------------- #
def _bucket_quantile_ms(buckets: list[tuple[float, float]], total: float, q: float):
    """Bucket-interpolated quantile (ms) from cumulative (le, count) pairs."""
    if total <= 0 or not buckets:
        return None
    rank = q * total
    prev_le, prev_cum = 0.0, 0.0
    for le, cum in buckets:
        if cum >= rank:
            hi = prev_le if le == math.inf else le
            span = cum - prev_cum
            if span <= 0:
                return round(hi * 1000.0, 3)
            frac = min(max((rank - prev_cum) / span, 0.0), 1.0)
            return round((prev_le + (hi - prev_le) * frac) * 1000.0, 3)
        if le != math.inf:
            prev_le = le
        prev_cum = cum
    return round(prev_le * 1000.0, 3)


def scrape_server_metrics(
    text: str, statusz: dict, latencies: dict[str, list[float]]
) -> dict:
    """Reconcile a ``/metrics`` scrape against client-side command counts.

    For every command the clients measured, compare the client's success
    count with the server's ``repro_http_requests_total`` 200-count and
    estimate server-side p50/p99 from the scraped
    ``repro_http_request_seconds`` buckets.  ``lost`` > 0 anywhere means
    the server's accounting funnel dropped a command — the invariant the
    schema gate enforces at zero.  ``transport_p50_ms`` is the client p50
    minus that server p50 over the same requests: the time a command
    spends outside the handler (connection, kernel, client parsing).
    """
    samples = parse_prometheus_text(text)
    commands = {}
    lost_total = 0
    for command, values in sorted(latencies.items()):
        client_n = len(values)
        server_n = int(
            samples.get(
                f'repro_http_requests_total{{command="{command}",outcome="200"}}', 0
            )
        )
        prefix = f'repro_http_request_seconds_bucket{{command="{command}",le="'
        buckets = sorted(
            (
                math.inf if key[len(prefix) : -2] == "+Inf" else float(key[len(prefix) : -2]),
                value,
            )
            for key, value in samples.items()
            if key.startswith(prefix)
        )
        total = samples.get(f'repro_http_request_seconds_count{{command="{command}"}}', 0)
        lost = client_n - server_n
        lost_total += max(lost, 0)
        server_p50 = _bucket_quantile_ms(buckets, total, 0.5)
        client_p50 = float(np.percentile(values, 50)) * 1000.0
        commands[command] = {
            "client_count": client_n,
            "server_count": server_n,
            "lost": lost,
            "p50_ms": server_p50,
            "p99_ms": _bucket_quantile_ms(buckets, total, 0.99),
            "transport_p50_ms": (
                None if server_p50 is None else round(client_p50 - server_p50, 3)
            ),
        }
    return {
        "commands": commands,
        "lost_commands_total": lost_total,
        "sessions": statusz.get("sessions"),
        "engine": statusz.get("engine"),
    }


# --------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------- #
def _aggregate_latency(latencies: dict[str, list[float]]) -> dict[str, dict]:
    aggregated = {}
    for command, values in sorted(latencies.items()):
        ms = np.asarray(values) * 1000.0
        aggregated[command] = {
            "n": int(ms.size),
            "mean": round(float(ms.mean()), 3),
            "p50": round(float(np.percentile(ms, 50)), 3),
            "p99": round(float(np.percentile(ms, 99)), 3),
            "max": round(float(ms.max()), 3),
        }
    return aggregated


# --------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------- #
def run_loadtest(config: LoadTestConfig, log=print) -> dict:
    """Run the loadtest; returns the (already schema-valid) record."""
    run_tag = f"{os.getpid()}-{int(time.time())}"
    server: SpawnedServer | None = None
    tmp: tempfile.TemporaryDirectory | None = None
    if config.url is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro_loadtest_")
        server = SpawnedServer(Path(tmp.name) / "sessions", config)
        url = server.start()
        log(f"[loadtest] spawned server at {url} (root={server.root})")
    else:
        url = config.url
        log(f"[loadtest] targeting external server at {url}")

    try:
        # ---- warm phase: concurrent session lifecycles ---------------- #
        n_sessions = config.clients * config.sessions_per_client
        log(
            f"[loadtest] {config.clients} clients x {config.sessions_per_client} "
            f"sessions x {config.iterations} iterations "
            f"({config.method}/{config.dataset}/{config.scale})"
        )
        barrier = threading.Barrier(config.clients + 1)
        workers: list[tuple[threading.Thread, _WorkerStats]] = []
        for index in range(config.clients):
            stats = _WorkerStats()
            thread = threading.Thread(
                target=_worker,
                args=(index, url, run_tag, config, barrier, stats),
                daemon=True,
            )
            thread.start()
            workers.append((thread, stats))
        barrier.wait()  # release every client at once
        t0 = time.perf_counter()
        for thread, _ in workers:
            thread.join()
        wall = time.perf_counter() - t0

        latencies: dict[str, list[float]] = {}
        errors: dict[str, int] = {}
        sessions_done = commands = 0
        for _, stats in workers:
            for command, values in stats.latencies.items():
                latencies.setdefault(command, []).extend(values)
            for kind, count in stats.errors.items():
                errors[kind] = errors.get(kind, 0) + count
            sessions_done += stats.sessions_done
            commands += stats.commands
        n_errors = sum(errors.values())
        log(
            f"[loadtest] warm: {sessions_done}/{n_sessions} sessions, "
            f"{commands} commands in {wall:.2f}s "
            f"({commands / wall:.1f} cmd/s), {n_errors} errors"
        )

        # ---- server-side cross-check (before the restart resets it) --- #
        server_metrics = None
        try:
            scraper = SessionClient(url, timeout=config.timeout)
            exposition = scraper.metrics()
            statusz = scraper.statusz()
            scraper.close()
            server_metrics = scrape_server_metrics(exposition, statusz, latencies)
            log(
                f"[loadtest] server cross-check: "
                f"{server_metrics['lost_commands_total']} lost command(s) "
                f"across {len(server_metrics['commands'])} command kind(s)"
            )
        except (ServeClientError, OSError) as exc:
            log(f"[loadtest] WARNING: /metrics scrape failed: {exc}")

        # ---- cold phase: restart, then a concurrent first-touch storm - #
        cold = None
        if server is not None:
            url = server.restart()
            touch_names = [f"lt-{run_tag}-c{i}-s0" for i in range(config.clients)]
            cold_barrier = threading.Barrier(config.clients + 1)
            outs: list[list] = [[] for _ in touch_names]
            threads = [
                threading.Thread(
                    target=_cold_toucher,
                    args=(url, name, config, cold_barrier, out),
                    daemon=True,
                )
                for name, out in zip(touch_names, outs)
            ]
            for thread in threads:
                thread.start()
            cold_barrier.wait()
            t0 = time.perf_counter()
            for thread in threads:
                thread.join()
            cold_wall = time.perf_counter() - t0
            touches = [out[0] for out in outs if out and out[0] is not None]
            cold_errors = len(outs) - len(touches)
            sum_touch = float(sum(touches))
            cold = {
                "sessions": len(touches),
                "wall_seconds": round(cold_wall, 4),
                "sum_touch_seconds": round(sum_touch, 4),
                "parallel_speedup": round(sum_touch / cold_wall, 3) if cold_wall > 0 else 0.0,
                "errors": cold_errors,
            }
            log(
                f"[loadtest] cold-start storm: {len(touches)} concurrent restores "
                f"in {cold_wall:.2f}s wall vs {sum_touch:.2f}s summed "
                f"({cold['parallel_speedup']}x overlap)"
            )
    finally:
        if server is not None:
            server.stop()
        if tmp is not None:
            tmp.cleanup()

    return {
        "benchmark": "serve_latency",
        "schema_version": SCHEMA_VERSION,
        "quick": bool(config.quick),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count() or 1,
        },
        "config": {
            "clients": config.clients,
            "sessions_per_client": config.sessions_per_client,
            "iterations": config.iterations,
            "method": config.method,
            "dataset": config.dataset,
            "scale": config.scale,
            "seed": config.seed,
        },
        "server": {
            "spawned": server is not None,
            "snapshot_every": config.snapshot_every,
            "max_live": config.max_live,
            "idle_evict_seconds": config.idle_evict_seconds,
        },
        "wall_seconds": round(wall, 3),
        "sessions_total": sessions_done,
        "sessions_per_second": round(sessions_done / wall, 3),
        "commands_total": commands,
        "commands_per_second": round(commands / wall, 3),
        "errors": {"total": n_errors, "by_kind": errors},
        "latency_ms": _aggregate_latency(latencies),
        "server_metrics": server_metrics,
        "cold_start": cold,
    }
