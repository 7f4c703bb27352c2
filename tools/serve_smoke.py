"""CI smoke for the serve layer: SIGKILL a live session server, restart, verify.

Exercises the full serve-path durability story end-to-end over real HTTP,
for a binary session (``snorkel``/amazon) and a K-class one
(``snorkel-mc``/topics), both served by the one session class:

1. start ``repro serve`` as a subprocess and drive a session through the
   propose/submit protocol with a *deterministic* client rule (a pure
   function of each proposal), recording the score curve;
2. SIGKILL the server mid-session, past the last periodic snapshot, so
   un-snapshotted commits are genuinely lost;
3. restart the server over the same root, confirm it resumed from the
   latest **rotated** snapshot, replay the lost iterations with the same
   client rule, and finish the curve;
4. assert the killed-and-restored curve (including the re-recorded
   points) is bit-identical to an uninterrupted reference run of the
   same client against a fresh server, that the newest snapshot of both
   roots has the same name and the same bytes (checkpoints carry no
   clock readings), and that rotation kept only ``--keep-last``
   snapshots;
5. scrape ``/metrics`` twice during the reference run and schema-check
   the exposition (non-empty, expected metric families present, counters
   monotonic across scrapes, ``/statusz`` command counts populated).
   When ``SERVE_SMOKE_METRICS_OUT`` is set, the final metrics + statusz
   snapshot is written there as JSON (CI uploads it as an artifact) — the
   binary reference run only;
6. right after the reference run's last command, with no sleep or poll,
   scrape ``/metrics`` and require that every command the client saw
   succeed has exactly that many 200s server-side — the server accounts
   a request before it sends the response.

Exit code 0 on success; prints the failed assertion otherwise.

Run:  PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.obs import parse_prometheus_text  # noqa: E402
from repro.serve import ServeClientError, SessionClient  # noqa: E402

SESSION = "smoke"
CFG = dict(method="snorkel", dataset="amazon", scale="tiny", seed=17)
MC_CFG = dict(method="snorkel-mc", dataset="topics", scale="tiny", seed=17)
N_ITERATIONS = 12
EVAL_EVERY = 3
SNAPSHOT_EVERY = 2
KEEP_LAST = 2
KILL_AFTER = 7  # snapshots land at 2,4,6 — commit 7 must be lost


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"[serve-smoke] FAILED: {message}")
        raise SystemExit(1)


def command_label(method: str, path: str) -> str:
    """The server's metrics label for a request (``serve/http.py``)."""
    parts = [p for p in path.split("/") if p]
    if parts[0] != "sessions":
        return parts[0]
    if len(parts) == 1:
        return "list" if method == "GET" else "create"
    return "info" if len(parts) == 2 else parts[2]


class CountingClient(SessionClient):
    """A client that counts the commands it saw succeed, by metrics label."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        super().__init__(base_url, timeout=timeout)
        self.succeeded: Counter[str] = Counter()

    def _request_raw(self, method: str, path: str, body: dict | None = None):
        result = super()._request_raw(method, path, body)
        self.succeeded[command_label(method, path)] += 1
        return result


def start_server(root: Path) -> tuple[subprocess.Popen, CountingClient]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--root",
            str(root),
            "--port",
            "0",
            "--snapshot-every",
            str(SNAPSHOT_EVERY),
            "--keep-last",
            str(KEEP_LAST),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()  # the CLI's handshake line carries the port
    check(
        "serving sessions on http://" in line,
        f"unexpected server handshake: {line!r}",
    )
    url = line.split("serving sessions on ", 1)[1].split(" ", 1)[0]
    client = CountingClient(url, timeout=60.0)
    deadline = time.monotonic() + 30.0
    while True:
        try:
            client.health()
            return proc, client
        except (ServeClientError, OSError):
            check(time.monotonic() < deadline, "server never became healthy")
            time.sleep(0.1)


def client_rule(proposal: dict, used: set[tuple[str, int]], labels: tuple[int, ...]):
    """Deterministic pure function of (proposal, submitted-so-far).

    Submits the lexicographically smallest unused primitive of the shown
    example — labelled ``labels[len(token) % len(labels)]`` (binary: +1 for
    even token lengths, −1 for odd; K classes: ``len(token) % K``) so the
    vote matrix carries several classes and the score curve actually moves
    — or declines.  Any replay of the same proposal stream reproduces the
    same commands bit-for-bit.
    """
    if proposal["dev_index"] is None:
        return None
    for token in sorted(proposal["primitives"]):
        label = labels[len(token) % len(labels)]
        if (token, label) not in used:
            return token, label
    return None


def drive(
    client: SessionClient, curve: dict, labels: tuple[int, ...], kill_proc=None
) -> None:
    """Drive SESSION to N_ITERATIONS; record (and cross-check) the curve.

    Starts from whatever iteration the server reports — after a restart
    that is the restored snapshot, and the lost iterations are replayed.
    Re-recorded evaluation points must equal what the first pass saw.
    """
    info = client.info(SESSION)
    iteration = info["iteration"]
    used = {(lf["primitive"], lf["label"]) for lf in info["lfs"]}
    while iteration < N_ITERATIONS:
        proposal = client.propose(SESSION)
        check(proposal["iteration"] == iteration, "proposal iteration drifted")
        choice = client_rule(proposal, used, labels)
        if choice is None:
            result = client.decline(SESSION)
        else:
            token, label = choice
            result = client.submit(SESSION, token, label)
            used.add((token, label))
        iteration = result["iteration"]
        if iteration % EVAL_EVERY == 0 or iteration == N_ITERATIONS:
            score = client.score(SESSION)["test_score"]
            if iteration in curve:
                check(
                    curve[iteration] == score,
                    f"replayed score at iteration {iteration} diverged: "
                    f"{curve[iteration]} != {score}",
                )
            curve[iteration] = score
        if kill_proc is not None and iteration == KILL_AFTER:
            kill_proc.kill()  # SIGKILL: no shutdown hooks, no flushing
            kill_proc.wait()
            return


def final_lfs(client: SessionClient) -> list[tuple[str, int]]:
    return [
        (lf["primitive"], lf["label"]) for lf in client.info(SESSION)["lfs"]
    ]


#: Metric families the serve path must always expose once driven.
EXPECTED_FAMILIES = (
    "repro_http_requests_total",
    "repro_http_request_seconds_count",
    "repro_serve_commands_total",
    "repro_engine_commands_total",
)


def check_exact_counts(client: CountingClient) -> None:
    """Every client-counted success has exactly its 200-count on /metrics.

    Scraped at once, with no sleep or poll, and over a fresh connection:
    a kept-alive connection is served by the same handler thread as the
    last command, which would order the scrape after that command's
    accounting whether or not the server accounts before it responds.
    """
    scraper = SessionClient(client.base_url, timeout=60.0)
    try:
        samples = parse_prometheus_text(scraper.metrics())
    finally:
        scraper.close()
    for command, count in sorted(client.succeeded.items()):
        served = samples.get(
            f'repro_http_requests_total{{command="{command}",outcome="200"}}', 0
        )
        check(
            served == count,
            f"/metrics counts {served} {command} 200s right after the last "
            f"reply; the client saw {count}",
        )
    print(
        f"[serve-smoke] exact counts OK: {sum(client.succeeded.values())} "
        f"commands across {len(client.succeeded)} kinds"
    )


def check_metrics(client: SessionClient) -> dict:
    """Scrape /metrics twice and schema-check the exposition.

    Non-empty, expected families present, and every counter-style sample
    (``*_total``, ``*_count``, ``*_bucket``) monotonic across the two
    scrapes — a command runs in between, so at least one must grow.
    Returns the final snapshot (metrics samples + statusz) for the
    artifact.
    """
    first = parse_prometheus_text(client.metrics())
    check(first, "first /metrics scrape is empty")
    client.health()  # traffic between scrapes: some counter must move
    second_text = client.metrics()
    second = parse_prometheus_text(second_text)
    for family in EXPECTED_FAMILIES:
        check(
            any(key.startswith(family) for key in second),
            f"/metrics is missing expected family {family}",
        )
    grew = 0
    for key, before in first.items():
        base = key.split("{", 1)[0]
        if not base.endswith(("_total", "_count", "_bucket")):
            continue
        after = second.get(key)
        check(
            after is not None and after >= before,
            f"counter sample {key} went backwards: {before} -> {after}",
        )
        if after > before:
            grew += 1
    check(grew > 0, "no counter sample grew between scrapes")

    status = client.statusz()
    for section in ("uptime_seconds", "sessions", "snapshots", "commands", "engine"):
        check(section in status, f"/statusz is missing section {section!r}")
    for command in ("propose", "submit"):
        check(
            status["commands"].get(command, {}).get("count", 0) > 0,
            f"/statusz shows no {command} commands after a driven session",
        )
    print(
        f"[serve-smoke] metrics OK: {len(second)} samples, "
        f"{grew} counter(s) grew between scrapes"
    )
    return {"metrics": second_text, "statusz": status}


def kill_restore_check(
    tmp: Path, cfg: dict, labels: tuple[int, ...], metrics: bool = False
) -> None:
    """Reference run vs SIGKILL + restart over the same root: bit-identical.

    With ``metrics`` the reference run also carries the metrics checks
    (steps 5 and 6 of the module docstring).
    """
    tag = f"{cfg['method']}/{cfg['dataset']}"
    # ---- reference: one uninterrupted server -------------------------- #
    ref_root = tmp / f"{cfg['dataset']}-reference"
    proc, client = start_server(ref_root)
    try:
        client.create(SESSION, **cfg)
        ref_curve: dict[int, float] = {}
        drive(client, ref_curve, labels)
        ref_lfs = final_lfs(client)
        ref_score = client.score(SESSION)["test_score"]
        if metrics:
            check_exact_counts(client)
            artifact = check_metrics(client)
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait()
    print(f"[serve-smoke] {tag} reference run: {len(ref_lfs)} LFs, curve {ref_curve}")
    artifact_out = os.environ.get("SERVE_SMOKE_METRICS_OUT")
    if metrics and artifact_out:
        Path(artifact_out).write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"[serve-smoke] wrote metrics artifact to {artifact_out}")

    # ---- victim: SIGKILLed mid-session, then restarted ---------------- #
    root = tmp / f"{cfg['dataset']}-killed"
    proc, client = start_server(root)
    client.create(SESSION, **cfg)
    curve: dict[int, float] = {}
    drive(client, curve, labels, kill_proc=proc)
    check(proc.poll() is not None, "server survived SIGKILL?")
    print(f"[serve-smoke] {tag}: SIGKILLed server after iteration {KILL_AFTER}")

    snapshots = sorted((root / SESSION).glob("step-*.ckpt.npz"))
    check(
        len(snapshots) <= KEEP_LAST,
        f"rotation kept {len(snapshots)} snapshots, cap is {KEEP_LAST}",
    )
    check(
        snapshots and snapshots[-1].name == "step-00000006.ckpt.npz",
        f"latest rotated snapshot unexpected: {[p.name for p in snapshots]}",
    )

    proc, client = start_server(root)
    try:
        restored = client.info(SESSION)["iteration"]
        check(
            restored == KILL_AFTER - 1,
            f"restored iteration {restored}, expected {KILL_AFTER - 1} "
            "(the un-snapshotted commit must be lost)",
        )
        print(f"[serve-smoke] {tag}: restarted server resumed at iteration {restored}")
        drive(client, curve, labels)  # replays 7, then continues to the end
        kill_lfs = final_lfs(client)
        kill_score = client.score(SESSION)["test_score"]
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait()

    # ---- bit-identical to the uninterrupted run ----------------------- #
    check(curve == ref_curve, f"{tag}: curves differ: {curve} != {ref_curve}")
    check(kill_lfs == ref_lfs, f"{tag}: LF sequences differ: {kill_lfs} != {ref_lfs}")
    check(kill_score == ref_score, f"{tag}: final scores differ")

    # ---- ... down to the bytes of the newest snapshot ----------------- #
    ref_newest = sorted((ref_root / SESSION).glob("step-*.ckpt.npz"))[-1]
    kill_newest = sorted((root / SESSION).glob("step-*.ckpt.npz"))[-1]
    check(
        kill_newest.name == ref_newest.name,
        f"{tag}: newest snapshots differ in name: {kill_newest.name} != {ref_newest.name}",
    )
    check(
        kill_newest.read_bytes() == ref_newest.read_bytes(),
        f"{tag}: newest snapshot {ref_newest.name} differs in bytes between the "
        "uninterrupted and the killed-and-restored run",
    )
    print(
        f"[serve-smoke] {tag} OK: kill/restart resumed from the rotated snapshot; "
        "the completed curve and the newest snapshot's bytes are identical to "
        "the uninterrupted run"
    )


def main() -> int:
    from repro.data.named import load_named_dataset

    n_classes = load_named_dataset(MC_CFG["dataset"], scale=MC_CFG["scale"]).n_classes
    with tempfile.TemporaryDirectory(prefix="serve_smoke_") as tmp:
        kill_restore_check(Path(tmp), CFG, (1, -1), metrics=True)
        kill_restore_check(Path(tmp), MC_CFG, tuple(range(n_classes)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
