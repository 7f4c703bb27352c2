"""The repository benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nemo-10k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload mc-nemo-5k --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload serve-live --seed 1 --seconds 10 --trace 0 --smoke

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` installs spans around the layers and reports per-layer
metrics instead.  ``--smoke`` shrinks the in-process datasets for tests.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``record``, holds the full record (environment, checks, tail
percentile and counts).  The exit code is 0 only when every correctness
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("nemo-10k", "mc-nemo-5k", "serve-live")

#: A run that has not finished by then is stopped: its workers and server
#: are killed on the way out and it exits non-zero without a result.
DEADLINE_S = 175


@dataclass(frozen=True)
class Context:
    root: Path
    run_py: Path
    workdir: Path


def cpu_jiffies() -> list[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (user ... steal)."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny in-process datasets")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    args = parse_args(argv)
    if args.worker is not None:
        from perfbench.inproc import worker_main

        return worker_main(json.loads(args.worker))

    from perfbench import inproc, metrics, serve_live

    def overdue(signum, frame):
        raise TimeoutError(f"run did not finish within {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, overdue)
    signal.alarm(DEADLINE_S)
    env = environment()
    jiffies_start = cpu_jiffies()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Context(root=ROOT, run_py=HERE / "run.py", workdir=workdir)
    module = serve_live if args.workload == "serve-live" else inproc
    try:
        raw = module.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, ctx)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    env["loadavg_end"] = list(os.getloadavg())
    # Time the hypervisor ran other guests on this machine's CPUs: the
    # usual cause of run-to-run spread on a shared host.
    spent = [b - a for a, b in zip(jiffies_start, cpu_jiffies())]
    env["cpu_steal_pct"] = 100.0 * spent[7] / max(sum(spent), 1)

    values = raw.get("layers" if args.trace else "values")
    correct = values is not None and all(raw["checks"].values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        **raw,
    }
    if raw.get("values"):
        shown = {**metrics.END_TO_END, **metrics.UNGATED}
        for name, unit in shown.items():
            print(f"{args.workload:<11} {name:<15} {raw['values'][name]:>12.4f} {unit}")
        tail = raw["tail"]
        print(
            f"{args.workload:<11} turn_tail_ms is p{tail['percentile']:g} of "
            f"{tail['n']} turns ({tail['beyond']} beyond)"
        )
    print("record " + json.dumps(record))
    if values is None:
        print(f"perfbench: checks failed: {raw['checks']}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics.select(values, bool(args.trace)),
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
