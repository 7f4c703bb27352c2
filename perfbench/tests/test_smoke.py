"""A tiny-size run of every workload through the benchmark command.

Checks that every metric is printed with its unit, that every correctness
check passes, and that one seed gives identical quality figures twice.
Run with ``python -m pytest perfbench/tests``; takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import metrics

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
QUALITY = ("test_score", "lm_acc")


def run(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "6", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert lines[-2].startswith("record ")
    record = json.loads(lines[-2][len("record "):])
    return result, record, proc.stdout


@pytest.mark.parametrize("workload", ["nemo-10k", "mc-nemo-5k", "serve-live"])
def test_workload_smoke(workload):
    first, record, stdout = run(workload, trace=0)
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] is True and first["failed"] == 0 and first["attempted"] >= 1
    assert record["checks"] and all(record["checks"].values()), record["checks"]
    got = {name: m["unit"] for name, m in first["metrics"].items()}
    assert got == metrics.END_TO_END
    assert first["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in first["metrics"].values())
    # The human-readable table names every end-to-end metric, mv_gap too.
    for name in {**metrics.END_TO_END, **metrics.UNGATED}:
        assert f" {name} " in stdout
    env = record["environment"]
    for key in ("nproc", "loadavg_start", "loadavg_end", "cpu_steal_pct",
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "python", "numpy", "scipy"):
        assert key in env

    again, _, _ = run(workload, trace=0)
    for name in QUALITY:
        assert again["metrics"][name]["value"] == first["metrics"][name]["value"]

    traced, traced_record, _ = run(workload, trace=1)
    assert traced["correct"] is True
    assert all(traced_record["checks"].values()), traced_record["checks"]
    layers = {name: m["unit"] for name, m in traced["metrics"].items()}
    assert layers == metrics.PER_LAYER
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    assert values["serve.lost_commands"] == 0
    assert values["labelmodel.refits.cold"] > 0 and values["endmodel.fit_ms"] > 0
    assert abs(values["trace.unattributed_pct"]) < 5.0
    if workload == "serve-live":
        assert values["serve.server_ms.propose"] > 0
        assert values["contextualizer.ms"] == 0.0
    else:
        assert values["contextualizer.ms"] > 0 and values["data.generate_s"] > 0
