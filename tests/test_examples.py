"""Smoke runs of the examples that drive the Eq.-4 contextualizer.

``sentiment_analysis.py`` refines a dense vote matrix directly, and
``record_and_replay.py`` replays one recorded LF sequence through the
contextualized and context-sequence pipelines.  Each runs as a user would
run it, in a subprocess with ``src`` on the path, from an empty working
directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,expected",
    [
        ("sentiment_analysis.py", "contextualized (p=35)"),
        ("record_and_replay.py", "context-sequence (gamma=0.5)"),
    ],
)
def test_example_runs(script, expected, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert expected in result.stdout
    assert list(tmp_path.iterdir()) == []
