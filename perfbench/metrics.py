"""Metric names and units, read from ``BENCHMARK.json`` in its order."""

from __future__ import annotations

import json
from pathlib import Path

_DECLARED = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}

#: Per-layer metrics (traced run): name -> unit.  A layer a workload does
#: not exercise reports 0.
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

#: Reported beside the end-to-end metrics but not gated: the label model's
#: accuracy minus majority vote's on the same covered rows can sit at or
#: below zero, so a relative bound on it is meaningless.  It is also a
#: per-layer metric (``quality.mv_gap``) so a later change can track it.
UNGATED = {"mv_gap": "share"}

#: The serve commands whose server and transport times are reported.
SERVE_COMMANDS = ("propose", "submit")


def select(values: dict, trace: bool) -> dict:
    """The result's ``metrics`` object: every metric of the run's kind,
    with its unit.  Missing end-to-end values are an error; missing
    per-layer values are layers the workload does not exercise (0)."""
    names = PER_LAYER if trace else END_TO_END
    out = {}
    for name, unit in names.items():
        if name not in values:
            if not trace:
                raise KeyError(f"end-to-end metric {name!r} was not measured")
            value = 0.0
        else:
            value = float(values[name])
        out[name] = {"value": value, "unit": unit}
    return out
