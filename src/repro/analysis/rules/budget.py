"""Adapter line budget: the multiclass adapter modules must stay thin.

Enforced by ``repro lint`` (and so by CI's lint step): the mirror-removal
refactor rewrote the formerly duplicated ``repro.multiclass`` subsystems
as adapters over the cardinality-generic core (ARCHITECTURE.md), and a
module growing past the budget is the tell-tale of logic being
re-duplicated into the adapter layer instead of generalized in ``core``.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import FileContext, Rule, register

#: Per-module total line budget (blank lines and docstrings included: the
#: point is that these files stay *small*, not merely logic-free).
LINE_BUDGET = 55

#: Lint-root-relative adapter modules under budget guard.
ADAPTER_MODULES = (
    "src/repro/multiclass/contextualizer.py",
    "src/repro/multiclass/matrix.py",
    "src/repro/multiclass/selection.py",
    "src/repro/multiclass/session.py",
    "src/repro/multiclass/seu.py",
    "src/repro/multiclass/simulated_user.py",
    "src/repro/multiclass/user_model.py",
    "src/repro/multiclass/utility.py",
)


@register
class AdapterBudget(Rule):
    name = "adapter-budget"
    description = (
        f"multiclass adapter modules must stay within {LINE_BUDGET} total "
        "lines — grow the cardinality-generic core instead"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel_path not in ADAPTER_MODULES:
            return
        n_lines = len(ctx.lines)
        if n_lines > LINE_BUDGET:
            yield self.finding(
                ctx,
                None,
                f"{n_lines} lines exceeds the {LINE_BUDGET}-line adapter "
                "budget — move the logic into the cardinality-generic core "
                "instead",
            )
