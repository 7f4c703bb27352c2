"""Adapter line budget (the ``adapter-budget`` lint rule)."""

from pathlib import Path

from repro.analysis.rules.budget import ADAPTER_MODULES, LINE_BUDGET, AdapterBudget

REPO_ROOT = Path(__file__).resolve().parents[2]


def _module_of_lines(n):
    return "\n".join(f"x{i} = {i}" for i in range(n)) + "\n"


class TestAdapterBudget:
    def test_over_budget_adapter_is_flagged_at_line_one(self, lint_tree):
        report = lint_tree(
            {ADAPTER_MODULES[0]: _module_of_lines(LINE_BUDGET + 5)},
            rules=[AdapterBudget()],
        )
        (finding,) = report.findings
        assert finding.rule == "adapter-budget"
        assert finding.line == 1
        assert str(LINE_BUDGET) in finding.message

    def test_under_budget_adapter_passes(self, lint_tree):
        report = lint_tree(
            {ADAPTER_MODULES[0]: _module_of_lines(LINE_BUDGET - 5)},
            rules=[AdapterBudget()],
        )
        assert report.findings == []

    def test_guarded_modules_exist(self):
        # A renamed or deleted adapter would silently drop out of the
        # budget: the rule only checks files it is handed.
        for rel in ADAPTER_MODULES:
            assert (REPO_ROOT / rel).is_file(), f"guarded module vanished: {rel}"

    def test_non_adapter_module_is_exempt(self, lint_tree):
        report = lint_tree(
            {"src/repro/core/engine.py": _module_of_lines(LINE_BUDGET * 4)},
            rules=[AdapterBudget()],
        )
        assert report.findings == []
