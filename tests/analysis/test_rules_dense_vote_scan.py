"""dense-vote-scan: dense abstain scans stay out of label-model hot paths."""

from repro.analysis.rules.dense_vote_scan import DenseVoteScan


def _lint(lint_tree, files):
    return lint_tree(files, rules=[DenseVoteScan()])


class TestDenseScanViolations:
    def test_mask_reduction_is_flagged(self, lint_tree):
        report = _lint(
            lint_tree,
            {
                "src/repro/labelmodel/new_model.py": """
                def _posterior(L):
                    return (L != 0).any(axis=1)
                """
            },
        )
        (finding,) = report.findings
        assert finding.rule == "dense-vote-scan"
        assert "ColumnStats" in finding.message

    def test_named_sentinel_assignment_is_flagged(self, lint_tree):
        report = _lint(
            lint_tree,
            {
                "src/repro/labelmodel/new_model.py": """
                from repro.labelmodel.matrix import ABSTAIN

                def fit(L):
                    covered = L != ABSTAIN
                    return covered
                """
            },
        )
        assert len(report.findings) == 1

    def test_attribute_sentinel_in_call_is_flagged(self, lint_tree):
        report = _lint(
            lint_tree,
            {
                "src/repro/multiclass/dawid_skene.py": """
                import numpy as np

                class Model:
                    def fit(self, L):
                        return np.where(L == self.abstain, 0.0, 1.0)
                """
            },
        )
        assert len(report.findings) == 1

    def test_mask_used_as_index_is_flagged(self, lint_tree):
        report = _lint(
            lint_tree,
            {
                "src/repro/labelmodel/new_model.py": """
                def fired_values(col):
                    return col[col != 0]
                """
            },
        )
        assert len(report.findings) == 1

    def test_dense_suffix_posterior_is_flagged(self, lint_tree):
        # A *_dense name no longer exempts a scan: each EM model has one
        # posterior kernel, and the dense one lives in benchmarks/.
        report = _lint(
            lint_tree,
            {
                "src/repro/labelmodel/new_model.py": """
                def _posterior_dense(L):
                    fires = (L != 0).astype(float)
                    return fires
                """
            },
        )
        assert len(report.findings) == 1

    def test_marginal_ll_oracle_is_flagged(self, lint_tree):
        # Test-only oracles live in tests/, so the EM modules get no
        # diagnostic exemption.
        report = _lint(
            lint_tree,
            {
                "src/repro/multiclass/dawid_skene.py": """
                class Model:
                    def marginal_ll(self, L):
                        fires = L != MC_ABSTAIN
                        return fires.sum()

                    def _marginal_ll(self, L):
                        fires = L != 0
                        return fires.sum()
                """
            },
        )
        assert len(report.findings) == 2


class TestDenseScanExemptions:
    def test_scalar_guard_never_fires(self, lint_tree):
        report = _lint(
            lint_tree,
            {
                "src/repro/labelmodel/new_model.py": """
                def fit(L):
                    if L.shape[1] == 0:
                        return None
                    while L.ndim != 0:
                        break
                    return L.shape[0] == 0 or L.shape[1] == 0
                """
            },
        )
        assert report.findings == []


    def test_designated_diagnostics_helper_is_exempt(self, lint_tree):
        report = _lint(
            lint_tree,
            {
                "src/repro/labelmodel/matrix.py": """
                def coverage_mask(L):
                    return (L != 0).any(axis=1)
                """
            },
        )
        assert report.findings == []


    def test_dense_only_models_are_exempt(self, lint_tree):
        report = _lint(
            lint_tree,
            {
                "src/repro/labelmodel/majority.py": """
                def fit(L):
                    covered = L != 0
                    return covered
                """,
                "src/repro/labelmodel/triplet.py": """
                def fit(L):
                    covered = L != 0
                    return covered
                """,
            },
        )
        assert report.findings == []

    def test_files_outside_scope_are_exempt(self, lint_tree):
        report = _lint(
            lint_tree,
            {
                "src/repro/core/engine.py": """
                def refit(L):
                    covered = L != 0
                    return covered
                """
            },
        )
        assert report.findings == []

    def test_non_abstain_comparand_is_exempt(self, lint_tree):
        # Comparing entry *values* against a vote label (±1, k) is an
        # O(nnz) flat-array op in the stats kernels, not a dense scan.
        report = _lint(
            lint_tree,
            {
                "src/repro/labelmodel/new_model.py": """
                import numpy as np

                def _posterior_stats(values, table_plus, table_minus, cols):
                    return np.where(values == 1, table_plus[cols], table_minus[cols])
                """
            },
        )
        assert report.findings == []

    def test_pragma_suppresses_with_reason(self, lint_tree):
        report = _lint(
            lint_tree,
            {
                "src/repro/labelmodel/new_model.py": """
                def fit(L):
                    covered = L != 0  # repro-lint: disable=dense-vote-scan -- one-off migration probe
                    return covered
                """
            },
        )
        (finding,) = report.findings
        assert finding.suppressed
