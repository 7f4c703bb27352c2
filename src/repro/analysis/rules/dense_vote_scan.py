"""Dense vote-matrix scans stay out of the label-model hot path.

The label-model package's cold and warm paths are contractually O(nnz):
sufficient statistics, posteriors, and EM tables are computed from the
:class:`~repro.labelmodel.matrix.ColumnStats` flat entry arrays, never by
re-scanning the dense ``(n, m)`` matrix (ENGINE.md §10).  A dense
coverage scan — ``(L != 0)``, ``L != ABSTAIN``, ``(L != 0).any(axis=1)``
— allocates an ``n·m`` boolean and walks every cell, which is exactly
the floor the sparse kernels removed; one stray scan on a refit path
silently reverts the package to ``O(n·m)``.

The rule flags ``==``/``!=`` comparisons against the abstain sentinel
(literal ``0``, ``ABSTAIN``, ``MC_ABSTAIN``, or an ``.abstain``
attribute) whose boolean result is consumed as an array — assigned,
returned, indexed with, reduced, or passed to a call — inside the
label-model package (and the multiclass Dawid–Skene model).  Scalar
guards (``if m == 0:``) never fire: a comparison used directly as a
branch condition is not a matrix scan.

Each EM model has one posterior kernel, the stats one: a call without a
handle builds one by a single ingestion scan (``VoteMatrix.from_dense``).
The dense EM and posteriors live outside the package, in
``benchmarks/dense_reference.py``, and the diagnostic log-likelihood
oracles live with the tests that use them.  Designated dense code is
exempt:

* by name, the validation, diagnostics and ingestion helpers of
  ``matrix.py`` (``validate_label_matrix``, ``coverage_mask``,
  ``from_dense``, ``column_stats_from_dense``, …) — the designated place
  dense matrices are inspected;
* dense-only models with no stats path (``majority.py``, ``triplet.py``,
  ``implyloss.py``) — they take the matrix as given and are never on the
  incremental refit path.

Anything else needs a ``# repro-lint: disable=dense-vote-scan`` pragma
with a reason, which is the intended speed bump.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import FileContext, Rule, register

#: Path prefix / exact files the rule applies to.
_SCOPE_PREFIX = "src/repro/labelmodel/"
_SCOPE_EXTRA = frozenset({"src/repro/multiclass/dawid_skene.py"})

#: Modules under the prefix that are dense-only by design (no stats path).
_EXEMPT_MODULES = frozenset({"majority.py", "triplet.py", "implyloss.py"})

#: Function names that are designated dense helpers (validation,
#: diagnostics, dense→stats conversion).
_DESIGNATED_FUNCS = frozenset(
    {
        "validate_label_matrix",
        "coverage_mask",
        "coverage",
        "lf_coverages",
        "lf_accuracies",
        "conflict_counts",
        "abstain_counts",
        "overlap_fraction",
        "conflict_fraction",
        "vote_tallies",
        "summary",
        "column_stats_from_dense",
        "from_dense",
        "append_sparse",
        "append_column",
        "stage_rows",
    }
)

#: Names and attribute names that denote the abstain sentinel.
_ABSTAIN_NAMES = frozenset({"ABSTAIN", "MC_ABSTAIN"})
_ABSTAIN_ATTRS = frozenset({"ABSTAIN", "MC_ABSTAIN", "abstain", "abstain_value"})

#: Parent node types under which the comparison's boolean result is
#: consumed as an *array* (mask algebra) rather than a scalar branch test.
_ARRAY_CONSUMERS = (
    ast.Attribute,  # (L != 0).any(axis=1)
    ast.Call,  # np.where(L != 0, ...)
    ast.Subscript,  # L[:, j][L[:, j] != 0]
    ast.Assign,  # covered = L != 0
    ast.AnnAssign,
    ast.Return,  # return L != 0
)


def _is_abstain_const(node: ast.expr) -> bool:
    """``node`` spells the abstain sentinel (``0``, a named constant, or
    an ``.abstain``-style attribute)."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value == 0
    if isinstance(node, ast.Name):
        return node.id in _ABSTAIN_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _ABSTAIN_ATTRS
    return False


@register
class DenseVoteScan(Rule):
    name = "dense-vote-scan"
    description = (
        "label-model refit paths must compute from ColumnStats entry "
        "arrays, not dense (L != abstain)-style matrix scans; dense "
        "arithmetic lives only in the designated validation/diagnostics "
        "helpers"
    )

    def _in_scope(self, ctx: FileContext) -> bool:
        rel = ctx.rel_path
        if rel in _SCOPE_EXTRA:
            return True
        if not rel.startswith(_SCOPE_PREFIX):
            return False
        return rel.rsplit("/", 1)[-1] not in _EXEMPT_MODULES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_scope(ctx):
            return
        parents = ctx.parent_map()
        # Map each node to its innermost enclosing function, so designated
        # dense helpers can be exempted by name.
        enclosing: dict[ast.AST, str] = {}
        for func in ast.walk(ctx.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(func):
                    enclosing[child] = func.name  # innermost wins: walk order
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if len(node.ops) != 1 or not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                continue
            if not (_is_abstain_const(node.left) or _is_abstain_const(node.comparators[0])):
                continue
            if not isinstance(parents.get(node), _ARRAY_CONSUMERS):
                continue
            func_name = enclosing.get(node, "")
            if func_name in _DESIGNATED_FUNCS:
                continue
            yield self.finding(
                ctx,
                node,
                "dense abstain-sentinel scan on a label-model path — "
                "compute from the ColumnStats entry arrays (O(nnz)); only "
                "the validation helpers may scan the dense matrix",
            )
