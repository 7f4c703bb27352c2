"""Label-matrix construction and diagnostics, for any vote alphabet.

The label matrix ``L`` is the central artifact of data programming
(paper Sec. 2): ``L[i, j] = λ_j(x_i)`` is a label or *abstain*.  Every
function here takes the vote alphabet — the ``abstain`` value and the
``labels`` — as keyword arguments, defaulting to the binary {-1, 0, +1}
with 0 abstaining; :mod:`repro.multiclass.matrix` binds the K-class one
(votes ``0..K-1``, -1 abstains).  The module builds ``L`` from
primitive-based LFs, stores it incrementally (:class:`VoteMatrix`), and
computes the standard weak-supervision diagnostics (coverage, overlap,
conflict) that both the literature and our selectors/tests rely on.  It
imports nothing from :mod:`repro.core`, which imports it while still
initialising.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

ABSTAIN = 0

#: The binary vote labels, in the canonical order of the binary convention.
BINARY_LABELS = (1, -1)

#: Largest class count ``K`` whose votes fit the int8 vote store.
MAX_CLASSES = 127


def column_nonzero_rows(B: sp.spmatrix, j: int) -> np.ndarray:
    """Row indices with a nonzero in column ``j`` of a sparse matrix.

    CSC input hits the O(nnz_col) fast path (a direct ``indptr`` slice);
    other formats fall back to a generic column extraction.  This is the
    primitive behind sparse-native LF application: a keyword LF's vote
    vector is fully described by the rows its primitive covers.
    """
    j = int(j)
    if sp.issparse(B) and B.format == "csc":
        return B.indices[B.indptr[j] : B.indptr[j + 1]]
    return sp.csc_matrix(B.getcol(j)).indices


class VoteMatrix:
    """Append-only vote matrix that grows by column without re-copies.

    The interactive loop adds one LF (= one column) per iteration; building
    each new matrix with ``np.column_stack`` copies all previous votes every
    time, O(n·m) per step and O(n·m²) per session.  ``VoteMatrix``
    pre-allocates capacity with doubling (amortized O(1) column appends into
    an int8 buffer) and maintains running per-example vote tallies so
    coverage/conflict diagnostics are O(n) reads instead of O(n·m) scans.

    Works for both vote conventions: binary (``abstain=0``, votes ±1) and
    multiclass (``abstain=-1``, votes in {0..K-1}).

    Parameters
    ----------
    n_rows:
        Number of examples (rows are fixed; only columns grow).
    abstain:
        The abstain sentinel value (0 binary, -1 multiclass).
    capacity:
        Initial column capacity.
    """

    def __init__(self, n_rows: int, abstain: int = ABSTAIN, capacity: int = 16) -> None:
        if n_rows < 0:
            raise ValueError(f"n_rows must be >= 0, got {n_rows}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.n_rows = int(n_rows)
        self.abstain = int(abstain)
        self._buf = np.full((self.n_rows, capacity), self.abstain, dtype=np.int8)
        self.m = 0
        self._nonabstain = np.zeros(self.n_rows, dtype=np.int64)
        # Running per-vote-value tallies; values appear lazily as LFs vote.
        self._value_counts: dict[int, np.ndarray] = {}
        # Per-column sparse structure (row indices + vote values of the
        # non-abstain entries), appended in O(nnz_col) alongside the dense
        # buffer — the backing store of the :class:`ColumnStats` handle.
        self._col_rows: list[np.ndarray] = []
        self._col_values: list[np.ndarray] = []
        self._stats: ColumnStats | None = None

    # -- construction -------------------------------------------------- #
    @classmethod
    def from_dense(cls, L: np.ndarray, abstain: int = ABSTAIN) -> "VoteMatrix":
        """Build a :class:`VoteMatrix` from an existing ``(n, m)`` array."""
        L = np.asarray(L)
        if L.ndim != 2:
            raise ValueError(f"vote matrix must be 2-D, got shape {L.shape}")
        vm = cls(L.shape[0], abstain=abstain, capacity=max(1, L.shape[1]))
        for j in range(L.shape[1]):
            vm.append_column(L[:, j])
        return vm

    # -- views --------------------------------------------------------- #
    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.m)

    @property
    def values(self) -> np.ndarray:
        """The ``(n, m)`` int8 vote matrix — a *view*, never a copy."""
        return self._buf[:, : self.m]

    def __len__(self) -> int:
        return self.m

    # -- growth -------------------------------------------------------- #
    def _ensure_capacity(self) -> None:
        if self.m < self._buf.shape[1]:
            return
        grown = np.full(
            (self.n_rows, max(4, 2 * self._buf.shape[1])), self.abstain, dtype=np.int8
        )
        grown[:, : self.m] = self._buf[:, : self.m]
        self._buf = grown

    def stage_rows(self, rows: np.ndarray, value: int) -> np.ndarray:
        """Validate a prospective :meth:`append_rows`; mutate nothing.

        Returns the canonical (ascending, ``intp``) row array the append
        would store.  Callers that must apply several appends atomically —
        the engine's develop commit stages the train *and* valid columns
        before touching either matrix — stage everything fallible first,
        after which the actual appends cannot fail.
        """
        value = int(value)
        if value == self.abstain:
            raise ValueError(f"vote value {value} equals the abstain sentinel")
        if not -128 <= value <= 127:
            raise ValueError(f"vote value {value} does not fit the int8 vote store")
        rows = np.asarray(rows)
        if rows.ndim != 1:
            raise ValueError(f"rows must be 1-D, got shape {rows.shape}")
        if rows.size and not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(f"rows must be integer indices, got dtype {rows.dtype}")
        rows = rows.astype(np.intp, copy=True)
        if rows.size:
            lo, hi = int(rows.min()), int(rows.max())
            if lo < 0 or hi >= self.n_rows:
                raise ValueError(
                    f"row indices must lie in [0, {self.n_rows}), got range [{lo}, {hi}]"
                )
            unique_rows = np.unique(rows)  # sorted as a side effect
            if unique_rows.size != rows.size:
                # Duplicates would write the dense vote once but count it
                # twice in every running tally and in the ColumnStats fire
                # structure — a silent dense/sparse divergence.
                raise ValueError("row indices must be unique")
            # Store ascending so the ColumnStats CSC assemblies are
            # canonical and structure-identical to a from-dense scan
            # regardless of caller ordering (dense writes and tallies are
            # order-independent).
            rows = unique_rows
        return rows

    def append_rows(self, rows: np.ndarray, value: int) -> None:
        """Append a column voting ``value`` on ``rows``, abstain elsewhere.

        This is the sparse-native append: a primitive LF is one vote value
        on its covered rows, so only O(nnz_col) work is done (plus the
        running-stat updates).  ``rows`` must be in-range indices — negative
        or out-of-range values would silently wrap (corrupting votes and
        every running tally) or crash deep inside numpy, so they are
        rejected up front (see :meth:`stage_rows`); the validation happens
        entirely before the first mutation, so a rejected append leaves
        the matrix untouched.
        """
        self.append_staged(self.stage_rows(rows, value), value)

    def append_staged(self, rows: np.ndarray, value: int) -> None:
        """Apply a column append whose ``rows`` came from :meth:`stage_rows`.

        The mutation half of :meth:`append_rows`, with no re-validation:
        ``rows`` MUST be the canonical array a prior ``stage_rows(rows,
        value)`` call on this matrix returned (ascending, unique,
        in-range, ``intp``) — anything else corrupts the buffer and every
        running tally.  This is what lets the engine's develop commit
        stage both split columns first and then apply them infallibly
        (and only once): validate twice, pay once.
        """
        value = int(value)
        self._ensure_capacity()
        column = self._buf[:, self.m]
        column[rows] = value
        self.m += 1
        self._nonabstain[rows] += 1
        counts = self._value_counts.get(value)
        if counts is None:
            counts = self._value_counts.setdefault(value, np.zeros(self.n_rows, dtype=np.int64))
        counts[rows] += 1
        self._col_rows.append(rows)
        self._col_values.append(np.full(rows.size, value, dtype=np.int8))

    def append_sparse(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Append one column from its sparse ``(rows, values)`` structure.

        The general-alphabet sibling of :meth:`append_rows` (which votes a
        single value): ``values[k]`` is the vote at ``rows[k]``, everything
        else abstains.  O(nnz_col), and the stored per-column structure is
        identical to what :meth:`append_column` would have derived from the
        equivalent dense column — this is the restore path of
        checkpointed vote matrices (see :meth:`state_arrays`).
        """
        rows = np.asarray(rows)
        values = np.asarray(values)
        if rows.ndim != 1 or values.ndim != 1:
            raise ValueError(
                f"rows and values must be 1-D, got shapes {rows.shape}, {values.shape}"
            )
        if rows.shape != values.shape:
            raise ValueError(
                f"rows and values must have the same length, got {rows.size} rows "
                f"for {values.size} values"
            )
        if rows.size and not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(f"rows must be integer indices, got dtype {rows.dtype}")
        if np.any(values == self.abstain):
            raise ValueError(
                f"sparse column values must not contain the abstain sentinel "
                f"({self.abstain})"
            )
        rows = rows.astype(np.intp, copy=True)
        values = values.astype(np.int8, copy=True)
        if rows.size:
            lo, hi = int(rows.min()), int(rows.max())
            if lo < 0 or hi >= self.n_rows:
                raise ValueError(
                    f"row indices must lie in [0, {self.n_rows}), got range [{lo}, {hi}]"
                )
            order = np.argsort(rows, kind="stable")
            rows = rows[order]
            values = values[order]
            if np.any(np.diff(rows) == 0):
                raise ValueError("row indices must be unique")
        self._ensure_capacity()
        column = self._buf[:, self.m]
        column[rows] = values
        self.m += 1
        self._nonabstain[rows] += 1
        for value in np.unique(values):
            value = int(value)
            counts = self._value_counts.get(value)
            if counts is None:
                counts = self._value_counts.setdefault(
                    value, np.zeros(self.n_rows, dtype=np.int64)
                )
            counts[rows[values == value]] += 1
        self._col_rows.append(rows)
        self._col_values.append(values)

    def append_column(self, votes: np.ndarray) -> None:
        """Append one dense ``(n,)`` vote column (may contain several values)."""
        votes = np.asarray(votes)
        if votes.shape != (self.n_rows,):
            raise ValueError(f"column must have shape ({self.n_rows},), got {votes.shape}")
        self._ensure_capacity()
        self._buf[:, self.m] = votes.astype(np.int8)
        self.m += 1
        fired = votes != self.abstain
        self._nonabstain[fired] += 1
        for value in np.unique(votes[fired]):
            value = int(value)
            counts = self._value_counts.get(value)
            if counts is None:
                counts = self._value_counts.setdefault(
                    value, np.zeros(self.n_rows, dtype=np.int64)
                )
            counts[votes == value] += 1
        fired_rows = np.flatnonzero(fired).astype(np.intp)
        self._col_rows.append(fired_rows)
        self._col_values.append(votes[fired_rows].astype(np.int8))

    # -- durable state -------------------------------------------------- #
    def state_arrays(self) -> dict[str, np.ndarray]:
        """The matrix's sparse column structure as three flat arrays.

        ``indptr`` (``(m+1,)`` int64 column offsets), ``rows`` (concatenated
        non-abstain row indices) and ``values`` (the votes at those rows) —
        the CSC-style serialization a checkpoint stores.  Round-tripping
        through :meth:`from_state_arrays` reproduces the dense buffer, the
        running tallies, *and* the per-column :class:`ColumnStats` structure
        bit-for-bit.
        """
        nnz = np.fromiter((r.size for r in self._col_rows), dtype=np.int64, count=self.m)
        indptr = np.zeros(self.m + 1, dtype=np.int64)
        np.cumsum(nnz, out=indptr[1:])
        rows = (
            np.concatenate(self._col_rows) if self.m else np.zeros(0, dtype=np.intp)
        ).astype(np.int64, copy=False)
        values = (
            np.concatenate(self._col_values) if self.m else np.zeros(0, dtype=np.int8)
        )
        return {"indptr": indptr, "rows": rows, "values": values}

    @classmethod
    def from_state_arrays(
        cls, n_rows: int, abstain: int, state: dict[str, np.ndarray]
    ) -> "VoteMatrix":
        """Rebuild a matrix from :meth:`state_arrays` output (fail-closed)."""
        try:
            indptr = np.asarray(state["indptr"], dtype=np.int64)
            rows = np.asarray(state["rows"])
            values = np.asarray(state["values"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed vote-matrix state: {exc}") from exc
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError(f"indptr must be a non-empty 1-D array, got {indptr.shape}")
        if int(indptr[0]) != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must start at 0 and be non-decreasing")
        if int(indptr[-1]) != rows.size or rows.size != values.size:
            raise ValueError(
                f"indptr describes {int(indptr[-1])} entries but got "
                f"{rows.size} rows / {values.size} values"
            )
        m = indptr.size - 1
        vm = cls(n_rows, abstain=abstain, capacity=max(1, m))
        for j in range(m):
            sl = slice(int(indptr[j]), int(indptr[j + 1]))
            vm.append_sparse(rows[sl], values[sl])
        return vm

    # -- sufficient statistics ----------------------------------------- #
    @property
    def stats(self) -> "ColumnStats":
        """The matrix's incremental sufficient-statistics handle.

        One handle per matrix, created lazily and kept keyed to the buffer:
        it reads the per-column sparse structure and the running tallies
        live, so it is always current after appends.  Label models accept it
        (``fit``/``fit_warm``/``predict_proba`` ``stats=`` kwarg) to skip
        re-validating/re-scanning the dense matrix and to run their EM
        sufficient statistics in O(nnz) instead of O(n·m).
        """
        if self._stats is None:
            self._stats = ColumnStats(self)
        return self._stats

    # -- running diagnostics ------------------------------------------- #
    def coverage_mask(self) -> np.ndarray:
        """Boolean ``(n,)`` mask of examples with ≥1 non-abstain vote — O(n)."""
        return self._nonabstain > 0

    def coverage(self) -> float:
        """Fraction of examples covered by at least one LF."""
        if self.m == 0:
            return 0.0
        return float(self.coverage_mask().mean())

    def vote_counts(self, value: int) -> np.ndarray:
        """Per-example count of votes equal to ``value``, shape ``(n,)``."""
        counts = self._value_counts.get(int(value))
        if counts is None:
            return np.zeros(self.n_rows, dtype=np.int64)
        return counts.copy()

    def abstain_counts(self) -> np.ndarray:
        """Per-example number of abstaining LFs."""
        return self.m - self._nonabstain

    def conflict_counts(self) -> np.ndarray:
        """Per-example number of conflicting vote *pairs* (running, O(n·V)).

        With per-value counts ``c_v`` on an example, the number of
        unordered pairs of votes naming different values is
        ``(T² - Σ c_v²) / 2`` with ``T = Σ c_v`` — the multiclass
        generalization of the binary ``p · q``.
        """
        total = self._nonabstain.astype(np.int64)
        same = np.zeros(self.n_rows, dtype=np.int64)
        for counts in self._value_counts.values():
            same += counts * counts
        return (total * total - same) // 2


class ColumnStats:
    """Sparse per-column sufficient statistics keyed to a :class:`VoteMatrix`.

    The EM label models repeatedly need, per iteration, quantities of the
    form "sum of a posterior over the rows where column ``j`` voted value
    ``v``" — computing them from the dense matrix re-scans ``(L != 0)``
    every time, O(n·m) per EM step.  This handle exposes the vote matrix's
    per-column fire structure (appended in O(nnz_col) as columns arrive)
    as cached CSC matrices, so those sums become O(nnz) sparse mat-vecs
    reused across all EM iterations of a fit *and* across the label
    fit, the posterior prediction, and the selection-view fit of one
    engine refit.

    The handle reads the owning matrix live: after a column append it is
    automatically current (cached CSC assemblies are invalidated by the
    column-count key).  ``matches(L)`` ties it to a concrete dense view so
    a model can fail loudly rather than fit against a stale handle.
    """

    def __init__(self, matrix: VoteMatrix) -> None:
        self._vm = matrix
        self._csc_cache: dict[object, tuple[int, sp.csc_matrix]] = {}
        self._nnz_cache: tuple[int, np.ndarray] | None = None
        self._count_cache: dict[int, tuple[int, np.ndarray]] = {}
        self._entries_cache: (
            tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] | None
        ) = None

    # -- identity ------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return self._vm.n_rows

    @property
    def m(self) -> int:
        return self._vm.m

    @property
    def abstain(self) -> int:
        return self._vm.abstain

    def matches(self, L: np.ndarray) -> bool:
        """Whether ``L`` is the live dense view of this handle's matrix."""
        return (
            isinstance(L, np.ndarray)
            and L.shape == (self._vm.n_rows, self._vm.m)
            and np.shares_memory(L, self._vm._buf)
        )

    # -- per-column structure ------------------------------------------ #
    def rows(self, j: int) -> np.ndarray:
        """Row indices of column ``j``'s non-abstain votes (ascending)."""
        return self._vm._col_rows[j]

    def values(self, j: int) -> np.ndarray:
        """Vote values at :meth:`rows`, int8, same length."""
        return self._vm._col_values[j]

    def col_nnz(self) -> np.ndarray:
        """Per-column non-abstain vote counts, shape ``(m,)``, int64."""
        if self._nnz_cache is None or self._nnz_cache[0] != self.m:
            nnz = np.fromiter(
                (r.size for r in self._vm._col_rows), dtype=np.int64, count=self.m
            )
            self._nnz_cache = (self.m, nnz)
        return self._nnz_cache[1]

    def value_col_counts(self, value: int) -> np.ndarray:
        """Per-column count of votes equal to ``value``, shape ``(m,)``."""
        value = int(value)
        cached = self._count_cache.get(value)
        if cached is None or cached[0] != self.m:
            counts = np.fromiter(
                ((v == value).sum() for v in self._vm._col_values),
                dtype=np.int64,
                count=self.m,
            )
            self._count_cache[value] = (self.m, counts)
            return counts
        return cached[1]

    # -- row-wise running tallies (exact integer reads) ---------------- #
    def coverage_mask(self) -> np.ndarray:
        return self._vm.coverage_mask()

    def row_value_counts(self, value: int) -> np.ndarray:
        """Per-row count of votes equal to ``value`` (the running tally)."""
        return self._vm.vote_counts(value)

    # -- CSC assemblies (cached per column count) ---------------------- #
    def _assemble(self, key: object, data_fn) -> sp.csc_matrix:
        cached = self._csc_cache.get(key)
        if cached is not None and cached[0] == self.m:
            return cached[1]
        vm = self._vm
        nnz = self.col_nnz()
        indptr = np.zeros(self.m + 1, dtype=np.int64)
        np.cumsum(nnz, out=indptr[1:])
        indices = (
            np.concatenate(vm._col_rows) if self.m else np.zeros(0, dtype=np.intp)
        ).astype(np.int32, copy=False)
        data = data_fn(vm)
        mat = sp.csc_matrix(
            (data, indices, indptr), shape=(self.n_rows, self.m), copy=False
        )
        self._csc_cache[key] = (self.m, mat)
        return mat

    def fires_csc(self) -> sp.csc_matrix:
        """``(n, m)`` CSC fire-indicator matrix (data all 1.0)."""
        return self._assemble(
            "fires", lambda vm: np.ones(int(self.col_nnz().sum()), dtype=float)
        )

    def signed_csc(self) -> sp.csc_matrix:
        """``(n, m)`` CSC of the vote values as floats (binary: ±1)."""
        return self._assemble(
            "signed",
            lambda vm: (
                np.concatenate(vm._col_values).astype(float)
                if self.m
                else np.zeros(0)
            ),
        )

    def value_csc(self, value: int) -> sp.csc_matrix:
        """``(n, m)`` CSC indicator of votes equal to ``value``."""
        value = int(value)
        cached = self._csc_cache.get(("value", value))
        if cached is not None and cached[0] == self.m:
            return cached[1]
        vm = self._vm
        rows, nnz = [], np.zeros(self.m, dtype=np.int64)
        for j in range(self.m):
            hit = vm._col_rows[j][vm._col_values[j] == value]
            rows.append(hit)
            nnz[j] = hit.size
        indptr = np.zeros(self.m + 1, dtype=np.int64)
        np.cumsum(nnz, out=indptr[1:])
        indices = (
            np.concatenate(rows) if self.m else np.zeros(0, dtype=np.intp)
        ).astype(np.int32, copy=False)
        mat = sp.csc_matrix(
            (np.ones(int(nnz.sum()), dtype=float), indices, indptr),
            shape=(self.n_rows, self.m),
            copy=False,
        )
        self._csc_cache[("value", value)] = (self.m, mat)
        return mat

    # -- flat entry arrays (the table-kernel gather layout) ------------- #
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Column-major flat arrays of the non-abstain entries.

        Returns ``(indptr, rows, cols, values)``: ``indptr`` is the
        ``(m+1,)`` int64 per-column offset vector, and ``rows``/``cols``/
        ``values`` are the ``(nnz,)`` row index, column index, and int8
        vote value of every entry, concatenated column by column with rows
        ascending within each column — the canonical structure both the
        live appends and a :func:`column_stats_from_dense` scan produce,
        so kernels gathering from these arrays are bit-identical whichever
        way the handle was obtained.

        This is the layout of the table-driven E-step kernels: a per-
        iteration ``(m, values, classes)`` log-likelihood lookup table is
        gathered through ``cols``/``values`` and segment-summed into rows
        with ``np.bincount`` (a deterministic sequential C loop).  A warm
        fit over the first ``m' < m`` columns takes the ``indptr[m']``
        prefix of each flat array — column-major order makes the prefix
        exactly the old columns.

        Cached per column count and shared across all EM iterations of a
        fit (and across fits between appends).
        """
        if self._entries_cache is None or self._entries_cache[0] != self.m:
            vm = self._vm
            nnz = self.col_nnz()
            indptr = np.zeros(self.m + 1, dtype=np.int64)
            np.cumsum(nnz, out=indptr[1:])
            rows = (
                np.concatenate(vm._col_rows) if self.m else np.zeros(0, dtype=np.intp)
            ).astype(np.intp, copy=False)
            cols = np.repeat(np.arange(self.m, dtype=np.intp), nnz)
            values = (
                np.concatenate(vm._col_values) if self.m else np.zeros(0, dtype=np.int8)
            )
            self._entries_cache = (self.m, (indptr, rows, cols, values))
        return self._entries_cache[1]


def column_stats_from_dense(L: np.ndarray, abstain: int = ABSTAIN) -> ColumnStats:
    """A detached :class:`ColumnStats` built by scanning a dense matrix once.

    The fallback for fits reached without an engine-threaded handle
    (hand-built matrices, contextualizer-refined votes): one O(n·m) scan,
    after which all EM iterations run on the O(nnz) path.  The structure
    (ascending row order per column) is identical to what the live
    :class:`VoteMatrix` maintains, so fits are bit-identical either way.
    """
    return VoteMatrix.from_dense(L, abstain=abstain).stats


def check_n_classes(n_classes: int) -> int:
    """Validate a class count ``K`` for the int8 vote store; return it.

    Votes ``0..K-1`` live in an int8 buffer, so ``K`` is capped at 127 —
    a larger class id would wrap around silently instead of naming its
    class.
    """
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if n_classes > MAX_CLASSES:
        raise ValueError(
            f"n_classes must be <= {MAX_CLASSES} because votes are stored as "
            f"int8, got {n_classes}"
        )
    return int(n_classes)


def apply_lfs(lfs, B: sp.csr_matrix, abstain: int = ABSTAIN) -> np.ndarray:
    """Apply primitive-based LFs to a primitive-incidence matrix.

    Parameters
    ----------
    lfs:
        Iterable of objects with ``primitive_id`` (column of ``B``) and
        ``label`` (a vote value) attributes — see
        :class:`repro.core.lf.PrimitiveLF` and
        :class:`repro.multiclass.lf.MultiClassLF`.
    B:
        Binary ``(n, |Z|)`` incidence matrix.
    abstain:
        The abstain value written where an LF's primitive is absent.

    Returns
    -------
    ``(n, m)`` int8 array of each LF's label on covered rows, ``abstain``
    elsewhere.
    """
    lfs = list(lfs)
    L = np.full((B.shape[0], len(lfs)), abstain, dtype=np.int8)
    Bc = B.tocsc() if sp.issparse(B) else sp.csc_matrix(B)
    for j, lf in enumerate(lfs):
        L[column_nonzero_rows(Bc, lf.primitive_id), j] = lf.label
    return L


def validate_label_matrix(
    L: np.ndarray, abstain: int = ABSTAIN, labels=BINARY_LABELS
) -> np.ndarray:
    """Check that ``L`` is 2-D over the vote alphabet; return it as int8.

    The alphabet is ``abstain`` plus ``labels`` ({-1, 0, +1} by default).
    Membership is exact, so a non-integer entry such as 0.5 is rejected
    rather than truncated into a vote.
    """
    arr = np.asarray(L)
    if arr.ndim != 2:
        raise ValueError(f"label matrix must be 2-D, got shape {arr.shape}")
    alphabet = (abstain, *labels)
    values = np.unique(arr)
    bad = values[~np.isin(values, alphabet)]
    if bad.size:
        raise ValueError(
            f"label matrix entries must be in {sorted(alphabet)}, "
            f"found {sorted(bad.tolist())}"
        )
    return arr.astype(np.int8)


def coverage_mask(L: np.ndarray, abstain: int = ABSTAIN) -> np.ndarray:
    """Boolean ``(n,)`` mask of examples with at least one non-abstain vote."""
    return (np.asarray(L) != abstain).any(axis=1)


def coverage(L: np.ndarray, abstain: int = ABSTAIN) -> float:
    """Fraction of examples covered by at least one LF."""
    L = np.asarray(L)
    if L.size == 0:
        return 0.0
    return float(coverage_mask(L, abstain).mean())


def lf_coverages(L: np.ndarray, abstain: int = ABSTAIN) -> np.ndarray:
    """Per-LF coverage fractions, shape ``(m,)``."""
    L = np.asarray(L)
    if L.shape[0] == 0:
        return np.zeros(L.shape[1])
    return (L != abstain).mean(axis=0)


def lf_accuracies(L: np.ndarray, y: np.ndarray, abstain: int = ABSTAIN) -> np.ndarray:
    """Per-LF empirical accuracy on covered examples (NaN if uncovered)."""
    L = np.asarray(L)
    y = np.asarray(y)
    votes = L != abstain
    correct = (L == y[:, None]) & votes
    n_votes = votes.sum(axis=0).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(n_votes > 0, correct.sum(axis=0) / n_votes, np.nan)


def label_vote_counts(L: np.ndarray, labels=BINARY_LABELS) -> np.ndarray:
    """Per-example vote counts per label, shape ``(n, len(labels))``.

    ``counts[i, j]`` is the number of LFs voting ``labels[j]`` on example
    ``i``; abstains (and values outside ``labels``) are not counted.
    """
    L = np.asarray(L)
    labels = tuple(labels)
    counts = np.zeros((L.shape[0], len(labels)), dtype=np.int64)
    for j, value in enumerate(labels):
        counts[:, j] = (L == value).sum(axis=1)
    return counts


def conflict_counts(L: np.ndarray, labels=BINARY_LABELS) -> np.ndarray:
    """Per-example number of conflicting vote *pairs*.

    With per-label counts ``c_v`` on an example, the number of unordered
    pairs of votes naming different labels is ``(T² − Σ c_v²) / 2`` where
    ``T = Σ c_v`` — for two labels this is the classic ``p · q`` that the
    Disagree selector maximizes.
    """
    counts = label_vote_counts(L, labels)
    total = counts.sum(axis=1)
    return (total * total - (counts * counts).sum(axis=1)) // 2


def abstain_counts(L: np.ndarray, abstain: int = ABSTAIN) -> np.ndarray:
    """Per-example number of abstaining LFs (the Abstain selector's score)."""
    L = np.asarray(L)
    return (L == abstain).sum(axis=1)


def overlap_fraction(L: np.ndarray, abstain: int = ABSTAIN) -> float:
    """Fraction of examples covered by two or more LFs."""
    L = np.asarray(L)
    if L.size == 0:
        return 0.0
    return float(((L != abstain).sum(axis=1) >= 2).mean())


def conflict_fraction(L: np.ndarray, labels=BINARY_LABELS) -> float:
    """Fraction of examples with at least one conflicting vote pair."""
    L = np.asarray(L)
    if L.size == 0:
        return 0.0
    return float((conflict_counts(L, labels) > 0).mean())


def vote_tallies(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return per-example (positive, negative) binary vote counts."""
    counts = label_vote_counts(L)
    return counts[:, 0], counts[:, 1]


def summary(
    L: np.ndarray,
    y: np.ndarray | None = None,
    abstain: int = ABSTAIN,
    labels=BINARY_LABELS,
) -> dict[str, float]:
    """Aggregate diagnostics dict (coverage/overlap/conflict [+ accuracy])."""
    L = np.asarray(L)
    stats = {
        "n_examples": float(L.shape[0]),
        "n_lfs": float(L.shape[1]),
        "coverage": coverage(L, abstain),
        "overlap": overlap_fraction(L, abstain),
        "conflict": conflict_fraction(L, labels),
    }
    if y is not None and L.shape[1] > 0:
        accs = lf_accuracies(L, y, abstain)
        if np.any(~np.isnan(accs)):
            stats["mean_lf_accuracy"] = float(np.nanmean(accs))
    return stats
