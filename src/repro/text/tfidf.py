"""TF-IDF featurization built on :mod:`scipy.sparse`.

Implements the smoothed-IDF, L2-normalized variant that is the de-facto
standard (and what the paper's featurization uses): ``idf(t) =
ln((1 + n) / (1 + df(t))) + 1``, applied to raw term counts and followed by
row-wise L2 normalization.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
import scipy.sparse as sp

from repro.text.tokenize import simple_tokenize
from repro.text.vocab import Vocabulary


class TfidfVectorizer:
    """Fit a vocabulary on a corpus and transform documents to TF-IDF rows.

    Parameters
    ----------
    min_df:
        Minimum document frequency for a token to enter the vocabulary.
    max_df_ratio:
        Maximum document-frequency *ratio* for a token (filters
        near-stopwords).
    sublinear_tf:
        If true, replace raw term counts ``tf`` with ``1 + ln(tf)``.
    normalize:
        If true (default), L2-normalize each row so cosine similarity is a
        plain dot product.
    tokenizer:
        Callable mapping a raw string to a token list; defaults to
        :func:`repro.text.tokenize.simple_tokenize`.

    Examples
    --------
    >>> vec = TfidfVectorizer(min_df=1)
    >>> X = vec.fit_transform(["good movie", "bad movie"])
    >>> X.shape == (2, 3)
    True
    """

    def __init__(
        self,
        min_df: int = 1,
        max_df_ratio: float = 1.0,
        sublinear_tf: bool = False,
        normalize: bool = True,
        tokenizer=simple_tokenize,
    ) -> None:
        self.min_df = min_df
        self.max_df_ratio = max_df_ratio
        self.sublinear_tf = sublinear_tf
        self.normalize = normalize
        self.tokenizer = tokenizer
        self.vocabulary: Vocabulary | None = None
        self._idf: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(self, docs: Iterable[str]) -> "TfidfVectorizer":
        """Learn the vocabulary and IDF weights from ``docs``."""
        self._fit_tokenized([self.tokenizer(doc) for doc in docs])
        return self

    def _fit_tokenized(self, tokenized: list[list[str]]) -> None:
        self.vocabulary = Vocabulary(
            min_df=self.min_df, max_df_ratio=self.max_df_ratio
        ).fit(tokenized)
        n_docs = max(len(tokenized), 1)
        df = np.array(
            [self.vocabulary.doc_frequency(tok) for tok in self.vocabulary.tokens],
            dtype=float,
        )
        self._idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0

    def fit_transform(self, docs: Iterable[str]) -> sp.csr_matrix:
        """Equivalent to ``fit(docs)`` followed by ``transform(docs)``.

        Tokenizes ``docs`` once for both steps.
        """
        tokenized = [self.tokenizer(doc) for doc in docs]
        self._fit_tokenized(tokenized)
        # Hand the token lists over last-popped-first so each one is freed
        # as soon as it is counted; holding them all through the transform
        # raised the build's peak memory by a third at 60k documents.
        tokenized.reverse()
        return self._transform_tokenized(tokenized.pop() for _ in range(len(tokenized)))

    # ------------------------------------------------------------------ #
    # transforming
    # ------------------------------------------------------------------ #
    def transform(self, docs: Iterable[str]) -> sp.csr_matrix:
        """Map documents to a sparse ``(n_docs, vocab_size)`` TF-IDF matrix.

        Tokens outside the fitted vocabulary are ignored.
        """
        if self.vocabulary is None or self._idf is None:
            raise RuntimeError("TfidfVectorizer.transform called before fit")
        return self._transform_tokenized(self.tokenizer(doc) for doc in docs)

    def _transform_tokenized(self, tokenized: Iterable[list[str]]) -> sp.csr_matrix:
        """Count every (row, column) pair at once with one ``np.unique``.

        ``tokenized`` is consumed once, as it streams, so :meth:`transform`
        never holds every document's tokens.  The COO-to-CSR constructor
        puts the entries in canonical order (columns sorted within each
        row), the order the row-norm sums of :func:`_l2_normalize_rows` run
        in.
        """
        lookup = self.vocabulary.get
        lengths: list[int] = []

        def column_ids():
            for tokens in tokenized:
                lengths.append(len(tokens))
                for token in tokens:
                    yield lookup(token, -1)

        cols = np.fromiter(column_ids(), dtype=np.int64)
        n_docs, n_cols = len(lengths), len(self.vocabulary)
        rows = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
        known = cols >= 0
        keys = rows[known] * n_cols + cols[known]
        keys, counts = np.unique(keys, return_counts=True)
        rows, cols = np.divmod(keys, max(n_cols, 1))
        tf = 1.0 + np.log(counts) if self.sublinear_tf else counts.astype(float)
        matrix = sp.csr_matrix(
            (tf * self._idf[cols], (rows, cols)), shape=(n_docs, n_cols), dtype=float
        )
        if self.normalize:
            matrix = _l2_normalize_rows(matrix)
        return matrix

    @property
    def idf(self) -> np.ndarray:
        """The fitted IDF vector (one weight per vocabulary token)."""
        if self._idf is None:
            raise RuntimeError("TfidfVectorizer has not been fitted")
        return self._idf.copy()


def _l2_normalize_rows(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Return a copy of ``matrix`` with each non-empty row scaled to unit L2 norm."""
    matrix = matrix.tocsr(copy=True)
    row_norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
    scale = np.divide(
        1.0, row_norms, out=np.zeros_like(row_norms), where=row_norms > 0
    )
    diag = sp.diags(scale)
    return (diag @ matrix).tocsr()
