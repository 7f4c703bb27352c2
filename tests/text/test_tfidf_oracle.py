"""The vectorized TF-IDF transform is byte-identical to a per-document loop.

``TfidfVectorizer.transform`` counts every (row, column) pair with one
``np.unique``.  The per-document dictionary loop it replaced is kept here
as the oracle: the CSR ``data``/``indices``/``indptr`` arrays (dtype and
bytes) and ``has_sorted_indices`` must match exactly, because every
featurized dataset, golden transcript and bench row is built on them.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import load_dataset
from repro.text.tfidf import TfidfVectorizer, _l2_normalize_rows


def oracle_transform(vec: TfidfVectorizer, docs) -> sp.csr_matrix:
    """The per-document transform loop the vectorizer used before."""
    idf = vec.idf
    rows, cols, vals = [], [], []
    n_docs = 0
    for row_idx, doc in enumerate(docs):
        n_docs += 1
        counts: dict[int, int] = {}
        for token in vec.tokenizer(doc):
            col = vec.vocabulary.get(token)
            if col is not None:
                counts[col] = counts.get(col, 0) + 1
        for col, count in counts.items():
            tf = 1.0 + np.log(count) if vec.sublinear_tf else float(count)
            rows.append(row_idx)
            cols.append(col)
            vals.append(tf * idf[col])
    matrix = sp.csr_matrix(
        (vals, (rows, cols)), shape=(n_docs, len(vec.vocabulary)), dtype=float
    )
    if vec.normalize:
        matrix = _l2_normalize_rows(matrix)
    return matrix


def assert_csr_identical(a: sp.csr_matrix, b: sp.csr_matrix) -> None:
    assert a.shape == b.shape
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name
    assert a.has_sorted_indices == b.has_sorted_indices


TRAIN = [
    "the cat sat on the mat the end",
    "dogs and cats and dogs",
    "zebra cat dog cat zebra zebra",
    "mat dogs the",
    "Cat, cat!  CAT? dog's",
]
APPLY = [
    "",  # empty document
    "unseen words only here",  # every token out of vocabulary
    "cat cat cat cat dog",  # repeated tokens
    "zebra the mat and dogs cats",
    "   ",  # whitespace only
]


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("sublinear_tf", [False, True])
def test_transform_matches_oracle(sublinear_tf, normalize):
    vec = TfidfVectorizer(sublinear_tf=sublinear_tf, normalize=normalize)
    vec.fit(TRAIN)
    for docs in (TRAIN, APPLY, TRAIN + APPLY, APPLY[:1], APPLY[1:2], []):
        assert_csr_identical(vec.transform(docs), oracle_transform(vec, docs))


@pytest.mark.parametrize("sublinear_tf", [False, True])
def test_one_document_corpus(sublinear_tf):
    docs = ["solo solo word"]
    vec = TfidfVectorizer(sublinear_tf=sublinear_tf)
    X = vec.fit_transform(docs)
    assert_csr_identical(X, oracle_transform(vec, docs))
    assert X.shape == (1, 2)


def test_fit_transform_matches_fit_then_transform():
    a = TfidfVectorizer(min_df=2).fit_transform(TRAIN)
    vec = TfidfVectorizer(min_df=2).fit(TRAIN)
    assert_csr_identical(a, vec.transform(TRAIN))
    assert_csr_identical(a, oracle_transform(vec, TRAIN))


def test_empty_vocabulary():
    vec = TfidfVectorizer(min_df=5).fit(TRAIN)
    assert len(vec.vocabulary) == 0
    assert_csr_identical(vec.transform(APPLY), oracle_transform(vec, APPLY))


def test_generated_corpus_matches_oracle():
    ds = load_dataset("sms", scale="tiny", seed=2)
    vec = TfidfVectorizer(min_df=2, max_df_ratio=0.5).fit(ds.train.texts)
    for split in (ds.train, ds.valid, ds.test):
        assert_csr_identical(vec.transform(split.texts), oracle_transform(vec, split.texts))
