"""Dataset containers: raw corpora, splits, and featurized views.

A :class:`FeaturizedDataset` is the single object every interactive method
consumes.  It bundles, per split:

* TF-IDF feature rows ``X`` (what the end model and distance functions see),
* binary primitive-incidence rows ``B`` (``B[i, z] = 1`` iff primitive ``z``
  occurs in example ``i`` — the substrate LFs vote through), and
* ground-truth labels ``y`` (read only by the oracle simulated user, the
  evaluation code, and the validation tuner — mirroring the paper's setup).

Ground truth for the *train* split exists but is hidden behind the simulated
user, exactly as in the paper's protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.data.synthetic import SyntheticCorpus
from repro.text.tfidf import TfidfVectorizer
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_in_range

SPLIT_NAMES = ("train", "valid", "test")


@dataclass
class Split:
    """One split of a featurized dataset."""

    texts: list[str]
    X: sp.csr_matrix
    B: sp.csr_matrix
    y: np.ndarray
    clusters: np.ndarray

    @property
    def n(self) -> int:
        return len(self.texts)

    @property
    def B_csc(self) -> sp.csc_matrix:
        """Column-major twin of ``B``, built lazily and cached.

        LF application reads one primitive column per call; the CSC layout
        makes that an O(nnz_col) ``indptr`` slice instead of an O(nnz)
        CSR column extraction.
        """
        cached = getattr(self, "_B_csc", None)
        if cached is None:
            cached = self.B.tocsc()
            object.__setattr__(self, "_B_csc", cached)
        return cached


class SplitAccessors:
    """Split and primitive-domain accessors shared by the dataset containers.

    Mixed into :class:`FeaturizedDataset` and
    :class:`repro.multiclass.data.MCFeaturizedDataset`, which both carry
    ``splits`` and ``primitive_names``.
    """

    @property
    def train(self) -> Split:
        return self.splits["train"]

    @property
    def valid(self) -> Split:
        return self.splits["valid"]

    @property
    def test(self) -> Split:
        return self.splits["test"]

    @property
    def n_primitives(self) -> int:
        return len(self.primitive_names)

    def primitive_id(self, token: str) -> int:
        """Index of ``token`` in the primitive domain; raises if absent."""
        try:
            return self._primitive_index[token]
        except AttributeError:
            self._primitive_index = {t: i for i, t in enumerate(self.primitive_names)}
            return self._primitive_index[token]


@dataclass
class FeaturizedDataset(SplitAccessors):
    """A fully-prepared dataset ready for interactive data programming.

    Attributes
    ----------
    name:
        Dataset name (e.g. ``"amazon"``).
    metric:
        ``"accuracy"`` or ``"f1"`` — the paper uses F1 only for SMS.
    splits:
        Mapping from split name to :class:`Split`.
    primitive_names:
        Token for each primitive-domain column of ``B``.
    lexicon:
        Cue word -> polarity map available to the simulated user.
    label_prior:
        ``P(y = +1)`` estimated from the validation split (the user model's
        ``P(y)`` in Eq. 2).
    cluster_names:
        Names of the generator's latent clusters (analysis only).
    """

    name: str
    metric: str
    splits: dict[str, Split]
    primitive_names: list[str]
    lexicon: dict[str, int] = field(default_factory=dict)
    label_prior: float = 0.5
    cluster_names: list[str] = field(default_factory=list)

    def describe(self) -> str:
        """One-line, Table-1-style statistics string."""
        sizes = {name: split.n for name, split in self.splits.items()}
        return (
            f"{self.name}: #Train={sizes['train']} #Valid={sizes['valid']} "
            f"#Test={sizes['test']} |Z|={self.n_primitives} metric={self.metric}"
        )


def train_valid_test_split(
    n: int,
    valid_ratio: float = 0.1,
    test_ratio: float = 0.1,
    seed=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random 80/10/10-style index split (paper Sec. 5.1 convention)."""
    check_in_range("valid_ratio", valid_ratio, 0.0, 1.0, inclusive=False)
    check_in_range("test_ratio", test_ratio, 0.0, 1.0, inclusive=False)
    if valid_ratio + test_ratio >= 1.0:
        raise ValueError("valid_ratio + test_ratio must be < 1")
    rng = ensure_rng(seed)
    order = rng.permutation(n)
    n_valid = max(int(round(valid_ratio * n)), 1)
    n_test = max(int(round(test_ratio * n)), 1)
    valid_idx = order[:n_valid]
    test_idx = order[n_valid : n_valid + n_test]
    train_idx = order[n_valid + n_test :]
    return np.sort(train_idx), np.sort(valid_idx), np.sort(test_idx)


def featurize_corpus(
    corpus: SyntheticCorpus,
    metric: str = "accuracy",
    min_df: int = 2,
    max_df_ratio: float = 0.5,
    valid_ratio: float = 0.1,
    test_ratio: float = 0.1,
    seed=None,
) -> FeaturizedDataset:
    """Split and featurize a corpus into a :class:`FeaturizedDataset`.

    The TF-IDF vectorizer (and hence the primitive domain, which is its
    vocabulary) is fitted on the *train* split only, then applied to all
    splits; the label prior is estimated on the validation split.

    Parameters
    ----------
    corpus:
        A generated :class:`SyntheticCorpus`.
    metric:
        ``"accuracy"`` or ``"f1"``.
    min_df / max_df_ratio:
        Vocabulary filters; ``max_df_ratio`` removes near-stopwords from the
        primitive domain (users do not write LFs on "the").
    valid_ratio / test_ratio:
        Split fractions (default 80/10/10).
    seed:
        Controls the split permutation only.
    """
    splits, primitive_names = featurize_splits(
        corpus, metric, min_df, max_df_ratio, valid_ratio, test_ratio, seed
    )
    valid_y = splits["valid"].y
    label_prior = float(np.clip((valid_y == 1).mean(), 0.05, 0.95))
    return FeaturizedDataset(
        name=corpus.name,
        metric=metric,
        splits=splits,
        primitive_names=primitive_names,
        lexicon=dict(corpus.lexicon),
        label_prior=label_prior,
        cluster_names=list(corpus.cluster_names),
    )


def featurize_splits(
    corpus,
    metric: str,
    min_df: int,
    max_df_ratio: float,
    valid_ratio: float,
    test_ratio: float,
    seed,
) -> tuple[dict[str, Split], list[str]]:
    """Split a corpus and featurize every split; return ``(splits, tokens)``.

    The shared body of :func:`featurize_corpus` and
    :func:`repro.multiclass.data.featurize_mc_corpus`, which differ only in
    the prior they estimate afterwards.  The TF-IDF vectorizer (and hence
    the primitive domain, which is its vocabulary) is fitted on the *train*
    split only, then applied to all splits; ``B`` is the binarized ``X``.
    ``corpus`` is any object with ``texts``, ``labels`` and ``clusters``.
    """
    if metric not in ("accuracy", "f1"):
        raise ValueError(f"metric must be 'accuracy' or 'f1', got {metric!r}")
    train_idx, valid_idx, test_idx = train_valid_test_split(
        len(corpus), valid_ratio=valid_ratio, test_ratio=test_ratio, seed=seed
    )
    vectorizer = TfidfVectorizer(min_df=min_df, max_df_ratio=max_df_ratio)

    splits: dict[str, Split] = {}
    for split_name, idx in zip(SPLIT_NAMES, (train_idx, valid_idx, test_idx)):
        texts = [corpus.texts[i] for i in idx]
        if split_name == "train":
            X = vectorizer.fit_transform(texts)
        else:
            X = vectorizer.transform(texts)
        B = X.copy().tocsr()
        B.data = np.ones_like(B.data)
        splits[split_name] = Split(
            texts=texts,
            X=X,
            B=B,
            y=corpus.labels[idx].astype(int),
            clusters=corpus.clusters[idx].astype(int),
        )
    return splits, vectorizer.vocabulary.tokens
