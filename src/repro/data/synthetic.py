"""Synthetic corpus generator reproducing the paper's data phenomena.

The generator builds labeled corpora with the two structural properties that
Nemo's contributions exploit (paper Figures 2 and 3, Example 1.1):

1. **Cluster-local generalization.**  Documents belong to latent *category
   clusters* with cluster-specific marker vocabulary, so TF-IDF proximity
   correlates with cluster membership and keyword LFs mostly cover documents
   from the cluster of their development example.

2. **Distance-decaying LF accuracy.**  Two kinds of label-cue words exist:
   *global cues* that indicate a label reliably everywhere, and *local cues*
   that are reliable only inside their home cluster — outside it their
   polarity is re-randomized per cluster.  An LF built on a local cue is
   therefore accurate near its development data and noisy far away, which is
   exactly what the LF contextualizer (Eq. 4) is designed to exploit.

All sampling is driven by an explicit :class:`numpy.random.Generator`, so
corpora are fully reproducible from a single seed.  Weighted draws bisect a
CDF cached per bank size (:func:`~repro.utils.rng.choice_cdf`).  Every draw
must stay the one ``rng.choice`` would make from the same stream position:
every dataset, golden transcript and bench row is built on that stream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import choice_cdf, ensure_rng, uniform_pick
from repro.utils.validation import check_in_range, check_positive


def check_cluster_weight(cluster) -> None:
    """Raise ``ValueError`` unless ``cluster.weight`` is finite and >= 0.

    Zero is legal: a zero-weight cluster is never drawn.
    """
    if not (math.isfinite(cluster.weight) and cluster.weight >= 0):
        raise ValueError(
            f"weight of cluster {cluster.name!r} must be finite and >= 0, "
            f"got {cluster.weight!r}"
        )


def check_clusters(clusters) -> None:
    """Raise ``ValueError`` unless there is a cluster and the weights sum > 0."""
    if not clusters:
        raise ValueError("at least one cluster is required")
    if not any(cluster.weight > 0 for cluster in clusters):
        raise ValueError("clusters must have a positive total weight, got all zero")


@dataclass(frozen=True)
class ClusterSpec:
    """One latent category cluster.

    Parameters
    ----------
    name:
        Human-readable cluster name (e.g. ``"food"``).
    marker_words:
        Neutral words characteristic of this cluster; they carry no label
        signal but define the cluster's region in feature space.
    local_positive / local_negative:
        Cue words whose stated polarity holds *inside this cluster only*.
    weight:
        Relative probability of a document being drawn from this cluster.
    """

    name: str
    marker_words: tuple[str, ...]
    local_positive: tuple[str, ...] = ()
    local_negative: tuple[str, ...] = ()
    weight: float = 1.0

    def __post_init__(self) -> None:
        check_cluster_weight(self)

    @property
    def local_words(self) -> tuple[str, ...]:
        """Every local cue word, positives first."""
        return (*self.local_positive, *self.local_negative)


@dataclass(frozen=True)
class CorpusSpec:
    """Full specification of a synthetic corpus.

    Parameters
    ----------
    name:
        Corpus name (used for seeding and error messages).
    clusters:
        The latent category clusters.
    global_positive / global_negative:
        Cue words indicating +1 / -1 reliably in every cluster.
    common_words:
        Label- and cluster-neutral filler vocabulary.
    positive_ratio:
        Class prior ``P(y = +1)``; 0.13 reproduces SMS-like imbalance.
    mean_doc_length:
        Poisson mean of document length in tokens (clipped at
        ``min_doc_length``).
    min_doc_length:
        Hard lower bound on tokens per document.
    p_common / p_marker / p_global / p_local:
        Per-token mixture weights of the four word sources; must sum to 1.
    global_reliability:
        Probability that an emitted global cue matches the document label.
    global_reliability_pos:
        Optional override of ``global_reliability`` for *positive* documents
        only.  Asymmetric reliabilities model e.g. spam that deliberately
        mimics ham vocabulary (spam messages containing "come", "see", ...)
        while ham essentially never contains spam trigger words.
    local_reliability:
        Probability that an emitted home-cluster local cue matches the
        document label.
    local_leak:
        Probability that a "local" emission borrows another cluster's local
        cue word; borrowed cues are polarity-randomized per
        (word, cluster) pair, producing the accuracy-decay phenomenon.
    zipf_exponent:
        Within-bank word frequencies follow a Zipf law with this exponent
        (0 recovers uniform sampling).  Zipfian frequencies are load-bearing
        for the paper's selection dynamics: head words let a few LFs cover
        a large share of their home cluster quickly, so uncertainty mass
        shifts to under-covered clusters early — the regime in which
        strategic selection pays off (paper Fig. 6).  Curated words sit at
        the head of each bank, so they are also the frequent ones.
    """

    name: str
    clusters: tuple[ClusterSpec, ...]
    global_positive: tuple[str, ...]
    global_negative: tuple[str, ...]
    common_words: tuple[str, ...]
    positive_ratio: float = 0.5
    mean_doc_length: float = 20.0
    min_doc_length: int = 4
    p_common: float = 0.40
    p_marker: float = 0.28
    p_global: float = 0.14
    p_local: float = 0.18
    global_reliability: float = 0.88
    global_reliability_pos: float | None = None
    local_reliability: float = 0.92
    local_leak: float = 0.25
    zipf_exponent: float = 0.6

    def __post_init__(self) -> None:
        check_in_range("positive_ratio", self.positive_ratio, 0.0, 1.0, inclusive=False)
        check_positive("mean_doc_length", self.mean_doc_length)
        total = self.p_common + self.p_marker + self.p_global + self.p_local
        if not np.isclose(total, 1.0):
            raise ValueError(f"token mixture weights must sum to 1, got {total}")
        check_in_range("global_reliability", self.global_reliability, 0.5, 1.0)
        if self.global_reliability_pos is not None:
            check_in_range(
                "global_reliability_pos", self.global_reliability_pos, 0.5, 1.0
            )
        check_in_range("local_reliability", self.local_reliability, 0.5, 1.0)
        check_in_range("local_leak", self.local_leak, 0.0, 1.0)
        if self.zipf_exponent < 0:
            raise ValueError(f"zipf_exponent must be >= 0, got {self.zipf_exponent}")
        check_clusters(self.clusters)


@dataclass
class SyntheticCorpus:
    """A generated corpus: parallel arrays of texts, labels, and clusters.

    ``lexicon`` maps every *global* cue word to its true polarity — the
    synthetic stand-in for the external opinion lexicon the paper's
    simulated user consults (Sec. 5.1 footnote 1).
    """

    name: str
    texts: list[str]
    labels: np.ndarray  # (n,) int in {-1, +1}
    clusters: np.ndarray  # (n,) int cluster index
    cluster_names: list[str]
    lexicon: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.texts)


class CorpusGenerator:
    """Samples :class:`SyntheticCorpus` instances from a :class:`CorpusSpec`."""

    def __init__(self, spec: CorpusSpec) -> None:
        self.spec = spec
        weights = np.array([c.weight for c in spec.clusters], float)
        self._cluster_cdf = choice_cdf(weights / weights.sum())
        n_clusters = len(spec.clusters)
        self._other_clusters = [
            tuple(i for i in range(n_clusters) if i != c) for c in range(n_clusters)
        ]
        self._zipf_cdfs: dict[int, list[float]] = {}

    def _pick(self, rng: np.random.Generator, bank) -> str:
        """Sample one word from a bank under the spec's Zipf law."""
        n = len(bank)
        if n == 1:
            return str(bank[0])
        cdf = self._zipf_cdfs.get(n)
        if cdf is None:
            ranks = np.arange(1, n + 1, dtype=float)
            weights = ranks ** (-self.spec.zipf_exponent)
            cdf = self._zipf_cdfs[n] = choice_cdf(weights / weights.sum())
        return str(bank[bisect_right(cdf, rng.random())])

    def _borrow_candidates(
        self, foreign: dict[tuple[str, int], int], labels
    ) -> dict[tuple[int, int, int], list[str]]:
        """Borrowable cue words keyed by ``(source cluster, cluster, label)``.

        A borrowed local cue from ``source`` may appear in ``cluster`` for a
        document labelled ``label`` only if its foreign draw (fixed per
        corpus) names that label there.
        """
        n_clusters = len(self.spec.clusters)
        return {
            (src, c, label): [
                w
                for w in self.spec.clusters[src].local_words
                if foreign.get((w, c)) == label
            ]
            for src in range(n_clusters)
            for c in self._other_clusters[src]
            for label in labels
        }

    def generate(self, n_docs: int, seed=None) -> SyntheticCorpus:
        """Generate ``n_docs`` documents.

        The per-(word, cluster) polarity of *borrowed* local cues is sampled
        once per corpus, so a given foreign cue word is consistently
        misleading (or accidentally correct) within a cluster — matching how
        e.g. "funny" consistently skews negative for food reviews.
        """
        check_positive("n_docs", n_docs)
        rng = ensure_rng(seed)
        spec = self.spec
        borrowed = self._borrow_candidates(self._sample_foreign_polarities(rng), (1, -1))
        texts: list[str] = []
        labels = np.empty(n_docs, dtype=int)
        clusters = np.empty(n_docs, dtype=int)
        for i in range(n_docs):
            c = bisect_right(self._cluster_cdf, rng.random())
            y = 1 if rng.random() < spec.positive_ratio else -1
            length = max(int(rng.poisson(spec.mean_doc_length)), spec.min_doc_length)
            tokens = [self._sample_token(rng, c, y, borrowed) for _ in range(length)]
            texts.append(" ".join(tokens))
            labels[i] = y
            clusters[i] = c
        lexicon = {w: 1 for w in spec.global_positive}
        lexicon.update({w: -1 for w in spec.global_negative})
        # Real opinion lexicons also list context-dependent cues ("funny" is
        # a positive word to Hu & Liu) — include local cues at their *home*
        # polarity, so the simulated user plausibly writes LFs whose
        # accuracy decays away from their development cluster (Fig. 2).
        for cluster in spec.clusters:
            for word in cluster.local_positive:
                lexicon.setdefault(word, 1)
            for word in cluster.local_negative:
                lexicon.setdefault(word, -1)
        return SyntheticCorpus(
            name=spec.name,
            texts=texts,
            labels=labels,
            clusters=clusters,
            cluster_names=[c.name for c in spec.clusters],
            lexicon=lexicon,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _sample_foreign_polarities(self, rng: np.random.Generator) -> dict[tuple[str, int], int]:
        """Assign each local cue a fixed polarity in every *foreign* cluster."""
        spec = self.spec
        polarity: dict[tuple[str, int], int] = {}
        for home_idx, home in enumerate(spec.clusters):
            for word in home.local_words:
                for other_idx in range(len(spec.clusters)):
                    if other_idx == home_idx:
                        continue
                    polarity[(word, other_idx)] = 1 if rng.random() < 0.5 else -1
        return polarity

    def _sample_token(
        self,
        rng: np.random.Generator,
        cluster_idx: int,
        label: int,
        borrowed: dict[tuple[int, int, int], list[str]],
    ) -> str:
        spec = self.spec
        cluster = spec.clusters[cluster_idx]
        roll = rng.random()
        if roll < spec.p_common:
            return self._pick(rng, spec.common_words)
        roll -= spec.p_common
        if roll < spec.p_marker and cluster.marker_words:
            return self._pick(rng, cluster.marker_words)
        roll -= spec.p_marker
        if roll < spec.p_global:
            reliability = spec.global_reliability
            if label == 1 and spec.global_reliability_pos is not None:
                reliability = spec.global_reliability_pos
            emitted = label if rng.random() < reliability else -label
            bank = spec.global_positive if emitted == 1 else spec.global_negative
            return self._pick(rng, bank)
        return self._sample_local_cue(rng, cluster_idx, label, borrowed)

    def _sample_local_cue(
        self,
        rng: np.random.Generator,
        cluster_idx: int,
        label: int,
        borrowed: dict[tuple[int, int, int], list[str]],
    ) -> str:
        spec = self.spec
        cluster = spec.clusters[cluster_idx]
        borrow = rng.random() < spec.local_leak and len(spec.clusters) > 1
        if borrow:
            src_idx = uniform_pick(rng, self._other_clusters[cluster_idx])
            candidates = borrowed[(src_idx, cluster_idx, label)]
            if candidates:
                return self._pick(rng, candidates)
            # No borrowed word carries this label in this cluster; fall through
            # to a home-cluster cue.
        emitted = label if rng.random() < spec.local_reliability else -label
        bank = cluster.local_positive if emitted == 1 else cluster.local_negative
        if not bank:  # cluster without local cues: emit a global cue instead
            bank = spec.global_positive if emitted == 1 else spec.global_negative
        return self._pick(rng, bank)


def make_toy_clusters(
    n_docs: int = 400,
    n_clusters: int = 4,
    separation: float = 4.0,
    noise: float = 0.8,
    seed=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate the 2-D Gaussian toy data of Figures 3/6/7.

    Returns ``(X, y, clusters)`` where ``X`` is ``(n, 2)`` float, ``y`` in
    {-1, +1}, and ``clusters`` are integer ids.  Cluster centers sit on a
    circle; each cluster is label-homogeneous with probability 0.9 on its
    majority label, mirroring the paper's "each cluster corresponds to a
    product category" toy.
    """
    check_positive("n_docs", n_docs)
    check_positive("n_clusters", n_clusters)
    rng = ensure_rng(seed)
    angles = 2 * np.pi * np.arange(n_clusters) / n_clusters
    centers = separation * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    majority = np.array([1 if k % 2 == 0 else -1 for k in range(n_clusters)])
    sizes = rng.multinomial(n_docs, np.full(n_clusters, 1.0 / n_clusters))
    xs, ys, cs = [], [], []
    for k, size in enumerate(sizes):
        pts = centers[k] + noise * rng.standard_normal((size, 2))
        lbl = np.where(rng.random(size) < 0.9, majority[k], -majority[k])
        xs.append(pts)
        ys.append(lbl)
        cs.append(np.full(size, k))
    X = np.concatenate(xs, axis=0)
    y = np.concatenate(ys).astype(int)
    clusters = np.concatenate(cs).astype(int)
    order = rng.permutation(len(y))
    return X[order], y[order], clusters[order]
