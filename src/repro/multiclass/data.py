"""Multiclass synthetic corpora and the featurized dataset container.

The K-class counterparts of :mod:`repro.data.synthetic` /
:mod:`repro.data.dataset`, built on their shared parts (the Zipf word
picker, the split-and-featurize helper, the split accessors).  The label
draw stays K-class: the binary generator draws ``rng.random() <
positive_ratio``, this one bisects the class priors' cached CDF (the same
draw ``rng.choice(K, p=priors)`` makes from the same stream), and merging
them would change every generated corpus.  The generator keeps the two
structural phenomena the paper's contributions exploit — cluster-local
generalization and distance-decaying LF accuracy — but with K per-class
cue banks: *global* cues name their class reliably everywhere, while
*local* cues are reliable only inside their home cluster and re-randomized
(over all K classes) elsewhere.

The bundled recipe, :func:`make_topics_dataset`, is an AG-News-flavoured
4-topic classification task (world / sports / business / tech) built on the
same skeleton as the binary recipes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Split, SplitAccessors, featurize_splits
from repro.data.minting import mint_words
from repro.data.synthetic import CorpusGenerator, check_cluster_weight, check_clusters
from repro.data.wordbanks import COMMON_FILLER
from repro.utils.rng import choice_cdf, ensure_rng, uniform_pick
from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class MCClusterSpec:
    """One latent style/category cluster of a multiclass corpus.

    Parameters
    ----------
    name:
        Human-readable cluster name.
    marker_words:
        Neutral words characteristic of this cluster (no label signal).
    local_cues:
        Per-class cue banks whose stated class holds *inside this cluster
        only*: ``local_cues[k]`` lists words cueing class ``k``.
    weight:
        Relative probability of a document being drawn from this cluster.
    """

    name: str
    marker_words: tuple[str, ...]
    local_cues: tuple[tuple[str, ...], ...] = ()
    weight: float = 1.0

    def __post_init__(self) -> None:
        check_cluster_weight(self)

    @property
    def local_words(self) -> tuple[str, ...]:
        """Every local cue word, bank by bank."""
        return tuple(w for bank in self.local_cues for w in bank)


@dataclass(frozen=True)
class MCCorpusSpec:
    """Full specification of a K-class synthetic corpus.

    Parameters
    ----------
    name:
        Corpus name.
    n_classes:
        The number of classes ``K``.
    clusters:
        Latent clusters; any per-cluster ``local_cues`` must have ``K``
        banks.
    global_cues:
        ``K`` banks of cue words naming each class reliably in every
        cluster.
    common_words:
        Label- and cluster-neutral filler vocabulary.
    class_priors:
        ``(K,)`` document class distribution; uniform when omitted.
    mean_doc_length / min_doc_length:
        Poisson document length (clipped below).
    p_common / p_marker / p_global / p_local:
        Per-token mixture weights of the four word sources; must sum to 1.
    global_reliability:
        Probability an emitted global cue names the document class; the
        remaining mass spreads uniformly over other classes.
    local_reliability:
        Same for home-cluster local cues.
    local_leak:
        Probability a "local" emission borrows another cluster's local cue;
        borrowed cues get a fixed random class per (word, cluster) pair —
        the accuracy-decay phenomenon.
    zipf_exponent:
        Zipf exponent of within-bank word frequencies (0 = uniform).
    """

    name: str
    n_classes: int
    clusters: tuple[MCClusterSpec, ...]
    global_cues: tuple[tuple[str, ...], ...]
    common_words: tuple[str, ...]
    class_priors: tuple[float, ...] | None = None
    mean_doc_length: float = 20.0
    min_doc_length: int = 4
    p_common: float = 0.40
    p_marker: float = 0.28
    p_global: float = 0.14
    p_local: float = 0.18
    global_reliability: float = 0.85
    local_reliability: float = 0.9
    local_leak: float = 0.25
    zipf_exponent: float = 0.6

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if len(self.global_cues) != self.n_classes:
            raise ValueError(
                f"global_cues must have {self.n_classes} banks, got {len(self.global_cues)}"
            )
        check_clusters(self.clusters)
        for cluster in self.clusters:
            if cluster.local_cues and len(cluster.local_cues) != self.n_classes:
                raise ValueError(
                    f"cluster {cluster.name!r} local_cues must have "
                    f"{self.n_classes} banks, got {len(cluster.local_cues)}"
                )
        if self.class_priors is not None:
            if len(self.class_priors) != self.n_classes:
                raise ValueError(
                    f"class_priors must have length {self.n_classes}, "
                    f"got {len(self.class_priors)}"
                )
            if not all(math.isfinite(p) and p > 0 for p in self.class_priors):
                raise ValueError(
                    f"class_priors must be finite and strictly positive, "
                    f"got {self.class_priors!r}"
                )
        check_positive("mean_doc_length", self.mean_doc_length)
        total = self.p_common + self.p_marker + self.p_global + self.p_local
        if not np.isclose(total, 1.0):
            raise ValueError(f"token mixture weights must sum to 1, got {total}")
        check_in_range("global_reliability", self.global_reliability, 1.0 / self.n_classes, 1.0)
        check_in_range("local_reliability", self.local_reliability, 1.0 / self.n_classes, 1.0)
        check_in_range("local_leak", self.local_leak, 0.0, 1.0)
        if self.zipf_exponent < 0:
            raise ValueError(f"zipf_exponent must be >= 0, got {self.zipf_exponent}")

    def priors_array(self) -> np.ndarray:
        """Normalized ``(K,)`` class priors."""
        if self.class_priors is None:
            return np.full(self.n_classes, 1.0 / self.n_classes)
        priors = np.asarray(self.class_priors, dtype=float)
        return priors / priors.sum()


@dataclass
class MCSyntheticCorpus:
    """A generated K-class corpus.

    ``lexicon`` maps every global (and home-polarity local) cue word to its
    class id — the multiclass analogue of the opinion lexicon consulted by
    the simulated user.
    """

    name: str
    n_classes: int
    texts: list[str]
    labels: np.ndarray  # (n,) int in {0..K-1}
    clusters: np.ndarray  # (n,) int cluster index
    cluster_names: list[str]
    lexicon: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.texts)


class MCCorpusGenerator(CorpusGenerator):
    """Samples :class:`MCSyntheticCorpus` instances from an :class:`MCCorpusSpec`.

    Shares the binary generator's cluster weights and Zipf word picker;
    only the label draw and the cue emission are K-class.
    """

    def generate(self, n_docs: int, seed=None) -> MCSyntheticCorpus:
        """Generate ``n_docs`` documents (fully seeded)."""
        check_positive("n_docs", n_docs)
        rng = ensure_rng(seed)
        spec = self.spec
        prior_cdf = choice_cdf(spec.priors_array())
        borrowed = self._borrow_candidates(
            self._sample_foreign_classes(rng), range(spec.n_classes)
        )
        texts: list[str] = []
        labels = np.empty(n_docs, dtype=int)
        clusters = np.empty(n_docs, dtype=int)
        for i in range(n_docs):
            c = bisect_right(self._cluster_cdf, rng.random())
            y = bisect_right(prior_cdf, rng.random())
            length = max(int(rng.poisson(spec.mean_doc_length)), spec.min_doc_length)
            tokens = [self._sample_token(rng, c, y, borrowed) for _ in range(length)]
            texts.append(" ".join(tokens))
            labels[i] = y
            clusters[i] = c
        lexicon: dict[str, int] = {}
        for k, bank in enumerate(spec.global_cues):
            for word in bank:
                lexicon[word] = k
        for cluster in spec.clusters:
            for k, bank in enumerate(cluster.local_cues):
                for word in bank:
                    lexicon.setdefault(word, k)
        return MCSyntheticCorpus(
            name=spec.name,
            n_classes=spec.n_classes,
            texts=texts,
            labels=labels,
            clusters=clusters,
            cluster_names=[c.name for c in spec.clusters],
            lexicon=lexicon,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _sample_foreign_classes(self, rng: np.random.Generator) -> dict[tuple[str, int], int]:
        """Assign each local cue a fixed random class in every foreign cluster."""
        spec = self.spec
        mapping: dict[tuple[str, int], int] = {}
        for home_idx, home in enumerate(spec.clusters):
            for word in home.local_words:
                for other_idx in range(len(spec.clusters)):
                    if other_idx != home_idx:
                        mapping[(word, other_idx)] = int(rng.integers(spec.n_classes))
        return mapping

    def _emit_class(self, rng: np.random.Generator, label: int, reliability: float) -> int:
        """The class a cue token names: the document class w.p. ``reliability``."""
        if rng.random() < reliability:
            return label
        others = [k for k in range(self.spec.n_classes) if k != label]
        return uniform_pick(rng, others)

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
            emitted = self._emit_class(rng, label, spec.global_reliability)
            return self._pick(rng, spec.global_cues[emitted])
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
            # No borrowed word carries this class here; fall through to home.
        emitted = self._emit_class(rng, label, spec.local_reliability)
        if cluster.local_cues:
            return self._pick(rng, cluster.local_cues[emitted])
        return self._pick(rng, spec.global_cues[emitted])


@dataclass
class MCFeaturizedDataset(SplitAccessors):
    """A fully-prepared K-class dataset for multiclass IDP.

    Structurally parallel to :class:`repro.data.dataset.FeaturizedDataset`
    (it reuses the same :class:`~repro.data.dataset.Split` rows, so the
    binary package's :class:`~repro.core.lineage.LineageStore` works on it
    unchanged), but carries a ``(K,)`` class-prior vector instead of a
    scalar positive rate.
    """

    name: str
    n_classes: int
    metric: str
    splits: dict[str, Split]
    primitive_names: list[str]
    lexicon: dict[str, int] = field(default_factory=dict)
    class_priors: np.ndarray = None
    cluster_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.class_priors is None:
            self.class_priors = np.full(self.n_classes, 1.0 / self.n_classes)

    def describe(self) -> str:
        """One-line statistics string."""
        sizes = {name: split.n for name, split in self.splits.items()}
        return (
            f"{self.name}: K={self.n_classes} #Train={sizes['train']} "
            f"#Valid={sizes['valid']} #Test={sizes['test']} "
            f"|Z|={self.n_primitives} metric={self.metric}"
        )


def featurize_mc_corpus(
    corpus: MCSyntheticCorpus,
    metric: str = "accuracy",
    min_df: int = 2,
    max_df_ratio: float = 0.5,
    valid_ratio: float = 0.1,
    test_ratio: float = 0.1,
    seed=None,
) -> MCFeaturizedDataset:
    """Split and featurize a K-class corpus (80/10/10, train-fitted TF-IDF).

    Shares :func:`repro.data.dataset.featurize_splits` with the binary
    :func:`~repro.data.dataset.featurize_corpus`; class priors are
    estimated on the validation split with additive smoothing so every
    class keeps strictly positive mass.
    """
    splits, primitive_names = featurize_splits(
        corpus, metric, min_df, max_df_ratio, valid_ratio, test_ratio, seed
    )
    valid_y = splits["valid"].y
    counts = np.bincount(valid_y, minlength=corpus.n_classes).astype(float)
    priors = (counts + 1.0) / (counts.sum() + corpus.n_classes)
    return MCFeaturizedDataset(
        name=corpus.name,
        n_classes=corpus.n_classes,
        metric=metric,
        splits=splits,
        primitive_names=primitive_names,
        lexicon=dict(corpus.lexicon),
        class_priors=priors,
        cluster_names=list(corpus.cluster_names),
    )


TOPIC_NAMES = ("world", "sports", "business", "tech")

_TOPIC_GLOBAL_CUES = (
    # world
    ("election", "minister", "treaty", "embassy", "diplomat", "parliament",
     "border", "summit", "sanctions", "ceasefire"),
    # sports
    ("championship", "tournament", "goal", "coach", "playoffs", "stadium",
     "league", "medal", "striker", "referee"),
    # business
    ("earnings", "shares", "merger", "investors", "quarterly", "revenue",
     "stocks", "acquisition", "profit", "dividend"),
    # tech
    ("software", "startup", "processor", "encryption", "browser", "server",
     "algorithm", "silicon", "developer", "cloud"),
)

_TOPIC_CLUSTERS = (
    # newswire style: terse agency copy; local cues lean world/business
    MCClusterSpec(
        name="newswire",
        marker_words=("reuters", "reported", "statement", "officials", "agency",
                      "spokesman", "sources", "confirmed", "announced", "press"),
        local_cues=(
            ("crisis", "talks", "regime"),
            ("fixture", "squad", "standings"),
            ("markets", "trading", "index"),
            ("rollout", "platform", "update"),
        ),
        weight=1.6,
    ),
    # blogs: informal commentary; local cues lean sports/tech
    MCClusterSpec(
        name="blogs",
        marker_words=("honestly", "folks", "yesterday", "basically", "opinion",
                      "post", "readers", "thread", "comments", "blogged"),
        local_cues=(
            ("protests", "borders", "leaders"),
            ("matchday", "derby", "transfer"),
            ("layoffs", "valuation", "funding"),
            ("beta", "opensource", "benchmark"),
        ),
        weight=1.0,
    ),
    # regional outlets: local-news flavour; smaller cluster
    MCClusterSpec(
        name="regional",
        marker_words=("county", "mayor", "residents", "downtown", "local",
                      "community", "council", "district", "neighborhood", "hometown"),
        local_cues=(
            ("delegation", "consulate", "visas"),
            ("varsity", "homecoming", "relay"),
            ("storefront", "payroll", "vendors"),
            ("broadband", "gadgets", "firmware"),
        ),
        weight=0.6,
    ),
)


def make_topics_spec(vocab_scale: int = 40, seed: int = 7) -> MCCorpusSpec:
    """The AG-News-flavoured 4-topic corpus spec.

    ``vocab_scale`` minted words are appended per word bank so per-LF
    coverage lands in the realistic 1–3% range (same realism knob as the
    binary recipes); curated words stay at the Zipf head.  A shared
    ``taken`` set keeps minted words unique *across* banks — a word serving
    as both a class cue and a cluster marker would blur the generator's
    semantics.
    """
    rng = ensure_rng(seed)
    taken: set[str] = set(COMMON_FILLER)
    for bank in _TOPIC_GLOBAL_CUES:
        taken.update(bank)
    for cluster in _TOPIC_CLUSTERS:
        taken.update(cluster.marker_words)
        for bank in cluster.local_cues:
            taken.update(bank)

    def _mint(n: int) -> tuple[str, ...]:
        words = mint_words(n, seed=rng, taken=taken)
        taken.update(words)
        return tuple(words)

    global_cues = tuple(
        tuple(bank) + _mint(vocab_scale) for bank in _TOPIC_GLOBAL_CUES
    )
    clusters = []
    for cluster in _TOPIC_CLUSTERS:
        markers = tuple(cluster.marker_words) + _mint(vocab_scale * 2)
        local = tuple(
            tuple(bank) + _mint(max(vocab_scale // 2, 1))
            for bank in cluster.local_cues
        )
        clusters.append(
            MCClusterSpec(
                name=cluster.name,
                marker_words=markers,
                local_cues=local,
                weight=cluster.weight,
            )
        )
    common = tuple(COMMON_FILLER) + _mint(vocab_scale * 3)
    return MCCorpusSpec(
        name="topics",
        n_classes=4,
        clusters=tuple(clusters),
        global_cues=global_cues,
        common_words=common,
        mean_doc_length=22.0,
    )


def make_topics_dataset(
    n_docs: int = 3000,
    seed: int = 0,
    vocab_scale: int = 40,
) -> MCFeaturizedDataset:
    """Generate and featurize the 4-topic multiclass benchmark dataset."""
    spec = make_topics_spec(vocab_scale=vocab_scale, seed=seed + 104729)
    corpus = MCCorpusGenerator(spec).generate(n_docs, seed=seed)
    return featurize_mc_corpus(corpus, metric="accuracy", seed=seed + 1)
