"""Sampled corpus growth: scale a generated corpus without regenerating it.

The token-level :class:`~repro.data.synthetic.CorpusGenerator` is a Python
loop over every token of every document.  It generates about 15k amazon
documents per second (50k documents in 3.2 s on one core of a 2-vCPU
Intel Xeon host), so the perf harness's n_train = 500k sweep point (625k
documents) would spend about 40 s per build in it.  Growth also stays
because the committed 500k bench rows were measured on grown corpora;
generating them directly would change those rows.  :func:`grow_corpus`
instead generates a *base* corpus at a fraction of the target size and grows it by
**document bootstrap**: each new document picks a base document uniformly
at random and resamples that document's own tokens with replacement.

The grown corpus preserves exactly what the perf benchmark needs:

* the vocabulary (no new tokens are minted, so the primitive domain and
  feature dimensionality match a directly-generated corpus of the same
  spec),
* each document's cluster, label, and length (bootstrap keeps the source
  document's metadata and token count), hence the corpus-level class
  balance and cluster mix in expectation, and
* per-document token statistics — resampling *within* one document draws
  from that document's empirical token distribution, so grown documents
  are distinct TF-IDF rows (not row duplicates) that still sit in their
  source's cluster region.

It deliberately does **not** reproduce the generator's exact corpus-level
word frequencies (a bootstrap never does); quality benchmarks keep using
the generator directly.  Growth is fully deterministic given the seed.
"""

from __future__ import annotations

import numpy as np

from repro.data.synthetic import SyntheticCorpus
from repro.utils.rng import ensure_rng


def grow_corpus(base: SyntheticCorpus, n_docs: int, seed=None) -> SyntheticCorpus:
    """Grow ``base`` to ``n_docs`` documents by document bootstrap.

    Parameters
    ----------
    base:
        A generated corpus to grow.  Returned unchanged if it already has
        ``n_docs`` documents.
    n_docs:
        Target total document count; must be >= ``len(base)``.
    seed:
        Seed (or Generator) driving source-document choice and the
        within-document token resampling.
    """
    if n_docs < len(base):
        raise ValueError(
            f"cannot grow a corpus of {len(base)} documents down to {n_docs}; "
            "growth only adds documents"
        )
    if n_docs == len(base):
        return base
    rng = ensure_rng(seed)
    n_extra = n_docs - len(base)
    sources = rng.integers(0, len(base), size=n_extra)
    base_tokens = [text.split() for text in base.texts]

    texts = list(base.texts)
    for src in sources:
        tokens = base_tokens[src]
        draw = rng.integers(0, len(tokens), size=len(tokens))
        texts.append(" ".join(tokens[j] for j in draw))

    labels = np.concatenate([base.labels, base.labels[sources]])
    clusters = np.concatenate([base.clusters, base.clusters[sources]])
    return SyntheticCorpus(
        name=base.name,
        texts=texts,
        labels=labels,
        clusters=clusters,
        cluster_names=list(base.cluster_names),
        lexicon=dict(base.lexicon),
    )
