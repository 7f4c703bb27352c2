"""Byte-level pins of the generated corpora and their TF-IDF features.

The generators draw every token from one seeded stream, so any change to
how a draw consumes that stream (or to the featurizer's entry order)
silently regenerates every dataset, golden transcript and bench row.
These digests fail loudly instead.  They cover the corpus (texts, labels,
clusters of every split) and the train split's ``X``/``B`` CSR arrays, for
the ``nemo-10k`` amazon build, the tiny sms build and the ``mc-nemo-5k``
topics build.
"""

import hashlib

import numpy as np
import pytest

from repro.data import load_dataset
from repro.multiclass import make_topics_dataset

PINS = {
    "amazon-12500": {
        "corpus": "2949e0320d41af9238130264f2715815a8656cff785ca45a03bee2bc8c7da049",
        "train_features": "4c9d288a2907b047316935a58e0b093422d716197ca863cedf08800a1c6d8446",
    },
    "sms-tiny": {
        "corpus": "bc41941eaa4c6ae1dc7363a2bcecddd891f99012b1bec929a4b26a0b29340bdc",
        "train_features": "af30093f0fe005d2c0e773b61ba622f775ce5b25559c52e40c1410c437a2d561",
    },
    "topics-6250": {
        "corpus": "060ab1eeeb33e7ac1fdeb1ea72cb681047b896f971414aaab34ac4eeb8804286",
        "train_features": "74cf939b79ab65d5e15f466cf2acdca8ca6117de64e5d9d2686869e7ead7c7fd",
    },
}

BUILDERS = {
    "amazon-12500": lambda: load_dataset("amazon", scale="bench", seed=0, n_docs=12500),
    "sms-tiny": lambda: load_dataset("sms", scale="tiny", seed=0),
    "topics-6250": lambda: make_topics_dataset(n_docs=6250, seed=0),
}


def _update(digest, array, dtype) -> None:
    array = np.ascontiguousarray(array, dtype=dtype)
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())


def fingerprint(dataset) -> dict[str, str]:
    """sha256 digests of a featurized dataset's corpus and train features.

    Index arrays are hashed as little-endian int64 so a change in scipy's
    index dtype policy does not count as drift; their values and order do.
    """
    corpus = hashlib.sha256()
    for name in ("train", "valid", "test"):
        split = dataset.splits[name]
        corpus.update("\n".join(split.texts).encode())
        _update(corpus, split.y, "<i8")
        _update(corpus, split.clusters, "<i8")
    features = hashlib.sha256()
    for matrix in (dataset.train.X, dataset.train.B):
        _update(features, matrix.data, "<f8")
        _update(features, matrix.indices, "<i8")
        _update(features, matrix.indptr, "<i8")
    return {"corpus": corpus.hexdigest(), "train_features": features.hexdigest()}


@pytest.mark.parametrize("name", sorted(PINS))
def test_fingerprint_pinned(name):
    assert fingerprint(BUILDERS[name]()) == PINS[name]
