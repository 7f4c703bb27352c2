"""Tests for the multiclass corpus generator and featurization."""

from dataclasses import replace

import numpy as np
import pytest

from repro.multiclass.data import (
    MCClusterSpec,
    MCCorpusGenerator,
    MCCorpusSpec,
    featurize_mc_corpus,
    make_topics_dataset,
    make_topics_spec,
)


def tiny_spec(n_classes=3):
    clusters = (
        MCClusterSpec(
            name="c0",
            marker_words=("m0a", "m0b"),
            local_cues=(("l00",), ("l01",), ("l02",))[:n_classes],
        ),
        MCClusterSpec(
            name="c1",
            marker_words=("m1a", "m1b"),
            local_cues=(("l10",), ("l11",), ("l12",))[:n_classes],
            weight=2.0,
        ),
    )
    return MCCorpusSpec(
        name="tiny",
        n_classes=n_classes,
        clusters=clusters,
        global_cues=(("g0",), ("g1",), ("g2",))[:n_classes],
        common_words=("the", "and", "of"),
        mean_doc_length=10.0,
    )


class TestSpecValidation:
    def test_valid_spec(self):
        tiny_spec()

    def test_wrong_global_bank_count(self):
        with pytest.raises(ValueError, match="global_cues"):
            MCCorpusSpec(
                name="bad",
                n_classes=3,
                clusters=tiny_spec().clusters,
                global_cues=(("g0",), ("g1",)),
                common_words=("the",),
            )

    def test_wrong_local_bank_count(self):
        bad_cluster = MCClusterSpec(
            name="bad", marker_words=("m",), local_cues=(("a",), ("b",))
        )
        with pytest.raises(ValueError, match="local_cues"):
            MCCorpusSpec(
                name="bad",
                n_classes=3,
                clusters=(bad_cluster,),
                global_cues=(("g0",), ("g1",), ("g2",)),
                common_words=("the",),
            )

    def test_mixture_weights_must_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MCCorpusSpec(
                name="bad",
                n_classes=2,
                clusters=tiny_spec(2).clusters,
                global_cues=(("g0",), ("g1",)),
                common_words=("the",),
                p_common=0.9,
            )

    def test_priors_validated(self):
        with pytest.raises(ValueError, match="class_priors"):
            MCCorpusSpec(
                name="bad",
                n_classes=3,
                clusters=tiny_spec().clusters,
                global_cues=(("g0",), ("g1",), ("g2",)),
                common_words=("the",),
                class_priors=(0.5, 0.5),
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_priors_rejected(self, bad):
        with pytest.raises(ValueError, match="class_priors must be finite"):
            MCCorpusSpec(
                name="bad",
                n_classes=2,
                clusters=tiny_spec(2).clusters,
                global_cues=(("g0",), ("g1",)),
                common_words=("the",),
                class_priors=(1.0, bad),
            )

    @pytest.mark.parametrize("weight", [-0.5, float("nan"), float("inf")])
    def test_bad_cluster_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="weight of cluster 'c'"):
            MCClusterSpec(name="c", marker_words=("m",), weight=weight)

    def test_all_zero_cluster_weights_rejected(self):
        zero = tuple(replace(c, weight=0.0) for c in tiny_spec().clusters)
        with pytest.raises(ValueError, match="clusters must have a positive total weight"):
            replace(tiny_spec(), clusters=zero)

    def test_zero_weight_cluster_legal_and_never_drawn(self):
        spec = tiny_spec()
        clusters = (replace(spec.clusters[0], weight=0.0), spec.clusters[1])
        corpus = MCCorpusGenerator(replace(spec, clusters=clusters)).generate(300, seed=0)
        assert set(corpus.clusters.tolist()) == {1}

    def test_priors_array_normalizes(self):
        spec = MCCorpusSpec(
            name="ok",
            n_classes=2,
            clusters=tiny_spec(2).clusters,
            global_cues=(("g0",), ("g1",)),
            common_words=("the",),
            class_priors=(2.0, 2.0),
        )
        np.testing.assert_allclose(spec.priors_array(), [0.5, 0.5])


class TestGenerator:
    def test_deterministic_for_seed(self):
        gen = MCCorpusGenerator(tiny_spec())
        a = gen.generate(50, seed=3)
        b = gen.generate(50, seed=3)
        assert a.texts == b.texts
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_labels_in_range(self):
        corpus = MCCorpusGenerator(tiny_spec()).generate(200, seed=0)
        assert set(np.unique(corpus.labels)) <= {0, 1, 2}

    def test_cluster_weights_respected(self):
        corpus = MCCorpusGenerator(tiny_spec()).generate(3000, seed=0)
        counts = np.bincount(corpus.clusters, minlength=2)
        assert counts[1] > counts[0]  # c1 has double weight

    def test_global_cues_indicative(self):
        corpus = MCCorpusGenerator(tiny_spec()).generate(3000, seed=1)
        has_g0 = np.array(["g0" in t.split() for t in corpus.texts])
        # documents containing the class-0 global cue skew to class 0
        assert (corpus.labels[has_g0] == 0).mean() > (corpus.labels == 0).mean()

    def test_lexicon_maps_cues_to_classes(self):
        corpus = MCCorpusGenerator(tiny_spec()).generate(10, seed=0)
        assert corpus.lexicon["g1"] == 1
        assert corpus.lexicon["l02"] == 2

    def test_local_cue_reliability_decays_off_cluster(self):
        spec = tiny_spec()
        corpus = MCCorpusGenerator(spec).generate(6000, seed=2)
        has_l00 = np.array(["l00" in t.split() for t in corpus.texts])
        home = corpus.clusters == 0
        in_home = has_l00 & home
        off_home = has_l00 & ~home
        if in_home.sum() >= 30 and off_home.sum() >= 30:
            acc_home = (corpus.labels[in_home] == 0).mean()
            acc_off = (corpus.labels[off_home] == 0).mean()
            assert acc_home > acc_off


class TestFeaturization:
    def test_dataset_shapes(self, topics_dataset):
        ds = topics_dataset
        assert ds.n_classes == 4
        for split in ds.splits.values():
            assert split.X.shape[0] == split.n
            assert split.B.shape == split.X.shape
            assert split.y.shape == (split.n,)
        assert ds.train.X.shape[1] == ds.n_primitives

    def test_priors_positive_and_normalized(self, topics_dataset):
        priors = topics_dataset.class_priors
        assert priors.shape == (4,)
        assert np.all(priors > 0)
        assert priors.sum() == pytest.approx(1.0)

    def test_primitive_id_lookup(self, topics_dataset):
        token = topics_dataset.primitive_names[5]
        assert topics_dataset.primitive_id(token) == 5
        with pytest.raises(KeyError):
            topics_dataset.primitive_id("definitely-not-a-token")

    def test_describe_mentions_k(self, topics_dataset):
        assert "K=4" in topics_dataset.describe()

    def test_metric_validated(self):
        corpus = MCCorpusGenerator(tiny_spec()).generate(60, seed=0)
        with pytest.raises(ValueError, match="metric"):
            featurize_mc_corpus(corpus, metric="auc")


class TestTopicsRecipe:
    def test_spec_banks_unique_across_categories(self):
        spec = make_topics_spec(vocab_scale=5, seed=0)
        seen: set[str] = set()
        for bank in spec.global_cues:
            overlap = seen & set(bank)
            assert not overlap
            seen |= set(bank)

    def test_dataset_reproducible(self):
        a = make_topics_dataset(n_docs=120, seed=4, vocab_scale=4)
        b = make_topics_dataset(n_docs=120, seed=4, vocab_scale=4)
        np.testing.assert_array_equal(a.train.y, b.train.y)
        assert a.primitive_names == b.primitive_names

    def test_four_topics(self):
        ds = make_topics_dataset(n_docs=200, seed=0, vocab_scale=4)
        assert ds.n_classes == 4
        assert set(np.unique(ds.train.y)) <= {0, 1, 2, 3}
