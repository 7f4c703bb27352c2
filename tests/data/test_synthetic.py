"""Tests for the synthetic corpus generator."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import (
    ClusterSpec,
    CorpusGenerator,
    CorpusSpec,
    make_toy_clusters,
)


def small_spec(**overrides) -> CorpusSpec:
    defaults = dict(
        name="unit",
        clusters=(
            ClusterSpec(
                name="c0",
                marker_words=("alpha", "beta"),
                local_positive=("lp0", "lp1"),
                local_negative=("ln0", "ln1"),
            ),
            ClusterSpec(
                name="c1",
                marker_words=("gamma", "delta"),
                local_positive=("lp2", "lp3"),
                local_negative=("ln2", "ln3"),
                weight=0.5,
            ),
        ),
        global_positive=("goodword", "niceword"),
        global_negative=("badword", "uglyword"),
        common_words=("the", "and"),
        mean_doc_length=12.0,
    )
    defaults.update(overrides)
    return CorpusSpec(**defaults)


class TestSpecValidation:
    def test_valid_spec_ok(self):
        small_spec()

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            small_spec(p_common=0.9)

    def test_positive_ratio_bounds(self):
        with pytest.raises(ValueError):
            small_spec(positive_ratio=0.0)

    def test_reliability_bounds(self):
        with pytest.raises(ValueError):
            small_spec(global_reliability=0.4)

    def test_requires_clusters(self):
        with pytest.raises(ValueError, match="cluster"):
            small_spec(clusters=())

    def test_negative_zipf_rejected(self):
        with pytest.raises(ValueError):
            small_spec(zipf_exponent=-1.0)

    def test_negative_cluster_weight_rejected(self):
        with pytest.raises(ValueError, match="weight of cluster 'c'"):
            ClusterSpec(name="c", marker_words=("m",), weight=-1.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_cluster_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="weight of cluster 'c'"):
            ClusterSpec(name="c", marker_words=("m",), weight=weight)

    def test_all_zero_cluster_weights_rejected(self):
        zero = tuple(
            ClusterSpec(name=f"c{k}", marker_words=("m",), weight=0.0) for k in range(2)
        )
        with pytest.raises(ValueError, match="clusters must have a positive total weight"):
            small_spec(clusters=zero)

    def test_zero_weight_cluster_legal_and_never_drawn(self):
        base = small_spec().clusters
        clusters = (base[0], replace(base[1], weight=0.0))
        corpus = CorpusGenerator(small_spec(clusters=clusters)).generate(400, seed=0)
        assert set(corpus.clusters.tolist()) == {0}


class TestGeneration:
    def test_sizes_and_labels(self):
        corpus = CorpusGenerator(small_spec()).generate(50, seed=0)
        assert len(corpus) == 50
        assert set(np.unique(corpus.labels)) <= {-1, 1}
        assert corpus.clusters.max() < 2

    def test_deterministic(self):
        gen = CorpusGenerator(small_spec())
        a = gen.generate(30, seed=7)
        b = gen.generate(30, seed=7)
        assert a.texts == b.texts
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        gen = CorpusGenerator(small_spec())
        a = gen.generate(30, seed=1)
        b = gen.generate(30, seed=2)
        assert a.texts != b.texts

    def test_min_doc_length_respected(self):
        corpus = CorpusGenerator(small_spec(mean_doc_length=1.0, min_doc_length=4)).generate(
            40, seed=0
        )
        assert all(len(t.split()) >= 4 for t in corpus.texts)

    def test_class_balance_approximate(self):
        corpus = CorpusGenerator(small_spec(positive_ratio=0.2)).generate(2000, seed=0)
        assert 0.15 < (corpus.labels == 1).mean() < 0.25

    def test_cluster_weights_respected(self):
        corpus = CorpusGenerator(small_spec()).generate(3000, seed=0)
        share_c0 = (corpus.clusters == 0).mean()
        assert 0.58 < share_c0 < 0.75  # weights 1.0 vs 0.5 => ~2/3

    def test_lexicon_contains_global_and_local_cues(self):
        corpus = CorpusGenerator(small_spec()).generate(10, seed=0)
        assert corpus.lexicon["goodword"] == 1
        assert corpus.lexicon["badword"] == -1
        assert corpus.lexicon["lp0"] == 1
        assert corpus.lexicon["ln2"] == -1

    def test_global_cues_indicative(self):
        spec = small_spec(global_reliability=0.95)
        corpus = CorpusGenerator(spec).generate(3000, seed=0)
        has_good = np.array(["goodword" in t.split() for t in corpus.texts])
        acc = (corpus.labels[has_good] == 1).mean()
        assert acc > 0.75

    def test_local_cues_more_accurate_at_home(self):
        # Borrowed cue polarity is randomized per (word, cluster), so any
        # single cue may stay accidentally correct abroad; the *average*
        # over cues must decay away from home (the Fig. 2 phenomenon).
        clusters = tuple(
            ClusterSpec(
                name=f"c{k}",
                marker_words=(f"m{k}a", f"m{k}b"),
                local_positive=(f"lp{k}a", f"lp{k}b", f"lp{k}c"),
                local_negative=(f"ln{k}a", f"ln{k}b", f"ln{k}c"),
            )
            for k in range(4)
        )
        spec = small_spec(clusters=clusters, local_leak=0.4, local_reliability=0.95)
        corpus = CorpusGenerator(spec).generate(8000, seed=3)
        token_sets = [set(t.split()) for t in corpus.texts]
        home_accs, away_accs = [], []
        for k in range(4):
            for cue in (f"lp{k}a", f"lp{k}b", f"lp{k}c"):
                has_cue = np.array([cue in toks for toks in token_sets])
                home = has_cue & (corpus.clusters == k)
                away = has_cue & (corpus.clusters != k)
                if home.sum() > 10:
                    home_accs.append((corpus.labels[home] == 1).mean())
                if away.sum() > 10:
                    away_accs.append((corpus.labels[away] == 1).mean())
        assert home_accs and away_accs
        assert np.mean(home_accs) > np.mean(away_accs) + 0.15

    def test_zipf_head_words_more_frequent(self):
        spec = small_spec(zipf_exponent=1.2)
        corpus = CorpusGenerator(spec).generate(2000, seed=0)
        text = " ".join(corpus.texts).split()
        first = sum(1 for t in text if t == "the")
        second = sum(1 for t in text if t == "and")
        assert first > second

    def test_invalid_n_docs(self):
        with pytest.raises(ValueError):
            CorpusGenerator(small_spec()).generate(0, seed=0)

    @given(st.integers(5, 60), st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_any_size_and_seed(self, n, seed):
        corpus = CorpusGenerator(small_spec()).generate(n, seed=seed)
        assert len(corpus.texts) == len(corpus.labels) == len(corpus.clusters) == n


class TestToyClusters:
    def test_shapes(self):
        X, y, clusters = make_toy_clusters(n_docs=100, n_clusters=4, seed=0)
        assert X.shape == (100, 2)
        assert set(np.unique(y)) <= {-1, 1}
        assert clusters.max() == 3

    def test_deterministic(self):
        a = make_toy_clusters(n_docs=50, seed=5)
        b = make_toy_clusters(n_docs=50, seed=5)
        np.testing.assert_array_equal(a[0], b[0])

    def test_clusters_label_homogeneous(self):
        X, y, clusters = make_toy_clusters(n_docs=2000, n_clusters=4, seed=0)
        for k in range(4):
            share = (y[clusters == k] == 1).mean()
            assert share > 0.8 or share < 0.2

    def test_clusters_spatially_separated(self):
        X, y, clusters = make_toy_clusters(n_docs=500, n_clusters=2, separation=8.0, noise=0.5, seed=0)
        c0 = X[clusters == 0].mean(axis=0)
        c1 = X[clusters == 1].mean(axis=0)
        assert np.linalg.norm(c0 - c1) > 8.0
