"""The multiclass substrate reuses the binary one instead of mirroring it.

LF family, featurizer, split accessors, generator plumbing, vote
diagnostics and the label-model root each have one implementation; these
tests pin that the K-class names are bindings to it (a re-pasted copy
fails them) and that the shared code gives both label spaces the same
result where their inputs coincide.
"""

import numpy as np
import pytest

from repro.core.lf import LFFamily
from repro.data.dataset import FeaturizedDataset, SplitAccessors, featurize_corpus
from repro.data.synthetic import CorpusGenerator
from repro.labelmodel.base import BaseLabelModel, LabelModel
from repro.labelmodel.dawid_skene import DawidSkene
from repro.labelmodel.matrix import VoteMatrix
from repro.labelmodel.metal import MetalLabelModel
from repro.multiclass.base import MultiClassLabelModel
from repro.multiclass.data import (
    MCCorpusGenerator,
    MCFeaturizedDataset,
    featurize_mc_corpus,
    make_topics_spec,
)
from repro.multiclass.dawid_skene import MCDawidSkeneModel
from repro.multiclass.lf import MultiClassLFFamily


class TestLFFamily:
    def test_family_keeps_only_its_k_class_parts(self):
        assert issubclass(MultiClassLFFamily, LFFamily)
        own = {name for name in vars(MultiClassLFFamily) if not name.startswith("__")}
        assert own == {"make", "empirical_class_mass"}

    def test_inherited_lookup_emits_multiclass_lfs(self, topics_dataset):
        ds = topics_dataset
        family = MultiClassLFFamily(ds.primitive_names, ds.train.B, ds.n_classes)
        lf = family.make_by_token(ds.primitive_names[3], 2)
        assert type(lf).__name__ == "MultiClassLF" and lf.label == 2
        with pytest.raises(ValueError, match="label"):
            family.make_by_token(ds.primitive_names[3], ds.n_classes)


class TestData:
    def test_generator_shares_init_and_zipf_picker(self):
        assert issubclass(MCCorpusGenerator, CorpusGenerator)
        assert "__init__" not in vars(MCCorpusGenerator)
        assert "_pick" not in vars(MCCorpusGenerator)
        # The label draws differ on purpose, so generate stays its own.
        assert MCCorpusGenerator.generate is not CorpusGenerator.generate

    def test_split_accessors_defined_once(self):
        for cls in (FeaturizedDataset, MCFeaturizedDataset):
            assert issubclass(cls, SplitAccessors)
            for name in ("train", "valid", "test", "n_primitives", "primitive_id"):
                assert name not in vars(cls), f"{cls.__name__} redefines {name}"

    def test_both_featurizers_split_and_featurize_identically(self):
        corpus = MCCorpusGenerator(make_topics_spec(vocab_scale=4, seed=1)).generate(
            240, seed=5
        )
        binary = featurize_corpus(corpus, seed=9)
        multi = featurize_mc_corpus(corpus, seed=9)
        assert binary.primitive_names == multi.primitive_names
        for name in ("train", "valid", "test"):
            a, b = binary.splits[name], multi.splits[name]
            assert a.texts == b.texts
            assert (a.X != b.X).nnz == 0 and (a.B != b.B).nnz == 0
            np.testing.assert_array_equal(a.y, b.y)
        assert multi.primitive_id(multi.primitive_names[7]) == 7


class TestLabelModelRoot:
    def test_binary_and_multiclass_share_one_root(self):
        assert issubclass(LabelModel, BaseLabelModel)
        assert issubclass(MultiClassLabelModel, BaseLabelModel)
        for name in ("fit_warm", "fit_predict_proba", "_validated_or_stats"):
            assert name not in vars(LabelModel)
            assert name not in vars(MultiClassLabelModel)

    @pytest.mark.parametrize("cls", [MetalLabelModel, DawidSkene, MCDawidSkeneModel])
    def test_stats_guard_is_not_repasted(self, cls):
        assert "_validated_or_stats" not in vars(cls)

    def test_multiclass_guard_rejects_a_foreign_handle(self):
        vm = VoteMatrix(4, abstain=-1)
        vm.append_rows(np.array([0, 2]), 1)
        other = np.full((4, 1), -1, dtype=np.int8)
        with pytest.raises(ValueError, match="stats handle"):
            MCDawidSkeneModel(n_classes=3).fit(other, stats=vm.stats)
