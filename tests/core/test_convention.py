"""Unit tests for the VoteConvention contract (repro.core.convention)."""

import numpy as np
import pytest

from repro.core.convention import (
    BINARY,
    MulticlassVoteConvention,
    convention_for,
    multiclass_convention,
)


class TestBinaryConvention:
    def test_alphabet(self):
        assert BINARY.abstain == 0
        assert BINARY.n_classes == 2
        assert BINARY.labels == (1, -1)
        assert BINARY.label_index(1) == 0
        assert BINARY.label_index(-1) == 1
        with pytest.raises(ValueError, match="not a vote value"):
            BINARY.label_index(2)

    def test_validate_matrix(self):
        L = np.array([[1, 0], [-1, 1]])
        assert BINARY.validate_matrix(L).dtype == np.int8
        with pytest.raises(ValueError):
            BINARY.validate_matrix(np.array([[3, 0]]))

    def test_counts(self):
        L = np.array([[1, -1, 0], [1, 1, 1], [0, 0, 0]])
        np.testing.assert_array_equal(BINARY.abstain_counts(L), [1, 0, 3])
        np.testing.assert_array_equal(BINARY.conflict_counts(L), [1, 0, 0])
        np.testing.assert_array_equal(BINARY.coverage_mask(L), [True, True, False])

    def test_posterior_helpers(self):
        proba = np.array([0.9, 0.5, 0.1])
        np.testing.assert_array_equal(BINARY.posterior_to_votes(proba), [1, 1, -1])
        ent = BINARY.posterior_entropy(proba)
        assert ent[1] == pytest.approx(np.log(2))
        assert ent[0] < ent[1]

    def test_proxy_matrix_soft_and_hard(self):
        P = BINARY.proxy_matrix(np.array([0.25, 1.0]))
        np.testing.assert_allclose(P, [[0.25, 0.75], [1.0, 0.0]])
        P_hard = BINARY.proxy_matrix(np.array([1, -1]))
        np.testing.assert_allclose(P_hard, [[1.0, 0.0], [0.0, 1.0]])

    def test_proxy_matrix_rejects_malformed(self):
        # Mixed negatives that aren't hard ±1 labels (e.g. logits) and
        # out-of-range "probabilities" must raise, not silently rescale.
        with pytest.raises(ValueError, match="±1 hard labels or probabilities"):
            BINARY.proxy_matrix(np.array([-2.3, 1.7]))
        with pytest.raises(ValueError, match="±1 hard labels or probabilities"):
            BINARY.proxy_matrix(np.array([0.2, 1.4]))
        with pytest.raises(ValueError, match="lie in"):
            BINARY.proxy_matrix(np.array([[0.2, 1.4], [0.5, 0.5]]))

    def test_signed_agreement_negation_symmetry(self):
        p = np.array([0.1, 0.5, 0.93])
        s = BINARY.signed_agreement(p)
        np.testing.assert_array_equal(s[:, 1], -s[:, 0])
        np.testing.assert_allclose(s[:, 0], 2 * p - 1)

    def test_true_accuracy_table(self):
        import scipy.sparse as sp

        B = sp.csr_matrix(np.array([[1, 0], [1, 0], [0, 0]]))
        y = np.array([1, -1, 1])
        table = BINARY.true_accuracy_table(B, y)
        np.testing.assert_allclose(table[0], [0.5, 0.5])
        np.testing.assert_allclose(table[1], [0.5, 0.5])  # uncovered -> 1/K

    def test_corrupt_label_flips_sign(self):
        rng = np.random.default_rng(0)
        assert BINARY.corrupt_label(1, rng) == -1
        assert BINARY.corrupt_label(-1, rng) == 1

    def test_metric_fn(self):
        fn = BINARY.metric_fn("accuracy")
        assert fn(np.array([1, -1]), np.array([1, 1])) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            BINARY.metric_fn("mcc")


class TestMulticlassConvention:
    def test_alphabet(self):
        conv = MulticlassVoteConvention(4)
        assert conv.abstain == -1
        assert conv.labels == (0, 1, 2, 3)
        assert conv.label_index(3) == 3
        with pytest.raises(ValueError, match="not a vote value"):
            conv.label_index(4)
        with pytest.raises(ValueError, match="n_classes"):
            MulticlassVoteConvention(1)

    def test_counts_match_binary_formula_shape(self):
        conv = MulticlassVoteConvention(3)
        L = np.array([[0, 1, 2], [-1, -1, 1], [2, 2, 2]])
        np.testing.assert_array_equal(conv.abstain_counts(L), [0, 2, 0])
        np.testing.assert_array_equal(conv.conflict_counts(L), [3, 0, 0])
        np.testing.assert_array_equal(conv.coverage_mask(L), [True, True, True])

    def test_posterior_helpers(self):
        conv = MulticlassVoteConvention(3)
        proba = np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(conv.posterior_to_votes(proba), [1, 0])
        ent = conv.posterior_entropy(proba)
        assert ent[0] > ent[1]

    def test_signed_agreement_zero_at_chance(self):
        conv = MulticlassVoteConvention(4)
        P = np.full((5, 4), 0.25)
        np.testing.assert_allclose(conv.signed_agreement(P), 0.0, atol=1e-12)

    def test_proxy_matrix_validates(self):
        conv = MulticlassVoteConvention(3)
        with pytest.raises(ValueError, match="2-D"):
            conv.proxy_matrix(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="class columns"):
            conv.proxy_matrix(np.full((2, 4), 0.25))

    def test_corrupt_label_uniform_over_others(self):
        conv = MulticlassVoteConvention(3)
        rng = np.random.default_rng(0)
        draws = {conv.corrupt_label(1, rng) for _ in range(50)}
        assert draws == {0, 2}

    def test_metric_fn_accuracy_only(self):
        conv = MulticlassVoteConvention(3)
        fn = conv.metric_fn("accuracy")
        assert fn(np.array([0, 1, 2]), np.array([0, 1, 1])) == pytest.approx(2 / 3)
        with pytest.raises(ValueError, match="accuracy"):
            conv.metric_fn("f1")

    def test_cached_instances(self):
        assert multiclass_convention(5) is multiclass_convention(5)

    def test_n_classes_beyond_int8_rejected(self):
        assert MulticlassVoteConvention(127).labels[-1] == 126
        with pytest.raises(ValueError, match="int8"):
            MulticlassVoteConvention(128)

    def test_validate_matrix_rejects_non_integer_votes(self):
        with pytest.raises(ValueError, match="entries must be in"):
            MulticlassVoteConvention(3).validate_matrix(np.array([[1.5, -0.5]]))


class TestSharedDiagnostics:
    """The conventions hold no diagnostics of their own: they bind their
    alphabet to the functions of :mod:`repro.labelmodel.matrix`."""

    @pytest.mark.parametrize(
        "method, arg",
        [
            ("coverage_mask", "abstain"),
            ("abstain_counts", "abstain"),
            ("conflict_counts", "labels"),
            ("validate_matrix", None),
        ],
    )
    @pytest.mark.parametrize("conv", [BINARY, MulticlassVoteConvention(4)], ids=["binary", "mc"])
    def test_method_calls_shared_function(self, monkeypatch, conv, method, arg):
        from repro.labelmodel import matrix as vote_matrix

        target = "validate_label_matrix" if method == "validate_matrix" else method
        calls = []

        def spy(L, *args):
            calls.append(args)
            return "shared"

        monkeypatch.setattr(vote_matrix, target, spy)
        L = np.zeros((2, 1), dtype=np.int8)
        assert getattr(conv, method)(L) == "shared"
        expected = {
            "abstain": (conv.abstain,),
            "labels": (conv.labels,),
            None: (conv.abstain, conv.labels),
        }[arg]
        assert calls == [expected]


class TestConventionDispatch:
    def test_binary_dataset(self):
        class FakeBinary:
            pass

        assert convention_for(FakeBinary()) is BINARY

    def test_multiclass_dataset(self):
        class FakeMC:
            n_classes = 7

        conv = convention_for(FakeMC())
        assert isinstance(conv, MulticlassVoteConvention)
        assert conv.n_classes == 7

    def test_k2_multiclass_agreement_matches_binary(self):
        # The chance-centered agreement reduces to 2p-1 for K = 2.
        conv = multiclass_convention(2)
        p = np.array([0.7, 0.3, 0.5])
        P = np.stack([p, 1 - p], axis=1)
        np.testing.assert_allclose(conv.signed_agreement(P)[:, 0], 2 * p - 1)

    def test_both_registries_build_the_one_session_class(self):
        from repro.core.session import DataProgrammingSession
        from repro.data import load_dataset
        from repro.experiments import make_method
        from repro.multiclass import make_topics_dataset
        from repro.multiclass.experiments import make_mc_method

        binary = load_dataset("amazon", scale="tiny", seed=0)
        topics = make_topics_dataset(n_docs=300, seed=0, vocab_scale=5)
        for factory, ds in ((make_method("nemo"), binary), (make_mc_method("nemo-mc"), topics)):
            session = factory(ds, 0)
            assert type(session) is DataProgrammingSession
            assert session.convention is convention_for(ds)
            assert session.build_state().convention is session.convention
            assert session.abstain_value == session.convention.abstain

    def test_default_learners(self):
        from repro.data import load_dataset
        from repro.endmodel.logistic import SoftLabelLogisticRegression
        from repro.labelmodel.metal import MetalLabelModel

        ds = load_dataset("amazon", scale="tiny", seed=0)
        assert isinstance(BINARY.default_label_model_factory(ds)(), MetalLabelModel)
        assert isinstance(BINARY.default_end_model(ds), SoftLabelLogisticRegression)


class TestFailClosed:
    def test_session_state_requires_a_proxy(self):
        from repro.core.selection import MulticlassSessionState, SessionState

        common = dict(
            dataset=None,
            family=None,
            iteration=0,
            lfs=[],
            L_train=np.zeros((3, 0), dtype=np.int8),
            soft_labels=np.full(3, 0.5),
            entropies=np.zeros(3),
        )
        with pytest.raises(TypeError, match="proxy"):
            SessionState(**common)
        with pytest.raises(TypeError, match="proxy_proba"):
            MulticlassSessionState(**common)
