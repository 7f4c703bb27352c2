"""Select by Expected Utility — Nemo's development-data selector (Eq. 1).

SEU scores every unlabeled example by the expected utility of the LF the
user would create from it:

    x* = argmax_x  E_{P(λ|x)}[ Ψ_t(λ) ]
       = argmax_x  Σ_y P(y) · Σ_{z ∈ x} w_y(z)·Ψ(λ_{z,y}) / Σ_{z ∈ x} w_y(z)

where the pick weights ``w_y(z)`` come from the user model (Eq. 2) and Ψ
from the utility function (Eq. 3).  With primitive LFs everything reduces
to one pair of sparse mat-vecs over the incidence matrix ``B`` per label —
no loops over the LF family (see DESIGN.md, "SEU vectorization").

The selector is cardinality-generic: the expectation decomposes per label
exactly the same way for ``Y = {±1}`` and ``Y = {0..K-1}``, so the loop
runs over the columns of the state convention's canonical label order
(accuracy table, pick-weight table, utility table, prior vector — see
:mod:`repro.core.convention`).  ``repro.multiclass.seu`` re-exports the
class as ``MCSEUSelector``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.selection import DevDataSelector, SessionState
from repro.core.user_model import UserModel, make_user_model
from repro.core.utility import LFUtility, make_utility


class SEUSelector(DevDataSelector):
    """The Nemo selector.

    Parameters
    ----------
    user_model:
        A :class:`~repro.core.user_model.UserModel` instance or registry
        name (``"accuracy"`` for Eq. 2, ``"uniform"`` for the Table-6
        ablation, ``"thresholded"`` for Eq. 6).
    utility:
        A :class:`~repro.core.utility.LFUtility` instance or registry name
        (``"full"`` for Eq. 3, or the Table-7 ablations).
    warmup:
        Select uniformly at random until at least this many LFs exist *and*
        enough distinct labels are represented (see ``min_classes``).
        SEU's expectation is computed against the end model's predictions
        (Sec. 4.2); before a discriminative model exists — in particular
        while every LF votes the same class — those predictions carry no
        signal and expected utilities degenerate (one user-model branch is
        starved and the ranking collapses onto coverage artifacts).  A
        brief random phase is the standard cold-start treatment for
        model-guided acquisition.
    min_classes:
        How many distinct LF labels must be present before leaving the
        cold-start phase (capped at the label-space cardinality).  Two
        suffices to break the one-sided degeneracy — and is the whole
        alphabet in the binary case; raising it toward ``K`` delays SEU
        until broader class coverage.

    Notes
    -----
    Ground-truth accuracies and vote correctness are approximated with the
    end model's current predictions ŷ (Sec. 4.2); SEU therefore improves as
    the loop progresses and the end model sharpens.
    """

    name = "seu"

    def __init__(
        self,
        user_model: UserModel | str = "accuracy",
        utility: LFUtility | str = "full",
        warmup: int = 3,
        min_classes: int = 2,
    ) -> None:
        self.user_model = (
            make_user_model(user_model) if isinstance(user_model, str) else user_model
        )
        self.utility = make_utility(utility) if isinstance(utility, str) else utility
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        if min_classes < 1:
            raise ValueError(f"min_classes must be >= 1, got {min_classes}")
        self.warmup = warmup
        self.min_classes = min_classes

    def select(self, state: SessionState) -> int | None:
        mask = state.candidate_mask()
        if not mask.any():
            return None
        if self._in_cold_start(state):
            return int(state.rng.choice(np.flatnonzero(mask)))
        scores = self.expected_utilities(state)
        return self._argmax_with_ties(scores, mask, state.rng)

    def _in_cold_start(self, state: SessionState) -> bool:
        if len(state.lfs) < self.warmup:
            return True
        labels = {lf.label for lf in state.lfs}
        return len(labels) < min(self.min_classes, state.convention.n_classes)

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def expected_utilities(self, state: SessionState) -> np.ndarray:
        """``E_{P(λ|x)}[Ψ_t(λ)]`` for every train example, shape ``(n,)``.

        Every input of the expectation (the accuracy table ``B.T @ proxy``,
        the utility tables, the posterior entropies) changes only when the
        session refits, so the whole score vector is memoized in the
        refit-scoped ``state.cache`` when one is provided — repeat
        selections between refits (e.g. after an LF-less iteration) become
        a dict lookup instead of a pass over the incidence matrix.
        """
        cache = getattr(state, "cache", None)
        cache_key = ("seu_expected", self.user_model.name, self.utility.name)
        if cache is not None and cache_key in cache:
            return cache[cache_key]
        convention = state.convention
        B = state.B
        # This is the read that materializes any deferred (on-demand) proxy
        # predictions — sessions whose selector never gets here never pay
        # for end-model prediction between cold refits.
        proxy = state.resolve_proxy()
        acc = convention.accuracy_table(state.family, proxy)  # (|Z|, K)
        weights = self.user_model.pick_weight_table(acc)  # (|Z|, K)
        utils = self.utility.score_table(
            B, state.entropies, convention.signed_agreement(proxy)
        )  # (|Z|, K)
        priors = convention.class_prior_vector(state.dataset)
        K = len(convention.labels)
        if sp.issparse(B):
            # One sparse×dense product per table instead of K sparse
            # mat-vecs: CSR accumulates each output element over the same
            # nonzeros in the same order either way, so the numbers are
            # bit-identical to the historical per-column loop (pinned by
            # the equivalence tests) while amortizing the row traversal
            # across all K label columns.
            numerators = np.asarray(B @ (weights * utils))  # (n, K)
            denominators = np.asarray(B @ weights)  # (n, K)
            contributions = np.divide(
                numerators,
                denominators,
                out=np.zeros_like(numerators),
                where=denominators > 1e-12,
            )
            expected = np.zeros(state.n_train)
            # The K-reduction stays an explicit loop: a BLAS mat-vec here
            # could fuse multiply-adds and drift from the loop's bits.
            for j in range(K):
                expected += priors[j] * contributions[:, j]
        else:
            # Dense incidence matrices would route the fused product
            # through GEMM, whose accumulation order differs from the
            # per-column GEMV — keep the exact historical arithmetic.
            expected = np.zeros(state.n_train)
            for j in range(K):
                numerator = np.asarray(B @ (weights[:, j] * utils[:, j])).ravel()
                denominator = np.asarray(B @ weights[:, j]).ravel()
                contribution = np.divide(
                    numerator,
                    denominator,
                    out=np.zeros_like(numerator),
                    where=denominator > 1e-12,
                )
                expected += priors[j] * contribution
        if cache is not None:
            cache[cache_key] = expected
        return expected

    def expected_utility_of(self, example_index: int, state: SessionState) -> float:
        """Scalar expected utility of one example (reference path for tests).

        Enumerates the candidate LFs of the example explicitly and combines
        the scalar user-model probabilities with scalar utilities — the
        direct transcription of Eq. 1 used to validate the vectorized path.
        """
        convention = state.convention
        family = state.family
        primitives = family.primitives_in(example_index)
        if primitives.size == 0:
            return 0.0
        proxy = state.resolve_proxy()
        acc = convention.accuracy_table(family, proxy)
        utils = self.utility.score_table(
            state.B, state.entropies, convention.signed_agreement(proxy)
        )
        priors = convention.class_prior_vector(state.dataset)
        total = 0.0
        for j, label in enumerate(convention.labels):
            for pid in primitives:
                lf = family.make(int(pid), int(label))
                prob = self.user_model.probability_in_column(
                    lf, example_index, family, acc, float(priors[j]), j
                )
                if prob > 0:
                    total += prob * float(utils[lf.primitive_id, j])
        return total
