"""Multi-class generalization of the IDP pipeline (paper extension).

The paper restricts its exposition to binary classification "for ease of
exposition" (Sec. 3) while stating the IDP formalism for an arbitrary label
space ``Y``.  Most of the pipeline is written once for any label space and
parameterized by a :class:`~repro.core.convention.VoteConvention`; this
subpackage binds the K-class convention and holds the genuinely K-class
parts:

* primitive LFs emit a class in ``{0, ..., K-1}``; the family reuses the
  binary :class:`~repro.core.lf.LFFamily` (:mod:`repro.multiclass.lf`),
* the vote alphabet is the weak-supervision literature's ``{-1, 0, ...,
  K-1}`` with ``-1`` abstaining; validation and diagnostics are the
  alphabet-generic functions of :mod:`repro.labelmodel.matrix`, bound in
  :mod:`repro.multiclass.matrix`,
* label models generalize to per-class vote counts (majority vote) and full
  confusion matrices (Dawid–Skene EM) on the shared
  :class:`~repro.labelmodel.base.BaseLabelModel` root —
  :mod:`repro.multiclass.majority`, :mod:`repro.multiclass.dawid_skene`,
* the K-class corpus generator and featurizer share the binary split,
  TF-IDF and Zipf plumbing (:mod:`repro.multiclass.data`),
* the SEU selector, user models, utilities, selectors, and contextualizer
  are the convention-generic core components, re-exported here under their
  historical ``MC*`` names, and
* the session engine drives the full loop against a softmax end model
  (:mod:`repro.multiclass.session`).

The binary pipeline keeps the paper's ``{-1, 0, +1}`` vote encoding (0
abstains); here classes occupy ``0..K-1`` and ``-1`` abstains.  Both
alphabets flow through the same :class:`~repro.labelmodel.matrix.VoteMatrix`
and diagnostics, each keyed by its own abstain value and labels.
"""

from repro.multiclass.contextualizer import MCContextualizer, MCPercentileTuner
from repro.multiclass.data import (
    MCCorpusSpec,
    MCClusterSpec,
    MCCorpusGenerator,
    MCFeaturizedDataset,
    featurize_mc_corpus,
    make_topics_dataset,
)
from repro.multiclass.dawid_skene import MCDawidSkeneModel
from repro.multiclass.lf import MultiClassLF, MultiClassLFFamily
from repro.multiclass.majority import MCMajorityVote
from repro.multiclass.base import MultiClassLabelModel, posterior_entropy_mc
from repro.multiclass.matrix import MC_ABSTAIN
from repro.multiclass.seu import MCSEUSelector
from repro.multiclass.selection import (
    MCAbstainSelector,
    MCDevDataSelector,
    MCDisagreeSelector,
    MCRandomSelector,
    MCSessionState,
    MCUncertaintySelector,
)
from repro.multiclass.session import MCLFDeveloper, MultiClassSession
from repro.multiclass.simulated_user import MCNoisyUser, MCSimulatedUser
from repro.multiclass.user_model import (
    MCAccuracyWeightedUserModel,
    MCThresholdedUserModel,
    MCUniformUserModel,
    MCUserModel,
)
from repro.multiclass.utility import (
    MCFullUtility,
    MCLFUtility,
    MCNoCorrectnessUtility,
    MCNoInformativenessUtility,
)

__all__ = [
    "MC_ABSTAIN",
    "MCAbstainSelector",
    "MCAccuracyWeightedUserModel",
    "MCClusterSpec",
    "MCDisagreeSelector",
    "MCNoisyUser",
    "MCThresholdedUserModel",
    "MCUncertaintySelector",
    "MCContextualizer",
    "MCCorpusGenerator",
    "MCCorpusSpec",
    "MCDawidSkeneModel",
    "MCDevDataSelector",
    "MCFeaturizedDataset",
    "MCFullUtility",
    "MCLFDeveloper",
    "MCLFUtility",
    "MCMajorityVote",
    "MCNoCorrectnessUtility",
    "MCNoInformativenessUtility",
    "MCPercentileTuner",
    "MCRandomSelector",
    "MCSEUSelector",
    "MCSessionState",
    "MCSimulatedUser",
    "MCUniformUserModel",
    "MCUserModel",
    "MultiClassLF",
    "MultiClassLFFamily",
    "MultiClassLabelModel",
    "MultiClassSession",
    "featurize_mc_corpus",
    "make_topics_dataset",
    "posterior_entropy_mc",
]
