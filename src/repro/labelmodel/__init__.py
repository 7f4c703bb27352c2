"""Label models: denoising/aggregating weak-supervision votes.

The paper's pipeline is label-model agnostic (Sec. 4.3); this package ships
the MeTaL-style default plus majority vote, Dawid–Skene, the triplet method,
and the ImplyLoss-L joint baseline.
"""

from repro.labelmodel.base import BaseLabelModel, LabelModel, posterior_entropy
from repro.labelmodel.dawid_skene import DawidSkene
from repro.labelmodel.implyloss import ImplyLossModel
from repro.labelmodel.majority import MajorityVote
from repro.labelmodel.matrix import (
    ABSTAIN,
    abstain_counts,
    apply_lfs,
    conflict_counts,
    conflict_fraction,
    coverage,
    coverage_mask,
    lf_accuracies,
    lf_coverages,
    overlap_fraction,
    summary,
    validate_label_matrix,
    vote_tallies,
)
from repro.labelmodel.metal import MetalLabelModel
from repro.labelmodel.triplet import TripletLabelModel

#: Registry of LabelModel factories (ImplyLoss has a different interface and
#: is intentionally excluded — it replaces label model *and* end model).
LABEL_MODELS = {
    "majority": MajorityVote,
    "metal": MetalLabelModel,
    "dawid-skene": DawidSkene,
    "triplet": TripletLabelModel,
}


def make_label_model(name: str, class_prior: float = 0.5, **kwargs) -> LabelModel:
    """Instantiate a registered label model by name."""
    try:
        cls = LABEL_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown label model {name!r}; choose from {sorted(LABEL_MODELS)}"
        ) from None
    return cls(class_prior=class_prior, **kwargs)


__all__ = [
    "BaseLabelModel",
    "LabelModel",
    "posterior_entropy",
    "MajorityVote",
    "MetalLabelModel",
    "DawidSkene",
    "TripletLabelModel",
    "ImplyLossModel",
    "LABEL_MODELS",
    "make_label_model",
    "ABSTAIN",
    "apply_lfs",
    "validate_label_matrix",
    "coverage",
    "coverage_mask",
    "lf_coverages",
    "lf_accuracies",
    "conflict_counts",
    "abstain_counts",
    "overlap_fraction",
    "conflict_fraction",
    "vote_tallies",
    "summary",
]
