"""Multiclass selection: adapter re-exports of the cardinality-generic layer.

The session state and every baseline selector live in
:mod:`repro.core.selection`, written once against the
:class:`~repro.core.convention.VoteConvention` contract; this module binds
their historical multiclass names.  ``MCSessionState`` is the one
:class:`~repro.core.selection.SessionState`, which reads the K-class
convention (votes ``0..K-1``, ``-1`` abstains) from its dataset.
"""

from __future__ import annotations

from repro.core.selection import (
    AbstainSelector as MCAbstainSelector,
    DevDataSelector as MCDevDataSelector,
    DisagreeSelector as MCDisagreeSelector,
    RandomSelector as MCRandomSelector,
    SessionState as MCSessionState,
    UncertaintySelector as MCUncertaintySelector,
)

__all__ = [
    "MCAbstainSelector",
    "MCDevDataSelector",
    "MCDisagreeSelector",
    "MCRandomSelector",
    "MCSessionState",
    "MCUncertaintySelector",
]
