"""The multiclass IDP session: historical names of the one session class.

:class:`~repro.core.session.DataProgrammingSession` runs every vote
alphabet, reading the K-class
:class:`~repro.core.convention.VoteConvention` (``-1`` abstains, the
Dawid–Skene default aggregator, the softmax end model) from a
:class:`~repro.multiclass.data.MCFeaturizedDataset`.  This module keeps
the names the K-class session and its user contract were imported under.
"""

from __future__ import annotations

from repro.core.session import DataProgrammingSession, LFDeveloper

#: The K-class session — the same class as the binary one.
MultiClassSession = DataProgrammingSession

#: The user in the loop, turning a development example into a K-class LF
#: (``create_lf(dev_index, state) -> LF | None``, the binary contract).
MCLFDeveloper = LFDeveloper

__all__ = ["MCLFDeveloper", "MultiClassSession"]
