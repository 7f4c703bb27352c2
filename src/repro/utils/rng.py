"""Seeded random-number-generation helpers.

All stochastic components of the library accept ``seed`` arguments that may
be ``None`` (fresh entropy), an ``int`` (deterministic), or an existing
:class:`numpy.random.Generator` (shared stream).  Centralizing the
normalization here keeps every experiment reproducible from a single integer.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

SeedLike = "int | np.random.Generator | None"


def ensure_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a deterministic stream, or an
        existing generator which is returned unchanged (so callers can share
        one stream across components).

    Examples
    --------
    >>> g = ensure_rng(0)
    >>> h = ensure_rng(g)
    >>> g is h
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_children(seed: int | np.random.Generator | None, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from one seed.

    Used by multi-seed experiment protocols: each run gets its own stream so
    that adding or removing runs never perturbs the others.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        child_seeds = seed.integers(0, 2**32, size=n)
        return [np.random.default_rng(int(s)) for s in child_seeds]
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def stable_hash_seed(*parts: object) -> int:
    """Derive a deterministic 32-bit seed from arbitrary string-able parts.

    Unlike :func:`hash`, this is stable across interpreter runs, which makes
    it safe for naming-based seeding (e.g. one seed per dataset name).

    Examples
    --------
    >>> stable_hash_seed("amazon", 0) == stable_hash_seed("amazon", 0)
    True
    >>> stable_hash_seed("amazon", 0) != stable_hash_seed("yelp", 0)
    True
    """
    digest = hashlib.sha256("::".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def choice_cdf(probs) -> list[float]:
    """The CDF ``Generator.choice(len(probs), p=probs)`` builds, as a list.

    numpy recomputes ``cdf = p.cumsum(); cdf /= cdf[-1]`` on every weighted
    ``choice`` call and returns ``cdf.searchsorted(rng.random(),
    side="right")``.  Building the CDF once with the same float operations
    lets ``bisect.bisect_right(cdf, rng.random())`` return the same index
    from the same single double, without the per-call validation.  A
    zero-probability entry repeats its predecessor's CDF value, so it is
    never drawn.

    Examples
    --------
    >>> import bisect
    >>> cdf = choice_cdf([0.2, 0.0, 0.8])
    >>> a, b = ensure_rng(3), ensure_rng(3)
    >>> [bisect.bisect_right(cdf, a.random()) for _ in range(8)] == [
    ...     int(b.choice(3, p=[0.2, 0.0, 0.8])) for _ in range(8)]
    True
    """
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def uniform_pick(rng: np.random.Generator, seq: Sequence):
    """``rng.choice(seq)`` for a non-empty sequence, without the array copy.

    Draws the same ``integers(0, len(seq))`` index numpy's unweighted
    ``choice`` draws, so it returns the same element and leaves the same
    generator state.
    """
    return seq[int(rng.integers(0, len(seq)))]
