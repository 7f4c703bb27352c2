"""The cached-CDF samplers draw exactly what per-call ``rng.choice`` drew.

The generators replaced numpy's per-call ``rng.choice(n, p=...)`` and
``rng.choice(seq)`` with a bisect over a CDF built once and an
``integers`` index draw.  Every dataset, golden transcript and bench row
depends on the two being the same draw from the same stream, so these
tests hold them against the old per-call pickers (kept here as oracles)
under whatever numpy is installed: the same words, and the same
``bit_generator.state`` afterwards.
"""

from bisect import bisect_right

import numpy as np
import pytest

from repro.data.synthetic import ClusterSpec, CorpusGenerator, CorpusSpec
from repro.utils.rng import choice_cdf, uniform_pick

N_SEEDS = 20
N_DRAWS = 2000


def oracle_pick(rng: np.random.Generator, bank, zipf_exponent: float) -> str:
    """The per-call Zipf picker the generators used before the CDF cache."""
    n = len(bank)
    if n == 1:
        return str(bank[0])
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-zipf_exponent)
    probs = weights / weights.sum()
    return str(bank[int(rng.choice(n, p=probs))])


def generator(zipf_exponent: float) -> CorpusGenerator:
    spec = CorpusSpec(
        name="stream",
        clusters=(ClusterSpec(name="c", marker_words=("m",)),),
        global_positive=("g+",),
        global_negative=("g-",),
        common_words=("w",),
        zipf_exponent=zipf_exponent,
    )
    return CorpusGenerator(spec)


def assert_same_stream(draw_new, draw_old) -> None:
    for seed in range(N_SEEDS):
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new = [draw_new(new_rng) for _ in range(N_DRAWS)]
        old = [draw_old(old_rng) for _ in range(N_DRAWS)]
        assert new == old, f"seed {seed}: draws differ"
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


@pytest.mark.parametrize("zipf_exponent", [0.0, 0.6])
@pytest.mark.parametrize("bank_size", [1, 2, 3, 40, 600])
def test_zipf_pick_matches_per_call_choice(bank_size, zipf_exponent):
    bank = tuple(f"w{i}" for i in range(bank_size))
    gen = generator(zipf_exponent)
    assert_same_stream(
        lambda rng: gen._pick(rng, bank),
        lambda rng: oracle_pick(rng, bank, zipf_exponent),
    )


@pytest.mark.parametrize("seq", [("a", "bb", "c", "dd", "e"), [0, 2, 3]])
def test_uniform_pick_matches_choice(seq):
    assert_same_stream(
        lambda rng: uniform_pick(rng, seq),
        lambda rng: rng.choice(seq).item(),
    )


@pytest.mark.parametrize(
    "weights", [(1.0, 0.0, 0.5), (0.0, 2.0, 1.0), (1.6, 1.0, 0.6, 0.0)]
)
def test_weighted_draw_with_zero_weight_matches_choice(weights):
    w = np.array(weights, float)
    probs = w / w.sum()
    cdf = choice_cdf(probs)
    assert_same_stream(
        lambda rng: bisect_right(cdf, rng.random()),
        lambda rng: int(rng.choice(len(w), p=probs)),
    )
    rng = np.random.default_rng(0)
    drawn = {bisect_right(cdf, rng.random()) for _ in range(N_DRAWS)}
    assert drawn == {k for k, weight in enumerate(weights) if weight > 0}
