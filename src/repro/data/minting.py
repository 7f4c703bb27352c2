"""Deterministic pseudo-word minting for vocabulary expansion.

The curated word banks in :mod:`repro.data.wordbanks` carry the semantics
(category markers, sentiment/spam cues), but real corpora have *thousands*
of distinct tokens, each covering only a percent or two of documents.
Vocabulary size is load-bearing for the paper's dynamics: with a small
vocabulary every keyword LF covers 10-25% of the corpus, coverage saturates
within ten iterations, and the interactive regime the paper studies
(50 iterations of gradual coverage growth) collapses.  Minted words pad
every bank to realistic sizes while keeping documents pronounceable.
"""

from __future__ import annotations

from repro.utils.rng import ensure_rng, uniform_pick

_ONSETS = (
    "b", "br", "c", "ch", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j",
    "k", "l", "m", "n", "p", "pl", "pr", "qu", "r", "s", "sh", "sl", "sn",
    "st", "t", "th", "tr", "v", "w", "z",
)
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "oo")
_CODAS = ("", "", "", "n", "r", "s", "l", "t", "m", "nd", "st", "ck")


def mint_word(rng, n_syllables: int) -> str:
    """One pronounceable pseudo-word with the given syllable count."""
    parts = []
    for idx in range(n_syllables):
        onset = uniform_pick(rng, _ONSETS)
        vowel = uniform_pick(rng, _VOWELS)
        coda = uniform_pick(rng, _CODAS) if idx == n_syllables - 1 else ""
        parts.append(onset + vowel + coda)
    return "".join(parts)


def mint_words(
    n: int,
    seed=None,
    taken: set[str] | None = None,
    min_syllables: int = 2,
    max_syllables: int = 3,
) -> list[str]:
    """Mint ``n`` distinct pseudo-words, avoiding the ``taken`` set.

    Deterministic for a fixed seed; collisions (with ``taken`` or previous
    mints) are retried, so the output is always exactly ``n`` unique words.

    Examples
    --------
    >>> words = mint_words(5, seed=0)
    >>> len(set(words)) == 5
    True
    >>> mint_words(5, seed=0) == mint_words(5, seed=0)
    True
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = ensure_rng(seed)
    used = set(taken) if taken else set()
    words: list[str] = []
    while len(words) < n:
        n_syl = int(rng.integers(min_syllables, max_syllables + 1))
        word = mint_word(rng, n_syl)
        if word in used:
            continue
        used.add(word)
        words.append(word)
    return words


def expand_bank(
    bank: list[str] | tuple[str, ...],
    target_size: int,
    seed=None,
    taken: set[str] | None = None,
) -> tuple[str, ...]:
    """Pad a curated word bank with minted words up to ``target_size``.

    The curated words stay first (they remain the most recognizable cues in
    generated text and in the lexicon); returns the bank unchanged when it
    already meets the target.
    """
    bank = tuple(bank)
    if len(bank) >= target_size:
        return bank
    avoid = set(bank) | (set(taken) if taken else set())
    extra = mint_words(target_size - len(bank), seed=seed, taken=avoid)
    return bank + tuple(extra)
