"""Confusion-word generation: embedding-cosine synonyms and same-pinyin
homophones, plus the sampling policy used by the pretraining schedule.

All replacements preserve character length, so correction labels stay
position-aligned with the replaced word.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .resources import PinyinTable, WordEmbeddings


class ConfusionKind(enum.Enum):
    PINYIN = "PINYIN"
    SYNONYM = "SYNONYM"


@dataclass(frozen=True)
class ConfusionChoice:
    replacement: str
    kind: ConfusionKind
    score: float


@dataclass(frozen=True)
class ConfusionPolicy:
    """How to pick between the two confusion kinds.

    ``p_pinyin`` is the probability of attempting the pinyin kind first;
    when the attempted kind has no candidates, the other kind is tried.
    """

    p_pinyin: float = 0.5
    k_syn: int = 5

    def __post_init__(self):
        if not 0.0 <= self.p_pinyin <= 1.0:
            raise ConfigError(f"must be in [0, 1], got {self.p_pinyin}", "p_pinyin")
        check_k(self.k_syn, "k_syn")


def check_k(k: int, setting: str = "k") -> None:
    """The rule on a synonym candidate count: ``k`` below 1 is a
    ConfigError naming ``setting``."""
    if k < 1:
        raise ConfigError(f"must be >= 1, got {k}", setting)


def synonym_candidates(word: str, emb: WordEmbeddings, k: int) -> list[ConfusionChoice]:
    """Top-k words by cosine similarity, restricted to the same character
    length, excluding the word itself. Ties break lexicographically.
    A word absent from the embeddings yields an empty list."""
    check_k(k)
    if word not in emb:
        return []
    row = emb.row_index(word)
    unit = emb.unit_rows()
    span = emb.length_slice(len(word))
    sims = np.clip(unit[span] @ unit[row], -1.0, 1.0)
    sims[row - span.start] = -np.inf
    n = min(k, len(sims) - 1)
    if n < 1:
        return []
    # every row tied with the n-th best score is kept, so the word order
    # below breaks those ties exactly as a sort of the whole bucket would
    kth = np.partition(sims, len(sims) - n)[len(sims) - n]
    scored = sorted(((float(sims[j]), emb.words[span.start + j])
                     for j in np.flatnonzero(sims >= kth)), key=lambda t: (-t[0], t[1]))
    return [ConfusionChoice(replacement=w, kind=ConfusionKind.SYNONYM, score=s)
            for s, w in scored[:k]]


def pinyin_candidates(word: str, table: PinyinTable) -> list[ConfusionChoice]:
    """All other table words sharing this word's full pinyin sequence
    (same character length by table invariant), sorted lexicographically."""
    pinyin = table.by_word.get(word)
    if pinyin is None:
        return []
    return [ConfusionChoice(replacement=w, kind=ConfusionKind.PINYIN, score=1.0)
            for w in table.by_pinyin[pinyin] if w != word]


def sample_confusion(word: str, emb: WordEmbeddings, table: PinyinTable,
                     rng: random.Random, policy: ConfusionPolicy = ConfusionPolicy(),
                     synonyms: dict[str, list[ConfusionChoice]] | None = None
                     ) -> ConfusionChoice | None:
    """Draw one confusion for ``word`` or None when neither kind has
    candidates.

    RNG protocol (exactly this order, for reproducibility):
    1. one uniform decides the attempted kind (< p_pinyin means pinyin);
    2. if the attempted kind is empty, fall back to the other kind;
    3. one uniform choice among the selected kind's candidates.

    ``synonyms`` maps each word already scanned with ``emb`` and
    ``policy.k_syn`` to its :func:`synonym_candidates`: a word's first
    lookup fills it, and later calls given the same dict read it instead
    of scanning again. The draw is the same with or without it.
    """
    memo = {} if synonyms is None else synonyms

    def synonyms_of() -> list[ConfusionChoice]:
        if word not in memo:
            memo[word] = synonym_candidates(word, emb, policy.k_syn)
        return memo[word]

    if rng.random() < policy.p_pinyin:
        candidates = pinyin_candidates(word, table) or synonyms_of()
    else:
        candidates = synonyms_of() or pinyin_candidates(word, table)
    if not candidates:
        return None
    return rng.choice(candidates)
