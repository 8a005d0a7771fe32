"""Deterministic toy resources for tests, demos and the acceptance suite.

The generator builds a small closed world: CJK characters come in pairs
that share a pinyin syllable, every word's character-wise pair partner is
also a word (so every word has at least one homophone confusion), every
character is itself a one-character word, and all words carry embedding
vectors. Everything is written through the normal file formats and read
back with the production loaders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .marker_encoder import Vocab, build_vocab, load_vocab, save_vocab
from .resources import (Lexicon, PinyinTable, WordEmbeddings, load_embeddings,
                        load_lexicon, load_pinyin_table, write_text)

POS_TAGS = ("AD", "NN", "PN", "VV")
_ONSETS = ("b", "ch", "d", "f", "g", "h", "j", "k", "l", "m",
           "n", "p", "q", "r", "s", "sh", "t", "w", "x", "zh")
_FINALS = ("a", "ai", "an", "ang", "ao", "e", "ei", "en", "eng", "i",
           "ia", "ian", "in", "ing", "o", "ong", "ou", "u", "uan", "un")
N_CHAR_PAIRS = 48   # characters: two per pinyin syllable
N_BASE_WORDS = 150  # sampled words, each added with its pair-partner word
EMB_DIM = 16


@dataclass
class ToyWorld:
    """The generated inventory plus loaded resource objects."""

    chars: list[str]
    words: list[str]
    lexicon: Lexicon
    embeddings: WordEmbeddings
    pinyin: PinyinTable
    vocab: Vocab
    paths: dict[str, Path]


def _syllable_for(index: int) -> str:
    onset = _ONSETS[index % len(_ONSETS)]
    final = _FINALS[(index // len(_ONSETS)) % len(_FINALS)]
    return onset + final


def build_inventory(seed: int = 0) -> tuple[list[str], dict[str, str], list[str]]:
    """Characters (paired by shared syllable), each character's syllable,
    and a word list closed under the pair-partner map, with every character
    included as a word."""
    rng = random.Random(seed)
    chars = [chr(0x4E00 + i) for i in range(2 * N_CHAR_PAIRS)]
    partner: dict[str, str] = {}
    syllable: dict[str, str] = {}
    for pair in range(N_CHAR_PAIRS):
        a, b = chars[2 * pair], chars[2 * pair + 1]
        partner[a], partner[b] = b, a
        syl = _syllable_for(pair % (len(_ONSETS) * len(_FINALS)))
        syllable[a] = syllable[b] = syl

    words: list[str] = []
    seen: set[str] = set()

    def add(word: str) -> None:
        if word not in seen:
            seen.add(word)
            words.append(word)

    for c in chars:
        add(c)
    for _ in range(N_BASE_WORDS):
        length = rng.choices((1, 2, 3), weights=(2, 5, 2))[0]
        word = "".join(rng.choice(chars) for _ in range(length))
        add(word)
        add("".join(partner[c] for c in word))
    return chars, syllable, words


def write_toy_resources(directory: str | Path, seed: int = 0) -> ToyWorld:
    """Write lexicon.tsv, embeddings.txt, pinyin.tsv and vocab.txt into
    ``directory`` and load them back through the production loaders."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed + 1)
    chars, syllable, words = build_inventory(seed)

    lexicon_path = directory / "lexicon.tsv"
    write_text(lexicon_path,
               "".join(f"{w}\t{rng.choice(POS_TAGS)}\t{rng.randint(1, 9999)}\n" for w in words))

    emb_path = directory / "embeddings.txt"
    rows = [f"{len(words)} {EMB_DIM}"]
    for w in words:
        values = " ".join(f"{rng.gauss(0.0, 1.0):.6f}" for _ in range(EMB_DIM))
        rows.append(f"{w} {values}")
    write_text(emb_path, "\n".join(rows) + "\n")

    pinyin_path = directory / "pinyin.tsv"
    write_text(pinyin_path, "".join(f"{w}\t{' '.join(syllable[c] for c in w)}\n" for w in words))

    vocab_path = directory / "vocab.txt"
    save_vocab(build_vocab(chars, POS_TAGS), vocab_path)

    paths = {"lexicon": lexicon_path, "embeddings": emb_path,
             "pinyin": pinyin_path, "vocab": vocab_path}
    return ToyWorld(chars=chars, words=words,
                    lexicon=load_lexicon(lexicon_path),
                    embeddings=load_embeddings(emb_path),
                    pinyin=load_pinyin_table(pinyin_path),
                    vocab=load_vocab(vocab_path),
                    paths=paths)


def toy_corpus_lines(words: list[str], n_sentences: int, seed: int = 0, *,
                     words_per_sentence: tuple[int, int] = (3, 8),
                     sentences_per_doc: tuple[int, int] = (2, 6),
                     pretokenized: bool = False) -> list[str]:
    """Sentence lines with blank-line document separators. With
    ``pretokenized`` the sampled word boundaries are preserved verbatim
    (space-separated); otherwise lines are raw character text."""
    rng = random.Random(seed)
    lines: list[str] = []
    remaining_in_doc = rng.randint(*sentences_per_doc)
    for _ in range(n_sentences):
        if remaining_in_doc == 0:
            lines.append("")
            remaining_in_doc = rng.randint(*sentences_per_doc)
        count = rng.randint(*words_per_sentence)
        sentence = [rng.choice(words) for _ in range(count)]
        lines.append((" " if pretokenized else "").join(sentence))
        remaining_in_doc -= 1
    return lines


def write_toy_corpus(path: str | Path, words: list[str], n_sentences: int,
                     seed: int = 0, **kwargs) -> Path:
    path = Path(path)
    lines = toy_corpus_lines(words, n_sentences, seed, **kwargs)
    write_text(path, "\n".join(lines) + "\n")
    return path
