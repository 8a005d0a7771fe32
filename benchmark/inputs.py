"""Seeded input generators for the benchmark.

Two kinds of input are made here, and markkit sees only the files:

* the *world*: vocab, lexicon, embeddings and pinyin table of realistic
  shape (21,128 vocab tokens, >= 50k words per table, 100-d vectors).
  It depends only on ``WorldShape`` and is cached under the build
  directory, so it is made once per checkout;
* the *run inputs*: a corpus drawn from the world's lexicon with Zipf
  word frequencies, and the ``train-wide`` example JSONL. Both depend
  on the run's ``--seed``.

Everything is pure Python plus numpy, with one ``random.Random`` or
``numpy.random.Generator`` per artefact, so equal seeds give equal bytes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

SPECIAL = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[S]")
POS_TAGS = ("AD", "CC", "CD", "DT", "JJ", "M", "NN", "NR", "NT", "P", "PN", "VA", "VV")
POS_WEIGHTS = (6, 2, 3, 2, 6, 3, 40, 8, 4, 3, 3, 4, 16)
PUNCT = ("，", "。")
_ONSETS = ("", "b", "p", "m", "f", "d", "t", "n", "l", "g", "k", "h", "j", "q", "x",
           "zh", "ch", "sh", "r", "z", "c", "s", "y", "w")
_FINALS = ("a", "o", "e", "ai", "ei", "ao", "ou", "an", "en", "ang", "eng", "ong",
           "i", "ia", "ie", "iao", "iu", "ian", "in", "iang", "ing", "u", "ua", "uo")


@dataclass(frozen=True)
class WorldShape:
    """Sizes of the generated world. The defaults are the realistic shape."""

    vocab_size: int = 21_128
    words_by_length: tuple[int, int, int, int] = (4_500, 31_500, 12_500, 5_500)
    dim: int = 100
    clusters: int = 600
    syllables: int = 410
    oov_share: float = 0.04   # lexicon words left out of each of the two tables
    seed: int = 20220313

    @property
    def n_chars(self) -> int:
        return self.vocab_size - len(SPECIAL) - len(POS_TAGS)


SMALL_WORLD = WorldShape(vocab_size=1_200, words_by_length=(300, 1_500, 500, 200),
                         dim=16, clusters=40, syllables=120)


def _syllable_names(n: int) -> list[str]:
    names = [o + f for f in _FINALS for o in _ONSETS]
    if n > len(names):
        raise ValueError(f"at most {len(names)} syllables, asked for {n}")
    return names[:n]


def _zipf_weights(n: int, exponent: float) -> list[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


def write_world(out: Path, shape: WorldShape = WorldShape()) -> dict:
    """Write the four resource files into ``out`` and return a summary.

    Characters carry a Zipf-skewed syllable, so frequent syllables are
    shared by many characters and short words often have homophones
    while long ones rarely do. Word vectors are cluster centroids plus
    noise, so cosine neighbours are meaningful and scores rarely tie.
    """
    rng = random.Random(shape.seed)
    nrng = np.random.default_rng(shape.seed)
    out.mkdir(parents=True, exist_ok=True)

    chars = [chr(0x4E00 + i) for i in range(shape.n_chars - len(PUNCT))] + list(PUNCT)
    text_chars = chars[:-len(PUNCT)]
    syllables = _syllable_names(shape.syllables)
    syl_cum = list(itertools.accumulate(_zipf_weights(len(syllables), 0.6)))
    char_syllable = {c: rng.choices(syllables, cum_weights=syl_cum)[0] + str(rng.randint(1, 4))
                     for c in text_chars}
    char_weights = _zipf_weights(len(text_chars), 0.9)
    rng.shuffle(char_weights)
    char_cum = list(itertools.accumulate(char_weights))

    words: list[str] = []
    seen: set[str] = set()
    for length, count in enumerate(shape.words_by_length, start=1):
        made = 0
        while made < count:
            word = "".join(rng.choices(text_chars, cum_weights=char_cum, k=length))
            if word not in seen:
                seen.add(word)
                words.append(word)
                made += 1
    rng.shuffle(words)  # lexicon order = frequency rank, all lengths mixed

    with open(out / "vocab.txt", "w", encoding="utf-8") as f:
        f.write("\n".join([*SPECIAL, *(f"[S:{p}]" for p in POS_TAGS), *chars]) + "\n")

    pos = rng.choices(POS_TAGS, POS_WEIGHTS, k=len(words))
    with open(out / "lexicon.tsv", "w", encoding="utf-8") as f:
        for rank, (word, tag) in enumerate(zip(words, pos), start=1):
            f.write(f"{word}\t{tag}\t{int(1e7 / rank)}\n")

    in_emb = [rng.random() >= shape.oov_share for _ in words]
    in_pinyin = [rng.random() >= shape.oov_share for _ in words]

    centroids = nrng.normal(0.0, 1.0, size=(shape.clusters, shape.dim))
    assign = nrng.integers(0, shape.clusters, size=len(words))
    vectors = centroids[assign] + nrng.normal(0.0, 0.6, size=(len(words), shape.dim))
    emb_words = [i for i, keep in enumerate(in_emb) if keep]
    written = np.empty((len(emb_words), shape.dim))
    with open(out / "embeddings.txt", "w", encoding="utf-8") as f:
        f.write(f"{len(emb_words)} {shape.dim}\n")
        for row, i in enumerate(emb_words):
            fields = [f"{v:.6f}" for v in vectors[i]]
            written[row] = [float(x) for x in fields]
            f.write(words[i] + " " + " ".join(fields) + "\n")
    # the values exactly as a reader parses them, for the output checks
    np.save(out / "embeddings.npy", written)

    pinyin_words = [w for w, keep in zip(words, in_pinyin) if keep]
    by_pinyin: dict[str, int] = {}
    with open(out / "pinyin.tsv", "w", encoding="utf-8") as f:
        for word in pinyin_words:
            syl = " ".join(char_syllable[c] for c in word)
            f.write(f"{word}\t{syl}\n")
            key = "".join(ch for ch in syl if not ch.isdigit())
            by_pinyin[key] = by_pinyin.get(key, 0) + 1

    homophone_share = {}
    for n in range(1, len(shape.words_by_length) + 1):
        keys = ["".join(ch for ch in " ".join(char_syllable[c] for c in w) if not ch.isdigit())
                for w in pinyin_words if len(w) == n]
        homophone_share[n] = round(sum(by_pinyin[k] > 1 for k in keys) / max(1, len(keys)), 4)
    summary = {"shape": asdict(shape), "lexicon_words": len(words),
               "embedding_words": len(emb_words), "pinyin_words": len(pinyin_words),
               "homophone_share_by_length": homophone_share}
    (out / "world.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return summary


def ensure_world(cache: Path, shape: WorldShape = WorldShape()) -> Path:
    """The world directory for ``shape``, generated if it is not cached yet.

    The directory name carries a digest of the shape, and ``world.json``
    is written last, so a half-written world is never reused.
    """
    key = json.dumps(asdict(shape), sort_keys=True).encode("utf-8")
    world = cache / f"world-{hashlib.sha256(key).hexdigest()[:12]}"
    if not (world / "world.json").is_file():
        write_world(world, shape)
    return world


def read_lexicon_words(world: Path) -> list[str]:
    """Lexicon words in rank order, parsed directly from the TSV."""
    with open(world / "lexicon.tsv", encoding="utf-8") as f:
        return [line.split("\t", 1)[0] for line in f if line.strip()]


def write_corpus(path: Path, words: list[str], seed: int | str, n_docs: int,
                 zipf_exponent: float = 1.05) -> None:
    """A corpus of ``n_docs`` documents (blank-line separated).

    Words are drawn with Zipf frequencies over the lexicon rank. A
    sentence has 6-30 words with a comma now and then and a full stop at
    the end; about 1 in 25 sentences is 60-140 words long, so packing
    has to truncate it.
    """
    rng = random.Random(seed)
    cum = list(itertools.accumulate(_zipf_weights(len(words), zipf_exponent)))
    lines: list[str] = []
    for _ in range(n_docs):
        for _ in range(rng.randint(3, 12)):
            n = rng.randint(60, 140) if rng.random() < 0.04 else rng.randint(6, 30)
            parts = []
            for picked in rng.choices(words, cum_weights=cum, k=n):
                parts.append(picked)
                if rng.random() < 0.08:
                    parts.append(PUNCT[0])
            parts.append(PUNCT[1])
            lines.append("".join(parts))
        lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_train_examples(path: Path, vocab_size: int, seed: int, n_examples: int,
                         max_len: int = 128) -> None:
    """Example JSONL in the ``build-corpus`` format, made directly.

    Proportions follow the default schedule: 30% of examples without
    markers, 15% of characters MLM-labelled (80/10/10 split), 30% of
    words replaced (half homophone, half synonym) with their characters
    labelled, every confusion marker and 15% of normal markers with loss
    on. Three in four examples are ``max_len`` tokens long; the rest
    96-127.
    """
    rng = random.Random(seed)
    first_char = len(SPECIAL) + len(POS_TAGS)
    marker_ids = [5] + list(range(len(SPECIAL), first_char))
    lines = []
    for i in range(n_examples):
        length = max_len if rng.random() < 0.75 else rng.randint(96, max_len - 1)
        no_marker = rng.random() < 0.30
        wwm = rng.random() < 0.50
        ids = [2]
        mlm: dict[int, int] = {}
        rwd: list[list] = []
        loss_on: list[int] = []
        n_chars = 0
        while True:
            room = length - 1 - len(ids) - (0 if no_marker else 1)
            w = min(rng.choices((1, 2, 3, 4), (8, 60, 22, 10))[0], room)
            if w < 1:
                break
            start = len(ids)
            ids.extend(rng.randrange(first_char, vocab_size) for _ in range(w))
            n_chars += w
            if no_marker:
                continue
            label = "NORMAL"
            if rng.random() < 0.30:
                label = rng.choice(("PINYIN_CONFUSION", "SYNONYM_CONFUSION"))
                for p in range(start, start + w):
                    mlm[p] = ids[p]
                    ids[p] = rng.randrange(first_char, vocab_size)
            rwd.append([len(ids), label])
            if label != "NORMAL" or rng.random() < 0.15:
                loss_on.append(len(ids))
            ids.append(rng.choice(marker_ids))
        ids.append(3)
        markers = {p for p, _ in rwd}
        chosen = [p for p in range(1, len(ids) - 1) if p not in markers and p not in mlm
                  and rng.random() < 0.15]
        for p in chosen:
            mlm[p] = ids[p]
            u = rng.random()
            if u < 0.8:
                ids[p] = 4
            elif u >= 0.9:
                ids[p] = rng.randrange(first_char, vocab_size)
        lines.append(json.dumps({
            "input_ids": ids,
            "mlm_labels": [[p, mlm[p]] for p in sorted(mlm)],
            "rwd_labels": rwd,
            "rwd_loss_mask": loss_on,
            "meta": {"doc_id": i, "seq_index": 0, "seed": seed, "no_marker": no_marker,
                     "wwm": wwm, "n_chars": n_chars, "framed": True, "truncated": False},
        }, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
