"""Pretraining example construction: document packing plus the full
masking / replacement schedule.

Schedule defaults (all configurable via :class:`MaskingConfig`):

* 15% of the characters are selected for masked-LM prediction;
* 30% of examples are encoded without markers (vanilla downgrade);
* 50% of examples use whole-word masking, the rest per-character;
* each word is independently replaced by a confusion word 30% of the
  time (marked examples only), with MacBERT-style correction labels;
* markers over unreplaced words contribute to the detection loss only
  15% of the time, to balance the label distribution;
* ``policy`` picks the confusion kind and the synonym candidate count,
  and every marker is the generic ``[S]`` unless ``pos_markers`` is set.

RNG protocol per example (one ``random.Random`` seeded from
:func:`derive_seed`; the order below is a stability contract relied on
by the replay tests):

1. one uniform: skip markers? (< p_no_marker)
2. one uniform: whole-word masking? (< p_wwm) — drawn even for
   no-marker examples, the two decisions are independent
3. markers present only: per word, in order, one uniform (< p_replace_word);
   on a hit, :func:`markkit.confusion.sample_confusion` draws from the
   same stream
4. one uniform for the stochastic rounding of the mask budget
   (``floor + [u < frac]`` of ``mask_ratio * n_chars``)
5. wwm: ``rng.shuffle`` of the non-replaced word slots, then greedy
   whole-word selection that skips words larger than the remaining
   budget; if budget remains and an unselected candidate word exists,
   one uniform masks the first such word (shuffle order) with
   probability ``budget / len(word)``, keeping the expected masked
   count unbiased; per-character: ``rng.sample`` of the non-replaced
   character positions, then per marker position (ascending) one
   uniform (< mask_ratio) — markers are mask targets in per-character
   mode but never consume the character budget
6. per selected position, ascending: one uniform for the 80/10/10
   mask/keep/random split; a random substitution draws one more uniform
   choice from the vocabulary's character pool
7. per NORMAL marker, ascending: one uniform (< p_normal_marker_loss);
   confusion markers always carry loss
"""

from __future__ import annotations

import enum
import functools
import json
import math
import os
import random
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator, Sequence

from .confusion import ConfusionChoice, ConfusionKind, ConfusionPolicy, sample_confusion
from .errors import ConfigError, ParseError
from .marker_encoder import MarkedSequence, Vocab, check_max_len, encode_marked
from .resources import Resources
from .segmenter import Segmentation, Segmenter, WordSpan


class RwdLabel(enum.IntEnum):
    """Per-marker detection label. Integer values double as class ids."""

    NORMAL = 0
    PINYIN_CONFUSION = 1
    SYNONYM_CONFUSION = 2


_KIND_TO_LABEL = {
    ConfusionKind.PINYIN: RwdLabel.PINYIN_CONFUSION,
    ConfusionKind.SYNONYM: RwdLabel.SYNONYM_CONFUSION,
}


@dataclass(frozen=True)
class MaskingConfig:
    mask_ratio: float = 0.15
    p_no_marker: float = 0.30
    p_wwm: float = 0.50
    p_replace_word: float = 0.30
    p_normal_marker_loss: float = 0.15
    max_len: int = 512
    policy: ConfusionPolicy = ConfusionPolicy()
    pos_markers: bool = False

    def __post_init__(self):
        for name in ("mask_ratio", "p_no_marker", "p_wwm", "p_replace_word",
                     "p_normal_marker_loss"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"must be in [0, 1], got {value}", name)
        check_max_len(self.max_len)


@dataclass(frozen=True)
class ExampleMeta:
    doc_id: int = 0
    seq_index: int = 0
    seed: int = 0
    no_marker: bool = False
    wwm: bool = False
    n_chars: int = 0
    framed: bool = True
    truncated: bool = False


@dataclass(frozen=True)
class PretrainingExample:
    """Model-ready example.

    ``mlm_labels`` maps a position to the token id to predict there
    (present only at mask-selected and replacement-corrected positions);
    ``rwd_labels`` and ``rwd_loss_mask`` are keyed by marker position;
    ``marker_positions`` lists those positions in ascending order.
    """

    input_ids: tuple[int, ...]
    mlm_labels: dict[int, int]
    rwd_labels: dict[int, RwdLabel]
    rwd_loss_mask: dict[int, bool]
    meta: ExampleMeta = field(default_factory=ExampleMeta)

    @property
    def attention_len(self) -> int:
        return len(self.input_ids)

    @functools.cached_property
    def marker_positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.rwd_labels))

    def replaced_positions(self) -> set[int]:
        """Positions belonging to confusion-replaced words. Each word's
        characters sit between the previous marker (or the frame start)
        and its own marker."""
        out: set[int] = set()
        start = 1 if self.meta.framed else 0
        for pos in self.marker_positions:
            if self.rwd_labels[pos] != RwdLabel.NORMAL:
                out.update(range(start, pos))
            start = pos + 1
        return out


@dataclass(frozen=True)
class PackedSegment:
    """A packed (possibly truncated) sequence plus its provenance, which
    seeds the per-example RNG."""

    seg: Segmentation
    doc_id: int
    seq_index: int
    truncated: bool = False


def _seq_cost(n_chars: int, n_words: int) -> int:
    # worst case: CLS + chars + one marker per word + SEP
    return n_chars + n_words + 2


def _concat(segs: Sequence[Segmentation]) -> Segmentation:
    text = "".join(s.text for s in segs)
    spans: list[WordSpan] = []
    offset = 0
    for s in segs:
        spans.extend(WordSpan(sp.start + offset, sp.end + offset, pos=sp.pos) for sp in s.spans)
        offset += len(s.text)
    return Segmentation(text=text, spans=tuple(spans))


def _truncate_to_budget(seg: Segmentation, max_len: int) -> Segmentation:
    kept: list[WordSpan] = []
    chars = 0
    for span in seg.spans:
        if _seq_cost(chars + len(span), len(kept) + 1) > max_len:
            break
        kept.append(span)
        chars += len(span)
    return Segmentation(text=seg.text[:chars], spans=tuple(kept))


def pack_documents(sentences: Iterable[Segmentation], cfg: MaskingConfig,
                   doc_id: int = 0) -> Iterator[PackedSegment]:
    """Greedily pack consecutive sentences of one document into sequences
    whose worst-case encoded length (characters + one marker per word +
    CLS/SEP) fits ``cfg.max_len``.

    A sentence is never split across outputs unless it alone exceeds the
    budget, in which case it is truncated at a word boundary and its tail
    dropped. Empty sentences are skipped.
    """
    current: list[Segmentation] = []
    chars = words = 0
    seq_index = 0

    def flush() -> Iterator[PackedSegment]:
        nonlocal current, chars, words, seq_index
        if current:
            yield PackedSegment(seg=_concat(current), doc_id=doc_id,
                                seq_index=seq_index, truncated=False)
            seq_index += 1
            current, chars, words = [], 0, 0

    for seg in sentences:
        if not seg.spans:
            continue
        n_c, n_w = len(seg.text), len(seg.spans)
        if _seq_cost(n_c, n_w) > cfg.max_len:
            yield from flush()
            clipped = _truncate_to_budget(seg, cfg.max_len)
            if clipped.spans:
                yield PackedSegment(seg=clipped, doc_id=doc_id,
                                    seq_index=seq_index, truncated=True)
                seq_index += 1
            continue
        if current and _seq_cost(chars + n_c, words + n_w) > cfg.max_len:
            yield from flush()
        current.append(seg)
        chars += n_c
        words += n_w
    yield from flush()


def derive_seed(corpus_seed: int, doc_id: int, seq_index: int) -> int:
    """Stable 63-bit per-example seed (splitmix64 over the three inputs)."""
    x = corpus_seed & 0xFFFFFFFFFFFFFFFF
    for value in (doc_id, seq_index):
        x = (x + 0x9E3779B97F4A7C15 + value) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        x = x ^ (x >> 31)
    return x >> 1


def stochastic_round(rng: random.Random, value: float) -> int:
    """floor(value), plus one with probability frac(value). Always draws
    exactly one uniform so the RNG stream stays aligned."""
    base = int(value)
    frac = value - base
    return base + (1 if rng.random() < frac else 0)


def build_example(seg: Segmentation, vocab: Vocab, resources: Resources,
                  cfg: MaskingConfig, rng: random.Random, *,
                  meta: ExampleMeta | None = None,
                  synonyms: dict[str, list[ConfusionChoice]] | None = None
                  ) -> PretrainingExample:
    """Apply the full schedule to one packed segmentation.

    See the module docstring for the exact RNG draw order. ``meta``
    carries provenance (doc id, seq index, seed); the drawn strategy
    flags and character count are filled in here. ``synonyms`` is the
    synonym memo passed to :func:`markkit.confusion.sample_confusion`.
    """
    no_marker = rng.random() < cfg.p_no_marker
    wwm = rng.random() < cfg.p_wwm

    marked = encode_marked(seg, vocab, insert_markers=not no_marker,
                           pos_markers=cfg.pos_markers, max_len=cfg.max_len)
    ids = list(marked.ids)
    mlm_labels: dict[int, int] = {}
    rwd_labels: dict[int, RwdLabel] = {}
    rwd_loss_mask: dict[int, bool] = {}

    # token positions per included word, in word order: after CLS, each
    # word's characters, then its marker unless the example has none
    word_positions: list[range] = []
    cursor = 1
    for span in marked.words:
        word_positions.append(range(cursor, cursor + len(span)))
        cursor += len(span) + (not no_marker)
    replaced_words: set[int] = set()
    for w, marker_pos in enumerate(marked.marker_positions):
        rwd_labels[marker_pos] = RwdLabel.NORMAL
        if rng.random() >= cfg.p_replace_word:
            continue
        span = marked.words[w]
        choice = sample_confusion(seg.text[span.start:span.end], resources.embeddings,
                                  resources.pinyin, rng, cfg.policy, synonyms)
        if choice is None:
            continue
        for offset, pos in enumerate(word_positions[w]):
            mlm_labels[pos] = ids[pos]  # correction target: original character
            ids[pos] = vocab.id_of(choice.replacement[offset])
        rwd_labels[marker_pos] = _KIND_TO_LABEL[choice.kind]
        replaced_words.add(w)

    # mask selection: budget counts characters only
    n_chars = marked.char_count
    target = min(stochastic_round(rng, cfg.mask_ratio * n_chars), n_chars)
    selectable_words = [w for w in range(len(word_positions)) if w not in replaced_words]
    selected: list[int] = []
    if wwm:
        order = list(selectable_words)
        rng.shuffle(order)
        budget = target
        chosen: set[int] = set()
        for w in order:
            if budget == 0:
                break
            if len(word_positions[w]) <= budget:
                chosen.add(w)
                budget -= len(word_positions[w])
        if budget > 0:
            # every remaining candidate is larger than the leftover budget;
            # masking the first one with probability budget/len keeps the
            # expected masked-character count equal to the target
            leftover = next((w for w in order if w not in chosen), None)
            if leftover is not None and \
                    rng.random() < budget / len(word_positions[leftover]):
                chosen.add(leftover)
        for w in order:
            if w in chosen:
                selected.extend(word_positions[w])
    else:
        pool = sorted(p for w in selectable_words for p in word_positions[w])
        selected.extend(rng.sample(pool, min(target, len(pool))))
        for marker_pos in marked.marker_positions:
            if rng.random() < cfg.mask_ratio:
                selected.append(marker_pos)

    char_pool = vocab.char_ids
    for pos in sorted(selected):
        mlm_labels[pos] = ids[pos]
        u = rng.random()
        if u < 0.8:
            ids[pos] = vocab.mask_id
        elif u < 0.9:
            pass  # keep the original token
        else:
            ids[pos] = char_pool[rng.randrange(len(char_pool))]

    for marker_pos in marked.marker_positions:
        if rwd_labels[marker_pos] == RwdLabel.NORMAL:
            rwd_loss_mask[marker_pos] = rng.random() < cfg.p_normal_marker_loss
        else:
            rwd_loss_mask[marker_pos] = True

    base = meta or ExampleMeta()
    full_meta = ExampleMeta(doc_id=base.doc_id, seq_index=base.seq_index, seed=base.seed,
                            no_marker=no_marker, wwm=wwm, n_chars=n_chars,
                            framed=marked.has_cls_sep,
                            truncated=base.truncated or marked.truncated)
    return PretrainingExample(input_ids=tuple(ids), mlm_labels=mlm_labels,
                              rwd_labels=rwd_labels, rwd_loss_mask=rwd_loss_mask,
                              meta=full_meta)


def build_packed_example(packed: PackedSegment, vocab: Vocab, resources: Resources,
                         cfg: MaskingConfig, corpus_seed: int, *,
                         synonyms: dict[str, list[ConfusionChoice]] | None = None
                         ) -> PretrainingExample:
    """Build one example with its RNG seeded from (corpus seed, doc id,
    sequence index), so generation parallelizes deterministically."""
    seed = derive_seed(corpus_seed, packed.doc_id, packed.seq_index)
    meta = ExampleMeta(doc_id=packed.doc_id, seq_index=packed.seq_index,
                       seed=seed, truncated=packed.truncated)
    return build_example(packed.seg, vocab, resources, cfg, random.Random(seed), meta=meta,
                         synonyms=synonyms)


def plain_example(marked: MarkedSequence) -> PretrainingExample:
    """Wrap an encoding with no masking or replacement (inference input,
    e.g. for attention export)."""
    meta = ExampleMeta(no_marker=not marked.marker_positions,
                       n_chars=marked.char_count, framed=marked.has_cls_sep,
                       truncated=marked.truncated)
    return PretrainingExample(
        input_ids=tuple(marked.ids),
        mlm_labels={},
        rwd_labels={p: RwdLabel.NORMAL for p in marked.marker_positions},
        rwd_loss_mask={p: False for p in marked.marker_positions},
        meta=meta)


# --- JSON Lines interchange -------------------------------------------------

def example_to_json(ex: PretrainingExample) -> str:
    """One example per line; key order and separators are fixed so equal
    examples serialize to identical bytes."""
    record = {
        "input_ids": list(ex.input_ids),
        "mlm_labels": [[p, ex.mlm_labels[p]] for p in sorted(ex.mlm_labels)],
        "rwd_labels": [[p, ex.rwd_labels[p].name] for p in sorted(ex.rwd_labels)],
        "rwd_loss_mask": [p for p in sorted(ex.rwd_loss_mask) if ex.rwd_loss_mask[p]],
        "meta": {f.name: getattr(ex.meta, f.name) for f in fields(ExampleMeta)},
    }
    return json.dumps(record, ensure_ascii=True, separators=(",", ":"))


def example_from_json(line: str, lineno: int | None = None) -> PretrainingExample:
    """Parse one JSONL record. Token ids, label positions and the integer
    ``meta`` fields must be JSON integers, the flag ``meta`` fields JSON
    booleans; ``meta.n_chars`` must not exceed the non-marker tokens;
    every MLM-label and marker position must index into
    ``input_ids`` and be listed once; every ``rwd_loss_mask`` position must
    be a marker."""
    try:
        record = json.loads(line)
        meta = record["meta"]
        input_ids = tuple(record["input_ids"])
        mlm_labels = {p: t for p, t in record["mlm_labels"]}
        rwd_labels = {p: RwdLabel[name] for p, name in record["rwd_labels"]}
        loss_on = set(record["rwd_loss_mask"])
        example = PretrainingExample(
            input_ids=input_ids,
            mlm_labels=mlm_labels,
            rwd_labels=rwd_labels,
            rwd_loss_mask={p: p in loss_on for p in rwd_labels},
            meta=ExampleMeta(**{f.name: meta[f.name] for f in fields(ExampleMeta)}),
        )
    except (KeyError, ValueError, TypeError, RecursionError) as exc:  # also JSON nested too deep
        raise ParseError(f"bad example record: {exc}", lineno) from exc
    for kind, values in (("input id", input_ids), ("MLM label position", mlm_labels),
                         ("MLM label token id", mlm_labels.values()),
                         ("marker position", rwd_labels),
                         ("rwd_loss_mask position", loss_on)):
        if not set(map(type, values)) <= {int}:  # a bool or float is not an id
            bad = next(v for v in values if type(v) is not int)
            raise ParseError(f"{kind} {bad!r} is not an integer", lineno)
    for f in fields(ExampleMeta):  # f.type is "int" or "bool"
        if type(meta[f.name]).__name__ != f.type:
            what = "an integer" if f.type == "int" else "a boolean"
            raise ParseError(f"meta.{f.name} {meta[f.name]!r} is not {what}", lineno)
    for kind, positions, pairs in (("MLM label", mlm_labels, record["mlm_labels"]),
                                   ("marker", rwd_labels, record["rwd_labels"])):
        outside = [p for p in positions if not 0 <= p < len(input_ids)]
        if outside:
            raise ParseError(f"{kind} position {outside[0]} is outside input_ids "
                             f"of length {len(input_ids)}", lineno)
        if len(positions) < len(pairs):
            listed = [p for p, _ in pairs]
            twice = next(p for i, p in enumerate(listed) if p in listed[:i])
            raise ParseError(f"{kind} position {twice} is listed twice", lineno)
    if not loss_on.issubset(rwd_labels):
        stray = next(p for p in record["rwd_loss_mask"] if p not in rwd_labels)
        raise ParseError(f"rwd_loss_mask position {stray!r} is not a marker position", lineno)
    non_markers = len(input_ids) - len(rwd_labels)
    if not 0 <= meta["n_chars"] <= non_markers:
        raise ParseError(f"meta.n_chars {meta['n_chars']} is outside [0, {non_markers}], "
                         f"the non-marker token count", lineno)
    return example


# --- Corpus statistics -------------------------------------------------------

# report name -> attribute, in report order
_COUNTS = {"examples": "n_examples", "no_marker_examples": "n_no_marker",
           "marked_examples": "n_marked", "wwm_marked_examples": "n_wwm_marked",
           **{name: "n_" + name for name in (
               "chars", "masked_chars", "masked_markers", "markers", "normal_markers",
               "pinyin_markers", "synonym_markers", "normal_loss_on", "confusion_loss_on")}}

# rate name -> (numerator, denominator) attributes, in report order
_RATES = {
    "masked_char_fraction": ("n_masked_chars", "n_chars"),
    "no_marker_fraction": ("n_no_marker", "n_examples"),
    "wwm_fraction": ("n_wwm_marked", "n_marked"),
    "replaced_word_rate": ("n_confusion_markers", "n_markers"),
    "pinyin_share": ("n_pinyin_markers", "n_confusion_markers"),
    "synonym_share": ("n_synonym_markers", "n_confusion_markers"),
    "normal_marker_loss_rate": ("n_normal_loss_on", "n_normal_markers"),
    "confusion_marker_loss_rate": ("n_confusion_loss_on", "n_confusion_markers"),
}


@dataclass
class MaskingStats:
    """Streaming counts over generated examples, with empirical rates."""

    n_examples: int = 0
    n_no_marker: int = 0
    n_wwm_marked: int = 0
    n_chars: int = 0
    n_masked_chars: int = 0
    n_masked_markers: int = 0
    n_markers: int = 0
    n_normal_markers: int = 0
    n_pinyin_markers: int = 0
    n_synonym_markers: int = 0
    n_normal_loss_on: int = 0
    n_confusion_loss_on: int = 0

    def add(self, ex: PretrainingExample) -> None:
        self.n_examples += 1
        if ex.meta.no_marker:
            self.n_no_marker += 1
        elif ex.meta.wwm:
            self.n_wwm_marked += 1
        self.n_chars += ex.meta.n_chars
        replaced = ex.replaced_positions()
        markers = set(ex.rwd_labels)
        for pos in ex.mlm_labels:
            if pos in markers:
                self.n_masked_markers += 1
            elif pos not in replaced:
                self.n_masked_chars += 1
        for pos, label in ex.rwd_labels.items():
            self.n_markers += 1
            loss_on = ex.rwd_loss_mask.get(pos, False)
            if label == RwdLabel.NORMAL:
                self.n_normal_markers += 1
                self.n_normal_loss_on += int(loss_on)
            else:
                self.n_confusion_loss_on += int(loss_on)
                if label == RwdLabel.PINYIN_CONFUSION:
                    self.n_pinyin_markers += 1
                else:
                    self.n_synonym_markers += 1

    @property
    def n_marked(self) -> int:
        return self.n_examples - self.n_no_marker

    @property
    def n_confusion_markers(self) -> int:
        return self.n_pinyin_markers + self.n_synonym_markers

    def _rate(self, name: str) -> float | None:
        num, den = (getattr(self, attr) for attr in _RATES[name])
        return num / den if den else None

    def to_dict(self) -> dict:
        return {"counts": {name: getattr(self, attr) for name, attr in _COUNTS.items()},
                "rates": {name: self._rate(name) for name in _RATES}}


def corpus_stats(examples: Iterable[PretrainingExample]) -> MaskingStats:
    stats = MaskingStats()
    for ex in examples:
        stats.add(ex)
    return stats


# --- corpus pipeline ----------------------------------------------------------

Document = tuple[int, Sequence[str]]  # the number of its first line in --in, its lines


def read_documents(lines: Iterable[str]) -> Iterator[Document]:
    """Group corpus lines, as ``--in`` gives them (stripped), into documents
    of consecutive lines: an empty line is a document boundary."""
    doc: list[str] = []
    for lineno, line in enumerate([*lines, ""], start=1):  # "" ends the last document
        if line:
            doc.append(line)
        elif doc:
            yield lineno - len(doc), doc
            doc = []


def segment_line(segmenter: Segmenter, line: str, lineno: int) -> Segmentation:
    """``segmenter(line)``; a ParseError names ``lineno``, the line's 1-based
    number in ``--in`` (a segmenter sees one line and cannot)."""
    try:
        return segmenter(line)
    except ParseError as exc:
        raise ParseError(str(exc), lineno) from None


def pack_corpus(documents: Iterable[Iterable[Segmentation]], cfg: MaskingConfig, *,
                first_doc_id: int = 0) -> list[PackedSegment]:
    """Pack each document with :func:`pack_documents`, numbering the
    documents from ``first_doc_id``."""
    packed: list[PackedSegment] = []
    for doc_id, doc in enumerate(documents, first_doc_id):
        packed.extend(pack_documents(doc, cfg, doc_id=doc_id))
    return packed


def build_document(doc_id: int, document: Document, part: int = 0, parts: int = 1, *,
                   segmenter: Segmenter, vocab: Vocab, resources: Resources,
                   cfg: MaskingConfig, corpus_seed: int,
                   pack: Callable[..., list[PackedSegment]] = pack_corpus,
                   synonyms: dict[str, list[ConfusionChoice]] | None = None
                   ) -> list[PretrainingExample]:
    """Segment the lines of one document (see :func:`read_documents`) with
    :func:`segment_line`, pack them with ``pack`` (a :func:`pack_corpus`)
    and build the examples of the ``part``-th of ``parts`` even runs of its
    packed sequences (by default all of them), sharing the synonym memo
    ``synonyms`` (see :func:`build_example`)."""
    first, lines = document
    segs = (segment_line(segmenter, line, lineno) for lineno, line in enumerate(lines, first))
    packed = pack([segs], cfg, first_doc_id=doc_id)
    n = len(packed)
    return [build_packed_example(p, vocab, resources, cfg, corpus_seed, synonyms=synonyms)
            for p in packed[part * n // parts:(part + 1) * n // parts]]


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity, where the platform
    reports one): the cap on ``build-corpus`` workers and on the train
    step's second thread."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def generate_examples(documents: Sequence[Document], segmenter: Segmenter,
                      vocab: Vocab, resources: Resources, cfg: MaskingConfig,
                      corpus_seed: int, *, workers: int = 1,
                      pack: Callable[..., list[PackedSegment]] = pack_corpus
                      ) -> list[PretrainingExample]:
    """Build the examples of every document (see :func:`read_documents`)
    with :func:`build_document`, optionally across worker processes (see
    :func:`_worker_tasks`). ``pack`` is the :func:`pack_corpus` to call;
    ``cli`` passes the name it imported, which ``benchmark/spans.py``
    traces.

    Each example depends only on (corpus seed, doc id, seq index), and
    results are merged in document order, so the output is identical for
    any worker count.

    Each word's synonym candidates are scanned once per call, or once per
    pool worker: the build callable carries one empty synonym memo (see
    :func:`build_example`), and each worker gets its own copy with the
    callable. No memo outlives the call.
    """
    build = functools.partial(build_document, segmenter=segmenter, vocab=vocab,
                              resources=resources, cfg=cfg, corpus_seed=corpus_seed,
                              pack=pack, synonyms={})
    tasks = _worker_tasks(documents, workers)
    if workers <= 1 or len(tasks) < 2:
        return [ex for task in tasks for ex in _build_task(build, task)]
    from multiprocessing import Pool

    # the build callable (with the resources) reaches each worker once, at
    # start-up, instead of being pickled into every task
    with Pool(workers, initializer=_set_worker_build, initargs=(build,)) as pool:
        return [ex for examples in pool.imap(_worker_build_task, tasks) for ex in examples]


def _worker_tasks(documents: Sequence[Document],
                  workers: int) -> list[list[tuple[int, Document, int, int]]]:
    """Cut the corpus into tasks of :func:`build_document` arguments
    ``(doc id, document, part, parts)``, in document order, by line count.

    A document with more than a worker's share of the lines (total /
    ``workers``) is split into up to ``workers`` parts, one task each, so
    a corpus of few long documents still keeps every worker busy; each
    part segments and packs the whole document and builds its own run of
    sequences. Other documents are grouped into tasks of about an eighth
    of a worker's share.
    """
    share = max(1, sum(len(lines) for _, lines in documents)) / workers
    tasks: list[list[tuple[int, Document, int, int]]] = []
    size = 0
    for doc_id, document in enumerate(documents):
        parts = min(workers, math.ceil(len(document[1]) / share))
        for part in range(parts):
            if parts > 1 or not tasks or size >= share / 8:
                tasks.append([])
                size = 0
            tasks[-1].append((doc_id, document, part, parts))
            size += len(document[1])
    return tasks


def _build_task(build, task) -> list[PretrainingExample]:
    return [ex for args in task for ex in build(*args)]


_worker_build = None


def _set_worker_build(build) -> None:
    global _worker_build
    _worker_build = build


def _worker_build_task(task) -> list[PretrainingExample]:
    return _build_task(_worker_build, task)
