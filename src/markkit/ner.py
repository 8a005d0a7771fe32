"""Sequence-labeling support: marker label alignment, BMESO/BIO span
extraction, and span-level scoring.

Markers are labeled like their preceding token for fine-tuning, then
stripped again before evaluation, so the scored entities are exactly
those of the plain character sequence. Malformed tag runs are discarded
strictly (no partial credit).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InputError, ParseError
from .marker_encoder import MarkedSequence
from .resources import read_text

OUTSIDE = "O"
_PREFIXES = frozenset("BMESOI")  # BMESO's and BIO's


@dataclass(frozen=True)
class NerExample:
    chars: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "chars", tuple(self.chars))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.chars) != len(self.labels):
            raise InputError(f"{len(self.chars)} chars but {len(self.labels)} labels")


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int
    entity_type: str


def _parse_tag(tag: str) -> tuple[str, str]:
    """Split a tag into (prefix, type). 'O' has no type; any other prefix
    takes an optional '-type' suffix."""
    prefix, dash, entity = tag.partition("-")
    if prefix not in _PREFIXES:
        raise InputError(f"unparseable tag {tag!r}")
    if prefix == OUTSIDE:
        if dash:
            raise InputError(f"unparseable tag {tag!r}: 'O' takes no entity type")
        return OUTSIDE, ""
    return prefix, entity


def align_labels_with_markers(ex: NerExample, marked: MarkedSequence) -> list[str]:
    """Per-token tags for a marked sequence: characters keep their own
    tag, each marker copies the tag of the token immediately before it,
    and CLS/SEP get the outside tag."""
    if marked.char_count != len(ex.chars):
        raise InputError(f"marked sequence covers {marked.char_count} characters "
                         f"but the example has {len(ex.chars)}")
    markers = set(marked.marker_positions)
    tags: list[str] = []
    for i in range(len(marked.ids)):
        if i in markers:
            tags.append(tags[i - 1] if i > 0 else OUTSIDE)
        elif i in marked.char_alignment:
            tags.append(ex.labels[marked.char_alignment[i]])
        else:
            tags.append(OUTSIDE)
    return tags


def strip_marker_labels(tags: Sequence[str], marked: MarkedSequence) -> list[str]:
    """Remove tags at marker and CLS/SEP positions, restoring one tag per
    source character."""
    if len(tags) != len(marked.ids):
        raise InputError(f"{len(tags)} tags for {len(marked.ids)} tokens")
    return [tags[i] for i in sorted(marked.char_alignment)]


def scheme_of(tag_sequences: Iterable[Sequence[str]]) -> str:
    """The one scheme for every sequence of a run (``eval-ner --scheme
    auto``): ``bio`` when an ``I`` tag appears in any of them and no ``M``,
    ``E`` or ``S`` tag does, else ``bmeso``."""
    prefixes = {tag.partition("-")[0] for tags in tag_sequences for tag in tags}
    return "bio" if "I" in prefixes and not prefixes & {"M", "E", "S"} else "bmeso"


def extract_spans(tags: Sequence[str], scheme: str) -> set[EntitySpan]:
    """Entity spans from a per-character tag sequence, in one walk.

    BMESO: a ``B M* E`` run of one type, or a single ``S``, is a span.
    BIO: a ``B I*`` run of one type, or a single ``S``, is a span. Any
    other tag is dropped (no partial credit), such as an ``I`` without its
    ``B``, or a BMESO ``B`` whose run does not end in ``E``. ``scheme`` is
    ``bmeso`` or ``bio`` (see :func:`scheme_of`).
    """
    parsed = [_parse_tag(t) for t in tags]
    if scheme not in ("bio", "bmeso"):
        raise InputError(f"unknown scheme {scheme!r}")
    bio = scheme == "bio"
    inner = "I" if bio else "M"
    spans: set[EntitySpan] = set()
    n = len(parsed)
    i = 0
    while i < n:
        prefix, entity = parsed[i]
        if prefix == "S":
            spans.add(EntitySpan(i, i + 1, entity))
            i += 1
        elif prefix == "B":
            j = i + 1
            while j < n and parsed[j] == (inner, entity):
                j += 1
            if bio:
                spans.add(EntitySpan(i, j, entity))
            elif j < n and parsed[j] == ("E", entity):
                j += 1
                spans.add(EntitySpan(i, j, entity))
            i = j  # a broken BMESO run drops its B and Ms
        else:
            i += 1
    return spans


@dataclass
class SpanF1Counter:
    """Corpus-level aggregation over sentences: counts, not averages.

    Exact span-and-type matching. An empty side scores 1.0 against an
    empty counterpart and 0.0 otherwise; F1 is 0 when precision + recall
    is 0.
    """

    tp: int = 0
    n_pred: int = 0
    n_gold: int = 0
    tokens: int = 0
    token_hits: int = 0

    def add(self, pred: set[EntitySpan], gold: set[EntitySpan],
            pred_tags: Sequence[str] | None = None,
            gold_tags: Sequence[str] | None = None) -> None:
        tagged = pred_tags is not None and gold_tags is not None
        if tagged and len(pred_tags) != len(gold_tags):
            raise InputError("token accuracy needs equal-length tag sequences")
        self.tp += len(pred & gold)
        self.n_pred += len(pred)
        self.n_gold += len(gold)
        if tagged:
            self.tokens += len(gold_tags)
            self.token_hits += sum(p == g for p, g in zip(pred_tags, gold_tags))

    @property
    def precision(self) -> float:
        return self.tp / self.n_pred if self.n_pred else (1.0 if not self.n_gold else 0.0)

    @property
    def recall(self) -> float:
        return self.tp / self.n_gold if self.n_gold else (1.0 if not self.n_pred else 0.0)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    @property
    def token_accuracy(self) -> float | None:
        return self.token_hits / self.tokens if self.tokens else None


def read_conll(path: str | Path) -> list[NerExample]:
    """CoNLL-style TSV: ``char<TAB>tag`` per line, blank line between
    sentences."""
    text = read_text(path)
    examples: list[NerExample] = []
    chars: list[str] = []
    labels: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            if chars:
                examples.append(NerExample(tuple(chars), tuple(labels)))
                chars, labels = [], []
            continue
        if "\t" not in line:
            raise ParseError(f"expected 'char<TAB>tag', got {line!r}", lineno)
        char, _, tag = line.partition("\t")
        if not char or not tag:
            raise ParseError(f"empty char or tag in {line!r}", lineno)
        chars.append(char)
        labels.append(tag)
    if chars:
        examples.append(NerExample(tuple(chars), tuple(labels)))
    return examples
