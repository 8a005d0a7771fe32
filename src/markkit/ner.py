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
from .segmenter import Segmentation

OUTSIDE = "O"
_BMESO_PREFIXES = frozenset("BMESO")
_BIO_PREFIXES = frozenset("BIO")


@dataclass(frozen=True)
class NerExample:
    chars: tuple[str, ...]
    labels: tuple[str, ...]
    seg: Segmentation | None = None

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

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise InputError(f"invalid span [{self.start}, {self.end})")


def _parse_tag(tag: str) -> tuple[str, str]:
    """Split a tag into (prefix, type). 'O' has no type; any other prefix
    takes an optional '-type' suffix."""
    if not tag:
        raise InputError("empty tag")
    prefix, dash, entity = tag.partition("-")
    if prefix not in _BMESO_PREFIXES and prefix not in _BIO_PREFIXES:
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


def _detect_scheme(parsed: list[tuple[str, str]]) -> str:
    prefixes = {p for p, _ in parsed}
    if prefixes & {"M", "E", "S"}:
        return "bmeso"
    if "I" in prefixes:
        return "bio"
    return "bmeso"


def bio_to_bmeso(tags: Sequence[str]) -> list[str]:
    """Rewrite well-formed BIO runs as BMES; orphan I tags become M tags,
    which the strict parser then discards."""
    parsed = [_parse_tag(t) for t in tags]
    out = list(tags)
    i = 0
    while i < len(parsed):
        prefix, entity = parsed[i]
        if prefix == "B":
            j = i + 1
            while j < len(parsed) and parsed[j] == ("I", entity):
                j += 1
            if j - i == 1:
                out[i] = f"S-{entity}" if entity else "S"
            else:
                out[i] = f"B-{entity}" if entity else "B"
                for k in range(i + 1, j - 1):
                    out[k] = f"M-{entity}" if entity else "M"
                out[j - 1] = f"E-{entity}" if entity else "E"
            i = j
        elif prefix == "I":
            out[i] = f"M-{entity}" if entity else "M"
            i += 1
        else:
            i += 1
    return out


def extract_spans(tags: Sequence[str], scheme: str = "auto") -> set[EntitySpan]:
    """Entity spans from a per-character tag sequence.

    Well-formed runs (``B M* E``, or a single ``S``) become spans;
    malformed runs are discarded entirely. BIO input is converted to
    BMESO first. ``scheme`` is ``auto`` (detect), ``bmeso`` or ``bio``.
    """
    parsed = [_parse_tag(t) for t in tags]
    if scheme == "auto":
        scheme = _detect_scheme(parsed)
    if scheme == "bio":
        parsed = [_parse_tag(t) for t in bio_to_bmeso(tags)]
    elif scheme != "bmeso":
        raise InputError(f"unknown scheme {scheme!r}")

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
            while j < n and parsed[j] == ("M", entity):
                j += 1
            if j < n and parsed[j] == ("E", entity):
                spans.add(EntitySpan(i, j + 1, entity))
                i = j + 1
            else:
                i += 1  # broken run: drop the B, rescan from the next tag
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


def span_f1(pred: set[EntitySpan], gold: set[EntitySpan]) -> tuple[float, float, float]:
    """Precision/recall/F1 of one sentence's spans (see :class:`SpanF1Counter`)."""
    counter = SpanF1Counter()
    counter.add(pred, gold)
    return counter.precision, counter.recall, counter.f1


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


def write_conll(examples: Iterable[NerExample], path: str | Path) -> None:
    lines: list[str] = []
    for ex in examples:
        lines.extend(f"{c}\t{t}" for c, t in zip(ex.chars, ex.labels))
        lines.append("")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
