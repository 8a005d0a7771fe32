"""Word segmentation: greedy forward maximum matching plus ingestion of
pre-segmented text.

Both entry points produce the same ``Segmentation`` value, so any external
segmenter whose output can be rendered as space-separated words plugs in
through :func:`parse_pretokenized`. A segmenter is just a callable
``str -> Segmentation``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .errors import ParseError
from .resources import Lexicon


@dataclass(frozen=True)
class WordSpan:
    """Half-open character span [start, end) with an optional POS tag."""

    start: int
    end: int
    pos: str | None = None

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Segmentation:
    """A character sequence tiled exactly by contiguous word spans."""

    text: str
    spans: tuple[WordSpan, ...]

    def __post_init__(self):
        object.__setattr__(self, "spans", tuple(self.spans))
        expected = 0
        for span in self.spans:
            if span.start != expected:
                raise ValueError(f"span starts at {span.start}, expected {expected}")
            expected = span.end
        if expected != len(self.text):
            raise ValueError(f"spans cover [0, {expected}) but text has length {len(self.text)}")

    def __len__(self) -> int:
        return len(self.spans)


Segmenter = Callable[[str], Segmentation]


def segment(text: str, lexicon: Lexicon) -> Segmentation:
    """Greedy forward maximum matching.

    At each position, take the longest lexicon word starting there
    (bounded by the lexicon's max word length); fall back to a single
    character when nothing matches. POS tags are copied from the lexicon.
    Total on all inputs, including the empty string.
    """
    spans: list[WordSpan] = []
    n = len(text)
    i = 0
    while i < n:
        limit = min(lexicon.max_word_len, n - i)
        taken = False
        for length in range(limit, 0, -1):
            word = text[i:i + length]
            if word in lexicon.entries:
                spans.append(WordSpan(i, i + length, pos=lexicon.entries[word]))
                i += length
                taken = True
                break
        if not taken:
            spans.append(WordSpan(i, i + 1, pos=None))
            i += 1
    return Segmentation(text=text, spans=tuple(spans))


def make_lexicon_segmenter(lexicon: Lexicon) -> Segmenter:
    """:func:`segment` bound to ``lexicon``; a partial, not a closure, so it
    pickles into worker processes under every start method."""
    return functools.partial(segment, lexicon=lexicon)


def parse_pretokenized(line: str) -> Segmentation:
    """Rebuild a Segmentation from one line of space-separated words.

    A ``word/POS`` suffix is accepted per token; words must not contain
    spaces, and ``/`` is reserved for the POS separator. A blank line
    yields the empty segmentation; an empty token (e.g. from a double
    space) is a parse error.
    """
    line = line.rstrip("\r\n")
    if not line.strip():
        return Segmentation("", ())
    spans: list[WordSpan] = []
    chars: list[str] = []
    offset = 0
    for token in line.split(" "):
        if not token:
            raise ParseError("empty word token (double or trailing space?)")
        pos: str | None = None
        word = token
        if "/" in token:
            word, _, pos = token.rpartition("/")
            if not word:
                raise ParseError(f"token {token!r} has no word before '/'")
            if not pos:
                raise ParseError(f"token {token!r} has an empty POS tag")
        spans.append(WordSpan(offset, offset + len(word), pos=pos))
        chars.append(word)
        offset += len(word)
    return Segmentation(text="".join(chars), spans=tuple(spans))


def render_spaced(seg: Segmentation, include_pos: bool = True) -> str:
    """Inverse of :func:`parse_pretokenized` for valid segmentations."""
    parts = []
    for span in seg.spans:
        word = seg.text[span.start:span.end]
        if include_pos and span.pos is not None:
            parts.append(f"{word}/{span.pos}")
        else:
            parts.append(word)
    return " ".join(parts)
