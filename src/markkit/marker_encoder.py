"""Character-level encoding with boundary markers.

A marker token follows every word of a segmentation (including the last,
so each word has a trailing marker for replaced-word detection). Markers
occupy real positions: they attend, are attended, and can be masked like
any other token. Encoding keeps a bidirectional alignment between
non-marker token positions and source characters, so markers can always
be stripped to recover the plain character encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .resources import read_text, write_text
from .segmenter import Segmentation, WordSpan

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
MARKER = "[S]"
REQUIRED_TOKENS = (PAD, UNK, CLS, SEP, MASK, MARKER)
_POS_MARKER_PREFIX = "[S:"


def pos_marker_token(pos: str) -> str:
    return f"[S:{pos}]"


@dataclass(frozen=True)
class Vocab:
    """Dense token inventory. Token id = position in ``tokens``.

    Special tokens and markers are disjoint from character tokens;
    ``char_ids`` lists everything else (the pool used for random
    substitution during masking).
    """

    tokens: tuple[str, ...]
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    pos_marker_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    char_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mapping: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if not tok:
                raise ConfigError(f"empty token at id {i}")
            if tok in mapping:
                raise ConfigError(f"duplicate token {tok!r} (ids {mapping[tok]} and {i})")
            mapping[tok] = i
        missing = [t for t in REQUIRED_TOKENS if t not in mapping]
        if missing:
            raise ConfigError("vocabulary is missing required tokens: " + ", ".join(missing))
        pos_markers = {}
        for tok, i in mapping.items():
            if tok.startswith(_POS_MARKER_PREFIX) and tok.endswith("]") and len(tok) > 4:
                pos_markers[tok[len(_POS_MARKER_PREFIX):-1]] = i
        reserved = {*pos_markers.values(), *(mapping[t] for t in REQUIRED_TOKENS)}
        chars = tuple(i for i in range(len(self.tokens)) if i not in reserved)
        if not chars:  # masking draws its random replacements from them
            raise ConfigError("vocabulary has no character tokens")
        object.__setattr__(self, "token_to_id", mapping)
        object.__setattr__(self, "pos_marker_ids", pos_markers)
        object.__setattr__(self, "char_ids", chars)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    @property
    def cls_id(self) -> int:
        return self.token_to_id[CLS]

    @property
    def sep_id(self) -> int:
        return self.token_to_id[SEP]

    @property
    def mask_id(self) -> int:
        return self.token_to_id[MASK]

    @property
    def marker_id(self) -> int:
        return self.token_to_id[MARKER]

    def id_of(self, token: str) -> int:
        """Token id, falling back to UNK."""
        return self.token_to_id.get(token, self.unk_id)

    def marker_id_for(self, pos: str | None, use_pos_markers: bool) -> int:
        if use_pos_markers and pos is not None:
            found = self.pos_marker_ids.get(pos)
            if found is not None:
                return found
        return self.marker_id


def build_vocab(chars, pos_tags=()) -> Vocab:
    """Assemble a vocabulary: specials, generic marker, one marker per POS
    tag, then the character inventory in sorted order."""
    char_tokens = sorted(set(chars))
    tokens = list(REQUIRED_TOKENS) + [pos_marker_token(p) for p in sorted(set(pos_tags))]
    reserved = set(tokens)
    tokens += [c for c in char_tokens if c not in reserved]
    return Vocab(tokens=tuple(tokens))


def load_vocab(path: str | Path) -> Vocab:
    """One token per line; id = zero-based line number (bit-exact
    interchange contract). Duplicates and missing required tokens raise
    ConfigError."""
    lines = read_text(path).splitlines()
    for i, tok in enumerate(lines):
        if not tok:
            raise ConfigError(f"empty token line {i + 1} in {path}")
    return Vocab(tokens=tuple(lines))


def save_vocab(vocab: Vocab, path: str | Path) -> None:
    write_text(path, "\n".join(vocab.tokens) + "\n")


@dataclass(frozen=True)
class MarkedSequence:
    """Token ids plus marker bookkeeping.

    ``words`` are the included word spans in order (truncation drops whole
    words from the end). With markers, word ``w`` ends just before
    ``marker_positions[w]``. ``char_alignment`` maps every character-token
    position to its source character index; markers and CLS/SEP have no
    alignment entry.
    """

    ids: tuple[int, ...]
    marker_positions: tuple[int, ...]
    words: tuple[WordSpan, ...]
    char_alignment: dict[int, int]
    truncated: bool
    has_cls_sep: bool

    @property
    def char_count(self) -> int:
        return len(self.char_alignment)


def check_max_len(max_len: int, add_cls_sep: bool = True) -> None:
    """The rule on a sequence length: room for CLS, SEP and content when
    ``add_cls_sep`` is set, else for one token; a shorter ``max_len`` is a
    ConfigError."""
    if add_cls_sep and max_len < 3:
        raise ConfigError(f"must be >= 3 to hold CLS, SEP and content, got {max_len}", "max_len")
    if max_len < 1:
        raise ConfigError(f"must be positive, got {max_len}", "max_len")


def encode_marked(seg: Segmentation, vocab: Vocab, *,
                  insert_markers: bool = True,
                  pos_markers: bool = False,
                  max_len: int = 512,
                  add_cls_sep: bool = True) -> MarkedSequence:
    """Encode a segmentation as character token ids with markers.

    When ``insert_markers`` is set, a marker follows every word, the last
    one included. ``pos_markers`` swaps in the per-POS marker where one
    exists, falling back to the generic marker. Truncation always happens
    at a word boundary; a word that cannot fit the remaining budget ends
    the sequence (never split mid-word).
    """
    check_max_len(max_len, add_cls_sep)
    budget = max_len - (2 if add_cls_sep else 0)

    included: list[WordSpan] = []
    used = 0
    for span in seg.spans:
        cost = len(span) + (1 if insert_markers else 0)
        if used + cost > budget:
            break
        included.append(span)
        used += cost
    truncated = len(included) < len(seg.spans)

    ids: list[int] = []
    marker_positions: list[int] = []
    char_alignment: dict[int, int] = {}
    if add_cls_sep:
        ids.append(vocab.cls_id)
    for span in included:
        for char_index in range(span.start, span.end):
            char_alignment[len(ids)] = char_index
            ids.append(vocab.id_of(seg.text[char_index]))
        if insert_markers:
            marker_positions.append(len(ids))
            ids.append(vocab.marker_id_for(span.pos, pos_markers))
    if add_cls_sep:
        ids.append(vocab.sep_id)

    return MarkedSequence(ids=tuple(ids), marker_positions=tuple(marker_positions),
                          words=tuple(included), char_alignment=char_alignment,
                          truncated=truncated, has_cls_sep=add_cls_sep)
