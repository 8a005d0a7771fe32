"""Loaders for the three external knowledge sources.

All three resources are plain UTF-8 text files:

* lexicon: TSV ``word<TAB>[pos]<TAB>[freq]``, one entry per line
* embeddings: word2vec text format, header ``<count> <dim>`` then
  ``word v1 ... v_dim`` per line
* pinyin table: TSV ``word<TAB>syllable1 syllable2 ...`` with one
  syllable per character

Loaded resources are immutable and safe to share across threads and
worker processes.
"""

from __future__ import annotations

import os
import stat
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ResourceError

_TONE_DIGITS = "012345"
# Bytes per block of a streamed embeddings file. A block's bytes, decoded
# text and lines take about five times this at once.
EMBEDDING_BLOCK_BYTES = 1 << 18


def read_text(path: str | Path) -> str:
    """The contents of a UTF-8 text file: the one reader behind every input
    file. A file that cannot be read raises ResourceError; bytes that are
    not UTF-8 raise ParseError (see :func:`decode_text`)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ResourceError(f"cannot read {path}: {exc}") from exc
    return decode_text(data, path)


def decode_text(data: bytes, source: str | Path) -> str:
    """``data`` decoded as UTF-8, the one decode step behind every input;
    bytes that are not UTF-8 raise ParseError naming ``source`` and the
    line they sit on."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source} is not valid UTF-8: {exc.reason} at byte {exc.start}",
                         data.count(b"\n", 0, exc.start) + 1) from None


@dataclass(frozen=True)
class LexiconEntry:
    pos: str | None = None
    freq: int | None = None


@dataclass(frozen=True)
class Lexicon:
    """Word inventory with optional POS tags and frequencies."""

    entries: dict[str, LexiconEntry]
    max_word_len: int
    duplicates_skipped: int = 0

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a lexicon TSV. Duplicate words keep the first occurrence;
    the number of skipped duplicates is recorded on the result.
    Blank lines are ignored."""
    entries: dict[str, LexiconEntry] = {}
    duplicates = 0
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) > 3:
            raise ParseError(f"expected at most 3 tab-separated fields, got {len(fields)}", lineno)
        word = fields[0]
        if not word:
            raise ParseError("empty word", lineno)
        pos = fields[1] if len(fields) > 1 and fields[1] else None
        freq: int | None = None
        if len(fields) > 2 and fields[2]:
            try:
                freq = int(fields[2])
            except ValueError:
                raise ParseError(f"frequency is not an integer: {fields[2]!r}", lineno) from None
            if freq < 0:
                raise ParseError(f"negative frequency: {freq}", lineno)
        if word in entries:
            duplicates += 1
            continue
        entries[word] = LexiconEntry(pos=pos, freq=freq)
    max_len = max((len(w) for w in entries), default=0)
    return Lexicon(entries=entries, max_word_len=max_len, duplicates_skipped=duplicates)


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Divide each row of ``rows`` by its norm in place where that norm is
    finite and non-zero (an overflowing norm counts as infinite); return
    the mask of those rows."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
    usable = (norms > 0.0) & (norms < np.inf)
    np.divide(rows, norms, out=rows, where=usable)
    return usable[:, 0]


class WordEmbeddings:
    """Word vectors held as one float64 matrix of unit-norm rows, the form
    cosine lookups need.

    Rows, and ``words``, are grouped by word length (in input order within
    a length), so the words of one length are the contiguous row slice
    ``length_slice(n)``.

    Only directions are kept: ``vector`` returns the word's unit-norm row.
    Vectors must have a finite, non-zero norm; entries with a wrong
    dimensionality or a zero or non-finite norm are rejected at load time.
    """

    def __init__(self, words: tuple[str, ...], rows: np.ndarray, picks: np.ndarray,
                 rejected: int, duplicates_skipped: int):
        """Keep the unit rows ``rows[picks]`` (``words[i]`` is the word of
        ``rows[picks[i]]``), reordered by word length in one fancy index."""
        lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
        order = np.argsort(lengths, kind="stable")
        self.dim = rows.shape[1]
        self.words: tuple[str, ...] = tuple(words[i] for i in order)
        self.rejected = rejected
        self.duplicates_skipped = duplicates_skipped
        self._unit = rows[picks[order]]
        self._unit.flags.writeable = False  # ``vector`` hands out views of its rows
        self._index = {w: i for i, w in enumerate(self.words)}
        sizes, starts = np.unique(lengths[order], return_index=True)
        stops = np.append(starts[1:], len(words))
        self._slices = {int(n): slice(int(a), int(b)) for n, a, b in zip(sizes, starts, stops)}

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordEmbeddings):
            return NotImplemented
        return (self.dim == other.dim and self.words == other.words
                and np.array_equal(self._unit, other._unit))

    def vector(self, word: str) -> np.ndarray:
        return self._unit[self._index[word]]

    def unit_rows(self) -> np.ndarray:
        return self._unit

    def row_index(self, word: str) -> int:
        return self._index[word]

    def length_slice(self, length: int) -> slice:
        """The rows (and ``words``) of the words with ``length`` characters."""
        return self._slices.get(length, slice(0, 0))

    def same_length_rows(self, length: int) -> np.ndarray:
        s = self.length_slice(length)
        return np.arange(s.start, s.stop)


def load_embeddings(path: str | Path) -> WordEmbeddings:
    """Parse word2vec-style text embeddings.

    The header count must match the number of data lines. Rows whose
    vector length differs from the header dim, or whose norm is zero or
    not finite (an inf component, or an overflowing norm), are rejected
    (counted, not fatal). Duplicate words keep their first accepted
    occurrence.

    A regular file (see :func:`_parse_streamed`) is read in blocks
    straight into its matrix; any other file is parsed line by line from
    its whole text. Both give the same result.
    """
    return _embeddings_from_rows(*(_parse_streamed(path)
                                   or _parse_by_line(*_embedding_lines(path))))


def _embeddings_from_rows(words: list[str], rows: np.ndarray, rejected: int) -> WordEmbeddings:
    """The embeddings of parsed ``rows`` (``words[i]`` names ``rows[i]``):
    rows with a zero or non-finite norm are rejected, the rest normalized
    in place, and each word keeps its first usable row."""
    usable = _normalize_rows(rows)
    rejected += len(words) - int(usable.sum())
    first: dict[str, int] = {}
    for i in np.flatnonzero(usable):
        first.setdefault(words[i], int(i))
    duplicates = int(usable.sum()) - len(first)
    picks = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    return WordEmbeddings(tuple(first), rows, picks, rejected, duplicates)


def _embedding_header(line: str) -> tuple[int, int]:
    """The ``(count, dim)`` of an embeddings file's header line."""
    header = line.split()
    if len(header) != 2:
        raise ParseError(f"header must be '<count> <dim>', got {line!r}", 1)
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"header must be two integers, got {line!r}", 1) from None
    if count < 0 or dim <= 0:
        raise ParseError(f"invalid header values: count={count} dim={dim}", 1)
    return count, dim


def _embedding_lines(path: str | Path) -> tuple[list[tuple[int, str]], int]:
    """The non-blank data lines of an embeddings file with their line
    numbers, and the header's dim, once the header is checked."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError("missing header line", 1)
    count, dim = _embedding_header(lines[0])
    data = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(data) != count:
        raise ParseError(f"header declares {count} entries but file has {len(data)} rows")
    return data, dim


def _parse_streamed(path: str | Path) -> tuple[list[str], np.ndarray, int] | None:
    """Words, rows and the rejected count of a regular embeddings file, or
    None for any other file, which the caller then parses line by line.

    The file is read in blocks of about ``EMBEDDING_BLOCK_BYTES``, each cut
    after a newline, so its whole text is never held; each block's rows
    are parsed in one ``np.loadtxt`` call into a matrix sized from the
    header. A file is regular when it is UTF-8 with a valid header whose
    count is its number of non-blank data lines, and each of those lines
    has exactly ``dim`` single spaces after a word without whitespace and
    values that ``loadtxt`` parses. ``loadtxt`` gives the same double as
    ``float`` for each value it parses; the values only ``float`` takes
    (``1_0``, full-width digits) make it raise.

    The header's count sizes the matrix only once the file is large
    enough to hold that many regular rows (at least ``2 * dim`` bytes
    each), so a wrong count cannot request a huge allocation."""
    try:
        file = open(path, "rb")
    except OSError:
        return None  # the line-by-line path reports it
    with file:
        info = os.fstat(file.fileno())
        if not stat.S_ISREG(info.st_mode):
            return None  # a pipe cannot be read a second time
        words: list[str] = []
        rows = None
        while block := file.read(EMBEDDING_BLOCK_BYTES):
            try:
                lines = (block + file.readline()).decode("utf-8").splitlines()
            except UnicodeDecodeError:
                return None
            if rows is None:  # the first block starts with the header
                try:
                    count, dim = _embedding_header(lines.pop(0))
                except ParseError:
                    return None
                if 2 * count * dim > info.st_size:
                    return None
                rows = np.empty((count, dim))
            data = [ln for ln in lines if ln.strip()]
            if not data:
                continue
            if len(words) + len(data) > count or any(ln.count(" ") != dim for ln in data):
                return None
            block_words = [ln.partition(" ")[0] for ln in data]
            if " ".join(block_words).split() != block_words:
                return None
            try:
                rows[len(words):len(words) + len(data)] = np.loadtxt(
                    data, delimiter=" ", comments=None, usecols=range(1, dim + 1), ndmin=2)
            except ValueError:
                return None
            words += block_words
    if rows is None or len(words) != count:
        return None
    return words, rows, 0


def _parse_by_line(data: list[tuple[int, str]], dim: int
                   ) -> tuple[list[str], np.ndarray, int]:
    """Words, rows and the rejected count of ``data``, one line at a time:
    the exact path for any file. A row of the wrong length is rejected; a
    component ``float`` cannot parse raises ParseError naming its line."""
    words: list[str] = []
    # a line with a word and ``dim`` values has more than ``2 * dim``
    # characters, so a header dim no line can hold sizes no rows
    rows = np.empty((sum(len(ln) > 2 * dim for _, ln in data), dim))
    rejected = 0
    for lineno, line in data:
        parts = line.split()
        try:
            values = [float(x) for x in parts[1:]]
        except ValueError:
            raise ParseError(f"non-numeric vector component in {line!r}", lineno) from None
        if len(values) != dim:
            rejected += 1
            continue
        rows[len(words)] = values
        words.append(parts[0])
    return words, rows[:len(words)], rejected


@dataclass(frozen=True)
class PinyinTable:
    """Tone-stripped pinyin for words, plus the exact inverse index."""

    by_word: dict[str, str]
    by_pinyin: dict[str, frozenset[str]]
    rejected: int = 0
    duplicates_skipped: int = 0

    def pinyin_of(self, word: str) -> str | None:
        return self.by_word.get(word)

    def homophones(self, word: str) -> frozenset[str]:
        """All table words sharing this word's pinyin, including itself."""
        p = self.by_word.get(word)
        if p is None:
            return frozenset()
        return self.by_pinyin[p]


def strip_tone(syllable: str) -> str:
    """Normalize a pinyin syllable: lowercase, remove diacritics, drop a
    trailing tone digit."""
    s = unicodedata.normalize("NFD", syllable.lower())
    s = "".join(ch for ch in s if not unicodedata.combining(ch))
    if s and s[-1] in _TONE_DIGITS:
        s = s[:-1]
    return s


def load_pinyin_table(path: str | Path) -> PinyinTable:
    """Parse a pinyin TSV. Entries whose syllable count differs from the
    character count are rejected (counted, not fatal). Duplicate words
    keep the first occurrence. Blank lines are ignored."""
    toneless: dict[str, str] = {}  # strip_tone of each distinct syllable, for this call
    by_word: dict[str, str] = {}
    rejected = 0
    duplicates = 0
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise ParseError("expected 'word<TAB>syllables'", lineno)
        word, _, syllable_part = line.partition("\t")
        if not word:
            raise ParseError("empty word", lineno)
        syllables = [toneless[s] if s in toneless else toneless.setdefault(s, strip_tone(s))
                     for s in syllable_part.split()]
        if not syllables or any(not s for s in syllables):
            raise ParseError(f"empty syllable in {line!r}", lineno)
        if len(syllables) != len(word):
            rejected += 1
            continue
        if word in by_word:
            duplicates += 1
            continue
        by_word[word] = " ".join(syllables)
    inverse: dict[str, set[str]] = {}
    for word, pinyin in by_word.items():
        inverse.setdefault(pinyin, set()).add(word)
    by_pinyin = {p: frozenset(words) for p, words in inverse.items()}
    return PinyinTable(by_word=by_word, by_pinyin=by_pinyin,
                       rejected=rejected, duplicates_skipped=duplicates)


@dataclass
class Resources:
    """Bundle of the loaded knowledge sources threaded through the
    pretraining pipeline."""

    embeddings: WordEmbeddings | None = None
    pinyin: PinyinTable | None = None
