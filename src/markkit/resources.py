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

import io
import itertools
import os
import stat
import unicodedata
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import ParseError, ResourceError

_TONE_DIGITS = "012345"
# Bytes per block of an embeddings file. A block's bytes, decoded text and
# lines take about five times this at once.
EMBEDDING_BLOCK_BYTES = 1 << 18
# The largest dim an embeddings header may declare: that of the longest
# float64 row numpy can size. A larger dim is a malformed header.
EMBEDDING_MAX_DIM = np.iinfo(np.intp).max // 8


@contextmanager
def opened(path: str | Path, mode: str) -> Iterator[BinaryIO]:
    """``path`` opened in the binary ``mode`` (``"rb"`` or ``"wb"``): the one
    place markkit opens a file. An OSError, from opening the file or from
    using it within the block, raises ResourceError naming the path."""
    try:
        with open(path, mode) as file:
            yield file
    except OSError as exc:
        verb = "read" if mode.startswith("r") else "write"
        raise ResourceError(f"cannot {verb} {path}: {exc}") from exc


def read_text(path: str | Path) -> str:
    """The contents of a UTF-8 text file: the one reader behind every input
    file. A file that cannot be read raises ResourceError; bytes that are
    not UTF-8 raise ParseError (see :func:`decode_text`)."""
    with opened(path, "rb") as file:
        data = file.read()
    return decode_text(data, path)


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; a file that cannot be written
    raises ResourceError."""
    with opened(path, "wb") as file:
        file.write(text.encode("utf-8"))


def decode_text(data: bytes, source: str | Path, start: int = 0, line: int = 1) -> str:
    """``data`` decoded as UTF-8, the one decode step behind every input;
    bytes that are not UTF-8 raise ParseError naming ``source``, the byte
    and the line they sit on. ``data`` begins at byte ``start`` of
    ``source``, on line ``line``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source} is not valid UTF-8: {exc.reason} at byte {start + exc.start}",
                         line + data.count(b"\n", 0, exc.start)) from None


@dataclass(frozen=True)
class Lexicon:
    """Word inventory: each word's POS tag, or None where it has none."""

    entries: dict[str, str | None]
    duplicates_skipped: int = 0
    max_word_len: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "max_word_len", max(map(len, self.entries), default=0))


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a lexicon TSV. A frequency must be a non-negative integer, but
    it is not kept: markkit reads only the POS tags. Duplicate words keep
    the first occurrence; the number of skipped duplicates is recorded on
    the result. Blank lines are ignored."""
    entries: dict[str, str | None] = {}
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
        entries[word] = fields[1] if len(fields) > 1 and fields[1] else None
    return Lexicon(entries=entries, duplicates_skipped=duplicates)


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Divide each row of ``rows`` by its norm in place where that norm is
    finite and non-zero (an overflowing norm counts as infinite); return
    the mask of those rows."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
    usable = (norms > 0.0) & (norms < np.inf)
    np.divide(rows, norms, out=rows, where=usable)
    return usable[:, 0]


def _gather_in_place(rows: np.ndarray, src: list[int]) -> None:
    """``rows[:len(src)] = rows[src]`` without a second matrix: ``src``
    holds distinct row indices.

    Row ``i`` takes row ``src[i]``, which takes row ``src[src[i]]``, and so
    on, until a row after ``len(src)`` ends the chain or the chain closes a
    cycle. Moving a chain in that order reads each row before it is
    overwritten, if it starts at a row that no move reads; a cycle has no
    such row, so its first row is set aside for its last move. Rows that
    stay need no move."""
    n = len(src)
    read = bytearray(n)  # whether a move reads the row
    for j in src:
        if j < n:
            read[j] = 1
    done = bytearray(n)
    for start in itertools.chain((i for i in range(n) if not read[i]), range(n)):
        if done[start] or src[start] == start:
            continue
        first = rows[start].copy() if read[start] else None
        i = start
        while i < n and not done[i]:
            done[i] = 1
            j = src[i]
            rows[i] = first if j == start else rows[j]
            i = j


class WordEmbeddings:
    """Word vectors held as one float64 matrix of unit-norm rows, the form
    cosine lookups need.

    Rows, and ``words``, are grouped by word length (in input order within
    a length), so the words of one length are the contiguous row slice
    ``length_slice(n)``.

    Only directions are kept: ``unit_rows()[row_index(word)]`` is the
    word's unit-norm row. Vectors must have a finite, non-zero norm;
    entries with a wrong dimensionality or a zero or non-finite norm are
    rejected at load time.
    """

    def __init__(self, words: tuple[str, ...], rows: np.ndarray, rejected: int,
                 duplicates_skipped: int):
        """``rows[i]`` is the unit row of ``words[i]``, and the words come
        in ascending length: the matrix is ``rows`` itself, made read-only."""
        self.dim = rows.shape[1]
        self.words = words
        self.rejected = rejected
        self.duplicates_skipped = duplicates_skipped
        self._unit = rows
        self._unit.flags.writeable = False  # ``unit_rows`` hands out the matrix itself
        self._index = {w: i for i, w in enumerate(words)}
        lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
        sizes, starts = np.unique(lengths, return_index=True)
        stops = np.append(starts[1:], len(words))
        self._slices = {int(n): slice(int(a), int(b)) for n, a, b in zip(sizes, starts, stops)}

    def __contains__(self, word: str) -> bool:
        return word in self._index

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

    The file is read once, block by block (see :func:`_parse_embeddings`),
    so its whole text is never held.
    """
    with opened(path, "rb") as file:
        words, rows, usable, rejected = _parse_embeddings(file, path)
    first: dict[str, int] = {}
    for i in np.flatnonzero(usable).tolist():
        first.setdefault(words[i], i)
    n_usable = int(usable.sum())
    by_length = sorted(first, key=len)  # stable: file order within a length
    _gather_in_place(rows, [first[w] for w in by_length])
    rows.resize((len(by_length), rows.shape[1]))  # in place: the rows after them are freed
    return WordEmbeddings(tuple(by_length), rows, rejected + len(words) - n_usable,
                          n_usable - len(first))


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
    if dim > EMBEDDING_MAX_DIM:
        raise ParseError(f"dim {dim} exceeds the largest supported dim {EMBEDDING_MAX_DIM}", 1)
    return count, dim


def _decoded_blocks(file: BinaryIO, path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """``(number of the first line, lines)`` of each block of ``file``:
    about ``EMBEDDING_BLOCK_BYTES``, cut after a newline, and decoded as
    :func:`decode_text` decodes the whole file. The newlines before a
    block are counted only for the message of a block that is not UTF-8."""
    start = 0
    lineno = 1
    while block := file.read(EMBEDDING_BLOCK_BYTES):
        block += file.readline()
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError:
            file.seek(0)
            newlines = sum(file.read(min(EMBEDDING_BLOCK_BYTES, start - file.tell())).count(b"\n")
                           for _ in range(0, start, EMBEDDING_BLOCK_BYTES))
            text = decode_text(block, path, start, newlines + 1)  # raises, naming the line
        lines = text.splitlines()
        yield lineno, lines
        start += len(block)
        lineno += len(lines)


def _parse_embeddings(file: BinaryIO, path: str | Path
                      ) -> tuple[list[str], np.ndarray, np.ndarray, int]:
    """Words, rows, the mask of usable rows and the count of rows of the
    wrong length of the embeddings ``file``: ``words[i]`` names ``rows[i]``,
    and the rows after ``len(words)`` are unused. Each block's rows are
    normalized as soon as they are parsed (:func:`_normalize_rows`).

    A block whose data lines are all regular is one ``np.loadtxt`` call
    (:func:`_loadtxt_block`); any other is parsed line by line
    (:func:`_parse_lines`). Errors keep a whole-file parse's order: bytes
    that are not UTF-8 at once; a bad header, a wrong count, then the first
    non-numeric component once every block is decoded. A row takes more
    than ``2 * dim`` bytes, so the matrix, allocated once, holds the count
    only as far as the file can, and a wrong count cannot request a huge
    allocation; a pipe is read whole first so that its size is known."""
    if not stat.S_ISREG(os.fstat(file.fileno()).st_mode):
        file = io.BytesIO(file.read())
    size = file.seek(0, io.SEEK_END)
    file.seek(0)
    blocks = _decoded_blocks(file, path)
    _, lines = next(blocks, (1, []))
    if not lines:
        raise ParseError("missing header line", 1)
    try:
        count, dim = _embedding_header(lines[0])
    except ParseError:
        for _ in blocks:  # a UTF-8 error later in the file comes first
            pass
        raise
    rows = np.empty((min(count, size // (2 * dim)), dim))
    usable = np.empty(len(rows), dtype=bool)
    words: list[str] = []
    rejected = found = 0
    value_error = None
    for lineno, lines in itertools.chain([(2, lines[1:])], blocks):
        data = [ln for ln in lines if ln.strip()]
        found += len(data)
        if not data or found > count or value_error:
            continue  # nothing to parse, or the count or a value is wrong: only decode
        parsed = len(words)
        if not _loadtxt_block(data, dim, rows, words):
            try:
                rejected += _parse_lines(lines, lineno, dim, rows, words)
            except ParseError as exc:
                value_error = exc
        usable[parsed:len(words)] = _normalize_rows(rows[parsed:len(words)])
    if found != count:
        raise ParseError(f"header declares {count} entries but file has {found} rows")
    if value_error:
        raise value_error
    return words, rows, usable[:len(words)], rejected


def _loadtxt_block(data: list[str], dim: int, rows: np.ndarray, words: list[str]) -> bool:
    """Whether every line of ``data`` is regular: a word without
    whitespace, then exactly ``dim`` values, each after a single space,
    that ``np.loadtxt`` parses (it gives the same double as ``float``, and
    raises on the values only ``float`` takes: ``1_0``, full-width digits).
    If so, the values fill the rows after the first ``len(words)`` and the
    words are appended to ``words``.

    ``np.loadtxt`` raises on an empty value (a double or trailing space)
    and on a line whose value count differs from the first line's; a line
    without values, which it would skip, is irregular here."""
    block_words = [ln.partition(" ")[0] for ln in data]
    values = [ln[len(word) + 1:] for ln, word in zip(data, block_words)]
    if "" in values or " ".join(block_words).split() != block_words:
        return False
    try:
        parsed = np.loadtxt(values, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return False
    if parsed.shape != (len(data), dim):
        return False
    rows[len(words):len(words) + len(data)] = parsed
    words += block_words
    return True


def _parse_lines(lines: list[str], lineno: int, dim: int, rows: np.ndarray,
                 words: list[str]) -> int:
    """Parse ``lines`` (the first is line ``lineno``) with ``float`` into
    the rows after the first ``len(words)``, appending their words; return
    how many have the wrong length. A non-numeric component raises
    ParseError naming its line."""
    rejected = 0
    for lineno, line in enumerate(lines, start=lineno):
        parts = line.split()
        if not parts:
            continue
        try:
            values = [float(x) for x in parts[1:]]
        except ValueError:
            raise ParseError(f"non-numeric vector component in {line!r}", lineno) from None
        if len(values) != dim:
            rejected += 1
            continue
        rows[len(words)] = values
        words.append(parts[0])
    return rejected


@dataclass(frozen=True)
class PinyinTable:
    """Tone-stripped pinyin for words, plus the exact inverse index: the
    words of each pinyin, sorted."""

    by_word: dict[str, str]
    rejected: int = 0
    duplicates_skipped: int = 0
    by_pinyin: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inverse: dict[str, list[str]] = {}
        for word, pinyin in self.by_word.items():
            inverse.setdefault(pinyin, []).append(word)
        object.__setattr__(self, "by_pinyin", {p: tuple(sorted(ws)) for p, ws in inverse.items()})


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
        word, tab, syllable_part = line.partition("\t")
        syllables = syllable_part.split()
        if not (word and syllables):  # a blank or malformed line
            if not line.strip():
                continue
            if not tab:
                raise ParseError("expected 'word<TAB>syllables'", lineno)
            if not word:
                raise ParseError("empty word", lineno)
            raise ParseError(f"empty syllable in {line!r}", lineno)
        pinyin = [toneless[s] if s in toneless else toneless.setdefault(s, strip_tone(s))
                  for s in syllables]
        if "" in pinyin:
            raise ParseError(f"empty syllable in {line!r}", lineno)
        if len(pinyin) != len(word):
            rejected += 1
        elif word in by_word:
            duplicates += 1
        else:
            by_word[word] = " ".join(pinyin)
    return PinyinTable(by_word=by_word, rejected=rejected, duplicates_skipped=duplicates)


@dataclass
class Resources:
    """Bundle of the loaded knowledge sources threaded through the
    pretraining pipeline."""

    embeddings: WordEmbeddings | None = None
    pinyin: PinyinTable | None = None
