import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import reference_embeddings, reference_length_sort
from markkit import resources
from markkit.confusion import synonym_candidates
from markkit.errors import ParseError, ResourceError
from markkit.resources import load_embeddings, load_lexicon, load_pinyin_table, strip_tone


def write(tmp_path, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_three_entries_max_len(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "地球\tNN\t100\n地\tNN\t50\n球\tNN\t40\n")
        lex = load_lexicon(path)
        assert len(lex.entries) == 3
        assert lex.max_word_len == 2
        assert lex.entries["地球"] == "NN"

    def test_empty_file(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "lex.tsv", ""))
        assert len(lex.entries) == 0
        assert lex.max_word_len == 0

    def test_duplicate_first_wins(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "地球\tNN\t100\n地球\tVV\t7\n")
        lex = load_lexicon(path)
        assert len(lex.entries) == 1
        assert lex.duplicates_skipped == 1
        assert lex.entries["地球"] == "NN"

    def test_optional_columns_absent_not_zero(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "lex.tsv", "地球\n地\t\t3\n"))
        assert lex.entries == {"地球": None, "地": None}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ResourceError):
            load_lexicon(tmp_path / "nope.tsv")

    def test_bad_frequency_reports_line(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "地\tNN\t1\n球\tNN\txx\n")
        with pytest.raises(ParseError, match="line 2"):
            load_lexicon(path)

    def test_negative_frequency(self, tmp_path):
        with pytest.raises(ParseError):
            load_lexicon(write(tmp_path, "lex.tsv", "地\tNN\t-1\n"))

    def test_load_determinism(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "地球\tNN\t100\n地\t\t\n球\n")
        assert load_lexicon(path) == load_lexicon(path)


class TestLoadEmbeddings:
    def test_two_vectors(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "2 2\n好 1.0 0.0\n佳 1.0 0.0\n"))
        assert emb.dim == 2
        assert len(emb.words) == 2
        assert np.array_equal(emb.unit_rows()[emb.row_index("好")], [1.0, 0.0])

    def test_length_mismatch_rejected(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "1 3\n好 1 0\n"))
        assert len(emb.words) == 0
        assert emb.rejected == 1

    def test_zero_norm_rejected(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "1 2\n好 0 0\n"))
        assert len(emb.words) == 0
        assert emb.rejected == 1

    def test_non_finite_norm_rejected(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt",
                                    "4 2\n好 1 0\n佳 inf 0\n美 0.9 0.1\n妙 0.8 0.3\n"))
        assert emb.rejected == 1
        assert "佳" not in emb
        for word in ("好", "美", "妙"):
            choices = synonym_candidates(word, emb, 3)
            assert len(choices) == 2
            assert all(c.replacement != "佳" and np.isfinite(c.score) for c in choices)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_rejected(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "2 2\n好 1 0\n佳 1e200 1e200\n"))
        assert emb.rejected == 1 and len(emb.words) == 1

    def test_header_row_count_mismatch(self, tmp_path):
        with pytest.raises(ParseError):
            load_embeddings(write(tmp_path, "e.txt", "3 2\n好 1 0\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            load_embeddings(write(tmp_path, "e.txt", "two 2\n"))

    def test_non_numeric_component(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(write(tmp_path, "e.txt", "1 2\n好 1 x\n"))

    def test_duplicate_first_wins(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "2 2\n好 1 0\n好 0 1\n"))
        assert emb.duplicates_skipped == 1
        assert np.array_equal(emb.unit_rows()[emb.row_index("好")], [1.0, 0.0])

    def test_rejected_first_occurrence_then_valid_duplicate(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt",
                                    "5 2\n好 0 0\n好 3 4\n佳 1\n佳 1 1\n好 1 0\n"))
        assert emb.words == ("好", "佳")
        assert emb.rejected == 2 and emb.duplicates_skipped == 1
        assert np.array_equal(emb.unit_rows()[emb.row_index("好")], np.array([3.0, 4.0]) / 5.0)

    def test_unit_rows_match_row_wise_normalization(self, toy_world):
        raw = [line.split() for line in
               toy_world.paths["embeddings"].read_text(encoding="utf-8").splitlines()[1:]]
        matrix = np.array([[float(x) for x in parts[1:]] for parts in raw])
        expected = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        by_length = sorted(range(len(raw)), key=lambda i: len(raw[i][0]))  # stable
        assert toy_world.embeddings.words == tuple(raw[i][0] for i in by_length)
        assert np.array_equal(toy_world.embeddings.unit_rows(), expected[by_length])

    def test_all_norms_positive(self, toy_world):
        emb = toy_world.embeddings
        for word in emb.words:
            assert np.linalg.norm(emb.unit_rows()[emb.row_index(word)]) > 0

    def test_load_determinism(self, tmp_path):
        path = write(tmp_path, "e.txt", "2 2\n好 1.5 -0.25\n佳 0.5 2.0\n")
        assert outcome(load_embeddings, path) == outcome(load_embeddings, path)


def length_slices(emb):
    """``emb.length_slice(n)`` for every length up to one past the longest
    word, each checked to hold exactly the words of its length."""
    longest = max(map(len, emb.words), default=0)
    slices = [emb.length_slice(n) for n in range(longest + 2)]
    for n, s in enumerate(slices):
        assert emb.words[s] == tuple(w for w in emb.words if len(w) == n)
    return slices


def outcome(load, path):
    try:
        emb = load(path)
    except ParseError as exc:
        return str(exc), exc.line
    return (emb.dim, emb.words, emb.unit_rows().tobytes(), emb.rejected, emb.duplicates_skipped,
            length_slices(emb))


# (file text or bytes, whether no block of it reaches the line-by-line parser)
EMBEDDING_FILES = {
    "regular": ("3 2\n好 1.5 -0.25\n佳 0.5 2.0\n美 1e-3 7\n", True),
    "no final newline": ("3 2\n好 1.5 -0.25\n佳 0.5 2.0\n美 1e-3 7", True),
    "tab between fields": ("2 2\n好\t1 0\n佳 1 0\n", False),
    "double space": ("2 2\n好  1 0\n佳 1 0\n", False),
    "trailing space": ("1 2\n好 1 0 \n", False),
    "trailing tab": ("1 2\n好 1 0\t\n", True),
    "trailing ideographic space": ("1 2\n好 1 0\u3000\n", True),
    "crlf and blank lines": ("2 2\r\n好 1 0\r\n\r\n  \r\n佳 0 1\r\n\r\n", True),
    "crlf, blank lines, no final newline": ("2 2\r\n\r\n好 1 0\r\n\r\n佳 0 1", True),
    "leading space in word": ("1 2\n 好 1 0\n", False),
    "leading ideographic space in word": ("1 2\n\u3000好 1 0\n", False),
    "ideographic space in word": ("1 2\n好\u3000佳 1 0\n", False),
    "no-break space in word": ("1 2\n好\xa0佳 1 0\n", False),
    "line separator in word": ("2 2\n好\u2028佳 1 0\n美 0 1\n", False),
    "next line in word, counted": ("3 2\n好\x85佳 1 0\n美 0 1\n", False),
    "dim-1 values": ("2 2\n好 1\n佳 1 0\n", False),
    "dim+1 values": ("2 2\n好 1 0 3\n佳 1 0\n", False),
    # the value count is checked by np.loadtxt and the block's column count
    "dim+1 beside dim-1 values": ("3 2\n好 1 0 3\n佳 1\n美 0 1\n", False),
    "dim-1 values on every line": ("2 2\n好 1\n佳 0\n", False),
    "dim+1 values on every line": ("2 1\n好 1 0\n佳 0 1\n", False),
    "no values beside a regular line": ("2 2\n好\n佳 1 0\n", False),
    "only a space after the word": ("2 2\n好 \n佳 1 0\n", False),
    "only whitespace after the word": ("2 2\n好 \t\n佳 1 0\n", False),
    "double space beside regular lines": ("3 2\n好 1 0\n佳 1  0\n美 0 1\n", False),
    "trailing space beside regular lines": ("3 2\n好 1 0\n佳 1 0 \n美 0 1\n", False),
    "whitespace-only line": ("3 2\n好 1 0\n \t\u3000\n佳 0 1\n美 1 1\n", True),
    "underscore digits": ("2 2\n好 1_0 1\n佳 1 0\n", False),
    "full-width digits": ("2 2\n好 １ ２\n佳 1 0\n", False),
    "nan inf 1e400": ("5 2\n好 nan 1\n佳 inf 0\n美 1e400 1\n妙 -Infinity 1\n棒 3 4\n", True),
    "duplicates": ("3 2\n好 1 0\n好 0 1\n佳 1 1\n", True),
    "rejected first, valid duplicate": ("3 2\n好 0 0\n好 3 4\n佳 1 1\n", True),
    "zero count": ("0 2\n", True),
    "zero count, blank lines": ("0 2\n\n \n", True),
    "empty file": ("", True),
    "count too small": ("1 2\n好 1 0\n佳 0 1\n", True),
    "count the file cannot hold": ("999999999999 100\n好 1 0\n", False),
    "dim the file cannot hold": ("1 999999999999\n好 1 0\n", False),
    "dim numpy cannot size": ("0 1000000000000000000000\n", True),
    "largest dim, no rows": (f"0 {resources.EMBEDDING_MAX_DIM}\n", True),
    "non-numeric": ("2 2\n好 1 0\n佳 x 1\n", False),
    "non-numeric after a short row": ("2 2\n好 1\n佳 x 1 2\n", False),
    "nul byte in a value": ("1 2\n好 1 0\x00\n", False),
    "non-UTF-8 byte in a later line": ("3 2\n好 1 0\n佳 0 1\n".encode() + b"\xff 1 1\n", True),
}


@pytest.mark.parametrize("name", EMBEDDING_FILES)
def test_embeddings_paths_agree(tmp_path, monkeypatch, name):
    """Every file, read in blocks of a few bytes (one or two lines each) and
    at the default size, gives the reference's result or ParseError. A
    regular file never reaches the line-by-line parser; an irregular one
    does in one-line blocks (a larger block can hold lines past a wrong
    count, which are only counted)."""
    text, regular = EMBEDDING_FILES[name]
    path = write(tmp_path, "e.txt", text)
    calls = []
    parse_lines = resources._parse_lines
    monkeypatch.setattr(resources, "_parse_lines",
                        lambda *a: calls.append(a[1]) or parse_lines(*a))  # no buffer reference
    reached = []
    for block in (1, 9, resources.EMBEDDING_BLOCK_BYTES):
        monkeypatch.setattr(resources, "EMBEDDING_BLOCK_BYTES", block)
        calls.clear()
        assert outcome(load_embeddings, path) == outcome(reference_embeddings, path)
        reached.append(bool(calls))
    assert (any(reached), reached[0]) == (not regular, not regular)


def test_non_utf8_byte_in_the_last_block_names_its_line(tmp_path):
    """A bad byte in the last of several default blocks names its line and
    byte, counted as a whole-file decode counts them: by newline, where a
    line separator earlier in the file is a line break to the parser."""
    text = vectors_text(tail=["乙 1 0"]).replace("\n一 ", "\n一\u2028 ", 1).encode()
    path = write(tmp_path, "e.txt", text[:-4] + b"\xff" + text[-3:])  # the "1" of "乙 1 0"
    assert len(text) > 4 * resources.EMBEDDING_BLOCK_BYTES
    with pytest.raises(ParseError) as exc:
        load_embeddings(path)
    assert exc.value.line == text.count(b"\n")
    assert f"at byte {len(text) - 4}" in str(exc.value)
    assert outcome(load_embeddings, path) == outcome(reference_embeddings, path)


_NUMBERS = st.one_of(st.floats().map(repr), st.sampled_from(
    ["0", "-0", "1e400", "-1e-400", "NaN", "-nan", "inf", "+.5", "1."]))
_ODD_VALUES = st.one_of(st.sampled_from(["1_0", "１", "x", "0x1", "1\t2", "1\x00"]),
                        st.text(alphabet="0123456789.eE+-_ x\t", min_size=1, max_size=6))
_WORDS = st.text(alphabet="好佳a_ \t\u3000\xa0\x85\u2028", max_size=3)


@st.composite
def embedding_files(draw):
    """Embedding files, half of them regular: a correct header, single
    spaces and parseable values."""
    dim = draw(st.integers(1, 3))
    tidy = draw(st.booleans())
    values = _NUMBERS if tidy else st.one_of(_NUMBERS, _ODD_VALUES)
    separators = st.just(" ") if tidy else st.sampled_from([" ", " ", "\t", "  ", "\u3000"])
    endings = st.sampled_from(["", "", "\t"]) if tidy else st.sampled_from(["", " ", "\u3000"])
    words = st.sampled_from(["好", "佳", "美好"]) if tidy else _WORDS
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        n = dim if tidy else dim + draw(st.sampled_from([0, 0, -1, 1]))
        line = draw(words) + "".join(draw(separators) + draw(values) for _ in range(n))
        lines.append(line + draw(endings))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    count = sum(1 for ln in lines if ln.strip())
    if not tidy:
        count += draw(st.sampled_from([0, 0, 0, 1]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([f"{count} {dim}", *lines]) + draw(st.sampled_from([end, end, ""]))


@given(embedding_files(), st.sampled_from([1, 5, 16, resources.EMBEDDING_BLOCK_BYTES]))
def test_embeddings_paths_agree_on_generated_files(tmp_path_factory, text, block):
    path = write(tmp_path_factory.mktemp("emb"), "e.txt", text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resources, "EMBEDDING_BLOCK_BYTES", block)
        assert outcome(load_embeddings, path) == outcome(reference_embeddings, path)


def words_of_lengths(lengths):
    """Distinct words, one of each length in ``lengths``."""
    return tuple(chr(0x4E00 + i) + "好" * (n - 1) for i, n in enumerate(lengths))


def assert_sorts_as_the_copy(lengths, unused, seed, dim=3):
    """The in-place walk sorts random rows picked for words of ``lengths``,
    with ``unused`` rows that no word picks (as rejected and duplicate rows
    are), to the reference's fancy-index copy, bit for bit."""
    words = words_of_lengths(lengths)
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(len(words) + unused, dim))
    picks = rng.permutation(len(rows))[:len(words)]
    expected = reference_length_sort(words, rows, picks)
    order = sorted(range(len(words)), key=lambda i: len(words[i]))
    resources._gather_in_place(rows, picks[order].tolist())
    got = resources.WordEmbeddings(tuple(words[i] for i in order), rows[:len(words)], 0, 0)
    assert got.words == expected.words
    assert got.unit_rows().tobytes() == expected.unit_rows().tobytes()
    assert length_slices(got) == length_slices(expected)


@given(lengths=st.one_of(st.lists(st.integers(1, 5), max_size=60),
                         st.integers(0, 60).map(lambda n: [2] * n),
                         st.permutations(range(1, 41))),
       unused=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_length_sort_in_place_matches_the_copy(lengths, unused, seed):
    """Random lengths, one length only and every row a different length."""
    assert_sorts_as_the_copy(lengths, unused, seed)


def test_length_sort_in_place_matches_the_copy_at_scale():
    """Long cycles and chains, at the benchmark's mix of lengths."""
    lengths = np.random.default_rng(1).choice([1, 2, 3, 4], size=20000, p=[.08, .58, .23, .11])
    assert_sorts_as_the_copy(lengths.tolist(), 100, seed=2, dim=4)


def vectors_text(rows=4000, dim=50, ending="", tail=()):
    """An embeddings file of ``rows`` random ``dim``-dim rows, each line
    ending in ``ending``, then the lines ``tail``. The words have one to
    three characters, mixed, so that the load sorts them. At 4,000 × 50 it
    is about 2 MB, eight default blocks."""
    rng = np.random.default_rng(0)
    lines = [f"{chr(0x4E00 + i)}{'好' * (i % 3)} " + " ".join(f"{v:.6f}" for v in row) + ending
             for i, row in enumerate(rng.normal(size=(rows, dim)))]
    lines += tail
    return "\n".join([f"{len(lines)} {dim}", *lines]) + "\n"


def assert_loads_in_bounded_memory(path, rows=4000):
    """The traced peak of a load stays within one matrix, twice what the
    loaded embeddings hold beside it (their words and word index; while
    the rows are picked, the parse's word list and each word's first row
    are alive too) and eight blocks (one block's bytes, decoded text, lines
    and values). A second
    matrix, such as a length-sorted copy or a whole-matrix temporary, does
    not fit once the matrix dwarfs a block; nor does holding the decoded
    text and its lines at once, as a whole-file parse does (about four
    times the file)."""
    tracemalloc.start()
    try:
        emb = load_embeddings(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = emb.unit_rows().nbytes
    assert len(emb.words) == rows
    assert peak <= matrix + 2 * (held - matrix) + 8 * resources.EMBEDDING_BLOCK_BYTES


def test_regular_file_loads_in_bounded_memory(tmp_path):
    assert_loads_in_bounded_memory(write(tmp_path, "e.txt", vectors_text()))


def test_irregular_file_loads_in_bounded_memory(tmp_path):
    """A trailing space on every line (a common word2vec text style) sends
    every block to the line-by-line parser, which is bounded too."""
    assert_loads_in_bounded_memory(write(tmp_path, "e.txt", vectors_text(ending=" ")))


def test_large_matrix_loads_in_one_matrix(tmp_path):
    """At 20,000 × 100 the matrix (15 MiB) dwarfs a block, so the bound is
    about one matrix: the parsed rows are normalized and length-sorted in
    place."""
    assert_loads_in_bounded_memory(write(tmp_path, "e.txt", vectors_text(20000, 100)), 20000)


def test_mostly_rejected_file_frees_its_rows(tmp_path):
    """Rows of the wrong length or with a zero norm are not held behind the
    matrix, whether or not they outnumber the kept rows: after the load the
    embeddings hold the matrix and their 1,000 words (a third of the
    matrix or less here), not the parse buffer's rejected rows."""
    for dim, zero_rows, short_rows in [(50, 3000, 3000), (100, 900, 0)]:
        tail = [f"{chr(0x6000 + i)} " + " ".join(["0"] * dim) for i in range(zero_rows)]
        tail += [f"{chr(0x7000 + i)} 1 2" for i in range(short_rows)]
        path = write(tmp_path, "e.txt", vectors_text(1000, dim, tail=tail))
        tracemalloc.start()
        try:
            emb = load_embeddings(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (len(emb.words), emb.rejected) == (1000, zero_rows + short_rows)
        assert held < 1.5 * emb.unit_rows().nbytes


def test_fifo_loads_as_the_regular_file(tmp_path):
    """A pipe, which cannot report its size, gives the reference's result,
    with a zero row, a duplicate word and a row of the wrong length."""
    text = vectors_text(tail=["丁 " + " ".join(["0"] * 50), "一 " + " ".join(["1"] * 50),
                              "乙 1 2"])
    fifo = tmp_path / "e.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,),
                              kwargs={"encoding": "utf-8"}, daemon=True)
    writer.start()
    try:
        got = outcome(load_embeddings, fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == outcome(reference_embeddings, write(tmp_path, "e.txt", text))
    assert got[3:5] == (2, 1)


def unmemoized_by_word(text):
    """The reference ``by_word``: ``strip_tone`` on every syllable of every
    well-formed line, first occurrence kept."""
    by_word: dict[str, str] = {}
    for line in text.splitlines():
        word, _, syllables = line.partition("\t")
        pinyin = [strip_tone(s) for s in syllables.split()]
        if len(pinyin) == len(word):
            by_word.setdefault(word, " ".join(pinyin))
    return by_word


class TestLoadPinyinTable:
    def test_inverse_index(self, tmp_path):
        table = load_pinyin_table(write(tmp_path, "p.tsv", "附近\tfu jin\n富金\tfu jin\n"))
        assert table.by_pinyin["fu jin"] == ("富金", "附近")
        assert table.by_word["附近"] == "fu jin"

    def test_empty_file(self, tmp_path):
        table = load_pinyin_table(write(tmp_path, "p.tsv", ""))
        assert table.by_word == {}
        assert table.by_pinyin == {}

    def test_count_mismatch_rejected(self, tmp_path):
        table = load_pinyin_table(write(tmp_path, "p.tsv", "好\thao hao\n"))
        assert table.by_word == {}
        assert table.rejected == 1

    def test_tones_stripped(self, tmp_path):
        table = load_pinyin_table(write(tmp_path, "p.tsv", "好\thao3\n搞\tgǎo\n"))
        assert table.by_word["好"] == "hao"
        assert table.by_word["搞"] == "gao"

    def test_missing_tab(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            load_pinyin_table(write(tmp_path, "p.tsv", "好 hao\n"))

    def test_inverse_soundness_on_toy(self, toy_world):
        table = toy_world.pinyin
        for word, pinyin in table.by_word.items():
            assert word in table.by_pinyin[pinyin]
        for pinyin, words in table.by_pinyin.items():
            for word in words:
                assert table.by_word[word] == pinyin

    def test_toy_table_matches_unmemoized_strip_tone(self, toy_world):
        text = toy_world.paths["pinyin"].read_text(encoding="utf-8")
        assert toy_world.pinyin.by_word == unmemoized_by_word(text)

    def test_syllable_count_equals_char_count(self, toy_world):
        for word, pinyin in toy_world.pinyin.by_word.items():
            assert len(pinyin.split(" ")) == len(word)


@given(st.lists(
    st.tuples(st.text(alphabet="天地人好", min_size=1, max_size=3),
              st.lists(st.sampled_from(["hao", "hao3", "HAO", "hǎo", "di", "TIAN2", "rén"]),
                       min_size=1, max_size=3)),
    max_size=12))
def test_pinyin_inverse_property(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("prop") / "p.tsv"
    text = "".join(f"{w}\t{' '.join(s)}\n" for w, s in entries)
    path.write_text(text, encoding="utf-8")
    table = load_pinyin_table(path)
    assert table.by_word == unmemoized_by_word(text)
    for word, pinyin in table.by_word.items():
        assert word in table.by_pinyin[pinyin]
    for pinyin, words in table.by_pinyin.items():
        assert words == tuple(sorted(w for w, p in table.by_word.items() if p == pinyin))


def test_strip_tone_variants():
    assert strip_tone("hao3") == "hao"
    assert strip_tone("HAO") == "hao"
    assert strip_tone("lǜ4") == "lu"  # diacritics removed, then tone digit
    assert strip_tone("ma") == "ma"
