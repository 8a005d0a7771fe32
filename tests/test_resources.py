import numpy as np
import pytest
from hypothesis import given, strategies as st

from markkit.confusion import synonym_candidates
from markkit.errors import ParseError, ResourceError
from markkit.resources import (_embedding_lines, _embeddings_from_rows, _parse_by_line,
                               _parse_regular, load_embeddings, load_lexicon,
                               load_pinyin_table, strip_tone)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_three_entries_max_len(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "地球\tNN\t100\n地\tNN\t50\n球\tNN\t40\n")
        lex = load_lexicon(path)
        assert len(lex) == 3
        assert lex.max_word_len == 2
        assert lex.entries["地球"].pos == "NN"
        assert lex.entries["地球"].freq == 100

    def test_empty_file(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "lex.tsv", ""))
        assert len(lex) == 0
        assert lex.max_word_len == 0

    def test_duplicate_first_wins(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "地球\tNN\t100\n地球\tVV\t7\n")
        lex = load_lexicon(path)
        assert len(lex) == 1
        assert lex.duplicates_skipped == 1
        assert lex.entries["地球"].pos == "NN"

    def test_optional_columns_absent_not_zero(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "lex.tsv", "地球\n地\t\t3\n"))
        assert lex.entries["地球"].pos is None
        assert lex.entries["地球"].freq is None
        assert lex.entries["地"].pos is None
        assert lex.entries["地"].freq == 3

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
        assert len(emb) == 2
        assert np.array_equal(emb.vector("好"), [1.0, 0.0])

    def test_length_mismatch_rejected(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "1 3\n好 1 0\n"))
        assert len(emb) == 0
        assert emb.rejected == 1

    def test_zero_norm_rejected(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt", "1 2\n好 0 0\n"))
        assert len(emb) == 0
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
        assert emb.rejected == 1 and len(emb) == 1

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
        assert np.array_equal(emb.vector("好"), [1.0, 0.0])

    def test_rejected_first_occurrence_then_valid_duplicate(self, tmp_path):
        emb = load_embeddings(write(tmp_path, "e.txt",
                                    "5 2\n好 0 0\n好 3 4\n佳 1\n佳 1 1\n好 1 0\n"))
        assert emb.words == ("好", "佳")
        assert emb.rejected == 2 and emb.duplicates_skipped == 1
        assert np.array_equal(emb.vector("好"), np.array([3.0, 4.0]) / 5.0)

    def test_unit_rows_match_row_wise_normalization(self, toy_world):
        raw = [line.split() for line in
               toy_world.paths["embeddings"].read_text(encoding="utf-8").splitlines()[1:]]
        matrix = np.array([[float(x) for x in parts[1:]] for parts in raw])
        expected = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        by_length = sorted(range(len(raw)), key=lambda i: len(raw[i][0]))  # stable
        assert toy_world.embeddings.words == tuple(raw[i][0] for i in by_length)
        assert np.array_equal(toy_world.embeddings.unit_rows(), expected[by_length])

    def test_all_norms_positive(self, toy_world):
        for word in toy_world.embeddings.words:
            assert np.linalg.norm(toy_world.embeddings.vector(word)) > 0

    def test_load_determinism(self, tmp_path):
        path = write(tmp_path, "e.txt", "2 2\n好 1.5 -0.25\n佳 0.5 2.0\n")
        assert load_embeddings(path) == load_embeddings(path)


def load_by_line(path):
    """The reference: the line-by-line parser for every file, through the
    same tail as ``load_embeddings``."""
    return _embeddings_from_rows(*_parse_by_line(*_embedding_lines(path)))


def outcome(load, path):
    try:
        emb = load(path)
    except ParseError as exc:
        return str(exc), exc.line
    return emb.dim, emb.words, emb.unit_rows().tobytes(), emb.rejected, emb.duplicates_skipped


# (file text, whether the one-call parse takes it)
EMBEDDING_FILES = {
    "regular": ("3 2\n好 1.5 -0.25\n佳 0.5 2.0\n美 1e-3 7\n", True),
    "tab between fields": ("2 2\n好\t1 0\n佳 1 0\n", False),
    "double space": ("2 2\n好  1 0\n佳 1 0\n", False),
    "trailing space": ("1 2\n好 1 0 \n", False),
    "trailing tab": ("1 2\n好 1 0\t\n", True),
    "trailing ideographic space": ("1 2\n好 1 0\u3000\n", True),
    "crlf and blank lines": ("2 2\r\n好 1 0\r\n\r\n  \r\n佳 0 1\r\n\r\n", True),
    "leading space in word": ("1 2\n 好 1 0\n", False),
    "leading ideographic space in word": ("1 2\n\u3000好 1 0\n", False),
    "ideographic space in word": ("1 2\n好\u3000佳 1 0\n", False),
    "no-break space in word": ("1 2\n好\xa0佳 1 0\n", False),
    "dim-1 values": ("2 2\n好 1\n佳 1 0\n", False),
    "dim+1 values": ("2 2\n好 1 0 3\n佳 1 0\n", False),
    "underscore digits": ("2 2\n好 1_0 1\n佳 1 0\n", False),
    "full-width digits": ("2 2\n好 １ ２\n佳 1 0\n", False),
    "nan inf 1e400": ("5 2\n好 nan 1\n佳 inf 0\n美 1e400 1\n妙 -Infinity 1\n棒 3 4\n", True),
    "duplicates": ("3 2\n好 1 0\n好 0 1\n佳 1 1\n", True),
    "rejected first, valid duplicate": ("3 2\n好 0 0\n好 3 4\n佳 1 1\n", True),
    "zero count": ("0 2\n", False),
    "zero count, blank lines": ("0 2\n\n \n", False),
    "non-numeric": ("2 2\n好 1 0\n佳 x 1\n", False),
    "non-numeric after a short row": ("2 2\n好 1\n佳 x 1 2\n", False),
    "nul byte in a value": ("1 2\n好 1 0\x00\n", False),
}


@pytest.mark.parametrize("name", EMBEDDING_FILES)
def test_embeddings_paths_agree(tmp_path, name):
    text, regular = EMBEDDING_FILES[name]
    path = write(tmp_path, "e.txt", text)
    assert (_parse_regular(*_embedding_lines(path)) is not None) == regular
    assert outcome(load_embeddings, path) == outcome(load_by_line, path)


_NUMBERS = st.one_of(st.floats().map(repr), st.sampled_from(
    ["0", "-0", "1e400", "-1e-400", "NaN", "-nan", "inf", "+.5", "1."]))
_ODD_VALUES = st.one_of(st.sampled_from(["1_0", "１", "x", "0x1", "1\t2", "1\x00"]),
                        st.text(alphabet="0123456789.eE+-_ x\t", min_size=1, max_size=6))
_WORDS = st.text(alphabet="好佳a_ \t\u3000\xa0", max_size=3)


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
    return end.join([f"{count} {dim}", *lines]) + end


@given(embedding_files())
def test_embeddings_paths_agree_on_generated_files(tmp_path_factory, text):
    path = write(tmp_path_factory.mktemp("emb"), "e.txt", text)
    assert outcome(load_embeddings, path) == outcome(load_by_line, path)


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
        assert table.by_pinyin["fu jin"] == frozenset({"附近", "富金"})
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
        assert words == frozenset(w for w, p in table.by_word.items() if p == pinyin)


def test_strip_tone_variants():
    assert strip_tone("hao3") == "hao"
    assert strip_tone("HAO") == "hao"
    assert strip_tone("lǜ4") == "lu"  # diacritics removed, then tone digit
    assert strip_tone("ma") == "ma"
