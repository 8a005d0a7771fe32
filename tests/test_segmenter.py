import pytest
from hypothesis import given, strategies as st

from markkit.errors import ParseError
from markkit.resources import Lexicon
from markkit.segmenter import (Segmentation, WordSpan, parse_pretokenized,
                               render_spaced, segment)


def make_lexicon(*words, pos=None):
    return Lexicon(entries=dict.fromkeys(words, pos))


def spans_of(seg):
    return [(s.start, s.end) for s in seg.spans]


def brute_force_max_match(text, lexicon):
    """Independent oracle: enumerate every tiling whose tiles are lexicon
    words or single characters, then pick the greedy one (longest first
    span, then longest second span, ...)."""
    def tilings(i):
        if i == len(text):
            yield []
            return
        for j in range(i + 1, len(text) + 1):
            piece = text[i:j]
            if j == i + 1 or piece in lexicon.entries:
                for rest in tilings(j):
                    yield [(i, j)] + rest

    return max(tilings(0), key=lambda t: [e - s for s, e in t])


class TestSegment:
    def test_earth_is_one_word(self):
        lex = make_lexicon("地球", "地", "球")
        assert spans_of(segment("地球", lex)) == [(0, 2)]

    def test_empty_text(self):
        assert spans_of(segment("", make_lexicon("地球"))) == []

    def test_unknown_char_falls_back(self):
        lex = make_lexicon("地球", "地", "球")
        seg = segment("X地球", lex)
        assert spans_of(seg) == brute_force_max_match("X地球", lex) == [(0, 1), (1, 3)]
        assert seg.spans[0].pos is None

    def test_pos_copied_from_lexicon(self):
        lex = Lexicon(entries={"地球": "NN", "好": "VA"})
        seg = segment("地球好", lex)
        assert [s.pos for s in seg.spans] == ["NN", "VA"]

    def test_longest_match_preferred(self):
        lex = make_lexicon("北京", "北京烤鸭", "烤鸭", "烤", "鸭")
        assert render_spaced(segment("北京烤鸭", lex), include_pos=False) == "北京烤鸭"

    def test_ascii_runs_per_character_unless_in_lexicon(self):
        lex = make_lexicon("ok", "地球")
        assert render_spaced(segment("ok地球12", lex), include_pos=False) == "ok 地球 1 2"

    @given(st.text(alphabet="地球天气好", max_size=10),
           st.sets(st.text(alphabet="地球天气好", min_size=1, max_size=3), max_size=8))
    def test_matches_brute_force_oracle(self, text, words):
        lex = make_lexicon(*words) if words else make_lexicon()
        seg = segment(text, lex)
        if text:
            assert spans_of(seg) == brute_force_max_match(text, lex)
        else:
            assert spans_of(seg) == []

    @given(st.text(alphabet="地球天气好x1", max_size=16),
           st.sets(st.text(alphabet="地球天气好x1", min_size=1, max_size=4), max_size=10))
    def test_tiling_invariant(self, text, words):
        seg = segment(text, make_lexicon(*words) if words else make_lexicon())
        offset = 0
        for span in seg.spans:
            assert span.start == offset
            offset = span.end
        assert offset == len(text)
        assert render_spaced(seg, include_pos=False).replace(" ", "") == text

    @given(st.text(alphabet="地球天气", max_size=10),
           st.sets(st.text(alphabet="地球天气", min_size=1, max_size=3), max_size=8))
    def test_maximality(self, text, words):
        lex = make_lexicon(*words) if words else make_lexicon()
        for span in segment(text, lex).spans:
            extended = text[span.start:span.end + 1]
            if span.end < len(text):
                assert extended not in lex.entries


class TestParsePretokenized:
    def test_three_words(self):
        seg = parse_pretokenized("天气 很 好")
        assert seg.text == "天气很好"
        assert spans_of(seg) == [(0, 2), (2, 3), (3, 4)]

    def test_single_word(self):
        assert spans_of(parse_pretokenized("地球")) == [(0, 2)]

    def test_double_space_is_error(self):
        with pytest.raises(ParseError):
            parse_pretokenized("a  b")

    def test_pos_suffix(self):
        seg = parse_pretokenized("天气/NN 好/VA")
        assert [s.pos for s in seg.spans] == ["NN", "VA"]
        assert seg.text == "天气好"

    def test_blank_line_is_empty(self):
        assert parse_pretokenized("").spans == ()
        assert parse_pretokenized("  ").spans == ()

    def test_empty_pos_is_error(self):
        with pytest.raises(ParseError):
            parse_pretokenized("好/")
        with pytest.raises(ParseError):
            parse_pretokenized("/NN")


words_strategy = st.lists(
    st.tuples(st.text(alphabet="地球天气很好人民", min_size=1, max_size=4),
              st.one_of(st.none(), st.sampled_from(["NN", "VV", "AD"]))),
    min_size=1, max_size=8)


@given(words_strategy)
def test_round_trip_through_rendering(words):
    spans = []
    offset = 0
    for word, pos in words:
        spans.append(WordSpan(offset, offset + len(word), pos=pos))
        offset += len(word)
    seg = Segmentation(text="".join(w for w, _ in words), spans=tuple(spans))
    assert parse_pretokenized(render_spaced(seg)) == seg


def test_segmentation_rejects_gaps():
    with pytest.raises(ValueError):
        Segmentation(text="地球", spans=(WordSpan(0, 1),))
    with pytest.raises(ValueError):
        Segmentation(text="地球", spans=(WordSpan(1, 2),))
