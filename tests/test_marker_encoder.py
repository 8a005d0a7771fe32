import pytest
from hypothesis import given, strategies as st

from helpers import without_markers
from markkit.errors import ConfigError
from markkit.marker_encoder import build_vocab, encode_marked, load_vocab, save_vocab
from markkit.segmenter import Segmentation, WordSpan, parse_pretokenized

SEG = parse_pretokenized("天气 很 好")


class TestEncodeMarked:
    def test_hand_traced_encoding(self, tiny_vocab):
        marked = encode_marked(SEG, tiny_vocab)
        assert list(marked.ids) == [2, 6, 7, 5, 8, 5, 9, 5, 3]
        assert list(marked.marker_positions) == [3, 5, 7]
        assert marked.char_alignment == {1: 0, 2: 1, 4: 2, 6: 3}
        assert not marked.truncated
        assert marked.words == (WordSpan(0, 2), WordSpan(2, 3), WordSpan(3, 4))

    def test_vanilla_downgrade(self, tiny_vocab):
        marked = encode_marked(SEG, tiny_vocab, insert_markers=False)
        assert list(marked.ids) == [2, 6, 7, 8, 9, 3]
        assert marked.marker_positions == ()

    def test_unknown_char_becomes_unk(self, tiny_vocab):
        marked = encode_marked(parse_pretokenized("Z"), tiny_vocab)
        assert list(marked.ids) == [2, 1, 5, 3]

    def test_no_cls_sep(self, tiny_vocab):
        marked = encode_marked(SEG, tiny_vocab, add_cls_sep=False)
        assert list(marked.ids) == [6, 7, 5, 8, 5, 9, 5]
        assert not marked.has_cls_sep
        assert set(marked.char_alignment) | set(marked.marker_positions) == set(range(7))

    def test_truncation_at_word_boundary(self, tiny_vocab):
        # budget of 6 after CLS/SEP: 天气+[S] (3) + 很+[S] (2) fit, 好 does not
        marked = encode_marked(SEG, tiny_vocab, max_len=8)
        assert marked.truncated
        assert list(marked.ids) == [2, 6, 7, 5, 8, 5, 3]
        assert len(marked.ids) <= 8
        assert marked.words == SEG.spans[:2]

    def test_max_len_too_small(self, tiny_vocab):
        with pytest.raises(ConfigError):
            encode_marked(SEG, tiny_vocab, max_len=2)

    def test_marker_count_equals_word_count(self, tiny_vocab):
        marked = encode_marked(SEG, tiny_vocab)
        assert len(marked.marker_positions) == len(SEG.spans)

    def test_pos_markers_with_fallback(self):
        vocab = build_vocab("天气很好", pos_tags=("NN",))
        seg = parse_pretokenized("天气/NN 很/AD 好/NN")
        marked = encode_marked(seg, vocab, pos_markers=True)
        pos_id = vocab.pos_marker_ids["NN"]
        marker_ids = [marked.ids[p] for p in marked.marker_positions]
        assert marker_ids == [pos_id, vocab.marker_id, pos_id]

    def test_empty_segmentation(self, tiny_vocab):
        marked = encode_marked(Segmentation("", ()), tiny_vocab)
        assert list(marked.ids) == [2, 3]
        assert marked.marker_positions == ()

    def test_first_word_exceeding_budget_yields_empty_body(self, tiny_vocab):
        seg = parse_pretokenized("天气很好")  # one 4-char word, cost 5 with marker
        marked = encode_marked(seg, tiny_vocab, max_len=4)
        assert list(marked.ids) == [2, 3]
        assert marked.truncated
        assert marked.char_alignment == {}


class TestStripMarkers:
    def test_removal_trace(self, tiny_vocab):
        marked = encode_marked(SEG, tiny_vocab)
        assert without_markers(marked) == [2, 6, 7, 8, 9, 3]

    def test_identity_without_markers(self, tiny_vocab):
        marked = encode_marked(SEG, tiny_vocab, insert_markers=False)
        assert without_markers(marked) == list(marked.ids)

    def test_degenerate_all_marker_body(self, tiny_vocab):
        seg = parse_pretokenized("天")
        marked = encode_marked(seg, tiny_vocab)
        assert list(marked.ids) == [2, 6, 5, 3]
        assert without_markers(marked) == [2, 6, 3]


segs = st.lists(st.text(alphabet="天气很好", min_size=1, max_size=3),
                min_size=0, max_size=10).map(
    lambda words: parse_pretokenized(" ".join(words)))


@given(segs, st.booleans())
def test_round_trip_property(tiny_vocab, seg, cls_sep):
    plain = encode_marked(seg, tiny_vocab, insert_markers=False, add_cls_sep=cls_sep)
    marked = encode_marked(seg, tiny_vocab, add_cls_sep=cls_sep)
    if not marked.truncated:
        assert without_markers(marked) == list(plain.ids)
        assert len(marked.marker_positions) == len(seg.spans)


@given(segs, st.integers(min_value=3, max_value=12))
def test_position_budget(tiny_vocab, seg, max_len):
    marked = encode_marked(seg, tiny_vocab, max_len=max_len)
    assert len(marked.ids) <= max_len


@given(segs)
def test_alignment_totality(tiny_vocab, seg):
    marked = encode_marked(seg, tiny_vocab)
    markers = set(marked.marker_positions)
    specials = {0, len(marked.ids) - 1} if marked.has_cls_sep else set()
    assert [marked.ids[i] for i in sorted(specials)] == \
        ([tiny_vocab.cls_id, tiny_vocab.sep_id] if specials else [])
    for i in range(len(marked.ids)):
        if i in markers:
            assert i not in marked.char_alignment
            assert marked.ids[i] == tiny_vocab.marker_id
        elif i not in specials:
            assert i in marked.char_alignment


class TestVocab:
    def test_load_round_trip(self, tmp_path, tiny_vocab):
        path = tmp_path / "vocab.txt"
        save_vocab(tiny_vocab, path)
        assert load_vocab(path) == tiny_vocab
        assert len(load_vocab(path)) == 10

    def test_missing_special_lists_which(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[S]\n天\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"\[MASK\]"):
            load_vocab(path)

    def test_duplicate_token_named(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\n[S]\n天\n天\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="天"):
            load_vocab(path)

    def test_no_character_token(self, tmp_path):
        """Masking draws random replacements from the character tokens."""
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\n[S]\n[S:NN]\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="no character tokens"):
            load_vocab(path)

    def test_ids_dense_and_bijective(self, tiny_vocab):
        for token, tid in tiny_vocab.token_to_id.items():
            assert tiny_vocab.tokens[tid] == token
        assert sorted(tiny_vocab.token_to_id.values()) == list(range(len(tiny_vocab)))

    def test_char_ids_exclude_special_and_marker(self, tiny_vocab):
        assert set(tiny_vocab.char_ids) == {6, 7, 8, 9}

    def test_build_vocab_pos_markers(self):
        vocab = build_vocab("好天", pos_tags=("VV", "NN"))
        assert vocab.pos_marker_ids == {"NN": 6, "VV": 7}
        assert set(vocab.char_ids) == {8, 9}  # markers are not characters
