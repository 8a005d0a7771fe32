import random

import pytest
from hypothesis import given, strategies as st

from helpers import (brute_force_span_f1, random_bmeso_tags, random_segmentation,
                     random_span_set, span_scores, write_conll)
from markkit.errors import InputError
from markkit.marker_encoder import build_vocab, encode_marked
from markkit.ner import (EntitySpan, NerExample, SpanF1Counter,
                         align_labels_with_markers, bio_to_bmeso, extract_spans,
                         read_conll, strip_marker_labels)
from markkit.segmenter import parse_pretokenized

VOCAB = build_vocab("北京在人民地球天气很好")


def marked_of(ex: NerExample, add_cls_sep=False):
    return encode_marked(ex.seg, VOCAB, add_cls_sep=add_cls_sep)


class TestAlign:
    def test_marker_copies_former_token_tag(self):
        ex = NerExample(chars=("北", "京", "在"), labels=("B-LOC", "E-LOC", "O"),
                        seg=parse_pretokenized("北京 在"))
        tags = align_labels_with_markers(ex, marked_of(ex))
        assert tags == ["B-LOC", "E-LOC", "E-LOC", "O", "O"]

    def test_identity_without_markers(self):
        ex = NerExample(chars=("北", "京"), labels=("B-LOC", "E-LOC"),
                        seg=parse_pretokenized("北京"))
        marked = encode_marked(ex.seg, VOCAB, insert_markers=False, add_cls_sep=False)
        assert align_labels_with_markers(ex, marked) == ["B-LOC", "E-LOC"]

    def test_single_char_single_word(self):
        ex = NerExample(chars=("人",), labels=("S-PER",), seg=parse_pretokenized("人"))
        assert align_labels_with_markers(ex, marked_of(ex)) == ["S-PER", "S-PER"]

    def test_cls_sep_get_outside(self):
        ex = NerExample(chars=("北", "京"), labels=("B-LOC", "E-LOC"),
                        seg=parse_pretokenized("北京"))
        tags = align_labels_with_markers(ex, marked_of(ex, add_cls_sep=True))
        assert tags == ["O", "B-LOC", "E-LOC", "E-LOC", "O"]

    def test_length_mismatch_raises(self):
        ex = NerExample(chars=("北", "京", "在"), labels=("B-LOC", "E-LOC", "O"),
                        seg=parse_pretokenized("北京 在"))
        short = NerExample(chars=("北", "京"), labels=("B-LOC", "E-LOC"),
                           seg=parse_pretokenized("北京"))
        with pytest.raises(InputError):
            align_labels_with_markers(ex, marked_of(short))


class TestStrip:
    def test_inverse_of_align(self):
        ex = NerExample(chars=("北", "京", "在"), labels=("B-LOC", "E-LOC", "O"),
                        seg=parse_pretokenized("北京 在"))
        marked = marked_of(ex)
        tags = align_labels_with_markers(ex, marked)
        assert strip_marker_labels(tags, marked) == ["B-LOC", "E-LOC", "O"]

    def test_identity_without_markers(self):
        ex = NerExample(chars=("北", "京"), labels=("B-LOC", "E-LOC"),
                        seg=parse_pretokenized("北京"))
        marked = encode_marked(ex.seg, VOCAB, insert_markers=False, add_cls_sep=False)
        assert strip_marker_labels(["B-LOC", "E-LOC"], marked) == ["B-LOC", "E-LOC"]

    def test_all_outside_preserved(self):
        ex = NerExample(chars=("在", "在"), labels=("O", "O"),
                        seg=parse_pretokenized("在 在"))
        marked = marked_of(ex)
        tags = align_labels_with_markers(ex, marked)
        assert strip_marker_labels(tags, marked) == ["O", "O"]


class TestExtractSpans:
    def test_minimal_span(self):
        assert extract_spans(["B-LOC", "E-LOC", "O"]) == {EntitySpan(0, 2, "LOC")}

    def test_orphan_middle_discarded(self):
        assert extract_spans(["M-LOC", "E-LOC"]) == set()

    def test_hand_parse(self):
        tags = ["S-PER", "O", "B-ORG", "M-ORG", "E-ORG"]
        assert extract_spans(tags) == {EntitySpan(0, 1, "PER"), EntitySpan(2, 5, "ORG")}

    def test_dangling_b_at_end(self):
        assert extract_spans(["O", "B-LOC"]) == set()

    def test_type_switch_breaks_run(self):
        assert extract_spans(["B-LOC", "M-PER", "E-LOC"]) == set()
        assert extract_spans(["B-LOC", "E-PER"]) == set()

    def test_back_to_back_runs(self):
        tags = ["B-LOC", "E-LOC", "B-LOC", "E-LOC"]
        assert extract_spans(tags) == {EntitySpan(0, 2, "LOC"), EntitySpan(2, 4, "LOC")}

    def test_bio_input(self):
        tags = ["B-LOC", "I-LOC", "O", "B-PER"]
        assert extract_spans(tags) == {EntitySpan(0, 2, "LOC"), EntitySpan(3, 4, "PER")}

    def test_bio_orphan_i_discarded(self):
        assert extract_spans(["O", "I-LOC", "I-LOC"]) == set()

    def test_unparseable_tag_named(self):
        with pytest.raises(InputError, match="X-LOC"):
            extract_spans(["X-LOC"])
        with pytest.raises(InputError, match="O-LOC"):
            extract_spans(["O-LOC"])

    def test_explicit_scheme_overrides_detection(self):
        # B/O only: ambiguous; strict BMESO discards, BIO keeps a singleton
        assert extract_spans(["B-LOC", "O"], scheme="bmeso") == set()
        assert extract_spans(["B-LOC", "O"], scheme="bio") == {EntitySpan(0, 1, "LOC")}

    def test_bio_to_bmeso_conversion(self):
        assert bio_to_bmeso(["B-LOC", "I-LOC", "I-LOC", "O", "B-PER"]) == \
            ["B-LOC", "M-LOC", "E-LOC", "O", "S-PER"]


class TestSpanF1:
    def test_perfect_match(self):
        s = {EntitySpan(0, 2, "LOC")}
        assert span_scores(s, s) == (1.0, 1.0, 1.0)

    def test_vacuous_perfection(self):
        assert span_scores(set(), set()) == (1.0, 1.0, 1.0)

    def test_partial(self):
        pred = {EntitySpan(0, 2, "LOC"), EntitySpan(3, 4, "PER")}
        gold = {EntitySpan(0, 2, "LOC")}
        p, r, f1 = span_scores(pred, gold)
        assert (p, r) == (0.5, 1.0)
        assert f1 == pytest.approx(2 / 3)

    def test_empty_pred_nonempty_gold(self):
        assert span_scores(set(), {EntitySpan(0, 1, "LOC")}) == (0.0, 0.0, 0.0)
        assert span_scores({EntitySpan(0, 1, "LOC")}, set()) == (0.0, 0.0, 0.0)

    def test_type_must_match(self):
        p, r, f1 = span_scores({EntitySpan(0, 2, "LOC")}, {EntitySpan(0, 2, "PER")})
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    @given(st.integers(0, 10 ** 6))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        pred = random_span_set(rng, 12, rng.randint(0, 5))
        gold = random_span_set(rng, 12, rng.randint(0, 5))
        assert span_scores(pred, gold) == brute_force_span_f1(pred, gold)

    @given(st.integers(0, 10 ** 6))
    def test_metric_bounds(self, seed):
        rng = random.Random(seed)
        pred = random_span_set(rng, 10, rng.randint(0, 4))
        gold = random_span_set(rng, 10, rng.randint(0, 4))
        p, r, f1 = span_scores(pred, gold)
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
        assert f1 <= max(p, r) + 1e-12


@given(st.integers(0, 10 ** 6), st.integers(1, 12), st.booleans())
def test_align_strip_round_trip_and_span_preservation(seed, length, cls_sep):
    rng = random.Random(seed)
    text = "".join(rng.choice("北京在人民地球天气很好") for _ in range(length))
    seg = random_segmentation(rng, text)
    labels = tuple(random_bmeso_tags(rng, length))
    ex = NerExample(chars=tuple(text), labels=labels, seg=seg)
    marked = encode_marked(seg, VOCAB, add_cls_sep=cls_sep)
    tags = align_labels_with_markers(ex, marked)
    assert strip_marker_labels(tags, marked) == list(labels)
    assert extract_spans(strip_marker_labels(tags, marked)) == extract_spans(labels)


class TestCounter:
    def test_aggregates_counts_not_means(self):
        counter = SpanF1Counter()
        counter.add({EntitySpan(0, 1, "LOC")}, set())          # precision 0 here
        counter.add({EntitySpan(0, 1, "PER")}, {EntitySpan(0, 1, "PER")})
        assert counter.precision == 0.5
        assert counter.recall == 1.0

    def test_token_accuracy(self):
        counter = SpanF1Counter()
        counter.add(set(), set(), pred_tags=["O", "B-LOC"], gold_tags=["O", "O"])
        assert counter.token_accuracy == 0.5

    def test_unequal_tag_lengths_leave_counter_unchanged(self):
        counter = SpanF1Counter()
        span = {EntitySpan(0, 1, "LOC")}
        with pytest.raises(InputError):
            counter.add(span, span, pred_tags=["S-LOC"], gold_tags=["S-LOC", "O"])
        assert counter == SpanF1Counter()


class TestConllIO:
    def test_round_trip(self, tmp_path):
        examples = [
            NerExample(chars=("北", "京"), labels=("B-LOC", "E-LOC")),
            NerExample(chars=("在",), labels=("O",)),
        ]
        path = tmp_path / "data.tsv"
        write_conll(examples, path)
        assert read_conll(path) == examples

    def test_blank_line_separates_sentences(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("北\tB-LOC\n京\tE-LOC\n\n在\tO\n", encoding="utf-8")
        examples = read_conll(path)
        assert len(examples) == 2
        assert examples[1].labels == ("O",)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("北京 B-LOC\n", encoding="utf-8")
        with pytest.raises(Exception, match="line 1"):
            read_conll(path)
