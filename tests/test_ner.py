import random

import pytest
from hypothesis import given, strategies as st

from helpers import (brute_force_span_f1, random_bmeso_tags, random_segmentation,
                     random_span_set, span_scores, write_conll)
from markkit.errors import InputError
from markkit.marker_encoder import build_vocab, encode_marked
from markkit.ner import (EntitySpan, NerExample, SpanF1Counter,
                         align_labels_with_markers, extract_spans,
                         read_conll, scheme_of, strip_marker_labels)
from markkit.segmenter import parse_pretokenized

VOCAB = build_vocab("北京在人民地球天气很好")


def marked_of(words: str, add_cls_sep=False, insert_markers=True):
    """The encoding of the pretokenized ``words``."""
    return encode_marked(parse_pretokenized(words), VOCAB, add_cls_sep=add_cls_sep,
                         insert_markers=insert_markers)


class TestAlign:
    def test_marker_copies_former_token_tag(self):
        ex = NerExample(chars=("北", "京", "在"), labels=("B-LOC", "E-LOC", "O"))
        tags = align_labels_with_markers(ex, marked_of("北京 在"))
        assert tags == ["B-LOC", "E-LOC", "E-LOC", "O", "O"]

    def test_identity_without_markers(self):
        ex = NerExample(chars=("北", "京"), labels=("B-LOC", "E-LOC"))
        marked = marked_of("北京", insert_markers=False)
        assert align_labels_with_markers(ex, marked) == ["B-LOC", "E-LOC"]

    def test_single_char_single_word(self):
        ex = NerExample(chars=("人",), labels=("S-PER",))
        assert align_labels_with_markers(ex, marked_of("人")) == ["S-PER", "S-PER"]

    def test_cls_sep_get_outside(self):
        ex = NerExample(chars=("北", "京"), labels=("B-LOC", "E-LOC"))
        tags = align_labels_with_markers(ex, marked_of("北京", add_cls_sep=True))
        assert tags == ["O", "B-LOC", "E-LOC", "E-LOC", "O"]

    def test_length_mismatch_raises(self):
        ex = NerExample(chars=("北", "京", "在"), labels=("B-LOC", "E-LOC", "O"))
        with pytest.raises(InputError):
            align_labels_with_markers(ex, marked_of("北京"))

    def test_example_needs_one_label_per_char(self):
        with pytest.raises(InputError, match=r"^2 chars but 1 labels$"):
            NerExample(chars=("北", "京"), labels=("O",))


class TestStrip:
    def test_inverse_of_align(self):
        ex = NerExample(chars=("北", "京", "在"), labels=("B-LOC", "E-LOC", "O"))
        marked = marked_of("北京 在")
        tags = align_labels_with_markers(ex, marked)
        assert strip_marker_labels(tags, marked) == ["B-LOC", "E-LOC", "O"]

    def test_identity_without_markers(self):
        marked = marked_of("北京", insert_markers=False)
        assert strip_marker_labels(["B-LOC", "E-LOC"], marked) == ["B-LOC", "E-LOC"]

    def test_one_tag_per_token(self):
        with pytest.raises(InputError, match=r"^2 tags for 3 tokens$"):
            strip_marker_labels(["O", "O"], marked_of("北京"))

    def test_all_outside_preserved(self):
        ex = NerExample(chars=("在", "在"), labels=("O", "O"))
        marked = marked_of("在 在")
        tags = align_labels_with_markers(ex, marked)
        assert strip_marker_labels(tags, marked) == ["O", "O"]


class TestExtractSpans:
    def test_minimal_span(self):
        assert extract_spans(["B-LOC", "E-LOC", "O"], "bmeso") == {EntitySpan(0, 2, "LOC")}

    def test_orphan_middle_discarded(self):
        assert extract_spans(["M-LOC", "E-LOC"], "bmeso") == set()

    def test_hand_parse(self):
        tags = ["S-PER", "O", "B-ORG", "M-ORG", "E-ORG"]
        assert extract_spans(tags, "bmeso") == {EntitySpan(0, 1, "PER"), EntitySpan(2, 5, "ORG")}

    def test_dangling_b_at_end(self):
        assert extract_spans(["O", "B-LOC"], "bmeso") == set()

    def test_type_switch_breaks_run(self):
        assert extract_spans(["B-LOC", "M-PER", "E-LOC"], "bmeso") == set()
        assert extract_spans(["B-LOC", "E-PER"], "bmeso") == set()

    def test_back_to_back_runs(self):
        tags = ["B-LOC", "E-LOC", "B-LOC", "E-LOC"]
        assert extract_spans(tags, "bmeso") == {EntitySpan(0, 2, "LOC"), EntitySpan(2, 4, "LOC")}

    def test_bio_input(self):
        tags = ["B-LOC", "I-LOC", "O", "B-PER"]
        assert scheme_of([tags]) == "bio"
        assert extract_spans(tags, "bio") == {EntitySpan(0, 2, "LOC"), EntitySpan(3, 4, "PER")}

    def test_bio_orphan_i_discarded(self):
        tags = ["O", "I-LOC", "I-LOC"]
        assert scheme_of([tags]) == "bio"
        assert extract_spans(tags, "bio") == set()

    def test_unparseable_tag_named(self):
        with pytest.raises(InputError, match="X-LOC"):
            extract_spans(["X-LOC"], "bmeso")
        with pytest.raises(InputError, match="O-LOC"):
            extract_spans(["O-LOC"], "bio")
        with pytest.raises(InputError, match=r"^unparseable tag ''$"):
            extract_spans(["O", ""], "bio")

    def test_unknown_scheme(self):
        with pytest.raises(InputError, match=r"^unknown scheme 'bmes'$"):
            extract_spans(["O"], "bmes")

    def test_scheme_of_reads_every_sequence(self):
        """BIO when an ``I`` appears in any sequence and no ``M``, ``E`` or
        ``S`` in any; a sequence of ``B`` and ``O`` alone decides nothing."""
        assert scheme_of([["B-LOC", "I-LOC"], ["B-PER", "O"]]) == "bio"
        assert scheme_of([["B-LOC", "I-LOC"], ["S-PER"]]) == "bmeso"
        assert scheme_of([["B-LOC", "O"]]) == "bmeso"
        assert scheme_of([]) == "bmeso"

    def test_explicit_scheme_overrides_detection(self):
        # B/O only: ambiguous; strict BMESO discards, BIO keeps a singleton
        assert extract_spans(["B-LOC", "O"], scheme="bmeso") == set()
        assert extract_spans(["B-LOC", "O"], scheme="bio") == {EntitySpan(0, 1, "LOC")}

    def test_bio_runs(self):
        assert extract_spans(["B-LOC", "I-LOC", "I-LOC", "O", "B-PER"], scheme="bio") == \
            {EntitySpan(0, 3, "LOC"), EntitySpan(4, 5, "PER")}

    # each row: tags, scheme, the spans as (start, end, type); pinned to the
    # spans of the BIO-to-BMESO rewrite that the one walk replaced
    MALFORMED_BIO = [
        (["O", "I-LOC", "O"], "bio", set()),                        # orphan I
        (["I-LOC", "B-LOC", "I-LOC"], "auto", {(1, 3, "LOC")}),     # orphan I, then a run
        (["B-LOC", "I-PER"], "bio", {(0, 1, "LOC")}),              # type switch ends the run
        (["B-LOC", "I-PER", "I-PER"], "auto", {(0, 1, "LOC")}),
        (["B-LOC", "I-LOC", "I-PER", "I-LOC"], "bio", {(0, 2, "LOC")}),
        (["S-LOC", "O"], "bio", {(0, 1, "LOC")}),                   # a lone S is a span
        (["B-LOC", "M-LOC", "E-LOC"], "bio", {(0, 1, "LOC")}),     # M and E are not BIO
        (["M-LOC", "E-LOC", "I-LOC"], "bio", set()),
        (["B", "I", "O", "B"], "auto", {(0, 2, ""), (3, 4, "")}),  # untyped
        (["B", "I-LOC"], "bio", {(0, 1, "")}),                      # untyped B, typed I
        (["B-", "I"], "bio", {(0, 2, "")}),                         # "B-" is untyped
    ]

    @pytest.mark.parametrize("tags, scheme, spans", MALFORMED_BIO)
    def test_malformed_bio(self, tags, scheme, spans):
        if scheme == "auto":
            scheme = scheme_of([tags])
        assert extract_spans(tags, scheme=scheme) == {EntitySpan(*s) for s in spans}

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4),
                              st.sampled_from(["", "LOC", "PER"])), max_size=6))
    def test_bio_and_bmeso_renderings_agree(self, runs):
        """Spans drawn as (gap before, length, type) and rendered in either
        scheme are the spans extracted, under the scheme and under the one
        :func:`scheme_of` picks for the rendering."""
        def tag(prefix, entity):
            return f"{prefix}-{entity}" if entity else prefix

        bio, bmeso, drawn = [], [], set()
        for gap, length, entity in runs:
            bio += ["O"] * gap
            bmeso += ["O"] * gap
            drawn.add(EntitySpan(len(bio), len(bio) + length, entity))
            bio += [tag("B", entity)] + [tag("I", entity)] * (length - 1)
            bmeso += [tag("S", entity)] if length == 1 else \
                [tag("B", entity)] + [tag("M", entity)] * (length - 2) + [tag("E", entity)]
        assert extract_spans(bio, scheme="bio") == drawn
        assert extract_spans(bmeso, scheme="bmeso") == drawn
        assert extract_spans(bmeso, scheme_of([bmeso])) == drawn
        if any(length > 1 for _, length, _ in runs):  # auto reads B/O alone as BMESO
            assert extract_spans(bio, scheme_of([bio])) == drawn


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
    ex = NerExample(chars=tuple(text), labels=labels)
    marked = encode_marked(seg, VOCAB, add_cls_sep=cls_sep)
    tags = align_labels_with_markers(ex, marked)
    assert strip_marker_labels(tags, marked) == list(labels)
    assert extract_spans(strip_marker_labels(tags, marked), "bmeso") == \
        extract_spans(labels, "bmeso")


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
        with pytest.raises(InputError, match="^token accuracy needs equal-length tag sequences$"):
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
