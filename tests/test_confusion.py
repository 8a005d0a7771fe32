import random

import numpy as np
import pytest

from helpers import embeddings_of, reference_synonyms
from markkit.confusion import (ConfusionKind, ConfusionPolicy, pinyin_candidates,
                               sample_confusion, synonym_candidates)
from markkit.resources import PinyinTable


def table_of(**by_word):
    return PinyinTable(by_word=by_word)


def brute_force_synonyms(word, emb, k):
    """Oracle: raw cosine over the whole vocabulary, same-length filter,
    sort by descending similarity then lexicographic word."""
    unit = emb.unit_rows()
    query = unit[emb.row_index(word)]
    scored = []
    for other in emb.words:
        if other == word or len(other) != len(word):
            continue
        v = unit[emb.row_index(other)]
        cos = float(np.dot(query, v) / (np.linalg.norm(query) * np.linalg.norm(v)))
        scored.append((cos, other))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return scored[:k]


class TestSynonymCandidates:
    def test_identical_vector_cosine_one(self):
        emb = embeddings_of(a=(1, 0), b=(1, 0), c=(0, 1))
        result = synonym_candidates("a", emb, 1)
        assert [(r.replacement, r.score) for r in result] == [("b", 1.0)]
        assert result[0].kind is ConfusionKind.SYNONYM

    def test_orthogonal_neighbor_cosine_zero(self):
        emb = embeddings_of(a=(1, 0), c=(0, 1))
        result = synonym_candidates("a", emb, 1)
        assert result[0].replacement == "c"
        assert result[0].score == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_on_five_words(self):
        emb = embeddings_of(a=(1.0, 0.2), b=(0.9, 0.1), c=(-1.0, 0.4),
                            d=(0.2, 1.0), e=(0.5, 0.5))
        result = synonym_candidates("a", emb, 3)
        expected = brute_force_synonyms("a", emb, 3)
        assert [(r.replacement) for r in result] == [w for _, w in expected]
        for got, (cos, _) in zip(result, expected):
            assert got.score == pytest.approx(cos, abs=1e-6)

    def test_absent_word_empty(self):
        assert synonym_candidates("zz", embeddings_of(a=(1, 0)), 3) == []

    def test_equal_length_filter(self):
        emb = embeddings_of(ab=(1, 0), cd=(1, 0), e=(1, 0))
        assert [r.replacement for r in synonym_candidates("ab", emb, 5)] == ["cd"]

    def test_scores_non_increasing_and_exact(self, toy_world):
        emb = toy_world.embeddings
        for word in toy_world.words[:40]:
            result = synonym_candidates(word, emb, 5)
            scores = [r.score for r in result]
            assert scores == sorted(scores, reverse=True)
            for r in result:
                a, b = emb.unit_rows()[[emb.row_index(word), emb.row_index(r.replacement)]]
                cos = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
                assert abs(r.score - cos) < 1e-6
                assert len(r.replacement) == len(word)
                assert r.replacement != word


    def test_matches_reference_on_every_toy_word(self, toy_world):
        emb = toy_world.embeddings
        for word in emb.words:
            bucket = sum(len(w) == len(word) for w in emb.words)
            for k in sorted({1, 5, max(1, bucket - 1), bucket + 3}):
                got = [(c.score, c.replacement) for c in synonym_candidates(word, emb, k)]
                assert got == reference_synonyms(word, emb, k), (word, k)

    def test_ties_across_kth_place_break_by_word(self):
        tied = (0.6, 0.8)
        emb = embeddings_of(q=(1, 0), x=(1, 0.1), d=tied, b=tied, e=tied, c=tied, z=(0, 1))
        result = synonym_candidates("q", emb, 3)
        assert [r.replacement for r in result] == ["x", "b", "c"]
        assert result[1].score == result[2].score
        assert [r.replacement for r in synonym_candidates("q", emb, 5)] == \
            ["x", "b", "c", "d", "e"]

    def test_cosine_rounding_above_one_is_clipped(self):
        v = np.array([0.75, 0.57, 0.38])
        emb = embeddings_of(a=v, b=3.0 * v, c=(-1, 0, 0))
        assert (emb.unit_rows() @ emb.unit_rows()[emb.row_index("a")]).max() > 1.0
        result = synonym_candidates("a", emb, 2)
        assert [(r.replacement, r.score) for r in result] == \
            [("b", 1.0), ("c", reference_synonyms("a", emb, 2)[1][0])]

    def test_word_alone_in_its_length_bucket(self):
        emb = embeddings_of(a=(1, 0), b=(0, 1), 好人=(1, 1))
        assert synonym_candidates("好人", emb, 5) == []
        assert [r.replacement for r in synonym_candidates("a", emb, 5)] == ["b"]


class TestPinyinCandidates:
    def test_exhaustive_scan_of_toy_table(self):
        table = table_of(附近="fu jin", 富金="fu jin")
        result = pinyin_candidates("附近", table)
        assert [r.replacement for r in result] == ["富金"]
        assert result[0].score == 1.0
        assert result[0].kind is ConfusionKind.PINYIN

    def test_unique_pinyin_no_homophones(self):
        assert pinyin_candidates("好", table_of(好="hao", 人="ren")) == []

    def test_absent_word(self):
        assert pinyin_candidates("无", table_of(好="hao")) == []

    def test_sorted_lexicographically(self):
        table = table_of(一="yi", 乙="yi", 以="yi")
        assert [r.replacement for r in pinyin_candidates("乙", table)] == ["一", "以"]

    def test_soundness_on_toy(self, toy_world):
        table = toy_world.pinyin
        for word in toy_world.words[:60]:
            for r in pinyin_candidates(word, table):
                assert table.by_word[r.replacement] == table.by_word[word]
                assert r.replacement != word
                assert len(r.replacement) == len(word)


class TestSampleConfusion:
    def test_fallback_to_pinyin(self):
        emb = embeddings_of(x=(1, 0))  # word absent: no synonyms
        table = table_of(附近="fu jin", 富金="fu jin")
        choice = sample_confusion("附近", emb, table, random.Random(0),
                                  ConfusionPolicy(p_pinyin=0.0))
        assert choice is not None
        assert choice.kind is ConfusionKind.PINYIN
        assert choice.replacement == "富金"

    def test_fallback_to_synonym(self):
        emb = embeddings_of(附近=(1, 0), 左右=(1, 0))
        table = table_of(附近="fu jin")
        choice = sample_confusion("附近", emb, table, random.Random(0),
                                  ConfusionPolicy(p_pinyin=1.0))
        assert choice is not None
        assert choice.kind is ConfusionKind.SYNONYM

    def test_no_candidates_returns_none(self):
        emb = embeddings_of(x=(1, 0))
        table = table_of(x="ba")
        assert sample_confusion("x", emb, table, random.Random(0)) is None

    def test_fixed_seed_replay(self, toy_world):
        """Replaying the documented RNG protocol reproduces the choice."""
        emb, table = toy_world.embeddings, toy_world.pinyin
        policy = ConfusionPolicy(p_pinyin=0.5, k_syn=5)
        for seed, word in enumerate(toy_world.words[:30]):
            got = sample_confusion(word, emb, table, random.Random(seed), policy)
            rng = random.Random(seed)
            attempt_pinyin = rng.random() < policy.p_pinyin
            if attempt_pinyin:
                cands = pinyin_candidates(word, table) or \
                    synonym_candidates(word, emb, policy.k_syn)
            else:
                cands = synonym_candidates(word, emb, policy.k_syn) or \
                    pinyin_candidates(word, table)
            expected = rng.choice(cands) if cands else None
            assert got == expected

    def test_determinism(self, toy_world):
        emb, table = toy_world.embeddings, toy_world.pinyin
        word = toy_world.words[10]
        a = sample_confusion(word, emb, table, random.Random(99))
        b = sample_confusion(word, emb, table, random.Random(99))
        assert a == b

    def test_length_preserved_and_self_excluded(self, toy_world):
        emb, table = toy_world.embeddings, toy_world.pinyin
        rng = random.Random(5)
        for word in toy_world.words:
            choice = sample_confusion(word, emb, table, rng)
            assert choice is not None
            assert len(choice.replacement) == len(word)
            assert choice.replacement != word
            assert -1.0 <= choice.score <= 1.0
            if choice.kind is ConfusionKind.PINYIN:
                assert table.by_word[choice.replacement] == table.by_word[word]
