import dataclasses
import functools
import json
import multiprocessing
import os
import pickle
import random

import pytest

from helpers import reference_concat
from markkit import confusion
from markkit.confusion import ConfusionKind, ConfusionPolicy, sample_confusion
from markkit.errors import ConfigError, ParseError
from markkit.marker_encoder import encode_marked
from markkit.pretrain import (ExampleMeta, MaskingConfig, PackedSegment,
                              PretrainingExample, RwdLabel, build_document,
                              build_example, build_packed_example, corpus_stats,
                              derive_seed, example_from_json, example_to_json,
                              generate_examples, pack_corpus, pack_documents,
                              read_documents, segment_line, stochastic_round, _worker_tasks)
from markkit.segmenter import make_lexicon_segmenter, parse_pretokenized
from markkit.toy import toy_corpus_lines


def seg_of(line):
    return parse_pretokenized(line)


class TestMaskingConfig:
    def test_defaults_match_schedule(self):
        cfg = MaskingConfig()
        assert cfg.mask_ratio == 0.15
        assert cfg.p_no_marker == 0.30
        assert cfg.p_wwm == 0.50
        assert cfg.p_replace_word == 0.30
        assert cfg.p_normal_marker_loss == 0.15
        assert cfg.max_len == 512
        assert cfg.policy == ConfusionPolicy(p_pinyin=0.5, k_syn=5)
        assert not cfg.pos_markers

    def test_validation(self):
        with pytest.raises(ConfigError):
            MaskingConfig(mask_ratio=1.5)
        with pytest.raises(ConfigError):
            MaskingConfig(max_len=2)


class TestPackDocuments:
    def test_two_sentences_packed_into_one(self):
        # each sentence costs 3 chars + 2 words + frame: alone 7, together 12
        sentences = [seg_of("天气 很"), seg_of("人民 好")]
        packed = list(pack_documents(sentences, MaskingConfig(max_len=12)))
        assert len(packed) == 1
        assert packed[0].seg.text == "天气很人民好"
        assert [s.pos for s in packed[0].seg.spans] == [None] * 4
        assert not packed[0].truncated

    def test_flush_when_budget_exceeded(self):
        sentences = [seg_of("天气 很"), seg_of("人民 好"), seg_of("地球 大")]
        packed = list(pack_documents(sentences, MaskingConfig(max_len=12)))
        assert [p.seg.text for p in packed] == ["天气很人民好", "地球大"]
        assert [p.seq_index for p in packed] == [0, 1]

    def test_empty_corpus(self):
        assert list(pack_documents([], MaskingConfig())) == []

    def test_oversized_sentence_truncated_at_word_boundary(self):
        seg = seg_of("天气 很 好 人民 地球")
        # cost of full sentence: 8 chars + 5 words + 2 = 15 > 9
        packed = list(pack_documents([seg], MaskingConfig(max_len=9)))
        assert len(packed) == 1
        assert packed[0].truncated
        assert packed[0].seg.text == "天气很好"  # 4 chars + 3 words + 2 = 9
        assert len(packed[0].seg.spans) == 3

    def test_sentence_never_split_when_it_fits(self):
        sentences = [seg_of("天气 很 好"), seg_of("人民")]
        packed = list(pack_documents(sentences, MaskingConfig(max_len=9)))
        assert [p.seg.text for p in packed] == ["天气很好", "人民"]
        assert not any(p.truncated for p in packed)

    def test_empty_sentences_are_skipped(self):
        sentences = [seg_of(""), seg_of("天气"), seg_of("")]
        packed = list(pack_documents(sentences, MaskingConfig(max_len=16)))
        assert [p.seg.text for p in packed] == ["天气"]

    def test_lone_sentence_is_its_own_segmentation(self):
        """A sequence of one sentence is that sentence's Segmentation; a
        sequence of several has the spans of the sentences re-based."""
        rng = random.Random(7)
        sentences = [seg_of(" ".join(rng.choice(["天气", "很/AD", "人民/NN", "好", "地球/NN"])
                                     for _ in range(rng.randint(1, 6))))
                     for _ in range(60)]
        packed = list(pack_documents(sentences, MaskingConfig(max_len=20)))
        rest = iter(sentences)
        sizes = []
        for p in packed:
            group = [next(rest)]
            if p.truncated:
                continue
            while len(p.seg.text) > sum(len(s.text) for s in group):
                group.append(next(rest))
            assert p.seg == reference_concat(group)
            assert (p.seg is group[0]) == (len(group) == 1)
            sizes.append(len(group))
        assert next(rest, None) is None
        assert 1 in sizes and max(sizes) > 2


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(7, 0, 0) == derive_seed(7, 0, 0)
    seeds = {derive_seed(7, d, s) for d in range(40) for s in range(40)}
    assert len(seeds) == 1600
    assert all(0 <= s < 2 ** 63 for s in seeds)


def test_stochastic_round_bounds():
    rng = random.Random(0)
    values = [stochastic_round(rng, 2.3) for _ in range(2000)]
    assert set(values) <= {2, 3}
    assert abs(sum(values) / len(values) - 2.3) < 0.05


def replay_build(seg, vocab, resources, cfg, seed):
    """Independent replay of the documented RNG protocol."""
    rng = random.Random(seed)
    no_marker = rng.random() < cfg.p_no_marker
    wwm = rng.random() < cfg.p_wwm
    marked = encode_marked(seg, vocab, insert_markers=not no_marker,
                           pos_markers=cfg.pos_markers, max_len=cfg.max_len,
                           add_cls_sep=True)
    ids = list(marked.ids)
    mlm_labels, rwd_labels, loss_mask = {}, {}, {}

    if no_marker:
        word_positions, cursor = [], 1
        for span in seg.spans:
            word_positions.append(list(range(cursor, cursor + len(span))))
            cursor += len(span)
    else:
        word_positions, cursor = [], 1
        for marker_pos in marked.marker_positions:
            word_positions.append(list(range(cursor, marker_pos)))
            cursor = marker_pos + 1

    replaced = set()
    if not no_marker:
        for w, marker_pos in enumerate(marked.marker_positions):
            span = seg.spans[w]
            rwd_labels[marker_pos] = RwdLabel.NORMAL
            if rng.random() >= cfg.p_replace_word:
                continue
            word = seg.text[span.start:span.end]
            choice = sample_confusion(word, resources.embeddings, resources.pinyin,
                                      rng, cfg.policy)
            if choice is None:
                continue
            for offset, pos in enumerate(word_positions[w]):
                mlm_labels[pos] = ids[pos]
                ids[pos] = vocab.id_of(choice.replacement[offset])
            rwd_labels[marker_pos] = (RwdLabel.PINYIN_CONFUSION
                                      if choice.kind is ConfusionKind.PINYIN
                                      else RwdLabel.SYNONYM_CONFUSION)
            replaced.add(w)

    n_chars = marked.char_count
    raw = cfg.mask_ratio * n_chars
    target = min(int(raw) + (1 if rng.random() < raw - int(raw) else 0), n_chars)
    candidates = [w for w in range(len(word_positions)) if w not in replaced]
    selected = []
    if wwm:
        order = list(candidates)
        rng.shuffle(order)
        budget = target
        chosen = set()
        for w in order:
            if budget == 0:
                break
            if len(word_positions[w]) <= budget:
                chosen.add(w)
                budget -= len(word_positions[w])
        if budget > 0:
            leftover = next((w for w in order if w not in chosen), None)
            if leftover is not None and \
                    rng.random() < budget / len(word_positions[leftover]):
                chosen.add(leftover)
        for w in order:
            if w in chosen:
                selected.extend(word_positions[w])
    else:
        pool = sorted(p for w in candidates for p in word_positions[w])
        selected.extend(rng.sample(pool, min(target, len(pool))))
        for marker_pos in sorted(rwd_labels):
            if rng.random() < cfg.mask_ratio:
                selected.append(marker_pos)

    assert not set(selected) & {p for w in replaced for p in word_positions[w]}
    for pos in sorted(selected):
        mlm_labels[pos] = ids[pos]
        u = rng.random()
        if u < 0.8:
            ids[pos] = vocab.mask_id
        elif u < 0.9:
            pass
        else:
            ids[pos] = vocab.char_ids[rng.randrange(len(vocab.char_ids))]

    for marker_pos in sorted(rwd_labels):
        if rwd_labels[marker_pos] == RwdLabel.NORMAL:
            loss_mask[marker_pos] = rng.random() < cfg.p_normal_marker_loss
        else:
            loss_mask[marker_pos] = True
    return ids, mlm_labels, rwd_labels, loss_mask, no_marker, wwm, set(selected), replaced


class TestBuildExample:
    def test_fixed_seed_replay_oracle(self, toy_world, toy_resources):
        lines = [l for l in toy_corpus_lines(toy_world.words, 50, seed=21, pretokenized=True)
                 if l]
        for cfg in (MaskingConfig(max_len=40),
                    MaskingConfig(max_len=40, policy=ConfusionPolicy(p_pinyin=0.9, k_syn=2),
                                  pos_markers=True)):
            for i, line in enumerate(lines):
                seg = parse_pretokenized(line)
                seed = derive_seed(17, 0, i)
                got = build_example(seg, toy_world.vocab, toy_resources, cfg,
                                    random.Random(seed))
                ids, mlm, rwd, mask, no_marker, wwm, _, _ = replay_build(
                    seg, toy_world.vocab, toy_resources, cfg, seed)
                assert list(got.input_ids) == ids
                assert got.mlm_labels == mlm
                assert got.rwd_labels == rwd
                assert got.rwd_loss_mask == mask
                assert got.meta.no_marker == no_marker
                assert got.meta.wwm == wwm

    def test_zero_probability_schedule(self, toy_world, toy_resources):
        cfg = MaskingConfig(mask_ratio=0.0, p_replace_word=0.0, p_no_marker=0.0,
                            max_len=40)
        seg = parse_pretokenized(" ".join(toy_world.words[:4]))
        ex = build_example(seg, toy_world.vocab, toy_resources, cfg, random.Random(3))
        assert ex.mlm_labels == {}
        assert set(ex.rwd_labels.values()) == {RwdLabel.NORMAL}

    def test_forced_vanilla(self, toy_world, toy_resources):
        cfg = MaskingConfig(p_no_marker=1.0, max_len=40)
        seg = parse_pretokenized(" ".join(toy_world.words[:4]))
        ex = build_example(seg, toy_world.vocab, toy_resources, cfg, random.Random(3))
        assert ex.rwd_labels == {}
        assert ex.rwd_loss_mask == {}
        assert ex.meta.no_marker

    def test_label_placement_and_confusion_coverage(self, toy_world, toy_resources):
        cfg = MaskingConfig(max_len=48)
        lines = toy_corpus_lines(toy_world.words, 80, seed=8, pretokenized=True)
        for i, line in enumerate(l for l in lines if l):
            seg = parse_pretokenized(line)
            ex = build_example(seg, toy_world.vocab, toy_resources, cfg,
                               random.Random(derive_seed(5, 1, i)))
            markers = set(ex.rwd_labels)
            assert ex.rwd_loss_mask.keys() == ex.rwd_labels.keys()
            # labels appear only at characters or markers, never on CLS/SEP
            frame = {0, len(ex.input_ids) - 1}
            assert not set(ex.mlm_labels) & frame
            # every confusion marker carries loss; its word chars are labeled
            replaced = ex.replaced_positions()
            for pos, label in ex.rwd_labels.items():
                if label != RwdLabel.NORMAL:
                    assert ex.rwd_loss_mask[pos]
            for pos in replaced:
                assert pos in ex.mlm_labels
            # marker labels sit exactly at encoded marker positions
            if not ex.meta.no_marker:
                marked = encode_marked(seg, toy_world.vocab, max_len=cfg.max_len)
                assert markers == set(marked.marker_positions)

    def test_statistical_sanity_small(self, toy_world, toy_resources):
        cfg = MaskingConfig(max_len=32)
        lines = [l for l in toy_corpus_lines(toy_world.words, 3000, seed=4,
                                             pretokenized=True) if l]
        examples = []
        for i, line in enumerate(lines):
            examples.append(build_example(parse_pretokenized(line), toy_world.vocab,
                                          toy_resources, cfg,
                                          random.Random(derive_seed(2, 0, i))))
        stats = corpus_stats(examples)
        rates = stats.to_dict()["rates"]
        assert rates["masked_char_fraction"] == pytest.approx(0.15, abs=0.02)
        assert rates["no_marker_fraction"] == pytest.approx(0.30, abs=0.03)
        assert rates["wwm_fraction"] == pytest.approx(0.50, abs=0.03)
        assert rates["replaced_word_rate"] == pytest.approx(0.30, abs=0.03)
        assert rates["normal_marker_loss_rate"] == pytest.approx(0.15, abs=0.03)
        assert rates["confusion_marker_loss_rate"] == 1.0


class TestCorpusStats:
    def test_empty_iterator(self):
        stats = corpus_stats([])
        assert stats.n_examples == 0
        rates = stats.to_dict()["rates"]
        assert all(v is None for v in rates.values())


class TestJsonInterchange:
    def test_round_trip(self, toy_world, toy_resources):
        cfg = MaskingConfig(max_len=32)
        seg = parse_pretokenized(" ".join(toy_world.words[:5]))
        ex = build_example(seg, toy_world.vocab, toy_resources, cfg, random.Random(1),
                           meta=ExampleMeta(doc_id=3, seq_index=9, seed=77))
        line = example_to_json(ex)
        back = example_from_json(line)
        assert back == ex
        assert example_to_json(back) == line  # byte-stable

    def test_marker_positions_sorted_once(self):
        ex = PretrainingExample(input_ids=(2, 6, 5, 7, 5, 5, 3), mlm_labels={1: 6},
                                rwd_labels={5: RwdLabel.NORMAL, 2: RwdLabel.SYNONYM_CONFUSION,
                                            4: RwdLabel.NORMAL},
                                rwd_loss_mask={2: True, 4: False, 5: False})
        assert ex.marker_positions == (2, 4, 5)
        assert ex.marker_positions is ex.marker_positions
        same = dataclasses.replace(ex, rwd_labels=dict(sorted(ex.rwd_labels.items())))
        assert same == ex and example_to_json(same) == example_to_json(ex)
        back = pickle.loads(pickle.dumps(ex))
        assert back == ex and back.marker_positions == (2, 4, 5)
        assert "marker_positions" not in example_to_json(ex)

    def test_bad_record(self):
        with pytest.raises(Exception):
            example_from_json('{"input_ids": "nope"}', lineno=4)

    @pytest.mark.parametrize("mlm,markers", [
        ({5: 7}, {}),     # MLM label past the end
        ({-1: 7}, {}),    # negative position: would wrap around onto SEP
        ({}, {3: RwdLabel.NORMAL}),  # marker past the end
    ])
    def test_label_position_outside_input_ids(self, mlm, markers):
        line = example_to_json(PretrainingExample(
            input_ids=(2, 6, 3), mlm_labels=mlm, rwd_labels=markers,
            rwd_loss_mask={p: True for p in markers}))
        with pytest.raises(ParseError, match="line 4: .*outside input_ids of length 3"):
            example_from_json(line, lineno=4)

    @pytest.mark.parametrize("rwd_labels,loss_mask,message", [
        ([[2, "NORMAL"]], [1, 2, 9], "rwd_loss_mask position 1 is not a marker"),
        ([[2, "NORMAL"], [2, "PINYIN_CONFUSION"]], [], "marker position 2 is listed twice"),
    ])
    def test_malformed_rwd_labels_rejected(self, rwd_labels, loss_mask, message):
        record = json.loads(example_to_json(PretrainingExample(
            input_ids=(2, 6, 5, 3), mlm_labels={1: 6}, rwd_labels={}, rwd_loss_mask={})))
        record.update(rwd_labels=rwd_labels, rwd_loss_mask=loss_mask)
        with pytest.raises(ParseError, match=f"line 4: {message}"):
            example_from_json(json.dumps(record), lineno=4)

    @pytest.mark.parametrize("field,value,message", [
        ("input_ids", [2, 6.0, 3], "input id 6.0"),
        ("input_ids", [2, "6", 3], "input id '6'"),
        ("input_ids", [2, True, 3], "input id True"),
        ("mlm_labels", [[1, 6.9]], "MLM label token id 6.9"),
        ("mlm_labels", [[1, "6"]], "MLM label token id '6'"),
        ("mlm_labels", [[1.0, 6]], "MLM label position 1.0"),
        ("rwd_labels", [["1", "NORMAL"]], "marker position '1'"),
        ("rwd_loss_mask", [True], "rwd_loss_mask position True"),
    ])
    def test_non_integer_ids_rejected(self, field, value, message):
        record = json.loads(example_to_json(PretrainingExample(
            input_ids=(2, 6, 3), mlm_labels={1: 6}, rwd_labels={}, rwd_loss_mask={})))
        record[field] = value
        with pytest.raises(ParseError, match=f"line 4: {message} is not an integer"):
            example_from_json(json.dumps(record), lineno=4)

    @pytest.mark.parametrize("field,value,message", [
        ("doc_id", True, "meta.doc_id True is not an integer"),
        ("seed", 1.0, "meta.seed 1.0 is not an integer"),
        ("n_chars", "3", "meta.n_chars '3' is not an integer"),
        ("n_chars", -5, r"meta.n_chars -5 is outside \[0, 3\], the non-marker token count"),
        ("wwm", 1, "meta.wwm 1 is not a boolean"),
        ("truncated", None, "meta.truncated None is not a boolean"),
    ])
    def test_non_typed_meta_rejected(self, field, value, message):
        record = json.loads(example_to_json(PretrainingExample(
            input_ids=(2, 6, 3), mlm_labels={1: 6}, rwd_labels={}, rwd_loss_mask={})))
        record["meta"][field] = value
        with pytest.raises(ParseError, match=f"line 4: {message}$"):
            example_from_json(json.dumps(record), lineno=4)

    def test_label_positions_at_both_ends_accepted(self):
        ex = PretrainingExample(input_ids=(2, 6, 5, 3), mlm_labels={0: 2, 3: 3},
                                rwd_labels={2: RwdLabel.NORMAL}, rwd_loss_mask={2: False})
        assert example_from_json(example_to_json(ex)) == ex


class TestGenerateExamples:
    def test_worker_count_does_not_change_output(self, toy_world, toy_resources):
        """Many short documents, and one long document that every worker
        count above one splits into parts."""
        cfg = MaskingConfig(max_len=48)
        for sentences_per_doc in ((2, 6), (200, 200)):
            lines = toy_corpus_lines(toy_world.words, 120, seed=13, pretokenized=True,
                                     sentences_per_doc=sentences_per_doc)
            documents = list(read_documents(lines))
            # building per document numbers sequences as packing the whole corpus does
            packed = pack_corpus(([parse_pretokenized(ln) for ln in doc]
                                  for _, doc in documents), cfg)
            one_by_one = [build_packed_example(p, toy_world.vocab, toy_resources, cfg, 99)
                          for p in packed]
            for workers in (1, 2, 4):
                built = generate_examples(documents, parse_pretokenized, toy_world.vocab,
                                          toy_resources, cfg, 99, workers=workers)
                assert built == [example_to_json(e) for e in one_by_one]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_word_is_scanned_once_per_call(self, toy_world, toy_resources, tmp_path,
                                                monkeypatch, workers):
        """With the default schedule, a call scans each word's synonyms
        once, in process or once per pool worker, where the example-by-
        example build scans a word each time it is drawn. A second call
        scans again, and the resources gain no attribute."""
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the spy reaches pool workers only through fork")
        log = tmp_path / "scans.tsv"
        scan = confusion.synonym_candidates

        def spy(word, emb, k):
            with open(log, "a", encoding="utf-8") as file:  # one line per write, from any process
                file.write(f"{os.getpid()}\t{word}\n")
            return scan(word, emb, k)

        def scans():
            rows = [line.split("\t") for line in log.read_text(encoding="utf-8").splitlines()]
            log.unlink()
            return rows

        monkeypatch.setattr(confusion, "synonym_candidates", spy)
        cfg = MaskingConfig()
        lines = toy_corpus_lines(toy_world.words, 120, seed=13, pretokenized=True,
                                 sentences_per_doc=(2, 6))
        documents = list(read_documents(lines))
        packed = pack_corpus(([parse_pretokenized(ln) for ln in doc] for _, doc in documents),
                             cfg)
        one_by_one = [build_packed_example(p, toy_world.vocab, toy_resources, cfg, 99)
                      for p in packed]
        drawn = [word for _, word in scans()]
        assert len(drawn) > len(set(drawn)) > 10
        attributes = [set(vars(r)) for r in (toy_resources.embeddings, toy_resources.pinyin)]
        for _ in range(2):
            built = generate_examples(documents, parse_pretokenized, toy_world.vocab,
                                      toy_resources, cfg, 99, workers=workers)
            assert built == [example_to_json(e) for e in one_by_one]
            rows = scans()
            by_process: dict[str, list[str]] = {}
            for pid, word in rows:
                by_process.setdefault(pid, []).append(word)
            assert {word for _, word in rows} == set(drawn)
            assert len(by_process) <= workers
            if workers == 1:
                assert list(by_process) == [str(os.getpid())]
            for words in by_process.values():
                assert len(words) == len(set(words))
        assert [set(vars(r)) for r in (toy_resources.embeddings, toy_resources.pinyin)] == \
            attributes

    def test_build_callable_pickles(self, toy_world, toy_resources):
        """The per-document callable a worker receives survives pickling, as
        the `spawn` and `forkserver` start methods require."""
        build = functools.partial(build_document,
                                  segmenter=make_lexicon_segmenter(toy_world.lexicon),
                                  vocab=toy_world.vocab, resources=toy_resources,
                                  cfg=MaskingConfig(max_len=48), corpus_seed=99)
        document = (1, toy_corpus_lines(toy_world.words, 12, seed=5))
        examples = build(3, document)
        assert examples and {ex.meta.doc_id for ex in examples} == {3}
        assert pickle.loads(pickle.dumps(build))(3, document) == examples

    def test_document_parts_cover_its_sequences(self, toy_world, toy_resources):
        build = functools.partial(build_document, segmenter=parse_pretokenized,
                                  vocab=toy_world.vocab, resources=toy_resources,
                                  cfg=MaskingConfig(max_len=48), corpus_seed=99)
        document = (1, toy_corpus_lines(toy_world.words, 40, seed=5, pretokenized=True,
                                        sentences_per_doc=(40, 40)))
        whole = build(2, document)
        assert len(whole) > 3
        for parts in (2, 3, len(whole) + 1):
            runs = [build(2, document, part, parts) for part in range(parts)]
            assert [ex for run in runs for ex in run] == whole
            assert max(map(len, runs)) - min(map(len, runs)) <= 1

    def test_seeding_follows_packing_coordinates(self, toy_world, toy_resources):
        cfg = MaskingConfig(max_len=48)
        packed = PackedSegment(seg=parse_pretokenized(" ".join(toy_world.words[:3])),
                               doc_id=4, seq_index=2)
        ex = build_packed_example(packed, toy_world.vocab, toy_resources, cfg, 55)
        assert ex.meta.seed == derive_seed(55, 4, 2)
        assert ex.meta.doc_id == 4
        assert ex.meta.seq_index == 2


def test_worker_tasks_split_only_long_documents():
    """A document with more than a worker's share of the lines becomes one
    task per worker; the others are grouped by line count, in order."""
    documents = [(1, ["a"] * 2), (4, ["b"] * 30), (35, ["c"] * 3), (39, ["d"])]

    def shape(tasks):
        return [[(doc_id, part, parts) for doc_id, _, part, parts in task] for task in tasks]

    assert shape(_worker_tasks(documents, 2)) == [[(0, 0, 1)], [(1, 0, 2)], [(1, 1, 2)],
                                                  [(2, 0, 1)], [(3, 0, 1)]]
    assert shape(_worker_tasks(documents, 1)) == [[(0, 0, 1), (1, 0, 1)],
                                                  [(2, 0, 1), (3, 0, 1)]]
    assert shape(_worker_tasks([(1, ["a"] * 5)], 4)) == [[(0, part, 4)] for part in range(4)]
    assert _worker_tasks([], 2) == []


def test_read_documents_blank_line_boundaries():
    """Each document is the number of its first line and its lines."""
    lines = ["", "天气 很", "人民 好", "", "", "地球"]
    assert list(read_documents(lines)) == [(2, ["天气 很", "人民 好"]), (6, ["地球"])]
    assert list(read_documents(["a", "", "b", "c", ""])) == [(1, ["a"]), (3, ["b", "c"])]
    assert list(read_documents(["", ""])) == []


def test_segment_line_names_the_line(toy_world, toy_resources):
    """A ParseError from a worker's segmenter names its line of ``--in``,
    in a document that is built whole or in parts."""
    build = functools.partial(build_document, segmenter=parse_pretokenized,
                              vocab=toy_world.vocab, resources=toy_resources,
                              cfg=MaskingConfig(max_len=48), corpus_seed=99)
    document = (7, ["天 气", "人 民", "地  球", "好"])
    for part in (0, 1):
        with pytest.raises(ParseError, match=r"^line 9: empty word token"):
            build(0, document, part, 2)
    assert segment_line(parse_pretokenized, "天 气", 3).text == "天气"
