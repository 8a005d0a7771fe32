"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Tolerances and
runtime budgets are pinned in the asserts.
"""

import math
import random
import time

import numpy as np

from helpers import (brute_force_span_f1, random_bmeso_tags, random_segmentation, span_scores,
                     without_markers)
from markkit.cli import main
from markkit.confusion import ConfusionKind, ConfusionPolicy, sample_confusion
from markkit.marker_encoder import encode_marked
from markkit.model import (ForwardOutput, MarkBert, ModelConfig, analytic_grads,
                           compute_loss, finite_difference_grads, train_step)
from markkit.ner import (NerExample, align_labels_with_markers, extract_spans,
                         strip_marker_labels)
from markkit.pretrain import (ExampleMeta, MaskingConfig, MaskingStats,
                              PretrainingExample, RwdLabel, build_example,
                              derive_seed)
from markkit.segmenter import parse_pretokenized
from markkit.toy import toy_corpus_lines, write_toy_corpus, write_toy_resources


def report(n: int, name: str) -> None:
    print(f"\n[acceptance] criterion {n} ({name}): PASS")


def test_criterion_1_marker_round_trip(toy_world):
    start = time.monotonic()
    lines = [l for l in toy_corpus_lines(toy_world.words, 10_500, seed=101,
                                         pretokenized=True) if l][:10_000]
    assert len(lines) == 10_000
    for line in lines:
        seg = parse_pretokenized(line)
        marked = encode_marked(seg, toy_world.vocab)
        plain = encode_marked(seg, toy_world.vocab, insert_markers=False)
        assert without_markers(marked) == list(plain.ids)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, "marker round-trip on 10,000 lines")


def test_criterion_2_schedule_conformance(toy_world, toy_resources):
    start = time.monotonic()
    n_examples = 100_000
    cfg = MaskingConfig(max_len=32)
    rng = random.Random(202)
    stats = MaskingStats()
    words = toy_world.words
    for i in range(n_examples):
        sentence = [rng.choice(words) for _ in range(rng.randint(4, 8))]
        seg = parse_pretokenized(" ".join(sentence))
        ex = build_example(seg, toy_world.vocab, toy_resources, cfg,
                           random.Random(derive_seed(31, i, 0)))
        stats.add(ex)
    assert stats.n_examples == n_examples
    rates = stats.to_dict()["rates"]
    assert abs(rates["masked_char_fraction"] - 0.15) < 0.005
    assert abs(rates["no_marker_fraction"] - 0.30) < 0.01
    assert abs(rates["wwm_fraction"] - 0.50) < 0.01
    assert abs(rates["replaced_word_rate"] - 0.30) < 0.01
    assert abs(rates["normal_marker_loss_rate"] - 0.15) < 0.01
    assert rates["confusion_marker_loss_rate"] == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report(2, f"schedule conformance over {n_examples} examples, {elapsed:.0f}s")


def test_criterion_3_confusion_soundness(toy_world):
    start = time.monotonic()
    emb, table = toy_world.embeddings, toy_world.pinyin
    assert len(emb.words) <= 10_000
    unit = {w: row / np.linalg.norm(row) for w, row in zip(emb.words, emb.unit_rows())}
    policy = ConfusionPolicy(p_pinyin=0.5, k_syn=5)
    checked_pinyin = checked_synonym = 0
    for trial, word in enumerate(toy_world.words * 3):
        choice = sample_confusion(word, emb, table, random.Random(trial), policy)
        assert choice is not None
        if choice.kind is ConfusionKind.PINYIN:
            assert table.by_word[choice.replacement] == table.by_word[word]
            assert choice.replacement != word
            checked_pinyin += 1
        else:
            # brute-force top-k cosine scan over the full vocabulary
            scored = sorted(
                ((float(np.dot(unit[word], unit[other])), other)
                 for other in emb.words if other != word and len(other) == len(word)),
                key=lambda t: (-t[0], t[1]))
            top_k = {w for _, w in scored[:policy.k_syn]}
            assert choice.replacement in top_k
            checked_synonym += 1
    assert checked_pinyin and checked_synonym
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(3, f"confusion soundness ({checked_pinyin} pinyin, "
              f"{checked_synonym} synonym)")


def test_criterion_4_loss_correctness():
    # uniform binary detection at one included marker
    ex = PretrainingExample(input_ids=(2, 6, 5, 3), mlm_labels={},
                            rwd_labels={2: RwdLabel.NORMAL}, rwd_loss_mask={2: True},
                            meta=ExampleMeta())
    out = ForwardOutput(mlm_logits=np.zeros((0, 8)), rwd_logits=np.zeros((1, 2)))
    loss = compute_loss(out, [ex], rwd_classes=2)
    assert abs(loss.rwd_loss - math.log(2)) < 1e-6

    # hand-built logits against the explicit softmax definition
    def ce(row, label):
        exps = [math.exp(v) for v in row]
        return -math.log(exps[label] / sum(exps))

    mlm_logits = np.zeros((2, 4))  # one row per labelled position: 0, then 2
    mlm_logits[0] = [0.3, -1.2, 2.0, 0.0]
    mlm_logits[1] = [1.0, 1.0, -0.5, 0.25]
    rwd_row = [0.7, -0.3, 1.1]
    ex = PretrainingExample(input_ids=(6, 5, 7), mlm_labels={0: 2, 2: 1},
                            rwd_labels={1: RwdLabel.SYNONYM_CONFUSION},
                            rwd_loss_mask={1: True},
                            meta=ExampleMeta(framed=False))
    out = ForwardOutput(mlm_logits=mlm_logits, rwd_logits=np.array([rwd_row]))
    loss = compute_loss(out, [ex], rwd_classes=3)
    expected_mlm = (ce(list(mlm_logits[0]), 2) + ce(list(mlm_logits[1]), 1)) / 2
    expected_rwd = ce(rwd_row, int(RwdLabel.SYNONYM_CONFUSION))
    assert abs(loss.mlm_loss - expected_mlm) < 1e-6
    assert abs(loss.rwd_loss - expected_rwd) < 1e-6
    assert loss.total == loss.mlm_loss + loss.rwd_loss
    report(4, "loss matches independent cross-entropy within 1e-6")


def test_criterion_5_gradient_oracle():
    start = time.monotonic()
    cfg = ModelConfig(vocab_size=64, hidden_dim=32, num_layers=2, num_heads=4,
                      ffn_dim=64, max_positions=16, rwd_classes=3, seed=11)
    model = MarkBert(cfg)
    rng = random.Random(0)

    def synthetic(seed):
        r = random.Random(seed)
        ids = [2] + [r.randrange(6, 64) for _ in range(14)] + [3]
        markers = sorted(r.sample(range(3, 15), 3))
        for pos in markers:
            ids[pos] = 5
        labels = {}
        for pos in r.sample([p for p in range(1, 15) if p not in markers], 3):
            labels[pos] = r.randrange(6, 64)
        rwd_labels = {p: RwdLabel(r.randrange(3)) for p in markers}
        return PretrainingExample(
            input_ids=tuple(ids), mlm_labels=labels, rwd_labels=rwd_labels,
            rwd_loss_mask={p: bool(r.randrange(2)) or i == 0
                           for i, p in enumerate(markers)},
            meta=ExampleMeta())

    batch = [synthetic(1), synthetic(2)]
    assert all(ex.attention_len == 16 for ex in batch)
    analytic = analytic_grads(model, batch)
    numeric = finite_difference_grads(model, batch, step=1e-3)
    worst = 0.0
    for name, fd in numeric.items():
        a = analytic[name]
        rel = np.linalg.norm(a - fd) / max(np.linalg.norm(a), np.linalg.norm(fd), 1e-12)
        assert rel < 1e-3, f"{name}: relative error {rel:.2e}"
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    n_params = sum(p.value.size for p in model.params.values())
    report(5, f"gradient oracle over {n_params} parameters, "
              f"worst rel err {worst:.1e}, {elapsed:.0f}s")


def test_criterion_6_trainability(toy_world, toy_resources):
    start = time.monotonic()
    cfg = MaskingConfig(max_len=32, p_no_marker=0.0)
    lines = [l for l in toy_corpus_lines(toy_world.words, 16, seed=606,
                                         pretokenized=True,
                                         words_per_sentence=(4, 7)) if l]
    batch = [build_example(parse_pretokenized(line), toy_world.vocab, toy_resources,
                           cfg, random.Random(derive_seed(66, 0, i)))
             for i, line in enumerate(lines[:8])]
    assert len(batch) == 8
    model = MarkBert(ModelConfig(vocab_size=len(toy_world.vocab), hidden_dim=64,
                                 num_layers=2, num_heads=4, ffn_dim=128,
                                 max_positions=40, seed=1))
    metrics = None
    for _ in range(500):
        metrics = train_step(model, batch, lr=0.2)
    assert metrics.mlm_accuracy is not None and metrics.mlm_accuracy >= 0.95
    assert metrics.rwd_accuracy is not None and metrics.rwd_accuracy >= 0.95
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(6, f"500-step overfit: mlm_acc={metrics.mlm_accuracy:.3f} "
              f"rwd_acc={metrics.rwd_accuracy:.3f}, {elapsed:.0f}s")


def test_criterion_7_ner_alignment(toy_world):
    rng = random.Random(707)
    cases = 0
    for _ in range(1000):
        length = rng.randint(1, 14)
        text = "".join(rng.choice(toy_world.chars) for _ in range(length))
        seg = random_segmentation(rng, text)
        labels = tuple(random_bmeso_tags(rng, length))
        ex = NerExample(chars=tuple(text), labels=labels)
        marked = encode_marked(seg, toy_world.vocab, add_cls_sep=bool(rng.randrange(2)))
        tags = align_labels_with_markers(ex, marked)
        stripped = strip_marker_labels(tags, marked)
        assert stripped == list(labels)                       # identity, exact
        assert extract_spans(stripped, "bmeso") == extract_spans(labels, "bmeso")  # unchanged
        pred = extract_spans(tuple(random_bmeso_tags(rng, length)), "bmeso")
        gold = extract_spans(labels, "bmeso")
        assert span_scores(pred, gold) == brute_force_span_f1(pred, gold)
        cases += 1
    assert cases == 1000
    report(7, "align/strip identity, span preservation, F1 oracle on 1000 cases")


def test_criterion_8_vanilla_downgrade(toy_world, toy_resources):
    cfg = MaskingConfig(max_len=32, p_no_marker=1.0)
    lines = [l for l in toy_corpus_lines(toy_world.words, 8, seed=808,
                                         pretokenized=True) if l]
    batch = []
    for i, line in enumerate(lines[:4]):
        seg = parse_pretokenized(line)
        marked = encode_marked(seg, toy_world.vocab, insert_markers=False)
        plain_chars = [toy_world.vocab.id_of(c) for c in seg.text]
        assert list(marked.ids) == \
            [toy_world.vocab.cls_id] + plain_chars + [toy_world.vocab.sep_id]
        ex = build_example(seg, toy_world.vocab, toy_resources, cfg,
                           random.Random(derive_seed(88, 0, i)))
        assert ex.rwd_labels == {}
        batch.append(ex)
    model = MarkBert(ModelConfig(vocab_size=len(toy_world.vocab), hidden_dim=32,
                                 num_layers=2, num_heads=4, ffn_dim=48,
                                 max_positions=40, seed=2))
    out = model.forward(batch)
    loss = compute_loss(out, batch)
    assert loss.rwd_loss == 0.0
    assert loss.total == loss.mlm_loss
    report(8, "vanilla downgrade: rwd_loss == 0, plain character encoding")


def test_criterion_9_build_corpus_determinism(tmp_path):
    world = write_toy_resources(tmp_path / "res", seed=0)
    write_toy_corpus(tmp_path / "corpus.txt", world.words, 1500, seed=909)
    outputs = []
    for run, workers in enumerate(("1", "1", "4")):
        out = tmp_path / f"run{run}.jsonl"
        code = main(["build-corpus",
                     "--lexicon", str(tmp_path / "res/lexicon.tsv"),
                     "--embeddings", str(tmp_path / "res/embeddings.txt"),
                     "--pinyin", str(tmp_path / "res/pinyin.tsv"),
                     "--vocab", str(tmp_path / "res/vocab.txt"),
                     "--in", str(tmp_path / "corpus.txt"), "--out", str(out),
                     "--max-len", "64", "--seed", "4242", "--workers", workers])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "same seed, same bytes"
    assert outputs[0] == outputs[2], "worker count must not change bytes"
    assert outputs[0].count(b"\n") >= 100
    report(9, "byte-identical build-corpus across runs and worker counts")
