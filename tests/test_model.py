import math
import random

import numpy as np
import pytest

from markkit.errors import ConfigError, InputError, ParseError, TrainingError
from markkit.marker_encoder import encode_marked
from markkit.model import (ForwardOutput, MarkBert, ModelConfig, analytic_grads,
                           compute_loss, export_attention, finite_difference_grads,
                           load_checkpoint, loss_and_gradients,
                           save_checkpoint, train_step)
from markkit.pretrain import (ExampleMeta, MaskingConfig, PretrainingExample,
                              RwdLabel, build_example, derive_seed, plain_example)
from markkit.segmenter import parse_pretokenized
from markkit.toy import toy_corpus_lines


def tiny_cfg(**kw):
    base = dict(vocab_size=12, hidden_dim=8, num_layers=1, num_heads=2,
                ffn_dim=12, max_positions=10, rwd_classes=3, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def example(ids, mlm=None, markers=None, loss_on=None, framed=True):
    markers = markers or {}
    loss_on = set(loss_on or [])
    return PretrainingExample(
        input_ids=tuple(ids),
        mlm_labels=dict(mlm or {}),
        rwd_labels={p: lab for p, lab in markers.items()},
        rwd_loss_mask={p: (p in loss_on) for p in markers},
        meta=ExampleMeta(framed=framed, n_chars=len(ids) - 2 - len(markers)))


def toy_batch(toy_world, toy_resources, n=2, seed=0, max_len=20):
    cfg = MaskingConfig(max_len=max_len, p_no_marker=0.0)
    lines = [l for l in toy_corpus_lines(toy_world.words, 3 * n, seed=seed,
                                         pretokenized=True,
                                         words_per_sentence=(3, 5)) if l]
    return [build_example(parse_pretokenized(line), toy_world.vocab, toy_resources,
                          cfg, random.Random(derive_seed(seed, 0, i)))
            for i, line in enumerate(lines[:n])]


class TestInit:
    def test_same_seed_bit_identical(self):
        a, b = MarkBert(tiny_cfg()), MarkBert(tiny_cfg())
        assert a.params.keys() == b.params.keys()
        for name in a.params:
            assert np.array_equal(a.params[name].value, b.params[name].value)

    def test_different_seed_differs(self):
        a, b = MarkBert(tiny_cfg(seed=0)), MarkBert(tiny_cfg(seed=1))
        assert not np.array_equal(a.params["token_embedding"].value,
                                  b.params["token_embedding"].value)

    def test_divisibility_error(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=16, hidden_dim=30, num_heads=4)

    def test_rwd_classes_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=16, rwd_classes=4)

    def test_parameter_count_closed_form(self):
        V, H, L, F, P, C = 16, 32, 2, 48, 20, 3
        model = MarkBert(ModelConfig(vocab_size=V, hidden_dim=H, num_layers=L,
                                     num_heads=4, ffn_dim=F, max_positions=P,
                                     rwd_classes=C))
        # attention: q/k/v/out weights, biases on q/v/out (keys take none)
        per_layer = 4 * H * H + 3 * H + 2 * H + (H * F + F) + (F * H + H) + 2 * H
        expected = (V * H + P * H + 2 * H            # embeddings + embedding LN
                    + L * per_layer
                    + (H * H + H) + 2 * H + V        # MLM transform + LN + bias
                    + (H * C + C))                   # RWD head
        assert model.parameter_count() == expected


class TestForward:
    def test_shapes_on_hand_traced_encoding(self, tiny_vocab):
        seg = parse_pretokenized("天气 很 好")
        marked = encode_marked(seg, tiny_vocab)   # 9 tokens, 3 markers
        ex = plain_example(marked)
        model = MarkBert(tiny_cfg(vocab_size=len(tiny_vocab)))
        out = model.forward([ex])
        assert out.mlm_logits.shape == (1, 9, len(tiny_vocab))
        assert out.rwd_logits[0].shape == (3, 3)
        assert np.all(np.isfinite(out.mlm_logits))

    def test_empty_batch_and_empty_example(self):
        model = MarkBert(tiny_cfg())
        out = model.forward([])
        assert out.mlm_logits.shape == (0, 0, 12)
        ex = PretrainingExample(input_ids=(), mlm_labels={}, rwd_labels={},
                                rwd_loss_mask={}, meta=ExampleMeta(framed=False))
        out = model.forward([ex])
        assert out.mlm_logits.shape == (1, 0, 12)
        assert out.rwd_logits[0].shape == (0, 3)
        assert compute_loss(out, [ex]).total == 0.0

    def test_attention_rows_sum_to_one_over_unpadded(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=3, seed=2)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        out = model.forward(batch, capture_attention=True)
        for probs in out.attentions:
            for i, ex in enumerate(batch):
                n = ex.attention_len
                np.testing.assert_allclose(probs[i, :, :n, :n].sum(-1), 1.0, atol=1e-5)
                # padded keys get zero attention from real queries
                assert np.all(probs[i, :, :n, n:] == 0.0)

    def test_id_out_of_range(self):
        model = MarkBert(tiny_cfg())
        ex = example([2, 99, 3])
        with pytest.raises(InputError):
            model.forward([ex])

    def test_sequence_too_long(self):
        model = MarkBert(tiny_cfg(max_positions=4))
        ex = example([2, 1, 1, 1, 3])
        with pytest.raises(InputError):
            model.forward([ex])


class TestLoss:
    def test_uniform_binary_equals_ln2(self):
        ex = example([2, 6, 5, 3], markers={2: RwdLabel.NORMAL}, loss_on=[2])
        out = ForwardOutput(mlm_logits=np.zeros((1, 4, 12)),
                            rwd_logits=[np.zeros((1, 2))])
        loss = compute_loss(out, [ex], rwd_classes=2)
        assert loss.rwd_loss == pytest.approx(math.log(2), abs=1e-6)
        assert loss.mlm_loss == 0.0
        assert loss.total == loss.rwd_loss

    def test_empty_sets_give_zero(self):
        ex = example([2, 6, 3])
        out = ForwardOutput(mlm_logits=np.zeros((1, 3, 12)), rwd_logits=[np.zeros((0, 3))])
        loss = compute_loss(out, [ex])
        assert loss.mlm_loss == 0.0 and loss.rwd_loss == 0.0 and loss.total == 0.0

    def test_hand_computed_cross_entropy(self):
        # two labeled positions with known logits; oracle computed from the
        # explicit softmax definition
        logits = np.zeros((1, 2, 3))
        logits[0, 0] = [1.0, 2.0, 0.5]
        logits[0, 1] = [0.0, -1.0, 3.0]
        ex = example([6, 7], mlm={0: 1, 1: 2}, framed=False)
        out = ForwardOutput(mlm_logits=logits, rwd_logits=[np.zeros((0, 3))])

        def ce(row, label):
            exp = [math.exp(v) for v in row]
            return -math.log(exp[label] / sum(exp))

        expected = (ce([1.0, 2.0, 0.5], 1) + ce([0.0, -1.0, 3.0], 2)) / 2
        assert compute_loss(out, [ex]).mlm_loss == pytest.approx(expected, abs=1e-9)

    def test_loss_mask_excludes_markers(self):
        ex = example([2, 6, 5, 6, 5, 3],
                     markers={2: RwdLabel.NORMAL, 4: RwdLabel.PINYIN_CONFUSION},
                     loss_on=[4])
        rwd = np.array([[3.0, -1.0, 0.5], [0.2, 0.9, -0.3]])
        out = ForwardOutput(mlm_logits=np.zeros((1, 6, 12)), rwd_logits=[rwd])
        exp = [math.exp(v) for v in rwd[1]]
        expected = -math.log(exp[1] / sum(exp))
        assert compute_loss(out, [ex]).rwd_loss == pytest.approx(expected, abs=1e-9)

    def test_binary_mode_collapses_confusion_kinds(self):
        ex = example([2, 6, 5, 3], markers={2: RwdLabel.SYNONYM_CONFUSION}, loss_on=[2])
        out = ForwardOutput(mlm_logits=np.zeros((1, 4, 12)),
                            rwd_logits=[np.array([[0.0, 2.0]])])
        exp = [1.0, math.exp(2.0)]
        expected = -math.log(exp[1] / sum(exp))
        assert compute_loss(out, [ex], rwd_classes=2).rwd_loss == pytest.approx(expected)


class TestGradients:
    def test_full_finite_difference_check_tiny(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=2, seed=5, max_len=14)
        model = MarkBert(ModelConfig(vocab_size=len(toy_world.vocab), hidden_dim=8,
                                     num_layers=1, num_heads=2, ffn_dim=12,
                                     max_positions=16, seed=3))
        ana = analytic_grads(model, batch)
        fd = finite_difference_grads(model, batch)
        for name, g in fd.items():
            a = ana[name]
            denom = max(np.linalg.norm(a), np.linalg.norm(g), 1e-12)
            assert np.linalg.norm(a - g) / denom < 1e-3, name

    def test_rwd_gradient_zero_at_non_marker_positions(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=2, seed=6)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        model.zero_grads()
        out = model.forward(batch)
        _, dmlm, drwd = loss_and_gradients(out, batch, 3)
        model.backward(out, np.zeros_like(dmlm), drwd)  # detection loss only
        dh = out._cache["dh_rwd"]
        for i, ex in enumerate(batch):
            markers = set(ex.marker_positions)
            for pos in range(ex.attention_len):
                if pos not in markers:
                    assert np.all(dh[i, pos] == 0.0)

    def test_mlm_gradient_zero_at_unlabeled_logits(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=2, seed=7)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        out = model.forward(batch)
        _, dmlm, _ = loss_and_gradients(out, batch, 3)
        for i, ex in enumerate(batch):
            labeled = set(ex.mlm_labels)
            for pos in range(ex.attention_len):
                if pos not in labeled:
                    assert np.all(dmlm[i, pos] == 0.0)


class TestLabelledOnlyHead:
    def grads(self, model, out, batch):
        model.zero_grads()
        _, dmlm, drwd = loss_and_gradients(out, batch, model.cfg.rwd_classes)
        model.backward(out, dmlm, drwd)
        return {name: p.grad.copy() for name, p in model.params.items()}

    def test_agrees_with_dense_head(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=3, seed=17)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        dense = model.forward(batch)
        gathered = model.forward(batch, labelled_only=True)
        m = sum(len(ex.mlm_labels) for ex in batch)
        assert m > 0
        assert gathered.mlm_logits.shape == (m, len(toy_world.vocab))

        loss_d = compute_loss(dense, batch)
        loss_g = compute_loss(gathered, batch)
        assert abs(loss_d.mlm_loss - loss_g.mlm_loss) < 1e-12
        assert abs(loss_d.rwd_loss - loss_g.rwd_loss) < 1e-12

        grads_d = self.grads(model, dense, batch)
        grads_g = self.grads(model, gathered, batch)
        for name, g in grads_d.items():
            denom = max(np.linalg.norm(g), 1e-300)
            assert np.linalg.norm(grads_g[name] - g) / denom < 1e-10, name

        mlm_hits = [int(np.argmax(dense.mlm_logits[i, pos])) == label
                    for i, ex in enumerate(batch) for pos, label in ex.mlm_labels.items()]
        rwd_hits = [int(np.argmax(dense.rwd_logits[i][row])) == int(ex.rwd_labels[pos])
                    for i, ex in enumerate(batch)
                    for row, pos in enumerate(ex.marker_positions) if ex.rwd_loss_mask[pos]]
        metrics = train_step(model, batch, lr=0.0)
        assert metrics.mlm_accuracy == sum(mlm_hits) / len(mlm_hits)
        assert metrics.rwd_accuracy == sum(rwd_hits) / len(rwd_hits)

    def test_batch_without_mlm_labels(self):
        batch = [example([2, 6, 5, 7, 5, 3],
                         markers={2: RwdLabel.NORMAL, 4: RwdLabel.SYNONYM_CONFUSION},
                         loss_on=[2, 4]),
                 example([2, 8, 5, 3], markers={2: RwdLabel.PINYIN_CONFUSION}, loss_on=[2])]
        model = MarkBert(tiny_cfg())
        out = model.forward(batch, labelled_only=True)
        assert out.mlm_logits.shape == (0, 12)
        metrics, dmlm, _ = loss_and_gradients(out, batch)
        assert metrics.loss.mlm_loss == 0.0 and metrics.loss.rwd_loss > 0.0
        assert dmlm.shape == (0, 12)
        grads = self.grads(model, out, batch)
        for name in ("mlm.bias", "mlm.dense_w", "mlm.dense_b", "mlm.ln.gamma", "mlm.ln.beta"):
            assert not np.any(grads[name]), name
        assert np.all(out._cache["dh_mlm"] == 0.0)
        metrics = train_step(model, batch, lr=0.1)
        assert metrics.mlm_accuracy is None and metrics.rwd_accuracy is not None


class TestTraining:
    def test_lr_zero_leaves_parameters_unchanged(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=2, seed=8)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        before = {n: p.value.copy() for n, p in model.params.items()}
        train_step(model, batch, lr=0.0)
        for name, p in model.params.items():
            assert np.array_equal(before[name], p.value)

    def test_loss_non_increasing_after_warmup(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=4, seed=9)
        model = MarkBert(ModelConfig(vocab_size=len(toy_world.vocab), hidden_dim=32,
                                     num_layers=2, num_heads=4, ffn_dim=64,
                                     max_positions=32, seed=1))
        losses = [train_step(model, batch, lr=0.2).loss.total for _ in range(160)]
        for t in range(50, len(losses) - 1):
            assert losses[t + 1] <= losses[t] * 1.05

    def test_fixed_seed_metrics_bit_identical(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=2, seed=10)

        def run():
            model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
            return [train_step(model, batch, lr=0.1) for _ in range(5)], model

        (ma, model_a), (mb, model_b) = run(), run()
        for x, y in zip(ma, mb):
            assert x.loss.mlm_loss == y.loss.mlm_loss
            assert x.loss.rwd_loss == y.loss.rwd_loss
            assert x.mlm_accuracy == y.mlm_accuracy
        for name in model_a.params:
            assert np.array_equal(model_a.params[name].value, model_b.params[name].value)

    def test_vanilla_batch_trains_mlm_only(self, toy_world, toy_resources):
        cfg = MaskingConfig(max_len=24, p_no_marker=1.0)
        lines = [l for l in toy_corpus_lines(toy_world.words, 6, seed=11,
                                             pretokenized=True) if l]
        batch = [build_example(parse_pretokenized(line), toy_world.vocab, toy_resources,
                               cfg, random.Random(i)) for i, line in enumerate(lines[:3])]
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        metrics = train_step(model, batch, lr=0.1)
        assert metrics.loss.rwd_loss == 0.0
        assert metrics.rwd_accuracy is None
        assert metrics.loss.total == metrics.loss.mlm_loss

    def test_dropout_only_active_in_training_mode(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=2, seed=15)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32,
                                  dropout=0.5))
        eval_a = model.forward(batch).mlm_logits
        eval_b = model.forward(batch).mlm_logits
        assert np.array_equal(eval_a, eval_b)  # eval path is deterministic
        train_out = model.forward(batch, train=True).mlm_logits
        assert not np.array_equal(eval_a, train_out)

    def test_training_with_dropout_still_descends(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=4, seed=16)
        model = MarkBert(ModelConfig(vocab_size=len(toy_world.vocab), hidden_dim=32,
                                     num_layers=1, num_heads=4, ffn_dim=48,
                                     max_positions=32, dropout=0.1, seed=4))
        first = train_step(model, batch, lr=0.1).loss.total
        for _ in range(80):
            last = train_step(model, batch, lr=0.1).loss.total
        assert last < first

    def test_non_finite_loss_raises(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=2, seed=12)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        model.params["token_embedding"].value[:] = np.inf
        with np.errstate(all="ignore"), pytest.raises(TrainingError):
            train_step(model, batch, lr=0.1)


class TestAttentionExport:
    def test_record_shape(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=2, seed=13)
        model = MarkBert(ModelConfig(vocab_size=len(toy_world.vocab), hidden_dim=16,
                                     num_layers=2, num_heads=4, ffn_dim=24,
                                     max_positions=32, seed=0))
        out = model.forward(batch, capture_attention=True)
        record = export_attention(out, batch, vocab=toy_world.vocab)
        assert record["num_layers"] == 2 and record["num_heads"] == 4
        for i, ex in enumerate(batch):
            entry = record["examples"][i]
            assert len(entry["rows"]) == 2 * 4 * len(ex.marker_positions)
            assert len(entry["tokens"]) == ex.attention_len
            for row in entry["rows"]:
                assert sum(row["weights"]) == pytest.approx(1.0, abs=1e-5)
                assert len(row["weights"]) == ex.attention_len

    def test_empty_marker_set_gives_empty_rows(self, tiny_vocab):
        marked = encode_marked(parse_pretokenized("天气"), tiny_vocab,
                               insert_markers=False)
        ex = plain_example(marked)
        model = MarkBert(tiny_cfg(vocab_size=len(tiny_vocab)))
        out = model.forward([ex], capture_attention=True)
        record = export_attention(out, [ex], vocab=tiny_vocab)
        assert record["examples"][0]["rows"] == []

    def test_capture_disabled_raises(self, tiny_vocab):
        marked = encode_marked(parse_pretokenized("天气"), tiny_vocab)
        ex = plain_example(marked)
        model = MarkBert(tiny_cfg(vocab_size=len(tiny_vocab)))
        out = model.forward([ex])
        with pytest.raises(InputError):
            export_attention(out, [ex])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, toy_world, toy_resources):
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        batch = toy_batch(toy_world, toy_resources, n=2, seed=14)
        train_step(model, batch, lr=0.1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.cfg == model.cfg
        for name in model.params:
            assert np.array_equal(loaded.params[name].value, model.params[name].value)
        a = model.forward(batch).mlm_logits
        b = loaded.forward(batch).mlm_logits
        assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_checkpoint(path)
