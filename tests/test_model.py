import json
import math
import random
import struct
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import erf

from helpers import dense_mlm_logits, hidden_grads
from markkit import model as model_module
from markkit.cli import main
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

    def test_unallocatable_parameters_name_the_largest_size(self, monkeypatch):
        """A table numpy refuses, by its byte count or for want of memory,
        is a ConfigError naming the largest size."""
        for size in (2**60, 10**30):
            with pytest.raises(ConfigError, match=f"^max_positions is too large: {size} "):
                MarkBert(tiny_cfg(max_positions=size))

        def refuse(name, value):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(model_module, "Parameter", refuse)
        with pytest.raises(ConfigError, match="^ffn_dim is too large: 99 "):
            MarkBert(tiny_cfg(ffn_dim=99))

    def test_parameter_count_closed_form(self):
        for V, H, L, F, P, C in [(16, 32, 2, 48, 20, 3), (12, 8, 1, 12, 10, 2),
                                 (106, 64, 3, 128, 48, 3), (5, 4, 1, 1, 1, 2)]:
            cfg = ModelConfig(vocab_size=V, hidden_dim=H, num_layers=L, num_heads=4,
                              ffn_dim=F, max_positions=P, rwd_classes=C)
            # attention: q/k/v/out weights, biases on q/v/out (keys take none)
            per_layer = 4 * H * H + 3 * H + 2 * H + (H * F + F) + (F * H + H) + 2 * H
            expected = (V * H + P * H + 2 * H            # embeddings + embedding LN
                        + L * per_layer
                        + (H * H + H) + 2 * H + V        # MLM transform + LN + bias
                        + (H * C + C))                   # RWD head
            model = MarkBert(cfg)
            assert sum(p.value.size for p in model.params.values()) == expected
            assert cfg.parameter_count == expected

    def test_model_beyond_physical_memory_refused_before_allocating(self):
        """Values and gradients take 16 bytes per parameter; a config that
        needs more than physical memory is refused before any table is
        made, naming its largest size."""
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"^num_layers is too large: 1000000000 .* "
                                                  r"physical memory"):
                MarkBert(tiny_cfg(num_layers=10**9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestForward:
    def test_shapes_on_hand_traced_encoding(self, tiny_vocab):
        seg = parse_pretokenized("天气 很 好")
        marked = encode_marked(seg, tiny_vocab)   # 9 tokens, 3 markers
        ex = plain_example(marked)
        model = MarkBert(tiny_cfg(vocab_size=len(tiny_vocab)))
        out = model.forward([ex])
        assert out.mlm_logits.shape == (0, len(tiny_vocab))  # no MLM labels
        assert out.rwd_logits.shape == (3, 3)
        dense = dense_mlm_logits(model, out)
        assert dense.shape == (1, 9, len(tiny_vocab))
        assert np.all(np.isfinite(dense))

    def test_empty_batch_and_empty_example(self):
        model = MarkBert(tiny_cfg())
        out = model.forward([])
        assert out.mlm_logits.shape == (0, 12)
        ex = PretrainingExample(input_ids=(), mlm_labels={}, rwd_labels={},
                                rwd_loss_mask={}, meta=ExampleMeta(framed=False))
        out = model.forward([ex])
        assert out.mlm_logits.shape == (0, 12)
        assert out.rwd_logits.shape == (0, 3)
        assert compute_loss(out, [ex]).total == 0.0

    def test_attention_rows_sum_to_one_over_unpadded(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=3, seed=2)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        out = model.forward(batch)
        for probs in out.attentions:
            for i, ex in enumerate(batch):
                n = ex.attention_len
                np.testing.assert_allclose(probs[i, :, :n, :n].sum(-1), 1.0, atol=1e-5)
                # padded keys get zero attention from real queries
                assert np.all(probs[i, :, :n, n:] == 0.0)

    def test_id_out_of_range(self):
        """Past the vocabulary, below zero, or beyond int64: an input id or
        an MLM label."""
        model = MarkBert(tiny_cfg())
        for token in (99, -1, 2**63, 10**30, -2**63 - 1):
            with pytest.raises(InputError, match=r"^token id out of range for vocab_size=12"):
                model.forward([example([2, token, 3])])
            with pytest.raises(InputError, match=r"^MLM label token id out of range"):
                model.forward([example([2, 6, 3], mlm={1: token})])

    def test_sequence_too_long(self):
        model = MarkBert(tiny_cfg(max_positions=4))
        ex = example([2, 1, 1, 1, 3])
        with pytest.raises(InputError):
            model.forward([ex])


class TestLoss:
    def test_uniform_binary_equals_ln2(self):
        ex = example([2, 6, 5, 3], markers={2: RwdLabel.NORMAL}, loss_on=[2])
        out = ForwardOutput(mlm_logits=np.zeros((0, 12)),
                            rwd_logits=np.zeros((1, 2)))
        loss = compute_loss(out, [ex], rwd_classes=2)
        assert loss.rwd_loss == pytest.approx(math.log(2), abs=1e-6)
        assert loss.mlm_loss == 0.0
        assert loss.total == loss.rwd_loss

    def test_empty_sets_give_zero(self):
        ex = example([2, 6, 3])
        out = ForwardOutput(mlm_logits=np.zeros((0, 12)), rwd_logits=np.zeros((0, 3)))
        loss = compute_loss(out, [ex])
        assert loss.mlm_loss == 0.0 and loss.rwd_loss == 0.0 and loss.total == 0.0

    def test_hand_computed_cross_entropy(self):
        # two labeled positions with known logits; oracle computed from the
        # explicit softmax definition
        logits = np.zeros((2, 3))
        logits[0] = [1.0, 2.0, 0.5]
        logits[1] = [0.0, -1.0, 3.0]
        ex = example([6, 7], mlm={0: 1, 1: 2}, framed=False)
        out = ForwardOutput(mlm_logits=logits, rwd_logits=np.zeros((0, 3)))

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
        out = ForwardOutput(mlm_logits=np.zeros((0, 12)), rwd_logits=rwd)
        exp = [math.exp(v) for v in rwd[1]]
        expected = -math.log(exp[1] / sum(exp))
        assert compute_loss(out, [ex]).rwd_loss == pytest.approx(expected, abs=1e-9)

    def test_binary_mode_collapses_confusion_kinds(self):
        ex = example([2, 6, 5, 3], markers={2: RwdLabel.SYNONYM_CONFUSION}, loss_on=[2])
        out = ForwardOutput(mlm_logits=np.zeros((0, 12)),
                            rwd_logits=np.array([[0.0, 2.0]]))
        exp = [1.0, math.exp(2.0)]
        expected = -math.log(exp[1] / sum(exp))
        assert compute_loss(out, [ex], rwd_classes=2).rwd_loss == pytest.approx(expected)


    def test_hand_built_output_row_count_checked(self):
        ex = example([6, 7], mlm={0: 1, 1: 2}, framed=False)
        out = ForwardOutput(mlm_logits=np.zeros((1, 3)), rwd_logits=np.zeros((0, 3)))
        with pytest.raises(InputError, match="1 MLM logit rows for 2 labelled positions"):
            compute_loss(out, [ex])

    def test_train_step_walks_the_batch_once(self, toy_world, toy_resources, monkeypatch):
        """``forward`` hands its rows on to ``loss_and_gradients``."""
        batch = toy_batch(toy_world, toy_resources, n=2, seed=4)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        calls = []
        walk = model_module._batch_rows

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(model_module, "_batch_rows", counted)
        train_step(model, batch, lr=0.1)
        assert len(calls) == 1


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
        dh = hidden_grads(model, out, np.zeros_like(dmlm), drwd)[1]
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
        # logits, hence gradients, exist only at the labelled rows
        labelled = [(i, pos) for i, ex in enumerate(batch) for pos in sorted(ex.mlm_labels)]
        assert labelled
        assert list(zip(*map(list, out.rows.mlm))) == labelled
        assert dmlm.shape == (len(labelled), len(toy_world.vocab))
        model.zero_grads()
        model.backward(out, dmlm, np.zeros_like(out.rwd_logits))
        dh = hidden_grads(model, out, dmlm, np.zeros_like(out.rwd_logits))[0]
        # the head's transform runs at every position; only labelled ones feed back
        for i, ex in enumerate(batch):
            for pos in range(ex.attention_len):
                if pos not in ex.mlm_labels:
                    assert np.all(dh[i, pos] == 0.0)


class TestLabelledOnlyHead:
    def grads(self, model, out, batch):
        model.zero_grads()
        _, dmlm, drwd = loss_and_gradients(out, batch, model.cfg.rwd_classes)
        model.backward(out, dmlm, drwd)
        return {name: p.grad.copy() for name, p in model.params.items()}

    def test_agrees_with_dense_head(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=3, seed=17)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        out = model.forward(batch)
        dense = dense_mlm_logits(model, out)
        labelled = [(i, pos, label) for i, ex in enumerate(batch)
                    for pos, label in sorted(ex.mlm_labels.items())]
        assert labelled
        assert out.mlm_logits.shape == (len(labelled), len(toy_world.vocab))
        expected = np.array([dense[i, pos] for i, pos, _ in labelled])
        np.testing.assert_allclose(out.mlm_logits, expected, rtol=1e-12, atol=1e-12)

        def ce(row, label):
            shifted = row - row.max()
            return np.log(np.exp(shifted).sum()) - shifted[label]

        mlm_loss = np.mean([ce(dense[i, pos], label) for i, pos, label in labelled])
        assert abs(compute_loss(out, batch).mlm_loss - mlm_loss) < 1e-12

        mlm_hits = [int(np.argmax(dense[i, pos])) == label for i, pos, label in labelled]
        markers = [(ex, pos) for ex in batch for pos in ex.marker_positions]
        rwd_hits = [int(np.argmax(out.rwd_logits[row])) == int(ex.rwd_labels[pos])
                    for row, (ex, pos) in enumerate(markers) if ex.rwd_loss_mask[pos]]
        metrics = train_step(model, batch, lr=0.0)
        assert metrics.mlm_accuracy == sum(mlm_hits) / len(mlm_hits)
        assert metrics.rwd_accuracy == sum(rwd_hits) / len(rwd_hits)

    def test_batch_without_mlm_labels(self):
        batch = [example([2, 6, 5, 7, 5, 3],
                         markers={2: RwdLabel.NORMAL, 4: RwdLabel.SYNONYM_CONFUSION},
                         loss_on=[2, 4]),
                 example([2, 8, 5, 3], markers={2: RwdLabel.PINYIN_CONFUSION}, loss_on=[2])]
        model = MarkBert(tiny_cfg())
        out = model.forward(batch)
        assert out.mlm_logits.shape == (0, 12)
        metrics, dmlm, _ = loss_and_gradients(out, batch)
        assert metrics.loss.mlm_loss == 0.0 and metrics.loss.rwd_loss > 0.0
        assert dmlm.shape == (0, 12)
        grads = self.grads(model, out, batch)
        for name in ("mlm.bias", "mlm.dense_w", "mlm.dense_b", "mlm.ln.gamma", "mlm.ln.beta"):
            assert not np.any(grads[name]), name
        assert np.all(hidden_grads(model, out, dmlm, np.zeros_like(out.rwd_logits))[0] == 0.0)
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

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.1])
    def test_bad_learning_rate_rejected(self, toy_world, toy_resources, lr):
        batch = toy_batch(toy_world, toy_resources, n=2, seed=8)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        before = {n: p.value.copy() for n, p in model.params.items()}
        with pytest.raises(ConfigError, match="finite and >= 0"):
            train_step(model, batch, lr=lr)
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


def labelled_batch(labels_per_example, vocab_size, seed, length=24):
    """Examples of ``length`` tokens with three markers each and the given
    numbers of MLM-labelled positions, so a batch has a chosen M."""
    r = random.Random(seed)
    batch = []
    for n_labels in labels_per_example:
        ids = [2] + [r.randrange(6, vocab_size) for _ in range(length - 2)] + [3]
        markers = sorted(r.sample(range(3, length - 1), 3))
        for pos in markers:
            ids[pos] = 5
        free = [p for p in range(1, length - 1) if p not in markers]
        batch.append(example(ids, mlm={p: r.randrange(6, vocab_size)
                                       for p in r.sample(free, n_labels)},
                             markers={p: RwdLabel(r.randrange(3)) for p in markers},
                             loss_on=markers[:2]))
    return batch


class RecordingPool:
    """Stands in for the head's thread pool: runs each task at once and
    counts it."""

    def __init__(self):
        self.tasks = 0

    def submit(self, fn, *args):
        self.tasks += 1
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # handed to the caller through the future
            future.set_exception(exc)
        return future


class TestTwoThreadHead:
    """The vocabulary head runs on two threads from _SPLIT_MIN_ELEMENTS on;
    the split must not change a bit."""

    MID_SIZE = dict(vocab_size=4096, hidden_dim=32, num_layers=1, num_heads=2, ffn_dim=32,
                    max_positions=24, seed=5)

    def train(self, monkeypatch, threshold, batches, vocab_size):
        monkeypatch.setattr(model_module, "_SPLIT_MIN_ELEMENTS", threshold)
        model = MarkBert(ModelConfig(**{**self.MID_SIZE, "vocab_size": vocab_size}))
        metrics = [train_step(model, batch, lr=0.3) for batch in batches]
        out = model.forward(batches[0])
        losses = (compute_loss(out, batches[0]), loss_and_gradients(out, batches[0])[0].loss)
        return model, metrics, losses

    @pytest.mark.parametrize("vocab_size", [300, 4096, 4099])
    @pytest.mark.parametrize("labels", [(5, 7), (4, 5), (1, 0), (0, 3), (0, 0)],
                             ids=["M=12", "M=9", "M=1", "M=3", "M=0"])
    def test_split_is_bit_identical(self, monkeypatch, labels, vocab_size):
        batches = [labelled_batch(labels, vocab_size, seed) for seed in range(3)]
        split, split_metrics, split_losses = self.train(monkeypatch, 0, batches, vocab_size)
        whole, whole_metrics, whole_losses = self.train(monkeypatch, math.inf, batches,
                                                        vocab_size)
        assert split_metrics == whole_metrics
        assert split_losses[0] == split_losses[1] == whole_losses[0] == whole_losses[1]
        for name in whole.params:
            assert np.array_equal(split.params[name].value, whole.params[name].value), name

    def test_errstate_reaches_the_threads(self, toy_world, toy_resources, monkeypatch):
        """An infinite vocabulary bias first meets inf - inf in the loss's
        threads: the caller's errstate silences it there, as in one thread."""
        monkeypatch.setattr(model_module, "_SPLIT_MIN_ELEMENTS", 0)
        batch = toy_batch(toy_world, toy_resources, n=2, seed=12)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), max_positions=32))
        model.params["mlm.bias"].value[:] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="invalid value"):
                train_step(model, batch, lr=0.1)
            with np.errstate(all="ignore"), pytest.raises(TrainingError):
                train_step(model, batch, lr=0.1)

    def test_task_exception_reaches_the_caller(self):
        """Whichever thread a task fails on, its exception reaches the caller
        unchanged, and only once the other task has finished."""
        error, done = KeyError("task"), []

        def fail():
            raise error

        def slow():
            time.sleep(0.05)
            done.append(True)

        with ThreadPoolExecutor(1) as pool:
            for tasks in ((fail, slow), (slow, fail)):
                done.clear()
                with pytest.raises(KeyError) as info:
                    model_module._run(pool, tasks)
                assert info.value is error and done == [True]

    def test_oracle_config_submits_no_task(self, monkeypatch):
        pool = RecordingPool()
        monkeypatch.setattr(model_module, "_POOL", [pool])
        model = MarkBert(ModelConfig(vocab_size=64, hidden_dim=32, num_layers=2, num_heads=4,
                                     ffn_dim=64, max_positions=16, seed=11))
        batch = labelled_batch((3, 3), 64, seed=2, length=16)
        analytic_grads(model, batch)
        compute_loss(model.forward(batch), batch)
        assert pool.tasks == 0
        monkeypatch.setattr(model_module, "_SPLIT_MIN_ELEMENTS", 0)
        analytic_grads(model, batch)
        assert pool.tasks > 0


class TestStepInPlace:
    """A training pass's loss writes the MLM logit gradient over its logits,
    and the update runs in place; neither may change a bit."""

    @pytest.mark.parametrize("threshold", [0, math.inf], ids=["split", "whole"])
    def test_matches_reference_loop(self, monkeypatch, threshold):
        """``train_step`` against ``analytic_grads`` on an eval pass plus
        ``value - lr * grad`` in fresh arrays. Split, the threads switch
        every 10 us, so that the halves of the loss and update interleave."""
        monkeypatch.setattr(model_module, "_SPLIT_MIN_ELEMENTS", threshold)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(1) as pool:
                monkeypatch.setattr(model_module, "_POOL", [pool])
                self.check_reference_loop()
        finally:
            sys.setswitchinterval(interval)

    def check_reference_loop(self):
        cfg = ModelConfig(**TestTwoThreadHead.MID_SIZE)
        model, reference = MarkBert(cfg), MarkBert(cfg)
        for seed in range(4):
            batch = labelled_batch((5, 7), cfg.vocab_size, seed)
            metrics = train_step(model, batch, lr=0.3)
            assert metrics.loss == compute_loss(reference.forward(batch), batch)
            grads = analytic_grads(reference, batch)
            for name, p in reference.params.items():
                p.value = p.value - 0.3 * grads[name]
                assert np.array_equal(model.params[name].grad, 0.3 * grads[name]), name
        for name in reference.params:
            assert np.array_equal(model.params[name].value, reference.params[name].value), name

    def test_loss_consumes_only_training_logits(self):
        batch = labelled_batch((5, 7), 64, seed=1)
        model = MarkBert(tiny_cfg(vocab_size=64, max_positions=24))
        out = model.forward(batch)
        logits = out.mlm_logits.copy()
        _, dmlm, _ = loss_and_gradients(out, batch)
        assert np.array_equal(out.mlm_logits, logits)
        assert not np.shares_memory(dmlm, out.mlm_logits)
        out = model.forward(batch, train=True)
        assert np.array_equal(out.mlm_logits, logits)
        _, train_dmlm, _ = loss_and_gradients(out, batch)
        assert train_dmlm is out.mlm_logits
        assert np.array_equal(train_dmlm, dmlm)

    def test_step_peak_holds_one_logit_array(self):
        """At a shape where the (M, V) logits outweigh every other array of
        the step, its traced peak holds one such array, not two."""
        cfg = ModelConfig(vocab_size=20_000, hidden_dim=8, num_layers=1, num_heads=2,
                          ffn_dim=8, max_positions=24, seed=0)
        batch = labelled_batch((15, 15), cfg.vocab_size, seed=3)
        model = MarkBert(cfg)
        logits_bytes = sum(len(ex.mlm_labels) for ex in batch) * cfg.vocab_size * 8
        assert logits_bytes < model_module._SPLIT_MIN_ELEMENTS * 8  # one thread
        train_step(model, batch, lr=0.1)
        tracemalloc.start()
        try:
            train_step(model, batch, lr=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert logits_bytes < peak < 1.5 * logits_bytes


def mixed_batch(lengths, seed):
    """One example of each length (two MLM labels, three markers, V = 64),
    so a batch with several lengths is padded."""
    return [ex for i, length in enumerate(lengths)
            for ex in labelled_batch((2,), 64, 100 * seed + i, length=length)]


class TestTwoThreadEncoder:
    """The encoder runs in two batch halves from _ENCODER_SPLIT_MIN_ELEMENTS
    on; the split must not change a bit."""

    CFG = dict(vocab_size=64, hidden_dim=32, num_layers=2, num_heads=4, ffn_dim=48,
               max_positions=24, seed=3)

    @pytest.fixture
    def pool(self, monkeypatch):
        """A second thread, however many cores the host has, with the
        interpreter switching threads every 10 us so that the halves
        interleave finely."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(1) as pool:
                monkeypatch.setattr(model_module, "_POOL", [pool])
                yield pool
        finally:
            sys.setswitchinterval(interval)

    def train(self, monkeypatch, threshold, batches, cfg):
        monkeypatch.setattr(model_module, "_ENCODER_SPLIT_MIN_ELEMENTS", threshold)
        model = MarkBert(ModelConfig(**{**self.CFG, **cfg}))
        return model, [train_step(model, batch, lr=0.3) for batch in batches]

    @pytest.mark.parametrize("size", ["oracle", "toy"])
    def test_small_models_submit_no_task(self, monkeypatch, toy_world, toy_resources, size):
        """The gradient oracle's config (criterion 5) and the toy
        trainability model (criterion 6) stay below the encoder's threshold
        as well as the head's: their forward and backward passes submit no
        task."""
        pool = RecordingPool()
        monkeypatch.setattr(model_module, "_POOL", [pool])
        if size == "oracle":
            model = MarkBert(ModelConfig(vocab_size=64, hidden_dim=32, num_layers=2,
                                         num_heads=4, ffn_dim=64, max_positions=16, seed=11))
            batch = labelled_batch((3, 3), 64, seed=2, length=16)
        else:
            model = MarkBert(ModelConfig(vocab_size=len(toy_world.vocab), hidden_dim=64,
                                         num_layers=2, num_heads=4, ffn_dim=128,
                                         max_positions=40, seed=1))
            batch = toy_batch(toy_world, toy_resources, n=8, seed=606, max_len=32)
        analytic_grads(model, batch)
        compute_loss(model.forward(batch), batch)
        assert pool.tasks == 0
        monkeypatch.setattr(model_module, "_ENCODER_SPLIT_MIN_ELEMENTS", 0)
        analytic_grads(model, batch)
        assert pool.tasks > 0

    @pytest.mark.parametrize("lengths,cfg", [
        ((24,), {}), ((24,) * 3, {}), ((24,) * 8, {}), ((24, 9, 17, 24, 7), {}),
        ((24, 9, 17, 24), {"dropout": 0.2}), ((24, 9, 17), {"rwd_classes": 2}),
    ], ids=["B=1", "B=3", "B=8", "padding", "dropout", "rwd_classes=2"])
    def test_split_is_bit_identical(self, monkeypatch, pool, lengths, cfg):
        batches = [mixed_batch(lengths, seed) for seed in range(3)]
        split, split_metrics = self.train(monkeypatch, 0, batches, cfg)
        whole, whole_metrics = self.train(monkeypatch, math.inf, batches, cfg)
        assert split_metrics == whole_metrics
        for name in whole.params:
            assert np.array_equal(split.params[name].value, whole.params[name].value), name

    @pytest.mark.parametrize("name", ["_gelu_fwd", "_layernorm_dx", "_matmul_grads"],
                             ids=["forward", "backward chain", "backward sums"])
    def test_pool_exception_reaches_the_caller(self, monkeypatch, pool, name):
        """A failure in the pool's part of the forward pass, of the
        backward's row-local chain or of its sums reaches the caller
        unchanged."""
        error, original = KeyError(name), getattr(model_module, name)
        caller = threading.get_ident()

        def fail_on_pool(*args):
            if threading.get_ident() != caller:
                raise error
            return original(*args)

        monkeypatch.setattr(model_module, name, fail_on_pool)
        monkeypatch.setattr(model_module, "_ENCODER_SPLIT_MIN_ELEMENTS", 0)
        model = MarkBert(ModelConfig(**self.CFG))
        with pytest.raises(KeyError) as info:
            train_step(model, mixed_batch((24, 9, 17), 0), lr=0.3)
        assert info.value is error

    def test_captured_attention_is_bit_identical(self, monkeypatch, pool, toy_world,
                                                 toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=3, seed=13)
        assert len({ex.attention_len for ex in batch}) > 1
        results = []
        for threshold in (0, math.inf):
            monkeypatch.setattr(model_module, "_ENCODER_SPLIT_MIN_ELEMENTS", threshold)
            model = MarkBert(ModelConfig(vocab_size=len(toy_world.vocab), hidden_dim=16,
                                         num_layers=2, num_heads=4, ffn_dim=24,
                                         max_positions=32, seed=0))
            out = model.forward(batch)
            results.append((out.attentions, export_attention(out, batch, vocab=toy_world.vocab)))
        (split, split_record), (whole, whole_record) = results
        assert len(split) == len(whole) == 2
        assert all(np.array_equal(a, b) for a, b in zip(split, whole))
        assert split_record == whole_record


class TestPrimitives:
    def test_layernorm_and_gelu_match_reference_formulas(self):
        """``_layernorm_fwd`` centres once and ``_gelu_fwd`` keeps its CDF;
        both write the bits of the textbook formulas into ``out``."""
        rng = np.random.default_rng(0)
        for _ in range(80):
            x = (rng.normal(size=(rng.integers(1, 6), rng.integers(1, 130)))
                 * rng.choice([1e-3, 1.0, 1e3]) + rng.normal())
            gamma, beta = rng.normal(size=x.shape[-1]), rng.normal(size=x.shape[-1])
            inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-12)
            xhat = (x - x.mean(axis=-1, keepdims=True)) * inv_std
            out = y, out_xhat, out_inv_std = (np.empty_like(x), np.empty_like(x),
                                              np.empty_like(inv_std))
            assert model_module._layernorm_fwd(x, gamma, beta, out) is y
            assert np.array_equal(out_xhat, xhat) and np.array_equal(out_inv_std, inv_std)
            assert np.array_equal(y, xhat * gamma + beta)
            out = act, cdf = np.empty_like(x), np.empty_like(x)
            assert model_module._gelu_fwd(x, out) is act
            assert np.array_equal(act, 0.5 * x * (1.0 + erf(x / np.sqrt(2.0))))
            assert np.array_equal(cdf, 0.5 * (1.0 + erf(x / np.sqrt(2.0))))


class TestAttentionExport:
    def test_record_shape(self, toy_world, toy_resources):
        batch = toy_batch(toy_world, toy_resources, n=2, seed=13)
        model = MarkBert(ModelConfig(vocab_size=len(toy_world.vocab), hidden_dim=16,
                                     num_layers=2, num_heads=4, ffn_dim=24,
                                     max_positions=32, seed=0))
        out = model.forward(batch)
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
        out = model.forward([ex])
        record = export_attention(out, [ex], vocab=tiny_vocab)
        assert record["examples"][0]["rows"] == []

    def test_attentions_are_the_read_only_backward_arrays(self, toy_world, toy_resources):
        """A plain ``forward`` returns every layer's probabilities, the
        arrays ``backward`` reads; writing into one raises."""
        batch = toy_batch(toy_world, toy_resources, n=2, seed=13)
        model = MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), num_layers=2,
                                  max_positions=32))
        out = model.forward(batch)
        assert len(out.attentions) == 2
        for probs, lc in zip(out.attentions, out._cache["layers"]):
            assert probs is lc["probs"]
            with pytest.raises(ValueError, match="read-only"):
                probs[0, 0, 0, 0] = 0.0


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

    @staticmethod
    def traced_peak(fn, *args):
        """``fn(*args)`` and the peak of the memory it allocated."""
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_save_writes_tensors_from_the_parameters(self, tmp_path):
        """Saving allocates less than a tenth of the payload beyond its
        header, and writes the layout the format comment describes."""
        model = MarkBert(tiny_cfg(vocab_size=4096, hidden_dim=32, ffn_dim=32))
        path = tmp_path / "model.ckpt"
        _, peak = self.traced_peak(save_checkpoint, model, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        payload = 8 * model.cfg.parameter_count
        assert len(blob) == 16 + header_len + payload
        assert peak - header_len < 0.1 * payload
        header = json.loads(blob[16:16 + header_len])
        assert header["config"] == asdict(model.cfg)
        raw = [np.ascontiguousarray(p.value, dtype="<f8").tobytes() for p in model.params.values()]
        assert blob[16 + header_len:] == b"".join(raw)
        offsets = np.cumsum([0] + [len(r) for r in raw[:-1]]).tolist()
        assert [(t["name"], t["offset"], t["nbytes"]) for t in header["tensors"]] == \
            list(zip(model.params, offsets, map(len, raw)))

    def test_load_copies_tensors_into_the_model(self, tmp_path):
        """Loading peaks at no more than the file plus the model's values and
        gradients, plus a tenth."""
        model = MarkBert(tiny_cfg(vocab_size=4096, hidden_dim=32, ffn_dim=32, seed=3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded, peak = self.traced_peak(load_checkpoint, path)
        assert peak <= 1.1 * (path.stat().st_size + 16 * model.cfg.parameter_count)
        for name, param in model.params.items():
            assert np.array_equal(loaded.params[name].value, param.value)
            assert loaded.params[name].value.flags.writeable
            assert not loaded.params[name].grad.any()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_config_beyond_payload_is_not_built(self, tmp_path, toy_world):
        """A small checkpoint whose config claims 400,000 positions is
        refused before the model of that config is made (about 400 MB of
        values and gradients)."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab), hidden_dim=64,
                                          num_heads=4, max_positions=48)), path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + header_len])
        header["config"]["max_positions"] = 400_000
        raw = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + header_len:])
        assert path.stat().st_size < 300_000
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="config needs 205039560 bytes of tensors"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * path.stat().st_size

    @pytest.mark.parametrize("case", [
        "short", "truncated_payload", "dtype_f4", "dtype_big_endian", "unknown_config_key",
        "config_wrong_type", "nbytes_disagrees", "offset_past_payload", "config_negative_seed",
        "config_unallocatable", "name_not_a_string", "number_past_digit_limit"])
    def test_malformed_checkpoint_exit_4(self, tmp_path, toy_world, capsys, case):
        path = tmp_path / "model.ckpt"
        save_checkpoint(MarkBert(tiny_cfg(vocab_size=len(toy_world.vocab))), path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + header_len])
        payload = blob[16 + header_len:]
        first, last = header["tensors"][0], header["tensors"][-1]
        edit = {
            "dtype_f4": lambda: first.update(dtype="<f4"),
            "dtype_big_endian": lambda: first.update(dtype=">f8"),
            "unknown_config_key": lambda: header["config"].update(colour=1),
            "config_wrong_type": lambda: header["config"].update(hidden_dim="8"),
            "config_negative_seed": lambda: header["config"].update(seed=-1),
            "config_unallocatable": lambda: header["config"].update(max_positions=2**60),
            "nbytes_disagrees": lambda: first.update(nbytes=first["nbytes"] - 8),
            "offset_past_payload": lambda: last.update(offset=last["offset"] + 8),
            "name_not_a_string": lambda: first.update(name=[first["name"]]),
            # json.loads refuses an integer of more than 4,300 digits
            "number_past_digit_limit": lambda: header["config"].update(seed="SEED"),
        }.get(case)
        if edit is not None:
            edit()
            raw = json.dumps(header).replace('"SEED"', "9" * 5000).encode("utf-8")
            blob = blob[:8] + struct.pack("<Q", len(raw)) + raw + payload
        elif case == "short":
            blob = blob[:12]
        else:
            blob = blob[:-8]
        path.write_bytes(blob)
        with pytest.raises(ParseError):
            load_checkpoint(path)
        code = main(["attn-dump", "--ckpt", str(path), "--vocab", str(toy_world.paths["vocab"]),
                     "--pretokenized", "--in", str(tmp_path / "unread.txt")])
        assert code == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "input"
