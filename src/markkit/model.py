"""Desk-scale transformer encoder with a masked-LM head and a
replaced-word-detection head over marker positions.

Everything runs in float64 numpy with hand-written backward passes, so
analytic gradients can be checked against central finite differences to
tight tolerances. Single-threaded execution is bit-deterministic given
the config seed and batch order.

Architecture (post-layernorm, BERT-style):

    h0 = LN(tok_emb[ids] + pos_emb)
    per layer: h = LN(h + SelfAttention(h)); h = LN(h + FFN(h))
    MLM head: logits = LN(gelu(h W_d + b_d))[labelled] E^T + b_v   (E = tied token embedding)
    RWD head: logits = h[marker positions] W_r + b_r

The MLM objective is defined only at MLM-labelled positions, so the
head's vocabulary projection runs only there: (M, V) logits for the M
labelled (example, position) rows of a batch. Vocabulary logits, their
softmax and their gradient are never computed where no label exists.

One walk over the batch per step builds its padded token ids, their
valid mask and every (example, position) index array both objectives
gather. ``forward`` hands them on in ``ForwardOutput.rows``, from which
``backward`` takes the ids and ``loss_and_gradients`` its losses, logit
gradients and accuracies (:class:`StepMetrics`).

The detection loss and the masked-LM loss are means over their included
positions and are summed unweighted into the total.

A train step holds one (M, V) array, the largest of the step: its
training pass's logits are consumed by the loss, which writes their
gradient over them, row block by row block. The update then runs in
place (``.grad *= lr``, ``.value -= .grad``), so after a step each
parameter's ``.grad`` holds the step applied. No buffer outlives a step.

The vocabulary head's M x V work runs on two threads, the caller's and
one pool thread, once it reaches ``_SPLIT_MIN_ELEMENTS`` (2^20) elements
and the process may use two cores. Smaller heads, such as the toy models'
and the gradient oracle's, run in one call and never start a thread.
Above the threshold:

- the forward projection runs in two vocabulary halves from V = 1,024 on,
  cut at a multiple of 64 rows of ``E``, so each half's BLAS call blocks
  its rows as the whole call does (checked bit for bit with OpenBLAS at
  V = 1,024, 1,027, 2,049, 4,090 to 4,100 and 21,120 to 21,136);
- the loss, its logit gradient and the accuracy argmax run in two row
  halves, and every row is computed alone;
- the backward pass runs the head's weight gradients and its input
  gradient as two whole tasks;
- the update, once the model has 2^20 parameters, runs in two row halves
  of every parameter.

The encoder uses the same pool thread from ``_ENCODER_SPLIT_MIN_ELEMENTS``
(2^15) B x L x H elements on; the gradient oracle's config and the toy
models stay below it. It runs in two batch halves, examples [0, B // 2)
here and [B // 2, B) on the pool, each writing its rows into full-batch
arrays made before the split (with the dropout masks, drawn for the whole
batch in layer order):

- the forward pass, from the embedding lookup and its LayerNorm through
  every layer (projections, attention, LayerNorms, FFN) to the MLM
  transform;
- the backward pass's row-local chain: every LayerNorm and GELU input
  gradient, the softmax backward, the per-example attention products and
  every ``dy @ W.T``, keeping each matmul's and LayerNorm's output
  gradient;
- then every sum over the B x L rows (weight, bias and LayerNorm
  gradients, the token-embedding scatter, the position sum) runs as one
  whole-batch task, the tasks shared between the two threads, each
  gradient written in the same order as in one thread.

numpy runs a (B, L, H) @ (H, k) product and the (B, nh, L, k) attention
products as one BLAS call per example, softmax, GELU and LayerNorm work
row by row, and no sum over rows is cut, so the halves compute every row
as the whole batch does.

So each value comes from the same operation on the same operands as in
one call, and every loss, gradient and parameter is bit-identical to a
one-thread run. A pool task runs in a copy of the caller's context, so the
caller's ``np.errstate`` holds inside it, and a task's exception reaches
the caller unchanged.
"""

from __future__ import annotations

import contextvars
import json
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError, ParseError, TrainingError
from .marker_encoder import Vocab
from .pretrain import PretrainingExample, RwdLabel, usable_cpus
from .resources import opened

_NEG_INF = -1e30
_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_MAGIC = b"MARKKIT\x00"
_SPLIT_MIN_ELEMENTS = 1 << 20  # M x V head elements (or parameters) from which two threads run
_ENCODER_SPLIT_MIN_ELEMENTS = 1 << 15  # B x L x H elements from which the encoder runs in halves
_POOL_LOCK = threading.Lock()
_POOL: list[ThreadPoolExecutor | None] = []  # the second thread, made on first use


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    max_positions: int = 512
    rwd_classes: int = 3
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "hidden_dim", "num_layers", "num_heads", "ffn_dim",
                     "max_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"must be positive, got {getattr(self, name)}", name)
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(f"must divide hidden_dim={self.hidden_dim}, got {self.num_heads}",
                              "num_heads")
        if self.rwd_classes not in (2, 3):
            raise ConfigError(f"must be 2 or 3, got {self.rwd_classes}", "rwd_classes")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"must be in [0, 1), got {self.dropout}", "dropout")
        if self.seed < 0:
            raise ConfigError(f"must be >= 0, got {self.seed}", "seed")

    @property
    def parameter_count(self) -> int:
        """The number of float64 values in the model's parameters."""
        V, H, F, C = self.vocab_size, self.hidden_dim, self.ffn_dim, self.rwd_classes
        per_layer = 4 * H * H + 2 * H * F + F + 8 * H  # attention, FFN, 3 biases, 2 LayerNorms
        return ((V + self.max_positions + H + C) * H + 5 * H + V + C
                + self.num_layers * per_layer)


class Parameter:
    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


@dataclass
class LossBreakdown:
    mlm_loss: float
    rwd_loss: float

    @property
    def total(self) -> float:
        return self.mlm_loss + self.rwd_loss


@dataclass
class StepMetrics:
    loss: LossBreakdown
    mlm_accuracy: float | None
    rwd_accuracy: float | None


@dataclass
class ForwardOutput:
    """Logits plus every layer's attention probabilities.

    ``mlm_logits`` is (M, V), one row per MLM-labelled position, and
    ``rwd_logits`` (N, C), one row per marker, both sorted by example, then
    position. ``attentions`` holds each layer's (B, heads, L, L)
    probabilities, the read-only arrays ``backward`` reads. ``rows`` holds
    the batch's padded ids and (example, position) rows, among them those
    of both logit arrays (``rows.mlm``, ``rows.markers``), which
    ``loss_and_gradients`` and ``backward`` read. ``_cache`` holds the
    activations needed for the backward pass.

    The MLM logits of a training pass (``train=True``) are the loss's to
    consume: ``loss_and_gradients`` writes their gradient over them.
    """

    mlm_logits: np.ndarray
    rwd_logits: np.ndarray
    attentions: list[np.ndarray] = field(default_factory=list)
    rows: _BatchRows | None = None
    _cache: dict = field(default_factory=dict, repr=False)


# --- primitive ops with explicit backward rules -------------------------------
#
# A forward op writes its results into ``out``: rows of the full-batch
# arrays that the encoder's batch halves share.

def _mean_last(x, out=None):
    """``x.mean(axis=-1, keepdims=True)`` to the bit (a sum, then a division
    by the count), without ``np.mean``'s Python-level overhead."""
    total = np.add.reduce(x, axis=-1, keepdims=True, out=out)
    total /= x.shape[-1]
    return total


def _layernorm_fwd(x, gamma, beta, out, eps=1e-12):
    """LayerNorm over the last axis: y, with the xhat and inv_std its
    backward pass reads, written into ``out`` = (y, xhat, inv_std)."""
    y, xhat, inv_std = out
    np.subtract(x, _mean_last(x), out=xhat)
    _mean_last(xhat * xhat, out=inv_std)  # = x.var
    inv_std += eps
    np.divide(1.0, np.sqrt(inv_std, out=inv_std), out=inv_std)
    xhat *= inv_std
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y


def _layernorm_dx(dy, xhat, inv_std, gamma):
    """LayerNorm's input gradient: row-local, unlike its parameter
    gradients (``_layernorm_dparams``)."""
    dxhat = dy * gamma
    return inv_std * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))


def _layernorm_dparams(dy, xhat):
    """(dgamma, dbeta): sums over every row."""
    width = xhat.shape[-1]
    return (dy * xhat).reshape(-1, width).sum(axis=0), dy.reshape(-1, width).sum(axis=0)


def _gelu_fwd(x, out):
    """gelu(x) = x * cdf(x), with the normal CDF, which ``_gelu_bwd``
    reuses, written into ``out`` = (gelu, cdf). scipy is imported here, on
    the first call, so that a process that never runs the model never
    loads it."""
    from scipy.special import erf

    act, cdf = out
    np.divide(x, _SQRT2, out=cdf)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return np.multiply(x, cdf, out=act)


def _gelu_bwd(dy, x, cdf):
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return dy * (cdf + x * pdf)


def _softmax_last(x, out):
    """The softmax of ``x`` over its last axis, into ``out``; ``x`` is
    overwritten."""
    x -= np.maximum.reduce(x, axis=-1, keepdims=True)  # x.max, without its Python wrapper
    np.exp(x, out=x)
    return np.divide(x, np.add.reduce(x, axis=-1, keepdims=True), out=out)


def _softmax_bwd(da, a):
    """The softmax's input gradient, in place of ``da``."""
    da -= (da * a).sum(axis=-1, keepdims=True)
    da *= a
    return da


def _matmul_grads(dy, x):
    """(dW, db) for y = x @ W + b with arbitrary leading dims."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    return x2.T @ dy2, dy2.sum(axis=0)


def _cross_entropy(logits, labels, grad=None, pred=None) -> float:
    """Mean cross-entropy of ``labels`` under the row-wise softmax of
    ``logits`` (rows, classes); zero for no rows. With ``grad`` (shaped
    like ``logits``, or ``logits`` itself), also writes there the loss's
    gradient with respect to ``logits``; with ``pred``, each row's argmax.
    A large input runs in two row halves on two threads."""
    m = len(labels)
    if not m:
        return 0.0
    terms = np.empty(m)

    def part(lo, hi):  # rows [lo, hi), in blocks of 8 rows, whose passes run in cache
        for a in range(lo, hi, 8):
            b = min(a + 8, hi)
            x, y, r = logits[a:b], labels[a:b], np.arange(b - a)
            if pred is None:
                top = x.max(axis=-1, keepdims=True)
            else:  # the max is the value at the argmax: no second scan
                x.argmax(axis=-1, out=pred[a:b])
                top = np.take_along_axis(x, pred[a:b, None], axis=-1)
            e = np.subtract(x, top, out=None if grad is None else grad[a:b])
            picked = e[r, y]
            np.exp(e, out=e)
            total = e.sum(axis=-1)
            np.subtract(np.log(total), picked, out=terms[a:b])
            if grad is not None:
                e *= (1.0 / (total * m))[:, None]
                e[r, y] -= 1.0 / m

    _halves(_pool(logits.size, _SPLIT_MIN_ELEMENTS), part, m)
    return float(np.mean(terms))


def _pool(elements: int, minimum: int) -> ThreadPoolExecutor | None:
    """The second thread for ``elements`` of work: None below ``minimum``
    (``_SPLIT_MIN_ELEMENTS`` or ``_ENCODER_SPLIT_MIN_ELEMENTS``) or where
    the process may use one core."""
    if elements < minimum:
        return None
    with _POOL_LOCK:
        if not _POOL:
            _POOL.append(ThreadPoolExecutor(1, thread_name_prefix="markkit-model")
                         if usable_cpus() > 1 else None)
        return _POOL[0]


def _run(pool: ThreadPoolExecutor | None, tasks) -> None:
    """Call every task, in order here when there is no pool. With a pool,
    the first task runs here while the others run on the pool, each in a
    copy of the caller's context (which holds its ``np.errstate``); once
    all are done, the first exception in task order is re-raised."""
    if pool is None:
        for task in tasks:
            task()
        return
    futures = [pool.submit(contextvars.copy_context().run, task) for task in tasks[1:]]
    try:
        tasks[0]()
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _halves(pool: ThreadPoolExecutor | None, fn, n: int, align: int = 1) -> None:
    """``fn(lo, hi)`` over ``[0, n)``: as two halves on ``pool``, cut at a
    multiple of ``align``, or in one call when there is no pool or cut."""
    mid = n // 2 // align * align
    if pool is None or not mid:
        fn(0, n)
    else:
        _run(pool, (partial(fn, 0, mid), partial(fn, mid, n)))


def _rows(lo, hi, *arrays):
    """Rows ``[lo, hi)`` of each array: the share of one batch half."""
    return [a[lo:hi] for a in arrays]


def _heads(nh, a):
    """The (n, nh, L, H / nh) view of the heads of an (n, L, H) array."""
    n, length, width = a.shape
    return a.reshape(n, length, nh, width // nh).transpose(0, 2, 1, 3)


def _physical_memory() -> int | None:
    """The host's physical memory in bytes, where the platform reports it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


class MarkBert:
    """Encoder + heads. Construction is deterministic given cfg.seed."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.params: dict[str, Parameter] = {}
        self._dropout_rng = np.random.default_rng(cfg.seed + 1)
        largest = max(("vocab_size", "hidden_dim", "num_layers", "ffn_dim", "max_positions"),
                      key=lambda name: getattr(cfg, name))
        needed, memory = 16 * cfg.parameter_count, _physical_memory()  # values and gradients
        if memory is not None and needed > memory:
            raise ConfigError(f"is too large: {getattr(cfg, largest)} gives parameters whose "
                              f"values and gradients need {needed} bytes, more than the "
                              f"{memory} bytes of physical memory", largest)
        try:
            self._init_params(np.random.default_rng(cfg.seed))
        except (MemoryError, OverflowError, ValueError) as exc:  # numpy refused a table's size
            raise ConfigError(f"is too large: {getattr(cfg, largest)} gives a parameter table "
                              f"numpy cannot allocate ({exc})", largest) from None

    def _init_params(self, rng: np.random.Generator) -> None:
        cfg = self.cfg
        H, F, V = cfg.hidden_dim, cfg.ffn_dim, cfg.vocab_size

        def register(name, value):
            self.params[name] = Parameter(name, value)

        def xavier(fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))

        register("token_embedding", rng.normal(0.0, H ** -0.5, size=(V, H)))
        register("position_embedding", rng.normal(0.0, H ** -0.5, size=(cfg.max_positions, H)))
        register("embedding_ln.gamma", np.ones(H))
        register("embedding_ln.beta", np.zeros(H))
        for i in range(cfg.num_layers):
            p = f"layer{i}."
            register(p + "attn.q_w", xavier(H, H))
            register(p + "attn.q_b", np.zeros(H))
            # no key bias: softmax scores are invariant to a constant shift
            # across keys, so the parameter would be unidentifiable
            register(p + "attn.k_w", xavier(H, H))
            register(p + "attn.v_w", xavier(H, H))
            register(p + "attn.v_b", np.zeros(H))
            register(p + "attn.out_w", xavier(H, H))
            register(p + "attn.out_b", np.zeros(H))
            register(p + "ln1.gamma", np.ones(H))
            register(p + "ln1.beta", np.zeros(H))
            register(p + "ffn.w1", xavier(H, F))
            register(p + "ffn.b1", np.zeros(F))
            register(p + "ffn.w2", xavier(F, H))
            register(p + "ffn.b2", np.zeros(H))
            register(p + "ln2.gamma", np.ones(H))
            register(p + "ln2.beta", np.zeros(H))
        register("mlm.dense_w", xavier(H, H))
        register("mlm.dense_b", np.zeros(H))
        register("mlm.ln.gamma", np.ones(H))
        register("mlm.ln.beta", np.zeros(H))
        register("mlm.bias", np.zeros(V))
        register("rwd.w", xavier(H, cfg.rwd_classes))
        register("rwd.b", np.zeros(cfg.rwd_classes))

    # -- bookkeeping -----------------------------------------------------

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def _p(self, name: str) -> np.ndarray:
        return self.params[name].value

    def _g(self, name: str) -> np.ndarray:
        return self.params[name].grad

    # -- forward -----------------------------------------------------------

    def _dropout_mask(self, shape, train):
        """A scaled keep mask, or None when no dropout applies."""
        rate = self.cfg.dropout
        if not train or rate == 0.0:
            return None
        return (self._dropout_rng.random(shape) >= rate) / (1.0 - rate)

    def check_batch(self, batch: Sequence[PretrainingExample]) -> _BatchRows:
        """The rows of ``batch``, or an InputError if an example is longer than
        ``max_positions`` or an input or MLM label id is outside the vocabulary."""
        cfg = self.cfg
        rows = _batch_rows(batch, cfg.rwd_classes)
        L = rows.ids.shape[1]
        if L > cfg.max_positions:
            raise InputError(f"sequence length {L} exceeds max_positions={cfg.max_positions}")
        _check_token_ids("token id", rows.ids, cfg.vocab_size)
        _check_token_ids("MLM label token id", rows.mlm_labels, cfg.vocab_size)
        return rows

    def forward(self, batch: Sequence[PretrainingExample], *,
                train: bool = False) -> ForwardOutput:
        """Run the encoder and both heads (see :class:`ForwardOutput`)."""
        return self._forward(self.check_batch(batch), train)

    def _forward(self, rows: _BatchRows, train: bool) -> ForwardOutput:
        """:meth:`forward` on the rows :meth:`check_batch` returned."""
        cfg = self.cfg
        B, L = rows.ids.shape
        cache: dict = {"layers": [], "train": train}
        if L == 0:
            return ForwardOutput(mlm_logits=np.zeros((0, cfg.vocab_size)),
                                 rwd_logits=np.zeros((0, cfg.rwd_classes)),
                                 rows=rows, _cache=cache)

        H, F, nh = cfg.hidden_dim, cfg.ffn_dim, cfg.num_heads
        scale = (H // nh) ** -0.5
        heads = partial(_heads, nh)
        key_mask = np.where(rows.valid, 0.0, _NEG_INF)[:, None, None, :]  # (B,1,1,L)
        p = self._p

        def acts(width=H):
            return np.empty((B, L, width))

        # Every activation the backward pass reads is a full-batch array made
        # here; the halves write their rows into it. The dropout masks are
        # drawn here too, in layer order.
        cache.update(emb_drop=self._dropout_mask((B, L, H), train),
                     emb_ln=(acts(), acts(), acts(1)))
        x = cache["emb_ln"][0]
        for _ in range(cfg.num_layers):
            lc = {"x": x, "attn_drop": self._dropout_mask((B, L, H), train)}
            lc["ffn_drop"] = self._dropout_mask((B, L, H), train)
            lc.update(q=acts(), k=acts(), v=acts(), probs=np.empty((B, nh, L, L)), ctx=acts(),
                      ln1=(acts(), acts(), acts(1)), pre1=acts(F), act=acts(F), cdf=acts(F),
                      ln2=(acts(), acts(), acts(1)))
            cache["layers"].append(lc)
            x = lc["ln2"][0]
        cache.update(hidden=x, t1=acts(), t1_cdf=acts(), mlm_ln=(acts(), acts(), acts(1)))

        def encode(lo, hi):  # examples [lo, hi), from the embedding to the MLM transform
            at = partial(_rows, lo, hi)
            emb = p("token_embedding")[rows.ids[lo:hi]] + p("position_embedding")[:L][None]
            h = _layernorm_fwd(emb, p("embedding_ln.gamma"), p("embedding_ln.beta"),
                               at(*cache["emb_ln"]))
            if cache["emb_drop"] is not None:
                h *= cache["emb_drop"][lo:hi]
            for i, lc in enumerate(cache["layers"]):
                pre = f"layer{i}."
                q, k, v, ctx, probs = at(lc["q"], lc["k"], lc["v"], lc["ctx"], lc["probs"])
                np.matmul(h, p(pre + "attn.q_w"), out=q)
                q += p(pre + "attn.q_b")
                np.matmul(h, p(pre + "attn.k_w"), out=k)
                np.matmul(h, p(pre + "attn.v_w"), out=v)
                v += p(pre + "attn.v_b")
                scores = heads(q) @ heads(k).transpose(0, 1, 3, 2)
                scores *= scale
                scores += key_mask[lo:hi]
                _softmax_last(scores, probs)
                np.matmul(probs, heads(v), out=heads(ctx))
                attn_out = ctx @ p(pre + "attn.out_w") + p(pre + "attn.out_b")
                if lc["attn_drop"] is not None:
                    attn_out *= lc["attn_drop"][lo:hi]
                h1 = _layernorm_fwd(h + attn_out, p(pre + "ln1.gamma"), p(pre + "ln1.beta"),
                                    at(*lc["ln1"]))
                pre1, act, cdf = at(lc["pre1"], lc["act"], lc["cdf"])
                np.matmul(h1, p(pre + "ffn.w1"), out=pre1)
                pre1 += p(pre + "ffn.b1")
                _gelu_fwd(pre1, (act, cdf))
                ffn_out = act @ p(pre + "ffn.w2") + p(pre + "ffn.b2")
                if lc["ffn_drop"] is not None:
                    ffn_out *= lc["ffn_drop"][lo:hi]
                h = _layernorm_fwd(h1 + ffn_out, p(pre + "ln2.gamma"), p(pre + "ln2.beta"),
                                   at(*lc["ln2"]))
            t1, t1_cdf = at(cache["t1"], cache["t1_cdf"])
            np.matmul(h, p("mlm.dense_w"), out=t1)
            t1 += p("mlm.dense_b")
            t2 = _gelu_fwd(t1, (np.empty_like(t1), t1_cdf))
            _layernorm_fwd(t2, p("mlm.ln.gamma"), p("mlm.ln.beta"), at(*cache["mlm_ln"]))

        _halves(_pool(B * L * H, _ENCODER_SPLIT_MIN_ELEMENTS), encode, B)

        t3 = cache["t3"] = cache["mlm_ln"][0]
        x, emb, bias = t3[rows.mlm], p("token_embedding"), p("mlm.bias")
        mlm_logits = np.empty((len(x), cfg.vocab_size))

        def project(lo, hi):  # the logits of vocabulary entries [lo, hi)
            np.matmul(x, emb[lo:hi].T, out=mlm_logits[:, lo:hi])
            mlm_logits[:, lo:hi] += bias[lo:hi]

        # below V = 1,024 a cut can round the last columns differently (seen at V = 250, 300)
        pool = _pool(mlm_logits.size, _SPLIT_MIN_ELEMENTS) if cfg.vocab_size >= 1024 else None
        _halves(pool, project, cfg.vocab_size, align=64)

        rwd_logits = cache["hidden"][rows.markers] @ p("rwd.w") + p("rwd.b")
        attentions = [lc["probs"] for lc in cache["layers"]]
        for probs in attentions:
            probs.flags.writeable = False  # ``backward`` reads them
        return ForwardOutput(mlm_logits=mlm_logits, rwd_logits=rwd_logits,
                             attentions=attentions, rows=rows, _cache=cache)

    # -- backward ----------------------------------------------------------

    def backward(self, out: ForwardOutput, dmlm_logits: np.ndarray,
                 drwd_logits: np.ndarray) -> None:
        """Accumulate parameter gradients for the given logit gradients."""
        cache = out._cache
        ids, markers = out.rows.ids, out.rows.markers
        B, L = ids.shape
        if L == 0:
            return
        cfg = self.cfg
        H, nh = cfg.hidden_dim, cfg.num_heads
        scale = (H // nh) ** -0.5
        heads = partial(_heads, nh)
        p, grad = self._p, self._g

        # MLM head: only the labelled rows have logits and receive a gradient.
        # The weight gradient is dlogits^T x taken as (x^T dlogits)^T, the
        # layout BLAS runs faster. With OpenBLAS the two agree bit for bit
        # when V is a multiple of 8; otherwise the last V mod 8 rows can
        # round differently.
        t3, mlm = cache["t3"], out.rows.mlm
        dt3 = np.zeros_like(t3)

        def weight_grads():
            grad("token_embedding")[...] += (t3[mlm].T @ dmlm_logits).T
            grad("mlm.bias")[...] += dmlm_logits.sum(axis=0)

        def input_grad():
            dt3[mlm] = dmlm_logits @ p("token_embedding")

        # the weight gradient runs here: a pool thread's malloc arena would
        # keep its (H, V) temporary, about 11 MB at V = 21,128
        _run(_pool(dmlm_logits.size, _SPLIT_MIN_ELEMENTS), (weight_grads, input_grad))

        # RWD head
        grad("rwd.w")[...] += cache["hidden"][markers].T @ drwd_logits
        grad("rwd.b")[...] += drwd_logits.sum(axis=0)
        dh_rwd = np.zeros_like(t3)
        dh_rwd[markers] = drwd_logits @ p("rwd.w").T

        # Pass 1, in batch halves: the row-local input gradients. The output
        # gradient of every matmul and LayerNorm is kept in a full-batch array
        # for pass 2.
        def dys(width=H):
            return np.empty((B, L, width))

        dt1 = dys()
        layer_dys = [{"ln2": dys(), "ffn": dys(), "pre1": dys(cfg.ffn_dim), "ln1": dys(),
                      "attn": dys(), "q": dys(), "k": dys(), "v": dys()}
                     for _ in range(cfg.num_layers)]
        demb_ln, demb = dys(), dys()

        def chain(lo, hi):  # examples [lo, hi)
            at = partial(_rows, lo, hi)
            xhat, inv_std = at(*cache["mlm_ln"][1:])
            dt2 = _layernorm_dx(dt3[lo:hi], xhat, inv_std, p("mlm.ln.gamma"))
            dt1[lo:hi] = _gelu_bwd(dt2, *at(cache["t1"], cache["t1_cdf"]))
            dhid = layer_dys[-1]["ln2"][lo:hi]
            np.matmul(dt1[lo:hi], p("mlm.dense_w").T, out=dhid)
            dhid += dh_rwd[lo:hi]
            for i in reversed(range(cfg.num_layers)):
                pre, lc, dy = f"layer{i}.", cache["layers"][i], layer_dys[i]
                xhat, inv_std = at(*lc["ln2"][1:])
                dsum2 = _layernorm_dx(dhid, xhat, inv_std, p(pre + "ln2.gamma"))
                dffn_out = dy["ffn"][lo:hi]
                dffn_out[...] = dsum2 if lc["ffn_drop"] is None else dsum2 * lc["ffn_drop"][lo:hi]
                dact = dffn_out @ p(pre + "ffn.w2").T
                dpre1 = dy["pre1"][lo:hi]
                dpre1[...] = _gelu_bwd(dact, *at(lc["pre1"], lc["cdf"]))
                dh1 = dy["ln1"][lo:hi]
                np.add(dsum2, dpre1 @ p(pre + "ffn.w1").T, out=dh1)

                xhat, inv_std = at(*lc["ln1"][1:])
                dsum1 = _layernorm_dx(dh1, xhat, inv_std, p(pre + "ln1.gamma"))
                dattn_out = dy["attn"][lo:hi]
                dattn_out[...] = (dsum1 if lc["attn_drop"] is None
                                  else dsum1 * lc["attn_drop"][lo:hi])
                dctx = heads(dattn_out @ p(pre + "attn.out_w").T)
                q, k, v, probs = at(lc["q"], lc["k"], lc["v"], lc["probs"])
                dprobs = dctx @ heads(v).transpose(0, 1, 3, 2)
                np.matmul(probs.transpose(0, 1, 3, 2), dctx, out=heads(dy["v"][lo:hi]))
                dscores = _softmax_bwd(dprobs, probs)
                dscores *= scale
                np.matmul(dscores, heads(k), out=heads(dy["q"][lo:hi]))
                np.matmul(dscores.transpose(0, 1, 3, 2), heads(q), out=heads(dy["k"][lo:hi]))
                dhid = layer_dys[i - 1]["ln2"][lo:hi] if i else demb_ln[lo:hi]
                dhid[...] = dsum1  # residual path
                for name in "qkv":
                    dhid += dy[name][lo:hi] @ p(pre + f"attn.{name}_w").T
            if cache["emb_drop"] is not None:
                dhid *= cache["emb_drop"][lo:hi]
            xhat, inv_std = at(*cache["emb_ln"][1:])
            demb[lo:hi] = _layernorm_dx(dhid, xhat, inv_std, p("embedding_ln.gamma"))

        pool = _pool(B * L * H, _ENCODER_SPLIT_MIN_ELEMENTS)
        _halves(pool, chain, B)

        # Pass 2: every sum over the B x L rows, each as one whole-batch task,
        # the tasks shared between the two threads.
        def layernorm(prefix, dy, xhat):
            dg, db = _layernorm_dparams(dy, xhat)
            grad(prefix + "gamma")[...] += dg
            grad(prefix + "beta")[...] += db

        def matmul(w, b, dy, x):
            dw, db = _matmul_grads(dy, x)
            grad(w)[...] += dw
            if b is not None:
                grad(b)[...] += db

        def embeddings():
            np.add.at(grad("token_embedding"), ids.reshape(-1), demb.reshape(-1, H))
            grad("position_embedding")[:L] += demb.sum(axis=0)

        tasks = [partial(layernorm, "mlm.ln.", dt3, cache["mlm_ln"][1]),
                 partial(matmul, "mlm.dense_w", "mlm.dense_b", dt1, cache["hidden"])]
        for i in reversed(range(cfg.num_layers)):
            pre, lc, dy = f"layer{i}.", cache["layers"][i], layer_dys[i]
            tasks += [partial(layernorm, pre + "ln2.", dy["ln2"], lc["ln2"][1]),
                      partial(matmul, pre + "ffn.w2", pre + "ffn.b2", dy["ffn"], lc["act"]),
                      partial(matmul, pre + "ffn.w1", pre + "ffn.b1", dy["pre1"], lc["ln1"][0]),
                      partial(layernorm, pre + "ln1.", dy["ln1"], lc["ln1"][1]),
                      partial(matmul, pre + "attn.out_w", pre + "attn.out_b", dy["attn"],
                              lc["ctx"]),
                      partial(matmul, pre + "attn.q_w", pre + "attn.q_b", dy["q"], lc["x"]),
                      partial(matmul, pre + "attn.k_w", None, dy["k"], lc["x"]),
                      partial(matmul, pre + "attn.v_w", pre + "attn.v_b", dy["v"], lc["x"])]
        tasks += [partial(layernorm, "embedding_ln.", demb_ln, cache["emb_ln"][1]), embeddings]

        def reduce(lo, hi):
            for task in tasks[lo:hi]:
                task()

        _halves(pool, reduce, len(tasks))


# --- losses -------------------------------------------------------------------

class _BatchRows(NamedTuple):
    """A batch's padded token ids and valid mask, and the (example,
    position) rows both objectives gather."""

    ids: np.ndarray                         # (B, L): each example's ids, then 0 (PAD)
    valid: np.ndarray                       # (B, L): True at each example's own positions
    mlm: tuple[np.ndarray, np.ndarray]      # MLM-labelled, by example then position
    mlm_labels: np.ndarray
    markers: tuple[np.ndarray, np.ndarray]  # every marker: the rows of rwd_logits
    rwd: np.ndarray                         # marker rows that carry detection loss
    rwd_labels: np.ndarray                  # their class ids (confusion = 1 of 2 classes)


def _check_token_ids(kind: str, ids: np.ndarray, vocab_size: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise InputError(f"{kind} out of range for vocab_size={vocab_size}: "
                         f"[{ids.min()}, {ids.max()}]")


def _int_array(values, shape) -> np.ndarray:
    """``values`` as an intp array of ``shape``, or, with one beyond int64,
    as Python ints, kept for the range check."""
    try:
        return np.array(values, dtype=np.intp).reshape(shape)
    except OverflowError:
        return np.array(values, dtype=object).reshape(shape)


def _batch_rows(batch: Sequence[PretrainingExample], rwd_classes: int) -> _BatchRows:
    lengths = [ex.attention_len for ex in batch]
    L = max(lengths, default=0)
    ids: list[int] = []
    mlm: list[tuple[int, int, int]] = []
    markers: list[tuple[int, int]] = []
    rwd: list[tuple[int, int]] = []
    for i, ex in enumerate(batch):
        ids.extend(ex.input_ids)
        ids.extend([0] * (L - lengths[i]))  # padded keys are masked out
        mlm.extend((i, pos, label) for pos, label in sorted(ex.mlm_labels.items()))
        for pos in ex.marker_positions:
            if ex.rwd_loss_mask.get(pos, False):
                rwd.append((len(markers), ex.rwd_labels[pos]))
            markers.append((i, pos))
    mlm_i, mlm_p, mlm_labels = _int_array(mlm, (-1, 3)).T
    marker_i, marker_p = np.array(markers, dtype=np.intp).reshape(-1, 2).T
    rwd_rows, rwd_labels = np.array(rwd, dtype=np.intp).reshape(-1, 2).T
    if rwd_classes == 2:
        rwd_labels = (rwd_labels != RwdLabel.NORMAL).astype(np.intp)
    valid = np.arange(L) < np.array(lengths, dtype=np.intp)[:, None]
    return _BatchRows(_int_array(ids, (len(batch), L)), valid,
                      (mlm_i, mlm_p), mlm_labels, (marker_i, marker_p), rwd_rows, rwd_labels)


def _head_loss(logits: np.ndarray, labels: np.ndarray, grad: np.ndarray):
    """One head's loss and accuracy (None for no rows), with its logit
    gradient written into ``grad``, which may be ``logits``."""
    pred = np.empty(len(logits), dtype=np.intp)
    loss = _cross_entropy(logits, labels, grad, pred)
    return loss, float(np.mean(pred == labels)) if len(labels) else None


def _loss_rows(out: ForwardOutput, batch: Sequence[PretrainingExample],
               rwd_classes: int) -> _BatchRows:
    """The batch's rows: from ``out.rows`` when ``forward`` built ``out``,
    else from ``batch``."""
    rows = out.rows if out.rows is not None else _batch_rows(batch, rwd_classes)
    if len(out.mlm_logits) != len(rows.mlm_labels):
        raise InputError(f"{len(out.mlm_logits)} MLM logit rows for "
                         f"{len(rows.mlm_labels)} labelled positions")
    return rows


def loss_and_gradients(out: ForwardOutput, batch: Sequence[PretrainingExample],
                       rwd_classes: int = 3):
    """Losses and accuracies (:class:`StepMetrics`) plus the gradients of
    the total loss with respect to both logit tensors, each in the shape
    of its logits.

    Each loss is a mean over its included positions; an empty set
    contributes zero loss and zero gradient and has no accuracy.
    Gradients at unlabeled / excluded positions are exactly zero.

    The rows come from ``out.rows`` when ``forward`` built ``out`` (from
    ``batch``, with the model's ``rwd_classes``), else from ``batch``.

    The MLM logits of a training pass (``forward(..., train=True)``) are
    consumed: their gradient is written over them, and ``out.mlm_logits``
    is the returned MLM gradient. Any other output keeps its logits.
    """
    rows = _loss_rows(out, batch, rwd_classes)
    dmlm = out.mlm_logits if out._cache.get("train") else np.empty_like(out.mlm_logits)
    mlm_loss, mlm_acc = _head_loss(out.mlm_logits, rows.mlm_labels, dmlm)
    drwd_rows = out.rwd_logits[rows.rwd]  # a copy: its gradient goes over it
    rwd_loss, rwd_acc = _head_loss(drwd_rows, rows.rwd_labels, drwd_rows)
    drwd = np.zeros_like(out.rwd_logits)
    drwd[rows.rwd] = drwd_rows
    metrics = StepMetrics(loss=LossBreakdown(mlm_loss=mlm_loss, rwd_loss=rwd_loss),
                          mlm_accuracy=mlm_acc, rwd_accuracy=rwd_acc)
    return metrics, dmlm, drwd


def compute_loss(out: ForwardOutput, batch: Sequence[PretrainingExample],
                 rwd_classes: int = 3) -> LossBreakdown:
    """The losses of :func:`loss_and_gradients`, to the bit, without its
    logit gradients and accuracies."""
    rows = _loss_rows(out, batch, rwd_classes)
    return LossBreakdown(mlm_loss=_cross_entropy(out.mlm_logits, rows.mlm_labels),
                         rwd_loss=_cross_entropy(out.rwd_logits[rows.rwd], rows.rwd_labels))


def check_lr(lr: float) -> None:
    """The learning-rate rule of :func:`train_step` and ``pretrain --lr``."""
    if not (np.isfinite(lr) and lr >= 0):
        raise ConfigError(f"must be finite and >= 0, got {lr}", "lr")


def train_step(model: MarkBert, batch: Sequence[PretrainingExample],
               lr: float) -> StepMetrics:
    """One full-batch gradient-descent update on the total loss.

    The model is updated in place, in two row halves of every parameter
    once the model reaches ``_SPLIT_MIN_ELEMENTS`` parameters; afterwards
    each ``.grad`` holds the step applied, ``lr`` times the gradient (the
    gradient itself at ``lr`` 0, where nothing is applied). Metrics (loss
    and accuracies) are computed from the pre-update forward pass.
    """
    check_lr(lr)
    model.zero_grads()
    out = model.forward(batch, train=True)
    metrics, dmlm, drwd = loss_and_gradients(out, batch, model.cfg.rwd_classes)
    loss = metrics.loss
    if not np.isfinite(loss.total):
        raise TrainingError(
            f"non-finite loss: mlm={loss.mlm_loss!r} rwd={loss.rwd_loss!r}; "
            f"check learning rate and input ids")
    model.backward(out, dmlm, drwd)
    if lr:
        params = list(model.params.values())

        def update(lo, hi):  # rows [n * lo // 2, n * hi // 2) of each n-row parameter
            for p in params:
                rows = slice(len(p.value) * lo // 2, len(p.value) * hi // 2)
                step, value = p.grad[rows], p.value[rows]
                step *= lr
                value -= step

        _halves(_pool(model.cfg.parameter_count, _SPLIT_MIN_ELEMENTS), update, 2)
    return metrics


# --- verification helpers ------------------------------------------------------

def finite_difference_grads(model: MarkBert, batch: Sequence[PretrainingExample],
                            step: float = 1e-3) -> dict[str, np.ndarray]:
    """Central-difference gradients of the total loss, parameter by
    parameter. Quadratic cost; intended for toy configurations. The batch's
    rows are built once, for every forward pass."""
    rows = model.check_batch(batch)

    def total() -> float:
        out = model._forward(rows, train=False)
        return compute_loss(out, batch, model.cfg.rwd_classes).total

    grads: dict[str, np.ndarray] = {}
    for name, param in model.params.items():
        grad = np.zeros_like(param.value)
        flat = param.value.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + step
            plus = total()
            flat[j] = original - step
            minus = total()
            flat[j] = original
            gflat[j] = (plus - minus) / (2.0 * step)
        grads[name] = grad
    return grads


def analytic_grads(model: MarkBert, batch: Sequence[PretrainingExample]) -> dict[str, np.ndarray]:
    model.zero_grads()
    out = model.forward(batch)
    _, dmlm, drwd = loss_and_gradients(out, batch, model.cfg.rwd_classes)
    model.backward(out, dmlm, drwd)
    return {name: p.grad.copy() for name, p in model.params.items()}


# --- attention export -----------------------------------------------------------

def export_attention(out: ForwardOutput, batch: Sequence[PretrainingExample],
                     vocab: Vocab) -> dict:
    """JSON-ready record of attention rows at marker positions.

    One entry per (example, layer, head, marker); weights are restricted
    to the example's unpadded length.
    """
    examples = []
    for i, ex in enumerate(batch):
        rows = [{"layer": layer, "head": head, "marker": pos,
                 "weights": probs[i, head, pos, :ex.attention_len].tolist()}
                for layer, probs in enumerate(out.attentions)
                for head in range(probs.shape[1]) for pos in ex.marker_positions]
        examples.append({"tokens": [vocab.tokens[t] for t in ex.input_ids],
                         "marker_positions": ex.marker_positions, "rows": rows})
    return {"num_layers": len(out.attentions),
            "num_heads": int(out.attentions[0].shape[1]) if out.attentions else 0,
            "examples": examples}


# --- checkpoint format -----------------------------------------------------------
#
# Layout: 8-byte magic "MARKKIT\0", little-endian u64 header length, UTF-8
# JSON header {"format", "version", "config", "tensors": [{name, shape,
# dtype, offset, nbytes}]}, then the concatenated C-order little-endian
# float64 tensor payloads at the stated offsets (relative to payload start).

def save_checkpoint(model: MarkBert, path: str | Path) -> None:
    """Write ``model`` to ``path``, each tensor straight from its parameter
    array; a file that cannot be written raises ResourceError."""
    values = [np.ascontiguousarray(p.value, dtype="<f8") for p in model.params.values()]
    tensors, offset = [], 0
    for name, value in zip(model.params, values):
        tensors.append({"name": name, "shape": list(value.shape),
                        "dtype": "<f8", "offset": offset, "nbytes": value.nbytes})
        offset += value.nbytes
    header = json.dumps({"format": "markkit-checkpoint", "version": 1,
                         "config": asdict(model.cfg), "tensors": tensors},
                        ensure_ascii=True, separators=(",", ":")).encode("utf-8")
    with opened(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<Q", len(header)) + header)
        for value in values:
            fh.write(value)


def _checkpoint_model(config, payload_bytes: int) -> MarkBert:
    """The model, before its tensors are read, of a checkpoint's config,
    built only once the payload is seen to hold that many parameters."""
    if not isinstance(config, dict):
        raise ParseError("checkpoint config is not a JSON object")
    kinds = {f.name: f.type for f in fields(ModelConfig)}  # "int" or "float"
    for key, value in config.items():
        if key not in kinds:
            raise ParseError(f"unknown checkpoint config key {key!r}")
        if type(value).__name__ not in {kinds[key], "int"}:
            raise ParseError(f"checkpoint config {key!r} must be {kinds[key]}, got {value!r}")
    try:
        cfg = ModelConfig(**config)
        if 8 * cfg.parameter_count > payload_bytes:
            raise ParseError(f"checkpoint config needs {8 * cfg.parameter_count} bytes of "
                             f"tensors, but the payload holds {payload_bytes}")
        return MarkBert(cfg)
    except (TypeError, ConfigError) as exc:
        raise ParseError(f"invalid checkpoint config: {exc}") from None


def load_checkpoint(path: str | Path) -> MarkBert:
    """Read a checkpoint, validating its whole layout: a malformed file of
    any kind raises ParseError, an unreadable one ResourceError. Each tensor
    is copied from the file's bytes into the new model's own arrays."""
    with opened(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MAGIC:
        raise ParseError(f"{path} is not a markkit checkpoint (bad magic)")
    if len(blob) < 16:
        raise ParseError(f"checkpoint {path} is truncated: {len(blob)} bytes")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a huge number, deep nesting
        raise ParseError(f"corrupt checkpoint header: {exc}") from exc
    if (not isinstance(header, dict) or header.get("format") != "markkit-checkpoint"
            or header.get("version") != 1):
        raise ParseError(f"unsupported checkpoint format/version in {path}")
    payload = memoryview(blob)[16 + header_len:]
    model = _checkpoint_model(header.get("config"), len(payload))
    tensors = header.get("tensors")
    if not isinstance(tensors, list) or not all(isinstance(t, dict) for t in tensors):
        raise ParseError("checkpoint tensors must be a list of objects")
    seen = set()
    for t in tensors:
        name = t.get("name")
        if not isinstance(name, str) or name not in model.params or name in seen:
            raise ParseError(f"unknown or repeated tensor {name!r} in checkpoint")
        param = model.params[name]
        shape = param.value.shape
        if t.get("shape") != list(shape):
            raise ParseError(f"tensor {name!r} has shape {t.get('shape')}, expected {shape}")
        if t.get("dtype") != "<f8":
            raise ParseError(f"tensor {name!r} has dtype {t.get('dtype')!r}, expected '<f8'")
        offset, nbytes = t.get("offset"), t.get("nbytes")
        if not (type(offset) is int and type(nbytes) is int and nbytes == param.value.nbytes
                and 0 <= offset <= len(payload) - nbytes):
            raise ParseError(f"tensor {name!r} at offset {offset!r} with {nbytes!r} bytes does "
                             f"not fit shape {shape} in a {len(payload)}-byte payload")
        param.value[...] = np.frombuffer(payload, "<f8", nbytes // 8, offset).reshape(shape)
        seen.add(name)
    missing = set(model.params) - seen
    if missing:
        raise ParseError("checkpoint is missing tensors: " + ", ".join(sorted(missing)))
    return model
