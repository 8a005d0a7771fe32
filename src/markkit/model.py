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

One helper walks the batch once and builds every (example, position)
index array both objectives gather: ``forward`` takes its MLM and marker
rows from it, and ``loss_and_gradients`` its losses, logit gradients and
accuracies (:class:`StepMetrics`).

The detection loss and the masked-LM loss are means over their included
positions and are summed unweighted into the total.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, InputError, ParseError, ResourceError, TrainingError
from .pretrain import PretrainingExample, RwdLabel

_NEG_INF = -1e30
_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_MAGIC = b"MARKKIT\x00"


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
        if self.vocab_size < 1:
            raise ConfigError(f"vocab_size must be positive, got {self.vocab_size}")
        for name in ("hidden_dim", "num_layers", "num_heads", "ffn_dim", "max_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim={self.hidden_dim} is not divisible by num_heads={self.num_heads}")
        if self.rwd_classes not in (2, 3):
            raise ConfigError(f"rwd_classes must be 2 or 3, got {self.rwd_classes}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


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
    """Logits plus (optionally) captured attention probabilities.

    ``mlm_logits`` is (M, V): one row per MLM-labelled position, sorted by
    example, then position. ``forward`` records the (example, position)
    index arrays of those rows in ``mlm_rows``.
    ``rwd_logits[i]`` has one row per marker of example ``i``, in
    ascending marker-position order. ``_cache`` holds the activations
    needed for the backward pass, among them the marker rows.
    """

    mlm_logits: np.ndarray
    rwd_logits: list[np.ndarray]
    attentions: list[np.ndarray] | None = None
    mlm_rows: tuple[np.ndarray, np.ndarray] | None = None
    _cache: dict = field(default_factory=dict, repr=False)


# --- primitive ops with explicit backward rules -------------------------------

def _layernorm_fwd(x, gamma, beta, eps=1e-12):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    return xhat * gamma + beta, (xhat, inv_std)


def _layernorm_bwd(dy, cache, gamma):
    xhat, inv_std = cache
    dgamma = (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0)
    dbeta = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dxhat = dy * gamma
    dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dgamma, dbeta


def _gelu_fwd(x):
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def _gelu_bwd(dy, x):
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return dy * (cdf + x * pdf)


def _softmax_last(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_bwd(da, a):
    return a * (da - (da * a).sum(axis=-1, keepdims=True))


def _matmul_grads(dy, x):
    """(dW, db) for y = x @ W + b with arbitrary leading dims."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    return x2.T @ dy2, dy2.sum(axis=0)


def _cross_entropy(logits, labels):
    """Mean cross-entropy of ``labels`` under the row-wise softmax of
    ``logits`` (rows, classes), and its gradient with respect to
    ``logits``. No rows: zero loss and an empty gradient."""
    m = len(labels)
    if not m:
        return 0.0, np.zeros_like(logits)
    rows = np.arange(m)
    grad = logits - logits.max(axis=-1, keepdims=True)
    picked = grad[rows, labels]
    np.exp(grad, out=grad)
    total = grad.sum(axis=-1)
    loss = float(np.mean(np.log(total) - picked))
    grad *= (1.0 / (total * m))[:, None]
    grad[rows, labels] -= 1.0 / m
    return loss, grad


class MarkBert:
    """Encoder + heads. Construction is deterministic given cfg.seed."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.params: dict[str, Parameter] = {}
        self._dropout_rng = np.random.default_rng(cfg.seed + 1)
        rng = np.random.default_rng(cfg.seed)
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

    def _batchify(self, batch: Sequence[PretrainingExample]):
        if not batch:
            return np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0), dtype=bool)
        L = max(ex.attention_len for ex in batch)
        pad = 0  # conventional PAD id; padded positions are masked out anyway
        ids = np.full((len(batch), L), pad, dtype=np.int64)
        valid = np.zeros((len(batch), L), dtype=bool)
        for i, ex in enumerate(batch):
            n = ex.attention_len
            ids[i, :n] = ex.input_ids
            valid[i, :n] = True
        return ids, valid

    def _dropout(self, x, train, cache, key):
        rate = self.cfg.dropout
        if not train or rate == 0.0:
            return x
        mask = (self._dropout_rng.random(x.shape) >= rate) / (1.0 - rate)
        cache[key] = mask
        return x * mask

    def forward(self, batch: Sequence[PretrainingExample], *,
                capture_attention: bool = False, train: bool = False) -> ForwardOutput:
        """Run the encoder and both heads (see :class:`ForwardOutput`)."""
        cfg = self.cfg
        ids, valid = self._batchify(batch)
        B, L = ids.shape
        if L > cfg.max_positions:
            raise InputError(f"sequence length {L} exceeds max_positions={cfg.max_positions}")
        _check_token_ids("token id", ids, cfg.vocab_size)
        rows = _batch_rows(batch, cfg.rwd_classes)
        _check_token_ids("MLM label token id", rows.mlm_labels, cfg.vocab_size)
        cache: dict = {"ids": ids, "valid": valid, "markers": rows.markers,
                       "train": train, "layers": []}
        if L == 0:
            return ForwardOutput(mlm_logits=np.zeros((0, cfg.vocab_size)),
                                 rwd_logits=[np.zeros((0, cfg.rwd_classes)) for _ in batch],
                                 attentions=[] if capture_attention else None,
                                 mlm_rows=rows.mlm, _cache=cache)

        H = cfg.hidden_dim
        nh = cfg.num_heads
        dh = H // nh
        scale = dh ** -0.5
        key_mask = np.where(valid, 0.0, _NEG_INF)[:, None, None, :]  # (B,1,1,L)

        emb = self._p("token_embedding")[ids] + self._p("position_embedding")[:L][None]
        h, ln_cache = _layernorm_fwd(emb, self._p("embedding_ln.gamma"),
                                     self._p("embedding_ln.beta"))
        cache["emb_ln"] = ln_cache
        h = self._dropout(h, train, cache, "emb_drop")

        attentions: list[np.ndarray] = []
        for i in range(cfg.num_layers):
            p = f"layer{i}."
            lc: dict = {"x": h}
            q = h @ self._p(p + "attn.q_w") + self._p(p + "attn.q_b")
            k = h @ self._p(p + "attn.k_w")
            v = h @ self._p(p + "attn.v_w") + self._p(p + "attn.v_b")
            q = q.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
            k = k.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
            v = v.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
            scores = (q @ k.transpose(0, 1, 3, 2)) * scale + key_mask
            probs = _softmax_last(scores)
            ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(B, L, H)
            attn_out = ctx @ self._p(p + "attn.out_w") + self._p(p + "attn.out_b")
            attn_out = self._dropout(attn_out, train, lc, "attn_drop")
            lc.update(q=q, k=k, v=v, probs=probs, ctx=ctx)
            h1, lc["ln1"] = _layernorm_fwd(h + attn_out, self._p(p + "ln1.gamma"),
                                           self._p(p + "ln1.beta"))
            lc["h1"] = h1
            pre1 = h1 @ self._p(p + "ffn.w1") + self._p(p + "ffn.b1")
            act = _gelu_fwd(pre1)
            ffn_out = act @ self._p(p + "ffn.w2") + self._p(p + "ffn.b2")
            ffn_out = self._dropout(ffn_out, train, lc, "ffn_drop")
            lc.update(pre1=pre1, act=act)
            h, lc["ln2"] = _layernorm_fwd(h1 + ffn_out, self._p(p + "ln2.gamma"),
                                          self._p(p + "ln2.beta"))
            cache["layers"].append(lc)
            if capture_attention:
                attentions.append(probs.copy())

        cache["hidden"] = h

        t1 = h @ self._p("mlm.dense_w") + self._p("mlm.dense_b")
        t2 = _gelu_fwd(t1)
        t3, cache["mlm_ln"] = _layernorm_fwd(t2, self._p("mlm.ln.gamma"),
                                             self._p("mlm.ln.beta"))
        mlm_logits = t3[rows.mlm] @ self._p("token_embedding").T
        mlm_logits += self._p("mlm.bias")
        cache.update(t1=t1, t3=t3)

        markers = cache["markers"]
        rwd = h[markers] @ self._p("rwd.w") + self._p("rwd.b")
        rwd_logits = np.split(rwd, np.searchsorted(markers[0], np.arange(1, B)))

        return ForwardOutput(mlm_logits=mlm_logits, rwd_logits=rwd_logits,
                             attentions=attentions if capture_attention else None,
                             mlm_rows=rows.mlm, _cache=cache)

    # -- backward ----------------------------------------------------------

    def backward(self, out: ForwardOutput, dmlm_logits: np.ndarray,
                 drwd_logits: Sequence[np.ndarray]) -> None:
        """Accumulate parameter gradients for the given logit gradients.

        The per-head contributions to the final hidden-state gradient are
        kept in the cache (``dh_mlm``, ``dh_rwd``) for inspection.
        """
        cache = out._cache
        ids, valid, markers = cache["ids"], cache["valid"], cache["markers"]
        B, L = ids.shape
        if L == 0:
            return
        cfg = self.cfg
        H, nh = cfg.hidden_dim, cfg.num_heads
        dh = H // nh
        scale = dh ** -0.5

        # MLM head: only the labelled rows have logits and receive a gradient
        t3 = cache["t3"]
        dt3 = np.zeros_like(t3)
        dt3[out.mlm_rows] = dmlm_logits @ self._p("token_embedding")
        self._g("token_embedding")[...] += dmlm_logits.T @ t3[out.mlm_rows]
        self._g("mlm.bias")[...] += dmlm_logits.sum(axis=0)
        dt2, dg, db = _layernorm_bwd(dt3, cache["mlm_ln"], self._p("mlm.ln.gamma"))
        self._g("mlm.ln.gamma")[...] += dg
        self._g("mlm.ln.beta")[...] += db
        dt1 = _gelu_bwd(dt2, cache["t1"])
        dwd, dbd = _matmul_grads(dt1, cache["hidden"])
        self._g("mlm.dense_w")[...] += dwd
        self._g("mlm.dense_b")[...] += dbd
        dh_mlm = dt1 @ self._p("mlm.dense_w").T

        # RWD head
        d = np.concatenate(drwd_logits).astype(np.float64, copy=False)
        self._g("rwd.w")[...] += cache["hidden"][markers].T @ d
        self._g("rwd.b")[...] += d.sum(axis=0)
        dh_rwd = np.zeros_like(dh_mlm)
        dh_rwd[markers] = d @ self._p("rwd.w").T
        cache["dh_mlm"] = dh_mlm
        cache["dh_rwd"] = dh_rwd

        dhid = dh_mlm + dh_rwd
        train = cache["train"]
        for i in reversed(range(cfg.num_layers)):
            p = f"layer{i}."
            lc = cache["layers"][i]
            dsum2, dg, db = _layernorm_bwd(dhid, lc["ln2"], self._p(p + "ln2.gamma"))
            self._g(p + "ln2.gamma")[...] += dg
            self._g(p + "ln2.beta")[...] += db
            dffn_out = dsum2
            if train and "ffn_drop" in lc:
                dffn_out = dffn_out * lc["ffn_drop"]
            dw2, db2 = _matmul_grads(dffn_out, lc["act"])
            self._g(p + "ffn.w2")[...] += dw2
            self._g(p + "ffn.b2")[...] += db2
            dact = dffn_out @ self._p(p + "ffn.w2").T
            dpre1 = _gelu_bwd(dact, lc["pre1"])
            dw1, db1 = _matmul_grads(dpre1, lc["h1"])
            self._g(p + "ffn.w1")[...] += dw1
            self._g(p + "ffn.b1")[...] += db1
            dh1 = dsum2 + dpre1 @ self._p(p + "ffn.w1").T

            dsum1, dg, db = _layernorm_bwd(dh1, lc["ln1"], self._p(p + "ln1.gamma"))
            self._g(p + "ln1.gamma")[...] += dg
            self._g(p + "ln1.beta")[...] += db
            dattn_out = dsum1
            if train and "attn_drop" in lc:
                dattn_out = dattn_out * lc["attn_drop"]
            dwo, dbo = _matmul_grads(dattn_out, lc["ctx"])
            self._g(p + "attn.out_w")[...] += dwo
            self._g(p + "attn.out_b")[...] += dbo
            dctx = (dattn_out @ self._p(p + "attn.out_w").T)
            dctx = dctx.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
            dprobs = dctx @ lc["v"].transpose(0, 1, 3, 2)
            dv = lc["probs"].transpose(0, 1, 3, 2) @ dctx
            dscores = _softmax_bwd(dprobs, lc["probs"]) * scale
            dq = dscores @ lc["k"]
            dk = dscores.transpose(0, 1, 3, 2) @ lc["q"]
            dx = dsum1  # residual path
            for name, dmat, has_bias in (("q", dq, True), ("k", dk, False),
                                         ("v", dv, True)):
                dflat = dmat.transpose(0, 2, 1, 3).reshape(B, L, H)
                dw, dbias = _matmul_grads(dflat, lc["x"])
                self._g(p + f"attn.{name}_w")[...] += dw
                if has_bias:
                    self._g(p + f"attn.{name}_b")[...] += dbias
                dx = dx + dflat @ self._p(p + f"attn.{name}_w").T
            dhid = dx

        if train and "emb_drop" in cache:
            dhid = dhid * cache["emb_drop"]
        demb, dg, db = _layernorm_bwd(dhid, cache["emb_ln"], self._p("embedding_ln.gamma"))
        self._g("embedding_ln.gamma")[...] += dg
        self._g("embedding_ln.beta")[...] += db
        np.add.at(self._g("token_embedding"), ids.reshape(-1), demb.reshape(-1, H))
        self._g("position_embedding")[:L] += demb.sum(axis=0)


# --- losses -------------------------------------------------------------------

class _BatchRows(NamedTuple):
    """The (example, position) rows both objectives gather from a batch."""

    mlm: tuple[np.ndarray, np.ndarray]      # MLM-labelled, by example then position
    mlm_labels: np.ndarray
    markers: tuple[np.ndarray, np.ndarray]  # every marker: the concatenated rwd_logits
    rwd: np.ndarray                         # marker rows that carry detection loss
    rwd_labels: np.ndarray                  # their class ids (confusion = 1 of 2 classes)


def _check_token_ids(kind: str, ids: np.ndarray, vocab_size: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise InputError(f"{kind} out of range for vocab_size={vocab_size}: "
                         f"[{ids.min()}, {ids.max()}]")


def _batch_rows(batch: Sequence[PretrainingExample], rwd_classes: int) -> _BatchRows:
    mlm: list[tuple[int, int, int]] = []
    markers: list[tuple[int, int]] = []
    rwd: list[tuple[int, int]] = []
    for i, ex in enumerate(batch):
        mlm.extend((i, pos, label) for pos, label in sorted(ex.mlm_labels.items()))
        for pos in ex.marker_positions:
            if ex.rwd_loss_mask.get(pos, False):
                rwd.append((len(markers), ex.rwd_labels[pos]))
            markers.append((i, pos))
    mlm_i, mlm_p, mlm_labels = np.array(mlm, dtype=np.intp).reshape(-1, 3).T
    marker_i, marker_p = np.array(markers, dtype=np.intp).reshape(-1, 2).T
    rwd_rows, rwd_labels = np.array(rwd, dtype=np.intp).reshape(-1, 2).T
    if rwd_classes == 2:
        rwd_labels = (rwd_labels != RwdLabel.NORMAL).astype(np.intp)
    return _BatchRows((mlm_i, mlm_p), mlm_labels, (marker_i, marker_p), rwd_rows, rwd_labels)


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float | None:
    return float(np.mean(logits.argmax(axis=-1) == labels)) if len(labels) else None


def loss_and_gradients(out: ForwardOutput, batch: Sequence[PretrainingExample],
                       rwd_classes: int = 3):
    """Losses and accuracies (:class:`StepMetrics`) plus the gradients of
    the total loss with respect to both logit tensors, each in the shape
    of its logits.

    Each loss is a mean over its included positions; an empty set
    contributes zero loss and zero gradient and has no accuracy.
    Gradients at unlabeled / excluded positions are exactly zero.
    """
    rows = _batch_rows(batch, rwd_classes)
    logits = out.mlm_logits
    if len(logits) != len(rows.mlm_labels):
        raise InputError(f"{len(logits)} MLM logit rows for "
                         f"{len(rows.mlm_labels)} labelled positions")
    mlm_loss, dmlm = _cross_entropy(logits, rows.mlm_labels)

    drwd = [np.zeros_like(r) for r in out.rwd_logits]
    rwd_loss, rwd_acc = 0.0, None
    if len(rows.rwd):
        rwd_logits = np.concatenate(out.rwd_logits)[rows.rwd]
        rwd_loss, g = _cross_entropy(rwd_logits, rows.rwd_labels)
        rwd_acc = _accuracy(rwd_logits, rows.rwd_labels)
        flat = np.concatenate(drwd)
        flat[rows.rwd] = g
        drwd = np.split(flat, np.cumsum([len(d) for d in drwd])[:-1])

    metrics = StepMetrics(loss=LossBreakdown(mlm_loss=mlm_loss, rwd_loss=rwd_loss),
                          mlm_accuracy=_accuracy(logits, rows.mlm_labels),
                          rwd_accuracy=rwd_acc)
    return metrics, dmlm, drwd


def compute_loss(out: ForwardOutput, batch: Sequence[PretrainingExample],
                 rwd_classes: int = 3) -> LossBreakdown:
    return loss_and_gradients(out, batch, rwd_classes)[0].loss


def train_step(model: MarkBert, batch: Sequence[PretrainingExample],
               lr: float) -> StepMetrics:
    """One full-batch gradient-descent update on the total loss.

    The model is updated in place. Metrics (loss and accuracies) are
    computed from the pre-update forward pass.
    """
    if not (np.isfinite(lr) and lr >= 0):
        raise ConfigError(f"learning rate must be finite and >= 0, got {lr}")
    model.zero_grads()
    out = model.forward(batch, train=model.cfg.dropout > 0.0)
    metrics, dmlm, drwd = loss_and_gradients(out, batch, model.cfg.rwd_classes)
    loss = metrics.loss
    if not np.isfinite(loss.total):
        raise TrainingError(
            f"non-finite loss: mlm={loss.mlm_loss!r} rwd={loss.rwd_loss!r}; "
            f"check learning rate and input ids")
    model.backward(out, dmlm, drwd)
    if lr:
        for p in model.params.values():
            p.value -= lr * p.grad
    return metrics


# --- verification helpers ------------------------------------------------------

def finite_difference_grads(model: MarkBert, batch: Sequence[PretrainingExample],
                            names: Sequence[str] | None = None,
                            step: float = 1e-3) -> dict[str, np.ndarray]:
    """Central-difference gradients of the total loss, parameter by
    parameter. Quadratic cost; intended for toy configurations."""

    def total() -> float:
        out = model.forward(batch)
        return compute_loss(out, batch, model.cfg.rwd_classes).total

    grads: dict[str, np.ndarray] = {}
    for name in (names if names is not None else model.params):
        value = model.params[name].value
        grad = np.zeros_like(value)
        flat = value.reshape(-1)
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
                     vocab=None) -> dict:
    """JSON-ready record of attention rows at marker positions.

    One entry per (example, layer, head, marker); weights are restricted
    to the example's unpadded length. Requires a forward pass run with
    ``capture_attention=True``.
    """
    if out.attentions is None:
        raise InputError("attention capture is disabled; run forward with "
                         "capture_attention=True")

    def label(token_id: int) -> str:
        return vocab.tokens[token_id] if vocab is not None else str(token_id)

    examples = []
    for i, ex in enumerate(batch):
        n = ex.attention_len
        markers = ex.marker_positions
        rows = []
        for layer, probs in enumerate(out.attentions):
            for head in range(probs.shape[1]):
                for pos in markers:
                    rows.append({
                        "layer": layer,
                        "head": head,
                        "marker": pos,
                        "weights": [float(w) for w in probs[i, head, pos, :n]],
                    })
        examples.append({
            "tokens": [label(t) for t in ex.input_ids],
            "marker_positions": markers,
            "rows": rows,
        })
    return {
        "num_layers": len(out.attentions),
        "num_heads": int(out.attentions[0].shape[1]) if out.attentions else 0,
        "examples": examples,
    }


# --- checkpoint format -----------------------------------------------------------
#
# Layout: 8-byte magic "MARKKIT\0", little-endian u64 header length, UTF-8
# JSON header {"format", "version", "config", "tensors": [{name, shape,
# dtype, offset, nbytes}]}, then the concatenated C-order little-endian
# float64 tensor payloads at the stated offsets (relative to payload start).

def save_checkpoint(model: MarkBert, path: str | Path) -> None:
    tensors = []
    payload = bytearray()
    for name, p in model.params.items():
        raw = np.ascontiguousarray(p.value, dtype="<f8").tobytes()
        tensors.append({"name": name, "shape": list(p.value.shape),
                        "dtype": "<f8", "offset": len(payload), "nbytes": len(raw)})
        payload.extend(raw)
    header = json.dumps({"format": "markkit-checkpoint", "version": 1,
                         "config": asdict(model.cfg), "tensors": tensors},
                        ensure_ascii=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(bytes(payload))


def _checkpoint_config(config) -> ModelConfig:
    if not isinstance(config, dict):
        raise ParseError("checkpoint config is not a JSON object")
    kinds = {f.name: f.type for f in fields(ModelConfig)}  # "int" or "float"
    for key, value in config.items():
        if key not in kinds:
            raise ParseError(f"unknown checkpoint config key {key!r}")
        if type(value).__name__ not in {kinds[key], "int"}:
            raise ParseError(f"checkpoint config {key!r} must be {kinds[key]}, got {value!r}")
    try:
        return ModelConfig(**config)
    except (TypeError, ConfigError) as exc:
        raise ParseError(f"invalid checkpoint config: {exc}") from None


def load_checkpoint(path: str | Path) -> MarkBert:
    """Read a checkpoint, validating its whole layout: a malformed file of
    any kind raises ParseError, an unreadable one ResourceError."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ResourceError(f"cannot read checkpoint {path}: {exc}") from exc
    if blob[:8] != _MAGIC:
        raise ParseError(f"{path} is not a markkit checkpoint (bad magic)")
    if len(blob) < 16:
        raise ParseError(f"checkpoint {path} is truncated: {len(blob)} bytes")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"corrupt checkpoint header: {exc}") from exc
    if (not isinstance(header, dict) or header.get("format") != "markkit-checkpoint"
            or header.get("version") != 1):
        raise ParseError(f"unsupported checkpoint format/version in {path}")
    model = MarkBert(_checkpoint_config(header.get("config")))
    tensors = header.get("tensors")
    if not isinstance(tensors, list) or not all(isinstance(t, dict) for t in tensors):
        raise ParseError("checkpoint tensors must be a list of objects")
    payload = blob[16 + header_len:]
    seen = set()
    for t in tensors:
        name = t.get("name")
        if name not in model.params or name in seen:
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
        raw = payload[offset:offset + nbytes]
        param.value = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
        param.grad = np.zeros_like(param.value)
        seen.add(name)
    missing = set(model.params) - seen
    if missing:
        raise ParseError("checkpoint is missing tensors: " + ", ".join(sorted(missing)))
    return model
