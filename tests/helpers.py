"""Shared generators and oracles for the confusion, CLI and NER tests and the
acceptance suite."""

import os
import random
import tempfile
from pathlib import Path

import numpy as np

import markkit
from markkit.errors import ParseError
from markkit.model import _gelu_bwd, _layernorm_dx
from markkit.ner import EntitySpan, SpanF1Counter
from markkit.resources import EMBEDDING_MAX_DIM, WordEmbeddings, load_embeddings, read_text
from markkit.segmenter import Segmentation, WordSpan

ENTITY_TYPES = ("LOC", "ORG", "PER")


def markkit_env(**overrides: str) -> dict[str, str]:
    """This process's environment, with ``overrides``, for a subprocess
    that imports markkit: its source directory goes first on PYTHONPATH,
    and what was there stays after it (so that a ``sitecustomize`` on it,
    such as ``scripts/line_census.py`` writes, still loads)."""
    path = [str(Path(markkit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **overrides}


def random_bmeso_tags(rng: random.Random, length: int) -> list[str]:
    """Well-formed BMESO tag sequence of the given length."""
    tags: list[str] = []
    while len(tags) < length:
        if rng.random() < 0.5:
            tags.append("O")
            continue
        entity = rng.choice(ENTITY_TYPES)
        span_len = rng.randint(1, min(4, length - len(tags)))
        if span_len == 1:
            tags.append(f"S-{entity}")
        else:
            tags.append(f"B-{entity}")
            tags.extend(f"M-{entity}" for _ in range(span_len - 2))
            tags.append(f"E-{entity}")
    return tags


def without_markers(marked):
    """The token ids of ``marked`` with every marker position removed."""
    markers = set(marked.marker_positions)
    return [tid for i, tid in enumerate(marked.ids) if i not in markers]


def write_conll(examples, path):
    """Write ``examples`` as the CoNLL text ``read_conll`` reads: one
    ``char<TAB>tag`` line per character, a blank line after each sentence."""
    text = "".join("".join(f"{c}\t{t}\n" for c, t in zip(ex.chars, ex.labels)) + "\n"
                   for ex in examples)
    Path(path).write_text(text, encoding="utf-8")


def random_segmentation(rng: random.Random, text: str) -> Segmentation:
    """Random tiling of ``text`` into 1-3 character words."""
    spans = []
    i = 0
    while i < len(text):
        length = rng.randint(1, min(3, len(text) - i))
        spans.append(WordSpan(i, i + length))
        i += length
    return Segmentation(text=text, spans=tuple(spans))


def reference_concat(segs) -> Segmentation:
    """The Segmentation of the sentences ``segs`` packed into one sequence,
    every span rebuilt with its offset re-based."""
    spans = []
    offset = 0
    for s in segs:
        spans.extend(WordSpan(sp.start + offset, sp.end + offset, pos=sp.pos) for sp in s.spans)
        offset += len(s.text)
    return Segmentation(text="".join(s.text for s in segs), spans=tuple(spans))


def brute_force_span_f1(pred, gold):
    """Oracle matcher: explicit pairwise comparison, no set operations."""
    pred_list, gold_list = list(pred), list(gold)
    tp = 0
    for p in pred_list:
        for g in gold_list:
            if (p.start, p.end, p.entity_type) == (g.start, g.end, g.entity_type):
                tp += 1
                break
    if pred_list:
        precision = tp / len(pred_list)
    else:
        precision = 1.0 if not gold_list else 0.0
    if gold_list:
        recall = tp / len(gold_list)
    else:
        recall = 1.0 if not pred_list else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def span_scores(pred, gold):
    """Precision, recall and F1 of one sentence's spans, as ``eval-ner``
    counts them."""
    counter = SpanF1Counter()
    counter.add(pred, gold)
    return counter.precision, counter.recall, counter.f1


def random_span_set(rng: random.Random, length: int, count: int) -> set[EntitySpan]:
    spans = set()
    for _ in range(count):
        start = rng.randrange(max(1, length))
        end = min(length, start + rng.randint(1, 3))
        if end > start:
            spans.add(EntitySpan(start, end, rng.choice(ENTITY_TYPES)))
    return spans


def reference_synonyms(word, emb, k):
    """Reference: score the word's whole same-length bucket, clip, and sort
    every other word by (descending score, word)."""
    if word not in emb:
        return []
    row = emb.row_index(word)
    bucket = [i for i, w in enumerate(emb.words) if len(w) == len(word)]
    sims = emb.unit_rows()[bucket] @ emb.unit_rows()[row]
    scored = [(float(min(max(sims[j], -1.0), 1.0)), emb.words[i])
              for j, i in enumerate(bucket) if i != row]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return scored[:k]


def reference_embeddings(path):
    """Reference: the whole-file loader. Decode the whole text, check the
    header against the non-blank lines, parse every line with ``float``
    (a row of the wrong length is rejected), normalize the whole matrix at
    once, keep each word's first usable row and sort by word length with
    :func:`reference_length_sort`."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError("missing header line", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must be '<count> <dim>', got {lines[0]!r}", 1)
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"header must be two integers, got {lines[0]!r}", 1) from None
    if count < 0 or dim <= 0:
        raise ParseError(f"invalid header values: count={count} dim={dim}", 1)
    if dim > EMBEDDING_MAX_DIM:
        raise ParseError(f"dim {dim} exceeds the largest supported dim {EMBEDDING_MAX_DIM}", 1)
    data = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(data) != count:
        raise ParseError(f"header declares {count} entries but file has {len(data)} rows")
    words, rows, rejected = [], [], 0
    for lineno, line in data:
        parts = line.split()
        try:
            values = [float(x) for x in parts[1:]]
        except ValueError:
            raise ParseError(f"non-numeric vector component in {line!r}", lineno) from None
        if len(values) != dim:
            rejected += 1
            continue
        rows.append(values)
        words.append(parts[0])
    matrix = np.array(rows, dtype=float).reshape(-1, dim)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    usable = (norms > 0.0) & (norms < np.inf)
    np.divide(matrix, norms, out=matrix, where=usable)
    first: dict[str, int] = {}
    for i in np.flatnonzero(usable):
        first.setdefault(words[i], int(i))
    return reference_length_sort(tuple(first), matrix, np.array(list(first.values()), dtype=int),
                                 rejected + len(words) - int(usable.sum()),
                                 int(usable.sum()) - len(first))


def reference_length_sort(words, rows, picks, rejected=0, duplicates_skipped=0):
    """Reference: the embeddings of the unit rows ``rows[picks]``
    (``words[i]`` names ``rows[picks[i]]``) sorted by word length with one
    stable argsort and one fancy-index copy, ``rows[picks[order]]``, as
    the loader did before it sorted in place. ``rows`` is left as it is."""
    order = np.argsort([len(w) for w in words], kind="stable")
    return WordEmbeddings(tuple(words[i] for i in order), rows[picks[order]], rejected,
                          duplicates_skipped)


def dense_mlm_logits(model, out):
    """Reference: the MLM head's vocabulary logits at every position of the
    batch, (B, L, V), from the head's hidden states in ``out``."""
    return out._cache["t3"] @ model.params["token_embedding"].value.T \
        + model.params["mlm.bias"].value


def hidden_grads(model, out, dmlm, drwd):
    """Reference: each head's contribution to the final hidden-state
    gradient, (B, L, H) apiece, as (MLM, RWD), recomputed from the
    activations in ``out`` and the model's parameters."""
    cache, p = out._cache, {name: prm.value for name, prm in model.params.items()}
    dt3 = np.zeros_like(cache["t3"])
    dt3[out.rows.mlm] = dmlm @ p["token_embedding"]
    dt2 = _layernorm_dx(dt3, *cache["mlm_ln"][1:], p["mlm.ln.gamma"])
    dh_mlm = _gelu_bwd(dt2, cache["t1"], cache["t1_cdf"]) @ p["mlm.dense_w"].T
    dh_rwd = np.zeros_like(cache["t3"])
    dh_rwd[out.rows.markers] = drwd @ p["rwd.w"].T
    return dh_mlm, dh_rwd


def embeddings_of(**vectors):
    """Embeddings holding the given word vectors, written as a word2vec text
    file (floats in round-trip form) and read back through load_embeddings."""
    rows = [" ".join([w, *map(repr, np.asarray(v, dtype=float).tolist())])
            for w, v in vectors.items()]
    dim = len(rows[0].split()) - 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "embeddings.txt"
        path.write_text("\n".join([f"{len(rows)} {dim}", *rows]) + "\n", encoding="utf-8")
        return load_embeddings(path)
