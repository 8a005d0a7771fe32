"""Spans and counters recorded from outside markkit.

``Tracer.install`` replaces public functions and methods of markkit's
modules with wrappers that record one span per call (name, start, end,
parent) plus per-call counters, and ``Tracer.remove`` restores the
originals. Spans stay in memory; ``self_ms`` subtracts the time of
direct child spans. A target that no longer exists is listed in
``absent`` and its metrics are reported with a null value, never as an
error.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_time: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    absent: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    seen_synonym_words: set[str] = field(default_factory=set)

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.end - span.start

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.seen_synonym_words.clear()

    # -- patching --------------------------------------------------------

    def install(self, targets) -> None:
        """``targets``: tuples as in ``CORPUS_TARGETS``; the counter,
        ``counter(tracer, args, kwargs, result)``, may be None."""
        for module_name, path, name, counter, _ in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except AttributeError:
                self.absent.add(name)
                continue
            setattr(owner, attr, self._wrap(original, name, counter))
            self._patched.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return wrapper

    # -- reading ---------------------------------------------------------

    def total_ms(self, name: str) -> float:
        return sum((s.end - s.start) * 1e3 for s in self.spans if s.name == name)

    def self_ms(self, name: str) -> float:
        return sum((s.end - s.start - s.child_time) * 1e3 for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


# --- counters attached to wrapped calls -------------------------------------------

def _count_packed(tr, args, kwargs, result):
    tr.counts["pretrain.packed_segments"] += len(result)
    tr.counts["pretrain.truncated_segments"] += sum(1 for p in result if p.truncated)


def _count_segment(tr, args, kwargs, result):
    tr.counts["segmenter.chars"] += len(result.text)


def _count_encode(tr, args, kwargs, result):
    tr.counts["marker_encoder.tokens"] += len(result.ids)


def _count_sample(tr, args, kwargs, result):
    tr.counts["confusion.attempts"] += 1
    tr.counts["confusion.misses"] += result is None


def _count_synonym(tr, args, kwargs, result):
    word, emb = args[0], args[1]
    tr.counts["confusion.synonym_repeats"] += word in tr.seen_synonym_words
    tr.seen_synonym_words.add(word)
    if word in emb:
        tr.counts["confusion.rows_scanned"] += len(emb.same_length_rows(len(word)))


def _count_serialize(tr, args, kwargs, result):
    tr.counts["pretrain.bytes_out"] += len(result.encode("utf-8")) + 1


def _count_forward(tr, args, kwargs, result):
    batch = args[1]
    size = result.mlm_logits.size
    labelled = sum(len(ex.mlm_labels) for ex in batch)
    tr.counts["model.mlm_logit_elements"] = size
    tr.counts["model.mlm_useful_share"] = (labelled * result.mlm_logits.shape[-1] / size
                                           if size else 0.0)


# (module, attribute, span name, counter, per-layer metrics fed by the span)
CORPUS_TARGETS = (
    ("markkit.cli", "load_vocab", "resources.load_vocab", None,
     ("resources.load_vocab_ms",)),
    ("markkit.cli", "load_lexicon", "resources.load_lexicon", None,
     ("resources.load_lexicon_ms",)),
    ("markkit.cli", "load_embeddings", "resources.load_embeddings", None,
     ("resources.load_embeddings_ms",)),
    ("markkit.cli", "load_pinyin_table", "resources.load_pinyin", None,
     ("resources.load_pinyin_ms",)),
    ("markkit.cli", "pack_corpus", "pretrain.pack", _count_packed,
     ("pretrain.pack_self_ms", "pretrain.packed_segments", "pretrain.truncated_segments")),
    ("markkit.segmenter", "segment", "segmenter.segment", _count_segment,
     ("segmenter.segment_ms", "segmenter.chars")),
    ("markkit.pretrain", "build_example", "pretrain.build", None,
     ("pretrain.build_self_ms", "pretrain.examples")),
    ("markkit.pretrain", "encode_marked", "marker_encoder.encode", _count_encode,
     ("marker_encoder.encode_ms", "marker_encoder.tokens")),
    ("markkit.pretrain", "sample_confusion", "confusion.sample", _count_sample,
     ("confusion.attempts", "confusion.misses", "confusion.hit_ratio",
      "confusion.sample_self_ms")),
    ("markkit.confusion", "synonym_candidates", "confusion.synonym", _count_synonym,
     ("confusion.synonym_scans", "confusion.synonym_ms", "confusion.rows_scanned",
      "confusion.synonym_repeat_share")),
    ("markkit.confusion", "pinyin_candidates", "confusion.pinyin", None,
     ("confusion.pinyin_lookups", "confusion.pinyin_ms")),
    ("markkit.cli", "example_to_json", "pretrain.serialize", _count_serialize,
     ("pretrain.serialize_ms", "pretrain.bytes_out")),
)

TRAIN_TARGETS = (
    ("markkit.model", "MarkBert.forward", "model.forward", _count_forward,
     ("model.forward_ms", "model.mlm_logit_elements", "model.mlm_useful_share")),
    ("markkit.model", "loss_and_gradients", "model.loss", None, ("model.loss_ms",)),
    ("markkit.model", "MarkBert.backward", "model.backward", None, ("model.backward_ms",)),
)

# spans whose time cli.self_ms excludes: the traced spans that are not
# nested inside another traced span
CORPUS_TOP_LEVEL = ("resources.load_vocab", "resources.load_lexicon",
                    "resources.load_embeddings", "resources.load_pinyin",
                    "pretrain.pack", "pretrain.build", "pretrain.serialize")


def absent_metrics(tracer: Tracer, targets) -> set[str]:
    """Metrics that depend on a span whose target no longer exists; a
    derived metric over several spans is absent when any of them is."""
    out = {m for _, _, name, _, metrics in targets if name in tracer.absent for m in metrics}
    if tracer.absent & set(CORPUS_TOP_LEVEL):
        out.add("cli.self_ms")
    if tracer.absent & {"model.forward", "model.loss", "model.backward"}:
        out.add("model.update_ms")
    return out
