"""Output checks that do not trust markkit's own answers.

The truth comes from the world files, parsed here without markkit's
loaders, and from properties the method must have. Each check returns a
list of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from markkit.errors import MarkkitError
from markkit.pretrain import MaskingStats, RwdLabel, example_from_json

MAX_REPORTED = 5


@dataclass
class WorldTruth:
    tokens: list[str]
    lexicon_pos: dict[str, str]
    pinyin: dict[str, str]
    homophones: dict[str, int]  # pinyin -> number of table words with it
    emb_index: dict[str, int]
    unit: np.ndarray            # unit rows of the vectors the generator wrote
    by_length: dict[int, np.ndarray]

    @classmethod
    def load(cls, world: Path) -> "WorldTruth":
        tokens = (world / "vocab.txt").read_text(encoding="utf-8").splitlines()
        lexicon_pos = {}
        for line in (world / "lexicon.tsv").read_text(encoding="utf-8").splitlines():
            word, pos, _ = line.split("\t")
            lexicon_pos.setdefault(word, pos)
        pinyin: dict[str, str] = {}
        homophones: dict[str, int] = {}
        for line in (world / "pinyin.tsv").read_text(encoding="utf-8").splitlines():
            word, syllables = line.split("\t")
            key = " ".join(s.rstrip("012345") for s in syllables.split())
            pinyin[word] = key
            homophones[key] = homophones.get(key, 0) + 1
        with open(world / "embeddings.txt", encoding="utf-8") as f:
            next(f)
            emb_words = [line.split(" ", 1)[0] for line in f]
        matrix = np.load(world / "embeddings.npy")
        unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        lengths = np.array([len(w) for w in emb_words])
        by_length = {n: np.flatnonzero(lengths == n) for n in set(lengths.tolist())}
        return cls(tokens, lexicon_pos, pinyin, homophones,
                   {w: i for i, w in enumerate(emb_words)}, unit, by_length)

    def has_candidates(self, word: str) -> bool:
        homophone = self.homophones.get(self.pinyin.get(word), 0) > 1
        return homophone or (word in self.emb_index and len(self.by_length[len(word)]) > 1)

    def in_synonym_top_k(self, word: str, other: str, k: int) -> bool:
        """Brute-force scan of the same-length bucket: ``other`` scores at
        least the k-th best cosine among the other words."""
        row = self.emb_index[word]
        bucket = self.by_length[len(word)]
        scores = self.unit[bucket[bucket != row]] @ self.unit[row]
        kth = np.partition(scores, -k)[-k] if len(scores) >= k else scores.min()
        return other != word and float(self.unit[self.emb_index[other]] @ self.unit[row]) \
            >= kth - 1e-12


@dataclass
class Decoded:
    """One output example read back: the original text it covers, its
    marked words with their marker tokens, and its confusion pairs."""

    text: str
    words: list[tuple[str, str]]            # (original word, marker token)
    confusions: list[tuple[str, str, RwdLabel]]


def decode(ex, tokens: list[str]) -> Decoded:
    ids = list(ex.input_ids)
    original = list(ids)
    for pos, label in ex.mlm_labels.items():
        original[pos] = label
    markers = sorted(ex.rwd_labels)
    start = 1 if ex.meta.framed else 0
    stop = len(ids) - 1 if ex.meta.framed else len(ids)
    text = "".join(tokens[original[p]] for p in range(start, stop) if p not in ex.rwd_labels)
    words, confusions = [], []
    cursor = start
    for m in markers:
        word = "".join(tokens[t] for t in original[cursor:m])
        words.append((word, tokens[original[m]]))
        if ex.rwd_labels[m] != RwdLabel.NORMAL:
            confusions.append((word, "".join(tokens[t] for t in ids[cursor:m]),
                               ex.rwd_labels[m]))
        cursor = m + 1
    return Decoded(text, words, confusions)


def read_documents(corpus: Path) -> list[str]:
    docs, current = [], []
    for line in corpus.read_text(encoding="utf-8").splitlines():
        if line.strip():
            current.append(line)
        elif current:
            docs.append("".join(current))
            current = []
    if current:
        docs.append("".join(current))
    return docs


def _binomial_gap(observed: float, expected: float, variance: float) -> bool:
    """True when a count is further from its expectation than 4.5 standard
    deviations plus one unit."""
    return abs(observed - expected) > 4.5 * math.sqrt(max(variance, 0.0)) + 1.0


def check_corpus(lines: list[str], truth: WorldTruth, docs: list[str], *,
                 p_replace_word: float, pos_markers: bool, k_syn: int = 5,
                 mask_ratio: float = 0.15, p_no_marker: float = 0.30, p_wwm: float = 0.50,
                 p_normal_marker_loss: float = 0.15) -> list[str]:
    """All corpus checks over one build-corpus output."""
    failures: list[str] = []

    def fail(msg: str) -> None:
        if len(failures) < MAX_REPORTED:
            failures.append(msg)

    examples = []
    for lineno, line in enumerate(lines, start=1):
        try:
            examples.append(example_from_json(line, lineno))
        except MarkkitError as exc:
            fail(f"line {lineno} does not parse: {exc}")
    if failures:
        return failures
    if not examples:
        return ["no examples"]

    stats = MaskingStats()
    expected_replaced = var_replaced = 0.0
    synonym_pairs: dict[str, set[str]] = {}
    for lineno, ex in enumerate(examples, start=1):
        stats.add(ex)
        d = decode(ex, truth.tokens)
        if not (0 <= ex.meta.doc_id < len(docs)) or d.text not in docs[ex.meta.doc_id]:
            fail(f"line {lineno}: restored text is not a slice of document {ex.meta.doc_id}")
        for word, marker in d.words:
            if word not in truth.lexicon_pos and len(word) != 1:
                fail(f"line {lineno}: marked word {word!r} is neither a lexicon word "
                     "nor one character")
            pos = truth.lexicon_pos.get(word)
            want = f"[S:{pos}]" if pos_markers and pos is not None else "[S]"
            if marker != want:
                fail(f"line {lineno}: word {word!r} carries marker {marker!r}, expected {want!r}")
            if truth.has_candidates(word):
                expected_replaced += p_replace_word
                var_replaced += p_replace_word * (1.0 - p_replace_word)
        for word, replacement, label in d.confusions:
            if p_replace_word == 0.0:
                fail(f"line {lineno}: confusion label {label.name} with replacement off")
            elif label == RwdLabel.PINYIN_CONFUSION:
                if replacement == word or truth.pinyin.get(replacement) is None \
                        or truth.pinyin.get(replacement) != truth.pinyin.get(word):
                    fail(f"line {lineno}: {replacement!r} is no homophone of {word!r}")
            elif word not in truth.emb_index or replacement not in truth.emb_index:
                fail(f"line {lineno}: synonym pair {word!r}->{replacement!r} not embedded")
            else:
                synonym_pairs.setdefault(word, set()).add(replacement)

    for word, replacements in synonym_pairs.items():
        for r in replacements:
            if not truth.in_synonym_top_k(word, r, k_syn):
                fail(f"synonym {r!r} of {word!r} is not in the brute-force top-{k_syn}")

    n, marked = stats.n_examples, stats.n_marked
    rate_checks = [
        ("no-marker examples", stats.n_no_marker, p_no_marker * n,
         p_no_marker * (1 - p_no_marker) * n, n),
        ("wwm among marked", stats.n_wwm_marked, p_wwm * marked,
         p_wwm * (1 - p_wwm) * marked, marked),
        ("normal markers with loss", stats.n_normal_loss_on,
         p_normal_marker_loss * stats.n_normal_markers,
         p_normal_marker_loss * (1 - p_normal_marker_loss) * stats.n_normal_markers,
         stats.n_normal_markers),
        ("replaced words", stats.n_confusion_markers, expected_replaced, var_replaced,
         stats.n_markers),
        # whole-word masking moves characters in units of up to 4, so the
        # per-character variance is inflated by that factor
        ("masked characters", stats.n_masked_chars, mask_ratio * stats.n_chars,
         4 * mask_ratio * (1 - mask_ratio) * stats.n_chars, stats.n_chars),
    ]
    for name, observed, expected, variance, base in rate_checks:
        if _binomial_gap(observed, expected, variance):
            fail(f"{name}: {observed} of {base}, expected {expected:.1f}")
    if stats.n_confusion_markers and stats.n_confusion_loss_on != stats.n_confusion_markers:
        fail("a confusion marker has its detection loss off")
    return failures


def check_prefix(head: list[str], lines: list[str], what: str) -> list[str]:
    """A build of the first documents must equal the first lines of the
    full build byte for byte."""
    if not head or head != lines[:len(head)]:
        return [f"{what}: the first {len(head)} lines differ"]
    return []


def check_losses(losses: list[float], window: int = 3) -> list[str]:
    if not losses:
        return ["no training steps"]
    if not all(math.isfinite(x) for x in losses):
        return ["a training loss is not finite"]
    if len(losses) < 2 * window:
        return [f"only {len(losses)} steps, cannot see the loss fall"]
    first = sum(losses[:window]) / window
    last = sum(losses[-window:]) / window
    if not last < first:
        return [f"loss did not fall: first {window} steps {first:.4f}, last {last:.4f}"]
    return []


def check_gradients(model, batch, coords, analytic: dict, step: float = 1e-5) -> list[str]:
    """Central differences of the total loss at ``coords``
    ((parameter, flat index) pairs) against the analytic gradients."""
    from markkit.model import compute_loss

    failures = []
    for name, flat_index in coords:
        flat = model.params[name].value.reshape(-1)
        original = flat[flat_index]
        values = []
        for x in (original + step, original - step):
            flat[flat_index] = x
            values.append(compute_loss(model.forward(batch), batch, model.cfg.rwd_classes).total)
        flat[flat_index] = original
        numeric = (values[0] - values[1]) / (2 * step)
        exact = float(analytic[name].reshape(-1)[flat_index])
        if abs(numeric - exact) > 1e-7 + 1e-4 * abs(exact):
            failures.append(f"gradient of {name}[{flat_index}]: analytic {exact:.8g}, "
                            f"central difference {numeric:.8g}")
    return failures
