#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about a minute).

    python3 benchmark/selftest.py

1. Runs every workload for one second on a small world (1,200-token
   vocab, 2,500 words), untraced and traced, and requires a correct
   result line that carries every metric of BENCHMARK.json.
2. Corrupts good outputs and requires the checks to reject each
   corruption: a synonym label swapped for a far word, a homophone label
   swapped for a word of other pinyin, a dropped marker, confusion labels
   where replacement is off, an edited line of multi-worker output, a
   loss that does not fall, a non-finite loss and a wrong analytic
   gradient.

Exits 0 when every step passes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import inputs
import run
from measure import HERE, corpus_args, gradient_coords

import checks  # noqa: E402  (after measure, which puts markkit on the path)
from markkit import cli, model as mk_model, pretrain  # noqa: E402

SEED = 3
SMALL_SPECS = {
    "corpus-wide": {**run.WORKLOADS["corpus-wide"], "docs": 3, "chunks": 2},
    "corpus-mlm": {**run.WORKLOADS["corpus-mlm"], "docs": 60},
    "train-wide": {**run.WORKLOADS["train-wide"], "examples": 48},
}


def check_workloads() -> list[str]:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name, spec in SMALL_SPECS.items():
        for trace in (False, True):
            code, out = run.run(spec, SEED, 1.0, trace, shape=inputs.SMALL_WORLD)
            want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{name} trace={int(trace)}: no result line (exit {code})")
                continue
            got = result["metrics"]
            if code != 0 or not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(f"{name} trace={int(trace)}: exit {code}, result {result}")
            elif set(got) != want or any(v["value"] is None for v in got.values()):
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(got)}")
    return problems


# --- corruptions of one build-corpus output line ---------------------------------

def _word_span(record: dict, label: str) -> tuple[int, int] | None:
    """(start, end) token positions of the first word replaced with
    ``label``: the positions after the previous marker up to its own."""
    previous = 0
    for pos, name in sorted(record["rwd_labels"]):
        if name == label:
            return previous + 1, pos
        previous = pos
    return None


def _original_word(record: dict, start: int, end: int, tokens: list[str]) -> str:
    mlm = dict(map(tuple, record["mlm_labels"]))
    return "".join(tokens[mlm.get(p, record["input_ids"][p])] for p in range(start, end))


def replace_label(lines, truth, label, pick) -> list[str] | None:
    """Rewrite the first ``label`` replacement to ``pick(original word)``."""
    token_id = {t: i for i, t in enumerate(truth.tokens)}
    for i, line in enumerate(lines):
        record = json.loads(line)
        span = _word_span(record, label)
        if span is None:
            continue
        word = _original_word(record, *span, truth.tokens)
        record["input_ids"][span[0]:span[1]] = [token_id[c] for c in pick(word)]
        return lines[:i] + [json.dumps(record, separators=(",", ":"))] + lines[i + 1:]
    return None


def far_synonym(truth):
    def pick(word):
        row = truth.emb_index[word]
        bucket = truth.by_length[len(word)]
        words = list(truth.emb_index)
        return words[bucket[np.argmin(truth.unit[bucket] @ truth.unit[row])]]
    return pick


def other_pinyin(truth):
    def pick(word):
        return next(w for w, p in truth.pinyin.items()
                    if len(w) == len(word) and p != truth.pinyin[word])
    return pick


def drop_marker(lines) -> list[str] | None:
    """Delete the first marker token of the first example with two or more
    markers, shifting every later position."""
    for i, line in enumerate(lines):
        record = json.loads(line)
        if len(record["rwd_labels"]) < 2:
            continue
        m = min(p for p, _ in record["rwd_labels"])

        def shift(p):
            return p - 1 if p > m else p
        del record["input_ids"][m]
        record["mlm_labels"] = [[shift(p), t] for p, t in record["mlm_labels"] if p != m]
        record["rwd_labels"] = [[shift(p), n] for p, n in record["rwd_labels"] if p != m]
        record["rwd_loss_mask"] = [shift(p) for p in record["rwd_loss_mask"] if p != m]
        return lines[:i] + [json.dumps(record, separators=(",", ":"))] + lines[i + 1:]
    return None


def check_corruptions(work: Path) -> list[str]:
    world = inputs.ensure_world(run.CACHE, inputs.SMALL_WORLD)
    truth = checks.WorldTruth.load(world)
    corpus, out = work / "corpus.txt", work / "out.jsonl"
    inputs.write_corpus(corpus, inputs.read_lexicon_words(world), "selftest", 20)
    spec = run.WORKLOADS["corpus-wide"]
    if cli.main(corpus_args(spec, world, corpus, out, 1)) != 0:
        return ["build-corpus failed on the small world"]
    lines = out.read_text(encoding="utf-8").splitlines()
    docs = checks.read_documents(corpus)

    def corpus_check(candidate, **expect):
        return checks.check_corpus(candidate, truth, docs, **{**spec["expect"], **expect})

    problems = [f"good output rejected: {f}" for f in corpus_check(lines)]
    rejected: dict[str, list[str]] = {}
    corrupted = {
        "synonym label swapped for a far word":
            replace_label(lines, truth, "SYNONYM_CONFUSION", far_synonym(truth)),
        "homophone label swapped for a word of other pinyin":
            replace_label(lines, truth, "PINYIN_CONFUSION", other_pinyin(truth)),
        "dropped marker": drop_marker(lines),
    }
    for name, candidate in corrupted.items():
        if candidate is None:
            problems.append(f"nothing to corrupt for: {name}")
        else:
            rejected[name] = corpus_check(candidate)
    rejected["confusion labels with replacement off"] = corpus_check(lines, p_replace_word=0.0)
    rejected["edited line of multi-worker output"] = checks.check_prefix(
        lines[:5], [lines[0] + " "] + lines[1:], "selftest")

    examples_path = work / "examples.jsonl"
    inputs.write_train_examples(examples_path, len(truth.tokens), SEED, 16)
    examples = [pretrain.example_from_json(line)
                for line in examples_path.read_text(encoding="utf-8").splitlines()]
    batch = [ex for ex in examples if ex.mlm_labels and any(ex.rwd_loss_mask.values())][:2]
    cfg = mk_model.ModelConfig(vocab_size=len(truth.tokens), max_positions=128, seed=SEED)
    model = mk_model.MarkBert(cfg)
    analytic = mk_model.analytic_grads(model, batch)
    coords = gradient_coords(batch[0], cfg)
    problems += [f"good gradients rejected: {f}"
                 for f in checks.check_gradients(model, batch, coords, analytic)]
    problems += [f"falling losses rejected: {f}"
                 for f in checks.check_losses([3.0, 2.9, 2.8, 2.6, 2.5, 2.4])]
    wrong = {name: g.copy() for name, g in analytic.items()}
    name, index = coords[2]
    wrong[name].reshape(-1)[index] += 1e-3 + 0.5 * abs(wrong[name].reshape(-1)[index])
    rejected["loss that does not fall"] = checks.check_losses([2.5] * 8)
    rejected["non-finite loss"] = checks.check_losses([3.0, float("nan")] + [2.0] * 6)
    rejected["wrong analytic gradient"] = checks.check_gradients(model, batch, [coords[2]],
                                                                 wrong)

    for name, failures in rejected.items():
        if failures:
            print(f"rejected as it should be: {name}: {failures[0]}")
        else:
            problems.append(f"not rejected: {name}")
    return problems


def main() -> int:
    run.CACHE.mkdir(parents=True, exist_ok=True)
    problems = check_workloads()
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.CACHE) as tmp:
        problems += check_corruptions(Path(tmp))
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
