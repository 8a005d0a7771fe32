"""The measuring process: runs one workload on prepared inputs, checks
its outputs and prints the result JSON as its last line.

It is started by ``run.py`` in a fresh interpreter, so the peak RSS it
reports (``resource.getrusage`` of itself plus its worker children)
covers the workload and nothing the input generator did.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from markkit import cli, model as mk_model, pretrain  # noqa: E402
from markkit.marker_encoder import load_vocab  # noqa: E402
from markkit.resources import load_embeddings, load_lexicon, load_pinyin_table  # noqa: E402

import checks  # noqa: E402
from gauge import Gauge, make_blas_kernel, make_python_kernel  # noqa: E402
from spans import (CORPUS_TARGETS, CORPUS_TOP_LEVEL, TRAIN_TARGETS, Tracer,  # noqa: E402
                   absent_metrics)

# Reference kernel times (see gauge.py): about the medians seen on the
# 2-core host the README's figures come from. They fix the units of the
# reported times and must not change, or figures stop comparing.
PYTHON_REFERENCE_S = 0.012
BLAS_REFERENCE_S = 0.035
# Python-kernel samples per reading: a reading spans about half a second,
# so that it averages the host's second-to-second jitter as a round does.
PYTHON_SAMPLES = 30
SETUP_REPEATS = 3
TRAIN_SETUP_REPEATS = 5
WARMUP_STEPS = 2
IDENTITY_DOCS = 40   # documents rebuilt with --workers 1 for the byte-identity check
LR = 0.2


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def metric(value, unit):
    return {"value": value, "unit": unit}


def corpus_args(spec: dict, world: Path, corpus: Path, out: Path, workers: int) -> list[str]:
    """``build-corpus`` with its default ``--seed``. The seed fixes each
    example's schedule draws by (document, sequence) alone, whatever the
    text, so the run's seed varies the text and a fixed ``--seed`` keeps
    the amount of confusion work per run from varying with it too."""
    return ["build-corpus", "--lexicon", str(world / "lexicon.tsv"),
            "--embeddings", str(world / "embeddings.txt"),
            "--pinyin", str(world / "pinyin.tsv"), "--vocab", str(world / "vocab.txt"),
            "--in", str(corpus), "--out", str(out), "--max-len", "128",
            "--workers", str(workers), *spec["flags"]]


def time_setup_corpus(world: Path) -> float:
    t0 = time.perf_counter()
    load_vocab(world / "vocab.txt")
    load_lexicon(world / "lexicon.tsv")
    load_embeddings(world / "embeddings.txt")
    load_pinyin_table(world / "pinyin.tsv")
    return time.perf_counter() - t0


def run_rounds(seconds: float, round_fn, min_rounds: int = 1) -> list:
    """Run whole rounds while the next one is expected to end within
    ``seconds`` of the start (always at least ``min_rounds``)."""
    results, start, last = [], time.perf_counter(), 0.0
    while len(results) < min_rounds or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        results.append(round_fn(len(results)))
        last = time.perf_counter() - t0
    return results


def corpus_workload(spec, world, corpora, work, seconds, trace):
    """Each round is one in-process ``markkit build-corpus`` call on one
    of the run's corpus chunks, taken in turn; in a traced run, a traced
    call between two untraced ones on the same chunk, so that the first
    call's extra cost does not count as tracing overhead.
    Returns (attempted, metrics, failures)."""
    py = Gauge(make_python_kernel(), PYTHON_REFERENCE_S, PYTHON_SAMPLES)
    setups, raw_setups = [], []
    reading = py.read()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setup = time_setup_corpus(world)
        before, reading = reading, py.read()
        setups.append(py.scale(setup, before, reading))
        raw_setups.append(setup)
    gc.collect()
    workers = 1 if trace else spec["workers"]
    outs = [work / f"out-{i}.jsonl" for i in range(len(corpora))]
    tracer = Tracer()

    def build(chunk):
        gc.collect()
        t0 = time.perf_counter()
        code = cli.main(corpus_args(spec, world, corpora[chunk], outs[chunk], workers))
        return code, time.perf_counter() - t0

    def one_round(index):
        nonlocal reading
        chunk = index % len(corpora)
        code, wall = build(chunk)
        before, reading = reading, py.read()
        # Worker processes run on both cores, out of the gauge's sight: a
        # scaled corpus-mlm spread 0.25 across seeds where unscaled spread 0.09.
        scaled = py.scale(wall, before, reading) if workers == 1 else wall
        result = {"chunk": chunk, "code": code, "wall": wall, "scaled": scaled}
        if trace and code == 0:
            tracer.clear()
            tracer.install(CORPUS_TARGETS)
            try:
                code, traced_wall = build(chunk)
            finally:
                tracer.remove()
            after_code, after_wall = build(chunk)
            result.update(code=code or after_code, overhead=traced_wall * 2 / (wall + after_wall),
                          layers=corpus_layers(tracer, traced_wall))
        return result

    rounds = run_rounds(seconds, one_round)
    rss = peak_rss_mb()
    failures = [f"build-corpus exited with {r['code']}" for r in rounds if r["code"] != 0][:1]
    if failures:
        return len(rounds), {}, failures
    built = sorted({r["chunk"] for r in rounds})
    lines = {c: outs[c].read_text(encoding="utf-8").splitlines() for c in built}
    tokens = {c: sum(len(json.loads(line)["input_ids"]) for line in lines[c]) for c in built}
    truth = checks.WorldTruth.load(world)
    for c in built:
        failures += check_corpus_output(spec, world, truth, corpora[c], work, lines[c],
                                        identity=c == 0)
    attempted = sum(len(lines[r["chunk"]]) for r in rounds) * (3 if trace else 1)
    if trace:
        metrics = trace_metrics([r["layers"] for r in rounds],
                                statistics.median(r["overhead"] for r in rounds), tracer)
    else:
        out_tokens = sum(tokens[r["chunk"]] for r in rounds)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "tokens_per_s": metric(out_tokens / sum(r["scaled"] for r in rounds), "1/s"),
            "peak_rss_mb": metric(rss, "MiB"),
        }
        report_raw(setup_s=statistics.median(raw_setups),
                   tokens_per_s=out_tokens / sum(r["wall"] for r in rounds),
                   python_kernel_ms=statistics.median(py.readings) * 1e3, rounds=len(rounds))
    return attempted, metrics, failures


def check_corpus_output(spec, world, truth, corpus, work, lines, identity) -> list[str]:
    docs = checks.read_documents(corpus)
    failures = checks.check_corpus(lines, truth, docs, **spec["expect"])
    if identity and spec["workers"] > 1:
        # a --workers 1 build of the first documents must equal the first
        # lines of the multi-worker output byte for byte
        head_corpus, head_out = work / "head.txt", work / "head.jsonl"
        text = corpus.read_text(encoding="utf-8").split("\n\n")
        head_corpus.write_text("\n\n".join(text[:IDENTITY_DOCS]) + "\n", encoding="utf-8")
        if cli.main(corpus_args(spec, world, head_corpus, head_out, 1)) != 0:
            return failures + ["--workers 1 build of the first documents failed"]
        head = head_out.read_text(encoding="utf-8").splitlines()
        failures += checks.check_prefix(
            head, lines, f"--workers 1 build of the first {IDENTITY_DOCS} documents "
                         f"against the --workers {spec['workers']} build")
    return failures


def corpus_layers(tr: Tracer, wall: float) -> dict:
    c = tr.counts
    ms = tr.total_ms
    attempts = c["confusion.attempts"]
    scans = tr.calls("confusion.synonym")
    return {
        "resources.load_vocab_ms": ms("resources.load_vocab"),
        "resources.load_lexicon_ms": ms("resources.load_lexicon"),
        "resources.load_embeddings_ms": ms("resources.load_embeddings"),
        "resources.load_pinyin_ms": ms("resources.load_pinyin"),
        "confusion.attempts": attempts,
        "confusion.misses": c["confusion.misses"],
        "confusion.hit_ratio": (attempts - c["confusion.misses"]) / attempts if attempts else 0.0,
        "confusion.sample_self_ms": tr.self_ms("confusion.sample"),
        "confusion.synonym_scans": scans,
        "confusion.synonym_ms": ms("confusion.synonym"),
        "confusion.rows_scanned": c["confusion.rows_scanned"],
        "confusion.synonym_repeat_share": c["confusion.synonym_repeats"] / scans if scans else 0.0,
        "confusion.pinyin_lookups": tr.calls("confusion.pinyin"),
        "confusion.pinyin_ms": ms("confusion.pinyin"),
        "segmenter.segment_ms": ms("segmenter.segment"),
        "segmenter.chars": c["segmenter.chars"],
        "pretrain.pack_self_ms": tr.self_ms("pretrain.pack"),
        "pretrain.packed_segments": c["pretrain.packed_segments"],
        "pretrain.truncated_segments": c["pretrain.truncated_segments"],
        "marker_encoder.encode_ms": ms("marker_encoder.encode"),
        "marker_encoder.tokens": c["marker_encoder.tokens"],
        "pretrain.build_self_ms": tr.self_ms("pretrain.build"),
        "pretrain.examples": tr.calls("pretrain.build"),
        "pretrain.serialize_ms": ms("pretrain.serialize"),
        "pretrain.bytes_out": c["pretrain.bytes_out"],
        "cli.self_ms": wall * 1e3 - sum(ms(name) for name in CORPUS_TOP_LEVEL),
    }


def train_workload(spec, world, examples_path, seed, seconds, trace):
    """The ``pretrain`` loop as ``cmd_pretrain`` runs it: ``train_step``
    over consecutive batches, cycling. Each round is one step."""
    lines = [line for line in examples_path.read_text(encoding="utf-8").splitlines()
             if line.strip()]
    vocab_size = sum(1 for _ in open(world / "vocab.txt", encoding="utf-8"))
    py = Gauge(make_python_kernel(), PYTHON_REFERENCE_S, PYTHON_SAMPLES)
    blas = Gauge(make_blas_kernel(), BLAS_REFERENCE_S, samples=1)
    parse_s, init_s, setups = [], [], []
    reading = py.read()
    for _ in range(TRAIN_SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        examples = [pretrain.example_from_json(line, n) for n, line in enumerate(lines, 1)]
        t1 = time.perf_counter()
        cfg = mk_model.ModelConfig(vocab_size=vocab_size,
                                   max_positions=max(ex.attention_len for ex in examples),
                                   seed=seed, **spec["model"])
        model = mk_model.MarkBert(cfg)
        t2 = time.perf_counter()
        parse_s.append(t1 - t0)
        init_s.append(t2 - t1)
        before, reading = reading, py.read()
        setups.append(py.scale(t2 - t0, before, reading))
    batch_size = spec["batch_size"]
    batches = [examples[i:i + batch_size] for i in range(0, len(examples), batch_size)]
    tracer = Tracer()
    reading = blas.read()

    def one_round(step):
        nonlocal reading
        batch = batches[step % len(batches)]
        traced = trace and step >= WARMUP_STEPS and step % 2 == 1
        if traced:
            tracer.clear()
            tracer.install(TRAIN_TARGETS)
        try:
            t0 = time.perf_counter()
            metrics = mk_model.train_step(model, batch, LR)
            wall = time.perf_counter() - t0
        finally:
            tracer.remove()
        before, reading = reading, blas.read()
        layers = None
        if traced:
            ms = tracer.total_ms
            layers = {"model.forward_ms": ms("model.forward"),
                      "model.loss_ms": ms("model.loss"),
                      "model.backward_ms": ms("model.backward"),
                      "model.update_ms": wall * 1e3 - ms("model.forward")
                      - ms("model.loss") - ms("model.backward"),
                      "model.mlm_logit_elements": tracer.counts["model.mlm_logit_elements"],
                      "model.mlm_useful_share": tracer.counts["model.mlm_useful_share"]}
        return {"wall": wall, "scaled": blas.scale(wall, before, reading),
                "traced": traced, "layers": layers,
                "loss": metrics.loss.total,
                "tokens": sum(ex.attention_len for ex in batch)}

    rounds = run_rounds(seconds, one_round, min_rounds=WARMUP_STEPS + 6)
    rss = peak_rss_mb()
    timed = rounds[WARMUP_STEPS:]
    failures = checks.check_losses([r["loss"] for r in rounds])
    failures += gradient_check(examples, cfg)
    if trace:
        traced = [r for r in timed if r["traced"]]
        overhead = (statistics.median(r["wall"] for r in traced)
                    / statistics.median(r["wall"] for r in timed if not r["traced"]))
        metrics = trace_metrics([r["layers"] for r in traced], overhead, tracer)
        metrics["model.example_parse_ms"] = statistics.median(parse_s) * 1e3
        metrics["model.init_ms"] = statistics.median(init_s) * 1e3
    else:
        tokens = statistics.fmean(r["tokens"] for r in timed)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "tokens_per_s": metric(tokens / statistics.median(r["scaled"] for r in timed),
                                   "1/s"),
            "peak_rss_mb": metric(rss, "MiB"),
        }
        report_raw(setup_s=statistics.median(p + i for p, i in zip(parse_s, init_s)),
                   tokens_per_s=tokens / statistics.median(r["wall"] for r in timed),
                   python_kernel_ms=statistics.median(py.readings) * 1e3,
                   blas_kernel_ms=statistics.median(blas.readings) * 1e3, steps=len(rounds))
    return len(rounds), metrics, failures


def gradient_check(examples, cfg) -> list[str]:
    """Central differences against ``analytic_grads`` on a fresh model and
    a two-example batch with MLM labels and loss-on markers."""
    batch = [ex for ex in examples if ex.mlm_labels and any(ex.rwd_loss_mask.values())][:2]
    model = mk_model.MarkBert(cfg)
    analytic = mk_model.analytic_grads(model, batch)
    return checks.check_gradients(model, batch, gradient_coords(batch[0], cfg), analytic)


def gradient_coords(ex, cfg) -> list[tuple[str, int]]:
    """(parameter, flat index) pairs that the example's loss depends on."""
    label_pos, label_id = min(ex.mlm_labels.items())
    H = cfg.hidden_dim
    return [("token_embedding", ex.input_ids[1] * H), ("token_embedding", label_id * H + 3),
            ("mlm.bias", label_id), ("mlm.bias", ex.input_ids[label_pos]),
            ("rwd.w", 0), ("rwd.w", H * cfg.rwd_classes - 1),
            ("layer0.attn.q_w", 0), ("layer0.attn.q_w", H + 5)]


def report_raw(**values) -> None:
    """The measured times before scaling to reference speed, for the record."""
    print("raw " + json.dumps(values), file=sys.stderr)


def trace_metrics(layers: list[dict], overhead: float, tracer: Tracer) -> dict:
    """Per-layer metrics: medians over the traced rounds' ``layers``, plus
    ``overhead``, traced over untraced time for the same work."""
    out = {name: statistics.median(x[name] for x in layers) for name in layers[0]}
    for name in absent_metrics(tracer, CORPUS_TARGETS + TRAIN_TARGETS):
        out[name] = None
    out["trace.overhead_pct"] = (overhead - 1.0) * 100.0
    return out


def per_layer_result(values: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json: a value measured on this
    workload, zero where the workload never calls the layer, or a null
    value where the wrapped function no longer exists."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: metric(values.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True, help="workload spec as JSON (see run.py)")
    parser.add_argument("--world", required=True, type=Path)
    parser.add_argument("--input", required=True, type=Path, nargs="+",
                        help="corpus chunks or example JSONL made by run.py")
    parser.add_argument("--work", required=True, type=Path, help="directory for the run's outputs")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)
    if spec["kind"] == "corpus":
        attempted, metrics, failures = corpus_workload(spec, args.world, args.input, args.work,
                                                       args.seconds, bool(args.trace))
    else:
        attempted, metrics, failures = train_workload(spec, args.world, args.input[0],
                                                      args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer_result(metrics)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
