"""Command-line entry point.

Subcommands: ``segment``, ``encode``, ``confusions``, ``build-corpus``,
``pretrain``, ``eval-ner``, ``attn-dump``, ``stats``.

Exit codes: 0 success, 2 usage error (argparse: a flag or subcommand),
3 missing/unreadable resource or unwritable output, 4 malformed input,
5 bad configuration, 1 any other toolkit error. Failures print one
machine-parseable JSON line to stderr:
``{"error": <category>, "exit_code": n, "message": ...}``.

If the ``MARKKIT_RESOURCES`` environment variable is set, relative
``--lexicon/--embeddings/--pinyin/--vocab`` paths are resolved under it.

All randomness flows from ``--seed`` (default 12345; outside ``[0, 2**64)``
it is a configuration error on every subcommand) through documented derivations,
so every subcommand is reproducible (see ``markkit`` for the BLAS thread count).
Flags are spelled in full: an abbreviation is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .confusion import ConfusionPolicy, check_k, pinyin_candidates, synonym_candidates
from .errors import (ConfigError, InputError, MarkkitError, ParseError, ResourceError,
                     TrainingError)
from .marker_encoder import check_max_len, encode_marked, load_vocab
from .model import (MarkBert, ModelConfig, check_lr, export_attention, load_checkpoint,
                    save_checkpoint, train_step)
from .ner import SpanF1Counter, extract_spans, read_conll, scheme_of
from .pretrain import (MaskingConfig, MaskingStats, corpus_stats, example_from_json,
                       example_to_json, generate_examples, pack_corpus, plain_example,
                       read_documents, segment_line, usable_cpus)
from .resources import (Resources, decode_text, load_embeddings, load_lexicon,
                        load_pinyin_table, opened, read_text, write_text)
from .segmenter import Segmenter, make_lexicon_segmenter, parse_pretokenized, render_spaced

DEFAULT_SEED = 12345


def _resource_path(path: str) -> Path:
    prefix = os.environ.get("MARKKIT_RESOURCES")
    p = Path(path)
    if prefix and not p.is_absolute():
        return Path(prefix) / p
    return p


def _read_lines(path: str) -> list[str]:
    """The lines of ``--in`` (``-``: standard input), each stripped of the
    whitespace around it: the one rule for a line of ``--in``."""
    text = (decode_text(sys.stdin.buffer.read(), "standard input") if path == "-"
            else read_text(path))
    return [line.strip() for line in text.splitlines()]


def clamp_workers(requested: int, cpus: int) -> int:
    """The worker count for ``--workers``: at least 1 (a smaller request is a
    ConfigError) and at most ``cpus`` (:func:`usable_cpus`)."""
    if requested < 1:
        raise ConfigError(f"--workers must be positive, got {requested}")
    return min(requested, cpus)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        write_text(path, text)


def _write_lines(path: str | None, lines) -> None:
    """Each of ``lines`` ended by a newline, written by :func:`_write_text`."""
    _write_text(path, "".join(line + "\n" for line in lines))


def _segmenter_from_args(args) -> Segmenter:
    if getattr(args, "pretokenized", False):
        return parse_pretokenized
    if not getattr(args, "lexicon", None):
        raise ConfigError("--lexicon is required unless --pretokenized is given")
    lexicon = load_lexicon(_resource_path(args.lexicon))
    return make_lexicon_segmenter(lexicon)


def _encoded_lines(args, seg_fn: Segmenter, vocab, max_len: int, add_cls_sep: bool = True):
    """Each non-blank line of ``--in``, segmented by ``seg_fn`` and encoded
    as the marker flags say."""
    for lineno, line in enumerate(_read_lines(args.infile), start=1):
        if line:
            yield encode_marked(segment_line(seg_fn, line, lineno), vocab,
                                insert_markers=not args.no_markers,
                                pos_markers=args.pos_markers, max_len=max_len,
                                add_cls_sep=add_cls_sep)


def _read_examples(path: str):
    """The examples of a JSONL file, one per non-blank line."""
    for lineno, line in enumerate(_read_lines(path), start=1):
        if line:
            yield example_from_json(line, lineno)


def _flag_error(exc: ConfigError, args) -> ConfigError:
    """``exc`` naming the flag of its setting, when the setting is a flag
    (each setting's flag is its name with dashes)."""
    if exc.setting is None or not hasattr(args, exc.setting):
        return exc
    return ConfigError(exc.reason, "--" + exc.setting.replace("_", "-"))


def _model_config(args, vocab_size: int = 1, max_positions: int = 1) -> ModelConfig:
    """The model the ``pretrain`` flags give for a vocabulary of
    ``vocab_size``, with ``max_positions`` unless ``--max-positions`` is set."""
    return ModelConfig(vocab_size=vocab_size, hidden_dim=args.hidden_dim,
                       num_layers=args.num_layers, num_heads=args.num_heads,
                       ffn_dim=args.ffn_dim, max_positions=args.max_positions or max_positions,
                       rwd_classes=args.rwd_classes, dropout=args.dropout, seed=args.seed)


def _masking_config(args) -> MaskingConfig:
    """The schedule the flags give."""
    return MaskingConfig(mask_ratio=args.mask_ratio, p_no_marker=args.p_no_marker,
                         p_wwm=args.p_wwm, p_replace_word=args.p_replace_word,
                         p_normal_marker_loss=args.p_normal_marker_loss,
                         max_len=args.max_len, pos_markers=args.pos_markers,
                         policy=ConfusionPolicy(p_pinyin=args.p_pinyin, k_syn=args.k_syn))


# --- subcommands ---------------------------------------------------------------

def cmd_segment(args) -> int:
    seg_fn = _segmenter_from_args(args)
    _write_lines(args.out, (render_spaced(seg_fn(line), include_pos=args.pos) if line else ""
                            for line in _read_lines(args.infile)))
    return 0


def cmd_encode(args) -> int:
    check_max_len(args.max_len, add_cls_sep=not args.no_cls_sep)
    seg_fn = _segmenter_from_args(args)
    vocab = load_vocab(_resource_path(args.vocab))
    _write_lines(args.out, (json.dumps({"ids": list(marked.ids),
                                        "marker_positions": list(marked.marker_positions),
                                        "truncated": marked.truncated}, separators=(",", ":"))
                            for marked in _encoded_lines(args, seg_fn, vocab, args.max_len,
                                                         add_cls_sep=not args.no_cls_sep)))
    return 0


def cmd_confusions(args) -> int:
    check_k(args.k)
    emb = load_embeddings(_resource_path(args.embeddings))
    table = load_pinyin_table(_resource_path(args.pinyin))
    rows = []
    for word in filter(None, _read_lines(args.infile)):
        for choice in pinyin_candidates(word, table):
            rows.append(f"{word}\tPINYIN\t{choice.replacement}\t{choice.score:.6f}")
        for choice in synonym_candidates(word, emb, args.k):
            rows.append(f"{word}\tSYNONYM\t{choice.replacement}\t{choice.score:.6f}")
    _write_lines(args.out, rows)
    return 0


def cmd_build_corpus(args) -> int:
    workers = clamp_workers(args.workers, usable_cpus())
    cfg = _masking_config(args)
    seg_fn = _segmenter_from_args(args)
    vocab = load_vocab(_resource_path(args.vocab))
    embeddings, pinyin = _resource_path(args.embeddings), _resource_path(args.pinyin)
    if cfg.p_replace_word == 0:
        # no word can be replaced, so no example reads the confusion resources;
        # the files are still opened, so a missing one fails as it would below
        for path in (embeddings, pinyin):
            with opened(path, "rb"):
                pass
        resources = Resources()
    else:
        resources = Resources(embeddings=load_embeddings(embeddings),
                              pinyin=load_pinyin_table(pinyin))
    _write_lines(args.out, generate_examples(list(read_documents(_read_lines(args.infile))),
                                             seg_fn, vocab, resources, cfg, args.seed,
                                             workers=workers, pack=pack_corpus,
                                             serialize=example_to_json))
    return 0


def cmd_pretrain(args) -> int:
    if args.out in (None, "-"):
        raise ConfigError("--out must name the checkpoint file; a checkpoint is not "
                          "written to standard output")
    if args.batch_size < 1:
        raise ConfigError(f"--batch-size must be positive, got {args.batch_size}")
    if args.steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {args.steps}")
    check_lr(args.lr)
    if args.log_every < 0:
        raise ConfigError(f"--log-every must be >= 0, got {args.log_every}")
    _model_config(args)  # the model flags' own rules, before any file is read
    vocab = load_vocab(_resource_path(args.vocab))
    examples = list(_read_examples(args.infile))
    if not examples:
        raise InputError(f"no examples in {args.infile}")
    max_positions = args.max_positions or max(ex.attention_len for ex in examples)
    if not max_positions:
        raise InputError(f"--in {args.infile}: every example has empty input_ids")
    model = MarkBert(_model_config(args, len(vocab), max_positions))
    batches = [examples[i:i + args.batch_size]
               for i in range(0, len(examples), args.batch_size)]
    for batch in batches:  # every batch, not only those the steps reach
        model.check_batch(batch)
    metrics = None
    # a step that overflows shows as a non-finite loss or parameters below,
    # one error line, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(args.steps):
            metrics = train_step(model, batches[step % len(batches)], args.lr)
            if args.log_every and (step + 1) % args.log_every == 0:
                print(f"step {step + 1}: mlm_loss={metrics.loss.mlm_loss:.4f} "
                      f"rwd_loss={metrics.loss.rwd_loss:.4f} "
                      f"mlm_acc={_fmt(metrics.mlm_accuracy)} "
                      f"rwd_acc={_fmt(metrics.rwd_accuracy)}")
    if not all(np.isfinite(p.value).all() for p in model.params.values()):
        raise TrainingError(f"non-finite parameters after step {args.steps}; "
                            "check learning rate")
    save_checkpoint(model, args.out)
    if metrics is not None:
        print(json.dumps({"steps": args.steps,
                          "mlm_loss": metrics.loss.mlm_loss,
                          "rwd_loss": metrics.loss.rwd_loss,
                          "total_loss": metrics.loss.total,
                          "mlm_accuracy": metrics.mlm_accuracy,
                          "rwd_accuracy": metrics.rwd_accuracy,
                          "checkpoint": str(args.out)}))
    return 0


def cmd_eval_ner(args) -> int:
    pred = read_conll(args.pred)
    gold = read_conll(args.gold)
    if len(pred) != len(gold):
        raise InputError(f"prediction has {len(pred)} sentences, gold has {len(gold)}")
    scheme = scheme_of(ex.labels for ex in pred + gold) if args.scheme == "auto" else args.scheme
    counter = SpanF1Counter()
    for i, (p, g) in enumerate(zip(pred, gold)):
        if len(p.labels) != len(g.labels):
            raise InputError(f"sentence {i + 1}: prediction has {len(p.labels)} "
                             f"tokens, gold has {len(g.labels)}")
        counter.add(extract_spans(p.labels, scheme), extract_spans(g.labels, scheme),
                    pred_tags=p.labels, gold_tags=g.labels)
    report = {"span_precision": counter.precision, "span_recall": counter.recall,
              "span_f1": counter.f1, "token_accuracy": counter.token_accuracy,
              "sentences": len(gold), "pred_spans": counter.n_pred,
              "gold_spans": counter.n_gold, "matched_spans": counter.tp}
    table = ["ner evaluation (span-level scores; token accuracy reported separately)",
             f"  sentences ............ {len(gold)}",
             f"  gold spans ........... {counter.n_gold}",
             f"  predicted spans ...... {counter.n_pred}",
             f"  matched spans ........ {counter.tp}",
             f"  span precision ....... {counter.precision:.4f}",
             f"  span recall .......... {counter.recall:.4f}",
             f"  span F1 .............. {counter.f1:.4f}",
             f"  token accuracy ....... {_fmt(counter.token_accuracy)}"]
    _write_text(args.out, "\n".join(table) + "\n\n" + json.dumps(report) + "\n")
    return 0


def cmd_attn_dump(args) -> int:
    check_max_len(args.max_len)
    seg_fn = _segmenter_from_args(args)
    model = load_checkpoint(args.ckpt)  # run artifact, not under MARKKIT_RESOURCES
    try:  # its positions bound the length where they are fewer than --max-len
        check_max_len(model.cfg.max_positions)
    except ConfigError as exc:
        raise ConfigError(exc.reason, "checkpoint max_positions") from None
    vocab = load_vocab(_resource_path(args.vocab))
    max_len = min(args.max_len, model.cfg.max_positions)
    batch = [plain_example(marked) for marked in _encoded_lines(args, seg_fn, vocab, max_len)]
    if not batch:
        raise InputError(f"no non-empty lines in {args.infile}")
    # overflowing parameters show as non-finite weights: one error line, no numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        out = model.forward(batch)
    if not all(np.isfinite(probs).all() for probs in out.attentions):
        raise InputError(f"checkpoint {args.ckpt} gives non-finite attention weights")
    record = export_attention(out, batch, vocab=vocab)
    _write_text(args.out, json.dumps(record, ensure_ascii=False, indent=2) + "\n")
    return 0


def cmd_stats(args) -> int:
    _write_text(args.out, print_stats(corpus_stats(_read_examples(args.infile))))
    return 0


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def print_stats(stats: MaskingStats) -> str:
    """Human-readable table plus a machine-readable JSON block carrying
    the same numbers at full precision."""
    d = stats.to_dict()
    lines = ["masking schedule statistics", "counts"]
    for key, value in d["counts"].items():
        lines.append(f"  {key:<26} {value}")
    lines.append("rates")
    for key, value in d["rates"].items():
        lines.append(f"  {key:<26} {_fmt(value)}")
    return "\n".join(lines) + "\n\n" + json.dumps(d) + "\n"


# --- parser ----------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser,
                out_help: str = "output path ('-' or omitted: stdout)") -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"master RNG seed, >= 0 and < 2**64 (default {DEFAULT_SEED})")
    p.add_argument("--out", default=None, help=out_help)


def _add_encode_flags(p: argparse.ArgumentParser) -> None:
    """The flags of :func:`_encoded_lines`, which ``encode`` and
    ``attn-dump`` share."""
    p.add_argument("--vocab", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pretokenized", action="store_true",
                   help="input lines are already space-separated words")
    p.add_argument("--no-markers", action="store_true")
    p.add_argument("--pos-markers", action="store_true")
    p.add_argument("--max-len", type=int, default=512)


def _add_masking_flags(p: argparse.ArgumentParser) -> None:
    """The ``build-corpus`` schedule flags, one per :class:`MaskingConfig`
    value, with its defaults."""
    cfg = MaskingConfig()
    p.add_argument("--pos-markers", action="store_true", default=cfg.pos_markers)
    p.add_argument("--max-len", type=int, default=cfg.max_len)
    p.add_argument("--mask-ratio", type=float, default=cfg.mask_ratio)
    p.add_argument("--p-no-marker", type=float, default=cfg.p_no_marker)
    p.add_argument("--p-wwm", type=float, default=cfg.p_wwm)
    p.add_argument("--p-replace-word", type=float, default=cfg.p_replace_word)
    p.add_argument("--p-normal-marker-loss", type=float, default=cfg.p_normal_marker_loss)
    p.add_argument("--p-pinyin", type=float, default=cfg.policy.p_pinyin)
    p.add_argument("--k-syn", type=int, default=cfg.policy.k_syn)


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error as one JSON error line and exit 2, and
    with no abbreviated flags; subparsers are made from this class too.
    ``--help`` and ``--version`` print as before.

    A float flag takes a negative value written after a space, as with
    ``=``: argparse reads ``-inf``, ``-nan`` or ``-1e400`` as an option, so
    ``--mask-ratio -inf`` is passed on as ``--mask-ratio=-inf`` and meets
    the flag's own rule."""

    def __init__(self, *args, **kwargs):
        self.float_flags: set[str] = set()  # argparse's __init__ adds --help
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def add_argument(self, *names, **kwargs):
        if kwargs.get("type") is float:
            self.float_flags.update(names)
        return super().add_argument(*names, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for arg in sys.argv[1:] if args is None else args:
            if joined and joined[-1] in self.float_flags and arg.startswith("-") \
                    and _is_float(arg):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        _emit_error("usage", 2, message)
        self.exit(2)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="markkit",
        description="marker-aware Chinese pretraining toolkit")
    parser.add_argument("--version", action="version", version=f"markkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="segment raw text with the lexicon")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pos", action="store_true", help="append /POS to each word")
    _add_common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("encode", help="encode lines as marked token ids (JSONL)")
    _add_encode_flags(p)
    p.add_argument("--no-cls-sep", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("confusions", help="emit confusion candidates as TSV")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--pinyin", required=True)
    p.add_argument("--in", dest="infile", required=True, help="one word per line")
    p.add_argument("--k", type=int, default=5, help="synonym candidates per word")
    _add_common(p)
    p.set_defaults(func=cmd_confusions)

    p = sub.add_parser("build-corpus", help="pack documents and apply the "
                                            "masking/replacement schedule (JSONL out)")
    p.add_argument("--lexicon")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--pinyin", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pretokenized", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    _add_masking_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_build_corpus)

    p = sub.add_parser("pretrain", help="train the toy encoder on built examples")
    p.add_argument("--vocab", required=True)
    p.add_argument("--in", dest="infile", required=True, help="JSONL from build-corpus")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.2)
    p.add_argument("--hidden-dim", type=int, default=ModelConfig.hidden_dim)
    p.add_argument("--num-layers", type=int, default=ModelConfig.num_layers)
    p.add_argument("--num-heads", type=int, default=ModelConfig.num_heads)
    p.add_argument("--ffn-dim", type=int, default=ModelConfig.ffn_dim)
    p.add_argument("--max-positions", type=int, default=0,
                   help="0: infer from the longest example")
    p.add_argument("--rwd-classes", type=int, default=ModelConfig.rwd_classes, choices=(2, 3))
    p.add_argument("--dropout", type=float, default=ModelConfig.dropout)
    p.add_argument("--log-every", type=int, default=50)
    _add_common(p, out_help="checkpoint path (required; a checkpoint is not written to stdout)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("eval-ner", help="span precision/recall/F1 on CoNLL files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--scheme", default="auto", choices=("auto", "bmeso", "bio"))
    _add_common(p)
    p.set_defaults(func=cmd_eval_ner)

    p = sub.add_parser("attn-dump", help="export marker attention rows as JSON")
    p.add_argument("--ckpt", required=True)
    _add_encode_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_attn_dump)

    p = sub.add_parser("stats", help="schedule statistics over built examples")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    return parser


def _emit_error(category: str, code: int, exc: Exception | str) -> None:
    sys.stderr.write(json.dumps({"error": category, "exit_code": code,
                                 "message": str(exc)}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error (see _Parser), --help or --version
        return int(exc.code or 0)
    try:
        if not 0 <= args.seed < 2**64:  # one rule for every subcommand, before any file is read
            raise ConfigError(f"must be >= 0 and < 2**64, got {args.seed}", "seed")
        return args.func(args)
    except ResourceError as exc:
        _emit_error("resource", 3, exc)
        return 3
    except (ParseError, InputError) as exc:
        _emit_error("input", 4, exc)
        return 4
    except ConfigError as exc:
        _emit_error("config", 5, _flag_error(exc, args))
        return 5
    except MarkkitError as exc:
        _emit_error("error", 1, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
