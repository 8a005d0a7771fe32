#!/usr/bin/env python3
"""End-to-end demo on toy resources, run through the ``markkit`` CLI.

Writes a toy world and corpus, then runs ``build-corpus`` (the full
masking/replacement schedule), ``stats``, ``pretrain`` for a few hundred
steps and ``attn-dump`` on the corpus's first 8 sentences, each through
``markkit.cli.main``. Exits with the first non-zero exit code.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from markkit.cli import main as markkit
from markkit.toy import write_toy_corpus, write_toy_resources


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="working directory (default: a temp dir)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sentences", type=int, default=400)
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--lr", type=float, default=0.2)
    args = parser.parse_args()

    workdir = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="markkit-"))
    world = write_toy_resources(workdir / "res", seed=args.seed)
    res = world.paths
    corpus, head = (write_toy_corpus(workdir / name, world.words, n, seed=args.seed + 1)
                    for name, n in (("corpus.txt", args.sentences), ("head.txt", 8)))
    examples, ckpt, attention = (workdir / name for name in
                                 ("examples.jsonl", "model.ckpt", "attention.json"))
    commands = [
        ["build-corpus", "--lexicon", res["lexicon"], "--embeddings", res["embeddings"],
         "--pinyin", res["pinyin"], "--vocab", res["vocab"], "--in", corpus,
         "--out", examples, "--max-len", "48", "--seed", args.seed + 2],
        ["stats", "--in", examples],
        ["pretrain", "--vocab", res["vocab"], "--in", examples, "--out", ckpt,
         "--steps", args.steps, f"--lr={args.lr}", "--hidden-dim", "64", "--num-layers", "2",
         "--num-heads", "4", "--ffn-dim", "128", "--max-positions", "48", "--seed", args.seed],
        ["attn-dump", "--ckpt", ckpt, "--vocab", res["vocab"], "--lexicon", res["lexicon"],
         "--in", head, "--out", attention],
    ]
    for command in commands:
        code = markkit([str(arg) for arg in command])
        if code:
            return code
    print(f"attention dump: {attention}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
