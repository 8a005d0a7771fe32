#!/usr/bin/env python3
"""markkit benchmark: one command, three workloads.

    python3 benchmark/run.py --workload corpus-wide --seed 1 --seconds 30 --trace 0

Makes the realistic-shape world (once per checkout, cached under
``.bench_build/``) and the run's seeded inputs, then starts
``measure.py`` in a fresh interpreter, which runs the workload through
markkit's public entry points, checks the outputs and prints one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_build" / "benchmark"
TIMEOUT_S = 170

WORKLOADS = {
    # build-corpus, default schedule: confusion sampling dominates. Rounds
    # take the run's chunks in turn, so a run covers more text than one
    # chunk while each round stays short enough for several per run.
    "corpus-wide": {"kind": "corpus", "docs": 8, "chunks": 4, "workers": 1, "flags": [],
                    "expect": {"p_replace_word": 0.30, "pos_markers": False}},
    # build-corpus, POS markers and MLM only: confusion is bypassed
    "corpus-mlm": {"kind": "corpus", "docs": 350, "chunks": 1, "workers": 2,
                   "flags": ["--p-replace-word", "0", "--pos-markers"],
                   "expect": {"p_replace_word": 0.0, "pos_markers": True}},
    # the pretrain loop at V = 21,128, L = 128, B = 8, CLI default model
    "train-wide": {"kind": "train", "examples": 256, "batch_size": 8,
                   "model": {"hidden_dim": 64, "num_layers": 2, "num_heads": 4,
                             "ffn_dim": 128}},
}


def make_inputs(spec: dict, world: Path, work: Path, seed: int, max_len: int = 128) -> list[Path]:
    import inputs

    if spec["kind"] == "corpus":
        words = inputs.read_lexicon_words(world)
        paths = [work / f"corpus-{i}.txt" for i in range(spec["chunks"])]
        for i, path in enumerate(paths):
            inputs.write_corpus(path, words, f"{seed}/{i}", spec["docs"])
        return paths
    vocab_size = sum(1 for _ in open(world / "vocab.txt", encoding="utf-8"))
    path = work / "examples.jsonl"
    inputs.write_train_examples(path, vocab_size, seed, spec["examples"], max_len)
    return [path]


def run(spec: dict, seed: int, seconds: float, trace: bool, shape=None) -> tuple[int, str]:
    """Prepare inputs, run the measuring process and return its exit code
    and standard output."""
    import inputs

    CACHE.mkdir(parents=True, exist_ok=True)
    world = inputs.ensure_world(CACHE, shape or inputs.WorldShape())
    with tempfile.TemporaryDirectory(prefix="run-", dir=CACHE) as tmp:
        work = Path(tmp)
        paths = make_inputs(spec, world, work, seed)
        cmd = [sys.executable, str(HERE / "measure.py"), "--spec", json.dumps(spec),
               "--world", str(world), "--input", *map(str, paths), "--work", str(work),
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        env = dict(os.environ)
        env.setdefault("OPENBLAS_NUM_THREADS", "1")
        try:
            done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
            return 1, ""
    return done.returncode, done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "markkit" / "__init__.py").is_file():
        print(f"markkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    code, out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
