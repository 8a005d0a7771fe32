#!/usr/bin/env python3
"""End-to-end demo on toy resources.

Builds a small corpus with the full masking/replacement schedule, trains
the encoder for a few hundred steps, reports schedule statistics and
final accuracies, and dumps marker attention for one batch.
"""

import argparse
import json
import tempfile
from pathlib import Path

from markkit.model import MarkBert, ModelConfig, export_attention, save_checkpoint, train_step
from markkit.pretrain import MaskingConfig, corpus_stats, generate_examples, read_documents
from markkit.resources import Resources
from markkit.segmenter import make_lexicon_segmenter
from markkit.toy import toy_corpus_lines, write_toy_resources


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="working directory (default: a temp dir)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sentences", type=int, default=400)
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--lr", type=float, default=0.2)
    args = parser.parse_args()

    workdir = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="markkit-"))
    workdir.mkdir(parents=True, exist_ok=True)
    world = write_toy_resources(workdir / "res", seed=args.seed)
    resources = Resources(embeddings=world.embeddings, pinyin=world.pinyin)

    cfg = MaskingConfig(max_len=48)
    lines = toy_corpus_lines(world.words, args.sentences, seed=args.seed + 1)
    examples = generate_examples(list(read_documents(lines)),
                                 make_lexicon_segmenter(world.lexicon), world.vocab,
                                 resources, cfg, corpus_seed=args.seed + 2)
    stats = corpus_stats(examples)
    print("schedule rates:", json.dumps(stats.to_dict()["rates"]))

    model = MarkBert(ModelConfig(vocab_size=len(world.vocab), hidden_dim=64,
                                 num_layers=2, num_heads=4, ffn_dim=128,
                                 max_positions=48, seed=args.seed))
    batch_size = 8
    batches = [examples[i:i + batch_size] for i in range(0, len(examples), batch_size)]
    metrics = None
    for step in range(args.steps):
        metrics = train_step(model, batches[step % len(batches)], args.lr)
        if (step + 1) % 50 == 0:
            print(f"step {step + 1}: total={metrics.loss.total:.4f} "
                  f"mlm_acc={metrics.mlm_accuracy} rwd_acc={metrics.rwd_accuracy}")

    ckpt = workdir / "model.ckpt"
    save_checkpoint(model, ckpt)
    out = model.forward(batches[0])
    record = export_attention(out, batches[0], vocab=world.vocab)
    attn_path = workdir / "attention.json"
    attn_path.write_text(json.dumps(record, ensure_ascii=False, indent=2),
                         encoding="utf-8")
    print(f"checkpoint: {ckpt}")
    print(f"attention dump: {attn_path} "
          f"({sum(len(e['rows']) for e in record['examples'])} marker rows)")


if __name__ == "__main__":
    main()
