import json

import pytest

from markkit.cli import main, print_stats
from markkit.ner import NerExample, write_conll
from markkit.pretrain import MaskingStats, corpus_stats, example_from_json
from markkit.toy import write_toy_corpus, write_toy_resources


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    world = write_toy_resources(root / "res", seed=0)
    write_toy_corpus(root / "corpus.txt", world.words, 80, seed=3)
    write_toy_corpus(root / "corpus_tok.txt", world.words, 80, seed=3, pretokenized=True)
    return root, world


def res_args(root):
    return ["--lexicon", str(root / "res/lexicon.tsv"),
            "--embeddings", str(root / "res/embeddings.txt"),
            "--pinyin", str(root / "res/pinyin.tsv"),
            "--vocab", str(root / "res/vocab.txt")]


def run_build(root, out, extra=()):
    return main(["build-corpus", *res_args(root),
                 "--in", str(root / "corpus.txt"), "--out", str(out),
                 "--max-len", "48", "--seed", "7", *extra])


class TestSegmentCommand:
    def test_space_joined_words(self, env, tmp_path, capsys):
        root, world = env
        out = tmp_path / "seg.txt"
        code = main(["segment", "--lexicon", str(root / "res/lexicon.tsv"),
                     "--in", str(root / "corpus.txt"), "--out", str(out)])
        assert code == 0
        raw = (root / "corpus.txt").read_text(encoding="utf-8").splitlines()
        seg = out.read_text(encoding="utf-8").splitlines()
        assert len(raw) == len(seg)
        for raw_line, seg_line in zip(raw, seg):
            assert seg_line.replace(" ", "") == raw_line
            assert (seg_line == "") == (raw_line == "")

    def test_pos_flag(self, env, tmp_path):
        root, world = env
        out = tmp_path / "seg.txt"
        main(["segment", "--lexicon", str(root / "res/lexicon.tsv"),
              "--in", str(root / "corpus.txt"), "--out", str(out), "--pos"])
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert all("/" in token for token in first.split(" "))


class TestEncodeCommand:
    def test_no_markers_equals_plain_encoding(self, env, tmp_path):
        root, world = env
        marked_out, plain_out = tmp_path / "m.jsonl", tmp_path / "p.jsonl"
        base = ["encode", "--vocab", str(root / "res/vocab.txt"),
                "--lexicon", str(root / "res/lexicon.tsv"),
                "--in", str(root / "corpus.txt")]
        assert main([*base, "--out", str(marked_out)]) == 0
        assert main([*base, "--out", str(plain_out), "--no-markers"]) == 0
        for m_line, p_line in zip(marked_out.read_text().splitlines(),
                                  plain_out.read_text().splitlines()):
            m, p = json.loads(m_line), json.loads(p_line)
            assert p["marker_positions"] == []
            markers = set(m["marker_positions"])
            stripped = [t for i, t in enumerate(m["ids"]) if i not in markers]
            assert stripped == p["ids"]


class TestBuildCorpusCommand:
    def test_deterministic_bytes(self, env, tmp_path):
        root, _ = env
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_build(root, a) == 0
        assert run_build(root, b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_bytes(self, env, tmp_path):
        root, _ = env
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_build(root, a) == 0
        assert run_build(root, b, extra=["--workers", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_is_valid_pretrain_input(self, env, tmp_path):
        root, _ = env
        out = tmp_path / "ex.jsonl"
        run_build(root, out)
        examples = [example_from_json(line)
                    for line in out.read_text(encoding="utf-8").splitlines()]
        assert examples
        assert all(ex.attention_len <= 48 for ex in examples)

    def test_pretokenized_input(self, env, tmp_path):
        root, _ = env
        out = tmp_path / "ex.jsonl"
        code = main(["build-corpus", *res_args(root),
                     "--in", str(root / "corpus_tok.txt"), "--out", str(out),
                     "--pretokenized", "--max-len", "48", "--seed", "7"])
        assert code == 0 and out.read_text().strip()


class TestPretrainCommand:
    def test_train_and_dump_attention(self, env, tmp_path, capsys):
        root, _ = env
        examples = tmp_path / "ex.jsonl"
        run_build(root, examples)
        ckpt = tmp_path / "model.ckpt"
        code = main(["pretrain", "--vocab", str(root / "res/vocab.txt"),
                     "--in", str(examples), "--out", str(ckpt),
                     "--steps", "8", "--log-every", "0", "--hidden-dim", "16",
                     "--ffn-dim", "24", "--num-heads", "2", "--seed", "5"])
        assert code == 0 and ckpt.exists()
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["steps"] == 8

        attn = tmp_path / "attn.json"
        code = main(["attn-dump", "--ckpt", str(ckpt),
                     "--vocab", str(root / "res/vocab.txt"),
                     "--lexicon", str(root / "res/lexicon.tsv"),
                     "--in", str(root / "corpus.txt"), "--out", str(attn),
                     "--max-len", "48"])
        assert code == 0
        record = json.loads(attn.read_text(encoding="utf-8"))
        assert record["num_layers"] == 2
        first = record["examples"][0]
        assert len(first["rows"]) == record["num_layers"] * record["num_heads"] * \
            len(first["marker_positions"])


class TestBinaryRwdPipeline:
    def test_two_class_training_end_to_end(self, env, tmp_path, capsys):
        root, _ = env
        examples = tmp_path / "ex.jsonl"
        run_build(root, examples)
        ckpt = tmp_path / "binary.ckpt"
        code = main(["pretrain", "--vocab", str(root / "res/vocab.txt"),
                     "--in", str(examples), "--out", str(ckpt),
                     "--steps", "4", "--log-every", "0", "--hidden-dim", "16",
                     "--ffn-dim", "24", "--num-heads", "2", "--rwd-classes", "2"])
        assert code == 0
        from markkit.model import load_checkpoint
        model = load_checkpoint(ckpt)
        assert model.cfg.rwd_classes == 2
        assert model.params["rwd.w"].value.shape[1] == 2


class TestConfusionsCommand:
    def test_tsv_format(self, env, tmp_path, capsys):
        root, world = env
        words = tmp_path / "words.txt"
        words.write_text("\n".join(world.words[:5]) + "\n", encoding="utf-8")
        code = main(["confusions", "--embeddings", str(root / "res/embeddings.txt"),
                     "--pinyin", str(root / "res/pinyin.tsv"),
                     "--in", str(words), "--k", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines:
            word, kind, replacement, score = line.split("\t")
            assert kind in ("PINYIN", "SYNONYM")
            assert len(replacement) == len(word)
            assert 0.0 <= abs(float(score)) <= 1.0


class TestEvalNerCommand:
    def test_identical_files_score_one(self, env, tmp_path, capsys):
        examples = [NerExample(chars=("北", "京", "在"),
                               labels=("B-LOC", "E-LOC", "O"))]
        pred, gold = tmp_path / "p.tsv", tmp_path / "g.tsv"
        write_conll(examples, pred)
        write_conll(examples, gold)
        assert main(["eval-ner", "--pred", str(pred), "--gold", str(gold)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out.strip().splitlines()[-1])
        assert report["span_precision"] == report["span_recall"] == report["span_f1"] == 1.0
        assert report["token_accuracy"] == 1.0

    def test_length_mismatch_exit_code(self, env, tmp_path, capsys):
        pred, gold = tmp_path / "p.tsv", tmp_path / "g.tsv"
        write_conll([NerExample(chars=("北",), labels=("O",))], pred)
        write_conll([NerExample(chars=("北", "京"), labels=("O", "O"))], gold)
        assert main(["eval-ner", "--pred", str(pred), "--gold", str(gold)]) == 4


class TestStatsCommand:
    def test_table_and_json_agree(self, env, tmp_path, capsys):
        root, _ = env
        examples = tmp_path / "ex.jsonl"
        run_build(root, examples)
        assert main(["stats", "--in", str(examples)]) == 0
        out = capsys.readouterr().out
        block = json.loads(out.split("\n\n")[-1])
        direct = corpus_stats(example_from_json(line)
                              for line in examples.read_text().splitlines())
        assert block == direct.to_dict()
        # table shows the same rates at 4 decimals
        for key, value in block["rates"].items():
            shown = "-" if value is None else f"{value:.4f}"
            assert f"{key:<26} {shown}" in out

    def test_empty_stats_table(self):
        text = print_stats(MaskingStats())
        block = json.loads(text.split("\n\n")[-1])
        assert block["counts"]["examples"] == 0
        assert all(v is None for v in block["rates"].values())
        # JSON block re-parses to the same values
        assert json.loads(json.dumps(block)) == block


class TestErrorHandling:
    def test_missing_resource_exit_3(self, tmp_path, capsys):
        code = main(["segment", "--lexicon", str(tmp_path / "nope.tsv"),
                     "--in", str(tmp_path / "also-nope.txt")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "resource" and err["exit_code"] == 3

    def test_unknown_subcommand_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_malformed_input_exit_4(self, env, tmp_path, capsys):
        root, _ = env
        bad = tmp_path / "bad.txt"
        bad.write_text("a  b\n", encoding="utf-8")
        code = main(["encode", "--vocab", str(root / "res/vocab.txt"),
                     "--pretokenized", "--in", str(bad)])
        assert code == 4

    def test_config_error_exit_5(self, env, tmp_path, capsys):
        root, _ = env
        code = main(["encode", "--vocab", str(root / "res/vocab.txt"),
                     "--in", str(root / "corpus.txt")])  # no lexicon, not pretokenized
        assert code == 5

    @pytest.mark.parametrize("flag,value", [("--batch-size", "0"), ("--batch-size", "-3"),
                                            ("--steps", "-1")])
    def test_bad_pretrain_flag_exit_5(self, env, tmp_path, capsys, flag, value):
        root, _ = env
        examples = tmp_path / "ex.jsonl"
        run_build(root, examples)
        capsys.readouterr()
        code = main(["pretrain", "--vocab", str(root / "res/vocab.txt"),
                     "--in", str(examples), "--out", str(tmp_path / "m.ckpt"),
                     "--log-every", "0", flag, value])
        assert code == 5
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config" and flag in err["message"]
        assert not (tmp_path / "m.ckpt").exists()

    def test_resources_env_prefix(self, env, tmp_path, capsys, monkeypatch):
        root, _ = env
        monkeypatch.setenv("MARKKIT_RESOURCES", str(root / "res"))
        out = tmp_path / "seg.txt"
        code = main(["segment", "--lexicon", "lexicon.tsv",
                     "--in", str(root / "corpus.txt"), "--out", str(out)])
        assert code == 0 and out.exists()

    def test_env_prefix_does_not_touch_checkpoint_path(self, env, tmp_path,
                                                       capsys, monkeypatch):
        root, _ = env
        examples = tmp_path / "ex.jsonl"
        run_build(root, examples)
        ckpt = tmp_path / "model.ckpt"
        assert main(["pretrain", "--vocab", str(root / "res/vocab.txt"),
                     "--in", str(examples), "--out", str(ckpt), "--steps", "2",
                     "--log-every", "0", "--hidden-dim", "16", "--ffn-dim", "24",
                     "--num-heads", "2"]) == 0
        monkeypatch.setenv("MARKKIT_RESOURCES", str(root / "res"))
        attn = tmp_path / "attn.json"
        code = main(["attn-dump", "--ckpt", str(ckpt), "--vocab", "vocab.txt",
                     "--lexicon", "lexicon.tsv", "--in", str(root / "corpus.txt"),
                     "--out", str(attn), "--max-len", "48"])
        assert code == 0 and attn.exists()
