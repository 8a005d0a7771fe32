import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import markkit
from helpers import reference_synonyms
from markkit.cli import clamp_workers, main, print_stats
from markkit.errors import ConfigError
from markkit.ner import NerExample, write_conll
from markkit.pretrain import (MaskingStats, PretrainingExample, corpus_stats,
                              example_from_json, example_to_json)
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

    def test_packing_goes_through_cli_pack_corpus(self, env, tmp_path, monkeypatch):
        """`benchmark/spans.py` times packing, with segmentation nested in it,
        by wrapping `markkit.cli.pack_corpus`: an in-process build must call
        that name for every sequence it writes, and segment inside the call."""
        root, _ = env
        packed, outside = [], []
        real_pack, real_segment = markkit.cli.pack_corpus, markkit.segmenter.segment
        depth = 0

        def pack(*args, **kwargs):
            nonlocal depth
            depth += 1
            try:
                result = real_pack(*args, **kwargs)
            finally:
                depth -= 1
            packed.extend(result)
            return result

        def segment(*args, **kwargs):
            outside.append(depth == 0)
            return real_segment(*args, **kwargs)

        monkeypatch.setattr(markkit.cli, "pack_corpus", pack)
        monkeypatch.setattr(markkit.segmenter, "segment", segment)
        out = tmp_path / "ex.jsonl"
        assert run_build(root, out) == 0
        assert len(packed) == len(out.read_text(encoding="utf-8").splitlines()) > 0
        assert outside and not any(outside)

    def test_workers_do_not_change_bytes_on_one_document(self, env, tmp_path):
        """A corpus without blank lines is one document, split across workers."""
        root, _ = env
        lines = (root / "corpus.txt").read_text(encoding="utf-8").splitlines()
        one_doc = tmp_path / "one_doc.txt"
        one_doc.write_text("\n".join(ln for ln in lines if ln.strip()) + "\n", encoding="utf-8")
        outs = [tmp_path / f"w{w}.jsonl" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert main(["build-corpus", *res_args(root), "--in", str(one_doc),
                         "--out", str(out), "--max-len", "48", "--workers", str(w)]) == 0
        assert len(outs[0].read_text(encoding="utf-8").splitlines()) > 2
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_output_is_valid_pretrain_input(self, env, tmp_path):
        root, _ = env
        out = tmp_path / "ex.jsonl"
        run_build(root, out)
        examples = [example_from_json(line)
                    for line in out.read_text(encoding="utf-8").splitlines()]
        assert examples
        assert all(ex.attention_len <= 48 for ex in examples)

    @pytest.mark.parametrize("extra,digest", [
        ([], "c7701184b34d837783f1a90f1b8eba2dfb786d5df9ad7f44747ff627dcb133d8"),
        (["--pos-markers"], "dfc6ee5fb09db4f91528c9825a601012eeba1f7f65c2c259e3118b557354fb91"),
        *((["--p-replace-word", "0", "--pos-markers", "--workers", workers],
           "bc4efb786cca99993965d1a218bd3d8adbff6d963b647660ba279f33cf1b56fb")
          for workers in ("1", "2")),
    ])
    def test_golden_digest(self, env, tmp_path, extra, digest):
        """Output bytes are pinned: a refactor of `build_example`, the confusion
        lookups or the resource loaders must leave them unchanged."""
        out = tmp_path / "ex.jsonl"
        assert run_build(env[0], out, extra=extra) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("flag,malformed", [("--embeddings", "3 words\n"),
                                                ("--pinyin", "no tab here\n")])
    def test_mlm_only_does_not_parse_confusion_files(self, env, tmp_path, capsys,
                                                     flag, malformed):
        """With `--p-replace-word 0` no word can be replaced: a malformed
        confusion file changes nothing, and a missing one still exits 3."""
        root, _ = env
        mlm = ["--p-replace-word", "0", "--pos-markers"]
        expected, out = tmp_path / "expected.jsonl", tmp_path / "ex.jsonl"
        assert run_build(root, expected, extra=mlm) == 0
        bad = tmp_path / "malformed.txt"
        bad.write_text(malformed, encoding="utf-8")
        assert run_build(root, out, extra=[*mlm, flag, str(bad)]) == 0
        assert out.read_bytes() == expected.read_bytes()
        assert run_build(root, out, extra=[flag, str(bad)]) == 4  # parsed when it is used
        missing = tmp_path / "missing.txt"
        capsys.readouterr()
        assert run_build(root, tmp_path / "none.jsonl", extra=[*mlm, flag, str(missing)]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "resource" and err["message"].startswith(f"cannot read {missing}")
        assert not (tmp_path / "none.jsonl").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_parse_error_in_a_document_exit_4(self, env, tmp_path, capsys, workers):
        """A ParseError raised while a worker segments a document reaches `main`
        as it does in process: exit 4, one JSON error line, no output."""
        root, _ = env
        docs = (root / "corpus_tok.txt").read_text(encoding="utf-8").split("\n\n")
        bad, out = tmp_path / "bad.txt", tmp_path / "ex.jsonl"
        bad.write_text("\n\n".join([*docs[:3], "天气  很", *docs[3:]]), encoding="utf-8")
        code = main(["build-corpus", *res_args(root), "--in", str(bad), "--out", str(out),
                     "--pretokenized", "--max-len", "48", "--workers", workers])
        assert code == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "input", "exit_code": 4,
                                        "message": "empty word token (double or trailing space?)"}
        assert not out.exists()

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

    def test_k_larger_than_bucket_lists_whole_bucket(self, env, tmp_path, capsys):
        root, world = env
        emb = world.embeddings
        words = tmp_path / "words.txt"
        words.write_text("\n".join(world.words[:5]) + "\n", encoding="utf-8")
        code = main(["confusions", "--embeddings", str(root / "res/embeddings.txt"),
                     "--pinyin", str(root / "res/pinyin.tsv"),
                     "--in", str(words), "--k", str(len(emb) + 3)])
        assert code == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        for word in world.words[:5]:
            expected = reference_synonyms(word, emb, len(emb) + 3)
            assert len(expected) == sum(len(w) == len(word) for w in emb.words) - 1
            assert [(r[2], r[3]) for r in rows if r[0] == word and r[1] == "SYNONYM"] == \
                [(w, f"{score:.6f}") for score, w in expected]


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

    def test_golden_digest(self, env, tmp_path):
        """`stats` bytes (table and JSON block) are pinned, like `build-corpus`'s."""
        root, _ = env
        examples, out = tmp_path / "ex.jsonl", tmp_path / "stats.txt"
        assert run_build(root, examples) == 0
        assert main(["stats", "--in", str(examples), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "9b64e5003481e99e7bd8759184bf067bf57807f4512d93a589078b75737e8e14"
        assert hashlib.sha256(print_stats(MaskingStats()).encode()).hexdigest() == \
            "49708dc81d08afff21b50e9529890851416d10b349c3076c35250e5705b716ce"

    def test_empty_stats_table(self):
        text = print_stats(MaskingStats())
        block = json.loads(text.split("\n\n")[-1])
        assert block["counts"]["examples"] == 0
        assert all(v is None for v in block["rates"].values())
        # JSON block re-parses to the same values
        assert json.loads(json.dumps(block)) == block


def test_clamp_workers():
    assert clamp_workers(4, 2) == 2
    assert clamp_workers(1, 64) == 1
    assert clamp_workers(3, 3) == 3
    assert clamp_workers(5, None) == 5
    for requested in (0, -3):
        with pytest.raises(ConfigError, match="--workers must be positive"):
            clamp_workers(requested, 2)


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

    @pytest.mark.parametrize("command,flag,value", [
        ("pretrain", "--lr", "nan"), ("pretrain", "--lr", "inf"),
        ("pretrain", "--log-every", "-1"),
        ("build-corpus", "--workers", "0"), ("build-corpus", "--workers", "-3"),
    ])
    def test_bad_numeric_flag_exit_5(self, env, tmp_path, capsys, command, flag, value):
        root, _ = env
        if command == "pretrain":
            examples = tmp_path / "ex.jsonl"
            run_build(root, examples)
            argv = ["pretrain", "--vocab", str(root / "res/vocab.txt"), "--in", str(examples),
                    "--steps", "2", "--log-every", "0"]
        else:
            argv = ["build-corpus", *res_args(root), "--in", str(root / "corpus.txt")]
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out), flag, value]) == 5
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config" and flag in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("rwd_labels,loss_mask", [
        ([[2, "NORMAL"]], [1, 2, 9]),
        ([[2, "NORMAL"], [2, "PINYIN_CONFUSION"]], []),
    ])
    def test_malformed_rwd_labels_exit_4(self, env, tmp_path, capsys, rwd_labels, loss_mask):
        root, _ = env
        record = json.loads(example_to_json(PretrainingExample(
            input_ids=(2, 6, 5, 3), mlm_labels={1: 6}, rwd_labels={}, rwd_loss_mask={})))
        record.update(rwd_labels=rwd_labels, rwd_loss_mask=loss_mask)
        examples = tmp_path / "ex.jsonl"
        examples.write_text(json.dumps(record) + "\n")
        code = main(["pretrain", "--vocab", str(root / "res/vocab.txt"),
                     "--in", str(examples), "--out", str(tmp_path / "m.ckpt"),
                     "--steps", "1", "--log-every", "0"])
        assert code == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["message"].startswith("line 1: ")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("kind", ["lexicon", "vocab", "in", "conll"])
    def test_non_utf8_file_exit_4(self, env, tmp_path, capsys, kind):
        root, _ = env
        bad = tmp_path / "bad.txt"
        bad.write_bytes("好\n".encode("utf-8") + b"\xff\n")
        argv = {
            "lexicon": ["segment", "--lexicon", str(bad), "--in", str(root / "corpus.txt")],
            "vocab": ["encode", "--vocab", str(bad), "--pretokenized",
                      "--in", str(root / "corpus_tok.txt")],
            "in": ["segment", "--lexicon", str(root / "res/lexicon.tsv"), "--in", str(bad)],
            "conll": ["eval-ner", "--pred", str(bad), "--gold", str(bad)],
        }[kind]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "input"
        assert err["message"].startswith(f"line 2: {bad} is not valid UTF-8")

    def test_non_utf8_stdin_exit_4(self, env):
        """`--in -` goes through the same decoder as files, whatever the locale."""
        root, _ = env
        src = str(Path(markkit.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "markkit.cli", "segment",
             "--lexicon", str(root / "res/lexicon.tsv"), "--in", "-"],
            input="好\n".encode("utf-8") + b"\xff\n", capture_output=True,
            env={**os.environ, "LC_ALL": "C.UTF-8", "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 4 and proc.stdout == b""
        lines = proc.stderr.decode("utf-8").strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "input"
        assert err["message"].startswith("line 2: standard input is not valid UTF-8")

    @pytest.mark.parametrize("batched", [False, True])
    def test_label_past_input_ids_exit_4(self, env, tmp_path, capsys, batched):
        root, _ = env
        short = PretrainingExample(input_ids=(2, 6, 3), mlm_labels={5: 6},
                                   rwd_labels={}, rwd_loss_mask={})
        longer = PretrainingExample(input_ids=(2, 6, 7, 8, 9, 6, 7, 3), mlm_labels={2: 7},
                                    rwd_labels={}, rwd_loss_mask={})
        lines = [longer, short] if batched else [short]
        examples = tmp_path / "ex.jsonl"
        examples.write_text("".join(example_to_json(ex) + "\n" for ex in lines))
        code = main(["pretrain", "--vocab", str(root / "res/vocab.txt"),
                     "--in", str(examples), "--out", str(tmp_path / "m.ckpt"),
                     "--steps", "1", "--log-every", "0"])
        assert code == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["error"] == "input"
        assert f"line {len(lines)}: MLM label position 5" in record["message"]
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["segment", "pretrain"])
    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    def test_unwritable_out_exit_3(self, env, tmp_path, capsys, command, target):
        root, _ = env
        if command == "segment":
            argv = ["segment", "--lexicon", str(root / "res/lexicon.tsv"),
                    "--in", str(root / "corpus.txt")]
        else:
            examples = tmp_path / "ex.jsonl"
            run_build(root, examples)
            argv = ["pretrain", "--vocab", str(root / "res/vocab.txt"), "--in", str(examples),
                    "--steps", "1", "--log-every", "0", "--hidden-dim", "16",
                    "--ffn-dim", "24", "--num-heads", "2"]
        out = tmp_path if target == "directory" else tmp_path / "missing" / "out"
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "resource" and err["message"].startswith(f"cannot write {out}")
        assert not (tmp_path / "missing").exists()

    def pretrain_on_record(self, root, tmp_path, capsys, **fields):
        """Exit code and the one JSON error line of `pretrain` on one record."""
        record = json.loads(example_to_json(PretrainingExample(
            input_ids=(2, 6, 3), mlm_labels={1: 6}, rwd_labels={}, rwd_loss_mask={})))
        examples = tmp_path / "ex.jsonl"
        examples.write_text(json.dumps({**record, **fields}) + "\n")
        code = main(["pretrain", "--vocab", str(root / "res/vocab.txt"),
                     "--in", str(examples), "--out", str(tmp_path / "m.ckpt"),
                     "--steps", "1", "--log-every", "0"])
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and not (tmp_path / "m.ckpt").exists()
        return code, json.loads(err[0])

    @pytest.mark.parametrize("field,value,shown", [
        ("input_ids", [2, 6.0, 3], "input id 6.0"),
        ("input_ids", [2, "6", 3], "input id '6'"),
        ("mlm_labels", [[1, 6.0]], "MLM label token id 6.0"),
    ])
    def test_non_integer_token_id_exit_4(self, env, tmp_path, capsys, field, value, shown):
        code, err = self.pretrain_on_record(env[0], tmp_path, capsys, **{field: value})
        assert code == 4 and err["error"] == "input"
        assert err["message"] == f"line 1: {shown} is not an integer"

    @pytest.mark.parametrize("past_end", [True, False])
    def test_label_token_id_out_of_range_exit_4(self, env, tmp_path, capsys, past_end):
        root, world = env
        token = len(world.vocab) if past_end else -1
        code, err = self.pretrain_on_record(root, tmp_path, capsys, mlm_labels=[[1, token]])
        assert code == 4 and err["error"] == "input"
        assert err["message"].startswith("MLM label token id out of range")

    @pytest.mark.parametrize("field,value,message", [
        ("n_chars", "3", "meta.n_chars '3' is not an integer"),
        ("n_chars", 2.5, "meta.n_chars 2.5 is not an integer"),
        ("no_marker", "yes", "meta.no_marker 'yes' is not a boolean"),
    ])
    def test_malformed_meta_exit_4(self, tmp_path, capsys, field, value, message):
        record = json.loads(example_to_json(PretrainingExample(
            input_ids=(2, 6, 3), mlm_labels={1: 6}, rwd_labels={}, rwd_loss_mask={})))
        record["meta"][field] = value
        examples = tmp_path / "ex.jsonl"
        examples.write_text(json.dumps(record) + "\n")
        assert main(["stats", "--in", str(examples)]) == 4
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert out == "" and len(lines) == 1
        assert json.loads(lines[0]) == {"error": "input", "exit_code": 4,
                                        "message": f"line 1: {message}"}

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
