import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import markkit
import markkit.cli
from helpers import reference_synonyms, write_conll
from markkit.cli import (_masking_config, _read_lines, build_parser, clamp_workers, main,
                         print_stats)
from markkit.confusion import ConfusionPolicy
from markkit.errors import ConfigError
from markkit.marker_encoder import load_vocab
from markkit.model import MarkBert, ModelConfig, save_checkpoint
from markkit.ner import NerExample
from markkit.pretrain import (MaskingConfig, MaskingStats, PretrainingExample,
                              corpus_stats, example_from_json, example_to_json, read_documents,
                              usable_cpus)
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
        as it does in process: exit 4, one JSON error line naming the line of
        --in, no output."""
        root, _ = env
        docs = (root / "corpus_tok.txt").read_text(encoding="utf-8").split("\n\n")
        text = "\n\n".join([*docs[:3], "天气  很", *docs[3:]])
        bad, out = tmp_path / "bad.txt", tmp_path / "ex.jsonl"
        bad.write_text(text, encoding="utf-8")
        lineno = text[:text.index("天气  很")].count("\n") + 1
        assert lineno > 3
        code = main(["build-corpus", *res_args(root), "--in", str(bad), "--out", str(out),
                     "--pretokenized", "--max-len", "48", "--workers", workers])
        assert code == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "input", "exit_code": 4,
            "message": f"line {lineno}: empty word token (double or trailing space?)"}
        assert not out.exists()

    def test_parse_error_in_a_split_document_names_its_line(self, env, tmp_path, capsys):
        """One document without blank lines, which `--workers 2` splits into
        parts, each segmenting the whole document: a bad pretokenized line in
        its second half exits 4 naming that line, at 1 and 2 workers."""
        root, _ = env
        lines = [ln for ln in (root / "corpus_tok.txt").read_text(encoding="utf-8").splitlines()
                 if ln]
        lineno = 3 * len(lines) // 4
        lines[lineno - 1] = lines[lineno - 1].replace(" ", "  ", 1)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for workers in ("1", "2"):
            capsys.readouterr()
            code = main(["build-corpus", *res_args(root), "--in", str(bad), "--pretokenized",
                         "--out", str(tmp_path / "ex.jsonl"), "--max-len", "48",
                         "--workers", workers])
            assert code == 4 and not (tmp_path / "ex.jsonl").exists()
            assert json.loads(capsys.readouterr().err) == {
                "error": "input", "exit_code": 4,
                "message": f"line {lineno}: empty word token (double or trailing space?)"}

    @staticmethod
    def masking_config(*flags):
        return _masking_config(build_parser().parse_args(
            ["build-corpus", "--embeddings", "e", "--pinyin", "p", "--vocab", "v",
             "--in", "c", *flags]))

    def test_default_flags_give_default_masking_config(self):
        assert self.masking_config() == MaskingConfig()

    def test_policy_and_pos_marker_flags_reach_masking_config(self):
        cfg = self.masking_config("--p-pinyin", "0.2", "--k-syn", "3", "--pos-markers")
        assert cfg.policy == ConfusionPolicy(p_pinyin=0.2, k_syn=3)
        assert cfg.pos_markers

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

    def test_checkpoint_does_not_depend_on_blas_threads(self, env, tmp_path):
        """Unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set, importing
        markkit pins OpenBLAS to one thread. This is the smallest shape found
        whose checkpoint differed between one thread and two without it."""
        root, _ = env
        examples = tmp_path / "ex.jsonl"
        run_build(root, examples)
        environ = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        environ["PYTHONPATH"] = str(Path(markkit.__file__).parents[1])
        checkpoints = []
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            ckpt = tmp_path / f"model{len(checkpoints)}.ckpt"
            subprocess.run([sys.executable, "-m", "markkit.cli", "pretrain",
                            "--vocab", str(root / "res/vocab.txt"), "--in", str(examples),
                            "--out", str(ckpt), "--steps", "3", "--log-every", "0",
                            "--hidden-dim", "64", "--ffn-dim", "8", "--num-layers", "1",
                            "--num-heads", "2"],
                           env={**environ, **threads}, check=True, capture_output=True,
                           timeout=120)
            checkpoints.append(ckpt.read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_scipy_loads_with_the_model_only(self, env, tmp_path):
        """Only the model's GELU needs scipy: `import markkit` and
        `build-corpus` leave it unloaded, and `pretrain` loads it with its
        first step and writes the checkpoint of a run that had it loaded."""
        root, _ = env
        examples, ckpt = tmp_path / "ex.jsonl", tmp_path / "fresh.ckpt"
        build = ["build-corpus", *res_args(root), "--in", str(root / "corpus.txt"),
                 "--out", str(examples), "--max-len", "48", "--seed", "7"]
        train = ["pretrain", "--vocab", str(root / "res/vocab.txt"), "--in", str(examples),
                 "--steps", "3", "--log-every", "0", "--hidden-dim", "16", "--ffn-dim", "24",
                 "--num-heads", "2"]
        script = ("import json, sys\n"
                  "import markkit\n"
                  "from markkit.cli import main\n"
                  "build, train = json.loads(sys.argv[1])\n"
                  "assert 'scipy' not in sys.modules\n"
                  "assert main(build) == 0 and 'scipy' not in sys.modules\n"
                  "assert main(train) == 0 and 'scipy' in sys.modules\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps([build, [*train, "--out", str(ckpt)]])],
            env={**os.environ, "PYTHONPATH": str(Path(markkit.__file__).parents[1])},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert main([*train, "--out", str(tmp_path / "loaded.ckpt")]) == 0
        assert ckpt.read_bytes() == (tmp_path / "loaded.ckpt").read_bytes()


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
                     "--in", str(words), "--k", str(len(emb.words) + 3)])
        assert code == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        for word in world.words[:5]:
            expected = reference_synonyms(word, emb, len(emb.words) + 3)
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

    @pytest.mark.parametrize("scheme", ["auto", "bio"])
    def test_auto_decides_one_scheme_per_run(self, env, tmp_path, capsys, scheme):
        """The second sentence alone has no ``I`` and would read as BMESO,
        which drops its lone ``B``; ``auto`` reads the whole run as BIO."""
        gold = tmp_path / "g.tsv"
        gold.write_text("北\tB-LOC\n京\tI-LOC\n在\tO\n\n人\tB-PER\n们\tO\n", encoding="utf-8")
        assert main(["eval-ner", "--pred", str(gold), "--gold", str(gold),
                     "--scheme", scheme]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (report["gold_spans"], report["span_f1"]) == (2, 1.0)

    def test_auto_reads_both_files(self, env, tmp_path, capsys):
        """An ``E`` in the prediction makes the whole run BMESO, so the
        gold's BIO ``B I`` run, which does not end in ``E``, is dropped."""
        pred, gold = tmp_path / "p.tsv", tmp_path / "g.tsv"
        write_conll([NerExample(chars=("北", "京"), labels=("B-LOC", "E-LOC"))], pred)
        write_conll([NerExample(chars=("北", "京"), labels=("B-LOC", "I-LOC"))], gold)
        assert main(["eval-ner", "--pred", str(pred), "--gold", str(gold)]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (report["pred_spans"], report["gold_spans"]) == (1, 0)

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
    for requested in (0, -3):
        with pytest.raises(ConfigError, match="--workers must be positive"):
            clamp_workers(requested, 2)


@pytest.mark.parametrize("flag", ["--k-syn", "--max-len", "--workers"])
def test_huge_build_corpus_flag_exit_0(env, tmp_path, capsys, flag):
    """A value far past any corpus or machine is a valid request: no more
    synonyms, sequence room or workers than there are. At most the usable
    CPUs' worth of workers start."""
    assert clamp_workers(10**20, usable_cpus()) == usable_cpus()
    out = tmp_path / "huge.jsonl"
    assert run_build(env[0], out, [flag, str(10**20)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text(encoding="utf-8").splitlines()


def test_largest_seed_exit_0(env, tmp_path, capsys):
    """The largest seed, 2**64 - 1, is valid; one more exits 5 (see
    ``FILE_FREE_FLAG_ERRORS``), so no two seeds give the same corpus."""
    out = tmp_path / "ex.jsonl"
    assert main(["build-corpus", *res_args(env[0]), "--in", str(env[0] / "corpus.txt"),
                 "--out", str(out), "--max-len", "48", "--seed", str(2**64 - 1)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text(encoding="utf-8").splitlines()


def padded(path: Path, out: Path) -> Path:
    """``path`` with each non-blank line padded: two spaces before it, a tab
    and U+3000 after it."""
    lines = path.read_text(encoding="utf-8").split("\n")
    out.write_text("\n".join(f"  {line}\t\u3000" if line else line for line in lines),
                   encoding="utf-8")
    return out


class TestInLineRule:
    """Every subcommand reads a line of ``--in`` stripped of the whitespace
    around it."""

    def test_read_lines_strips_every_line(self, tmp_path, monkeypatch):
        """Line ends (CRLF too) and the whitespace around a line go, a
        whitespace-only line is empty, and standard input reads the same."""
        raw = "天气 很\r\n  人民 好\t\u3000\r\n \t\n\u3000\n地球".encode()
        path = tmp_path / "in.txt"
        path.write_bytes(raw)
        expected = ["天气 很", "人民 好", "", "", "地球"]
        assert _read_lines(str(path)) == expected
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
        assert _read_lines("-") == expected
        assert list(read_documents(expected)) == [(1, ["天气 很", "人民 好"]), (5, ["地球"])]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("corpus,segmenter", [("corpus.txt", "--lexicon"),
                                                  ("corpus_tok.txt", "--pretokenized")])
    def test_padded_in_builds_same_bytes(self, env, tmp_path, corpus, segmenter, workers):
        root, _ = env
        seg = [] if segmenter == "--lexicon" else ["--pretokenized"]
        outs = []
        for source in (root / corpus, padded(root / corpus, tmp_path / "padded.txt")):
            outs.append(tmp_path / f"{len(outs)}.jsonl")
            assert main(["build-corpus", *res_args(root), *seg, "--in", str(source),
                         "--out", str(outs[-1]), "--max-len", "48", "--seed", "7",
                         "--workers", workers]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @staticmethod
    def pretokenized_argv(root, command):
        vocab = ["--vocab", str(root / "res/vocab.txt")]
        files = res_args(root) if command == "build-corpus" else vocab
        return [command, *files, "--pretokenized"]

    @pytest.mark.parametrize("command", ["encode", "build-corpus"])
    def test_pretokenized_trailing_space(self, env, tmp_path, command):
        root, _ = env
        trailing = tmp_path / "trailing.txt"
        trailing.write_text((root / "corpus_tok.txt").read_text(encoding="utf-8")
                            .replace("\n", " \n"), encoding="utf-8")
        argv = self.pretokenized_argv(root, command)
        outs = [tmp_path / "plain.out", tmp_path / "trailing.out"]
        for source, out in zip((root / "corpus_tok.txt", trailing), outs):
            assert main([*argv, "--in", str(source), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("command", ["encode", "build-corpus"])
    def test_double_space_inside_padded_line_exit_4(self, env, tmp_path, capsys, command):
        root, _ = env
        bad = padded(root / "corpus_tok.txt", tmp_path / "padded.txt")
        lines = bad.read_text(encoding="utf-8").split("\n")
        at = next(i for i in range(3, len(lines)) if " " in lines[i].strip())
        lines[at] = lines[at].replace(" ", "  ", 3)  # the first two are the padding
        bad.write_text("\n".join(lines), encoding="utf-8")
        argv = self.pretokenized_argv(root, command)
        capsys.readouterr()
        assert main([*argv, "--in", str(bad), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err.splitlines() == [json.dumps({
            "error": "input", "exit_code": 4,
            "message": f"line {at + 1}: empty word token (double or trailing space?)"})]
        assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to narrow the process to one")
def test_one_cpu_of_affinity_runs_one_thread(env, tmp_path):
    """A process allowed one CPU of a larger machine builds `--workers 2`
    without a worker pool, and its train step has no second thread."""
    root, _ = env
    script = "\n".join([
        "import multiprocessing, os, sys",
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
        "def refuse(*args, **kwargs): raise AssertionError('a worker pool was started')",
        "multiprocessing.Pool = refuse",
        "from markkit import cli, model",
        "assert model._pool(1, 0) is None",
        "sys.exit(cli.main(sys.argv[1:]))"])
    out = tmp_path / "w2.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", script, "build-corpus", *res_args(root),
         "--in", str(root / "corpus.txt"), "--out", str(out), "--max-len", "48", "--seed", "7",
         "--workers", "2"], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(markkit.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert run_build(root, tmp_path / "w1.jsonl") == 0
    assert out.read_bytes() == (tmp_path / "w1.jsonl").read_bytes()


SUBCOMMANDS = ("segment", "encode", "confusions", "build-corpus", "pretrain", "eval-ner",
               "attn-dump", "stats")

# flags that break a rule of their own, whatever the files: each exits 5
FILE_FREE_FLAG_ERRORS = [
    ("pretrain", "--lr", "nan"), ("pretrain", "--lr", "inf"),
    ("pretrain", "--log-every", "-1"),
    ("build-corpus", "--workers", "0"), ("build-corpus", "--workers", "-3"),
    ("build-corpus", "--p-pinyin", "1.5"), ("build-corpus", "--k-syn", "0"),
    ("build-corpus", "--mask-ratio", "2"), ("build-corpus", "--max-len", "2"),
    ("pretrain", "--hidden-dim", "0"), ("pretrain", "--dropout", "1.5"),
    ("pretrain", "--num-heads", "5"), ("pretrain", "--max-positions", "-1"),
    ("encode", "--max-len", "2"), ("attn-dump", "--max-len", "2"),
    ("confusions", "--k", "0"), *((command, "--seed", "-1") for command in SUBCOMMANDS),
    *((command, "--seed", str(2**64)) for command in SUBCOMMANDS),
]


class TestErrorHandling:
    def test_missing_resource_exit_3(self, tmp_path, capsys):
        code = main(["segment", "--lexicon", str(tmp_path / "nope.tsv"),
                     "--in", str(tmp_path / "also-nope.txt")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "resource" and err["exit_code"] == 3

    def test_unknown_subcommand_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["frobnicate"],
        ["stats"],                                              # missing required --in
        ["pretrain", "--vocab", "v", "--in", "i", "--out", "o", "--rwd-classes", "4"],
        ["pretrain", "--vocab", "v", "--in", "i", "--out", "o", "--lr", "-inf"],
    ])
    def test_usage_error_one_json_line(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == "" and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "usage" and record["exit_code"] == 2 and record["message"]

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_unchanged(self, capsys, flag):
        assert main([flag]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: markkit" if flag == "--help" else "markkit ")

    def test_malformed_input_exit_4(self, env, tmp_path, capsys):
        """`encode` and `attn-dump` name the line of --in that holds an empty
        pretokenized word."""
        root, _ = env
        vocab = root / "res/vocab.txt"
        bad, ckpt = tmp_path / "bad.txt", tmp_path / "model.ckpt"
        bad.write_text("a b\n\na  b\n", encoding="utf-8")
        save_checkpoint(MarkBert(ModelConfig(vocab_size=len(load_vocab(vocab)), hidden_dim=8,
                                             num_heads=2, ffn_dim=8, max_positions=16)), ckpt)
        for command in (["encode"], ["attn-dump", "--ckpt", str(ckpt)]):
            capsys.readouterr()
            assert main([*command, "--vocab", str(vocab), "--pretokenized", "--in", str(bad)]) == 4
            assert json.loads(capsys.readouterr().err) == {
                "error": "input", "exit_code": 4,
                "message": "line 3: empty word token (double or trailing space?)"}

    @pytest.mark.parametrize("command", ["stats", "pretrain", "attn-dump"])
    def test_deeply_nested_json_exit_4(self, env, tmp_path, capsys, command):
        """100,000 nested arrays as an example record or as a checkpoint
        header."""
        root, _ = env
        vocab, deep = root / "res/vocab.txt", "[" * 100_000
        records, ckpt = tmp_path / "deep.jsonl", tmp_path / "deep.ckpt"
        records.write_text(deep + "\n", encoding="utf-8")
        ckpt.write_bytes(b"MARKKIT\x00" + struct.pack("<Q", len(deep)) + deep.encode())
        argv = {"stats": ["stats", "--in", records],
                "pretrain": ["pretrain", "--vocab", vocab, "--in", records,
                             "--out", tmp_path / "m.ckpt"],
                "attn-dump": ["attn-dump", "--ckpt", ckpt, "--vocab", vocab, "--pretokenized",
                              "--in", root / "corpus_tok.txt"]}[command]
        assert main([str(a) for a in argv]) == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert "maximum recursion depth exceeded" in json.loads(lines[0])["message"]

    @pytest.mark.parametrize("value", [1e308, math.nan])
    def test_overflowing_checkpoint_exit_4(self, env, tmp_path, capsys, value):
        """Parameters that overflow the forward pass, or are not numbers,
        give one error line, not numpy warnings and NaN weights."""
        root, world = env
        model = MarkBert(ModelConfig(vocab_size=len(world.vocab), hidden_dim=8, num_heads=2,
                                     ffn_dim=8, max_positions=48))
        model.params["token_embedding"].value[:] = value
        save_checkpoint(model, tmp_path / "model.ckpt")
        code = main(["attn-dump", "--ckpt", str(tmp_path / "model.ckpt"),
                     "--vocab", str(root / "res/vocab.txt"), "--pretokenized",
                     "--in", str(root / "corpus_tok.txt"), "--out", str(tmp_path / "attn.json")])
        assert code == 4 and not (tmp_path / "attn.json").exists()
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["message"].endswith("gives non-finite attention weights")

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

    @staticmethod
    def flag_test_argv(root, tmp_path, command, infile=None):
        """``command`` on the toy world, reading ``infile`` (by default the
        toy corpus, or built examples for ``pretrain`` and ``stats``)."""
        vocab, corpus = str(root / "res/vocab.txt"), str(infile or root / "corpus.txt")
        if command in ("pretrain", "stats") and infile is None:
            corpus = str(tmp_path / "ex.jsonl")
            run_build(root, corpus)
        if command == "pretrain":
            return ["pretrain", "--vocab", vocab, "--in", corpus, "--steps", "2",
                    "--log-every", "0"]
        if command == "stats":
            return ["stats", "--in", corpus]
        if command == "segment":
            return ["segment", "--lexicon", str(root / "res/lexicon.tsv"), "--in", corpus]
        if command == "eval-ner":
            return ["eval-ner", "--pred", corpus, "--gold", corpus]
        if command == "build-corpus":
            return ["build-corpus", *res_args(root), "--in", corpus]
        if command == "confusions":
            return ["confusions", "--embeddings", str(root / "res/embeddings.txt"),
                    "--pinyin", str(root / "res/pinyin.tsv"), "--in", corpus]
        argv = [command, "--vocab", vocab, "--lexicon", str(root / "res/lexicon.tsv"),
                "--in", corpus]
        if command == "attn-dump":
            ckpt = tmp_path / "model.ckpt"
            save_checkpoint(MarkBert(ModelConfig(vocab_size=len(load_vocab(vocab)),
                                                 hidden_dim=8, num_heads=2, ffn_dim=8,
                                                 max_positions=16)), ckpt)
            argv += ["--ckpt", str(ckpt)]
        return argv

    @staticmethod
    def assert_flag_error(capsys, argv, flag, value, out):
        """``argv`` with ``flag value`` exits 5 with one JSON line naming
        ``flag`` first, and writes no ``out``."""
        capsys.readouterr()
        assert main([*argv, "--out", str(out), flag, value]) == 5
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config" and err["message"].startswith(f"{flag} ")
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value", [
        *FILE_FREE_FLAG_ERRORS,
        # parameter tables numpy refuses before it allocates: the byte count overflows
        ("pretrain", "--max-positions", str(2**60)), ("pretrain", "--ffn-dim", str(2**60)),
        ("pretrain", "--hidden-dim", str(2**62)),
        # beyond physical memory: refused before the layers are made
        ("pretrain", "--num-layers", "1000000000"),
    ])
    def test_bad_numeric_flag_exit_5(self, env, tmp_path, capsys, command, flag, value):
        argv = self.flag_test_argv(env[0], tmp_path, command)
        self.assert_flag_error(capsys, argv, flag, value, tmp_path / "out")

    @pytest.mark.parametrize("files", ["missing", "empty --in"])
    @pytest.mark.parametrize("command,flag,value", FILE_FREE_FLAG_ERRORS)
    def test_bad_flag_exit_5_before_any_file(self, env, tmp_path, capsys, command, flag, value,
                                            files):
        """A flag that breaks a rule of its own exits 5 before any file is
        read: whether every file it names is missing, or ``--in`` is empty."""
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        argv = self.flag_test_argv(env[0], tmp_path, command, infile=empty)
        if files == "missing":
            argv = [str(tmp_path / "missing") if os.path.isfile(a) else a for a in argv]
        self.assert_flag_error(capsys, argv, flag, value, tmp_path / "out")

    def test_attn_dump_names_checkpoint_positions_exit_5(self, env, tmp_path, capsys):
        """A checkpoint too short for CLS, SEP and content is blamed, not the
        --max-len that it overrides."""
        root, _ = env
        vocab, ckpt, out = str(root / "res/vocab.txt"), tmp_path / "model.ckpt", tmp_path / "out"
        save_checkpoint(MarkBert(ModelConfig(vocab_size=len(load_vocab(vocab)), hidden_dim=8,
                                             num_heads=2, ffn_dim=8, max_positions=2)), ckpt)
        capsys.readouterr()
        assert main(["attn-dump", "--ckpt", str(ckpt), "--vocab", vocab,
                     "--lexicon", str(root / "res/lexicon.tsv"), "--in", str(root / "corpus.txt"),
                     "--out", str(out), "--max-len", "512"]) == 5
        assert capsys.readouterr().err.splitlines() == [json.dumps({
            "error": "config", "exit_code": 5,
            "message": "checkpoint max_positions must be >= 3 to hold CLS, SEP and content, "
                       "got 2"})]
        assert not out.exists()

    @pytest.mark.parametrize("out", [None, "-"])
    def test_pretrain_without_checkpoint_path_exit_5(self, env, tmp_path, capsys, monkeypatch,
                                                      out):
        """A checkpoint is not written to standard output: no --out, or
        --out -, is rejected before any file is read (--in is missing here)."""
        root, _ = env
        monkeypatch.chdir(tmp_path)
        argv = ["pretrain", "--vocab", str(root / "res/vocab.txt"),
                "--in", str(tmp_path / "missing.jsonl"), "--steps", "1"]
        assert main(argv + ([] if out is None else ["--out", out])) == 5
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and not captured.out
        err = json.loads(lines[0])
        assert err["error"] == "config" and err["message"].startswith("--out ")
        assert list(tmp_path.iterdir()) == []

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

    def test_huge_learning_rate_one_error_line(self, env, tmp_path):
        """The update overflows; the next step's loss is the one error, with
        no numpy warning before it."""
        root, _ = env
        examples = tmp_path / "ex.jsonl"
        run_build(root, examples)
        proc = subprocess.run(
            [sys.executable, "-m", "markkit.cli", "pretrain", "--vocab",
             str(root / "res/vocab.txt"), "--in", str(examples), "--out", str(tmp_path / "m"),
             "--steps", "3", "--lr", "1e308", "--log-every", "0", "--hidden-dim", "16",
             "--ffn-dim", "24", "--num-heads", "2"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(markkit.__file__).parents[1])})
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["message"].startswith("non-finite loss")
        assert not (tmp_path / "m").exists()

    def test_non_finite_parameters_exit_1(self, env, tmp_path, capsys, monkeypatch):
        """A last step whose loss is finite but whose update is not writes
        no checkpoint."""
        root, _ = env
        examples = tmp_path / "ex.jsonl"
        run_build(root, examples)
        step = markkit.cli.train_step

        def overflowing_step(model, batch, lr):
            metrics = step(model, batch, lr)
            model.params["rwd.b"].value[0] = float("inf")
            return metrics

        monkeypatch.setattr(markkit.cli, "train_step", overflowing_step)
        capsys.readouterr()
        code = main(["pretrain", "--vocab", str(root / "res/vocab.txt"), "--in", str(examples),
                     "--out", str(tmp_path / "m"), "--steps", "1", "--log-every", "0",
                     "--hidden-dim", "16", "--ffn-dim", "24", "--num-heads", "2"])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and not (tmp_path / "m").exists()
        assert json.loads(err) == {"error": "error", "exit_code": 1,
                                   "message": "non-finite parameters after step 1; "
                                              "check learning rate"}

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

    def test_no_input_ids_blames_in_exit_4(self, env, tmp_path, capsys):
        """With every example empty, no --max-positions can be inferred; no
        such flag was passed, so --in is blamed."""
        code, err = self.pretrain_on_record(env[0], tmp_path, capsys, input_ids=[],
                                            mlm_labels=[])
        assert code == 4 and err["error"] == "input"
        assert err["message"].startswith(f"--in {tmp_path / 'ex.jsonl'}: every example has "
                                          f"empty input_ids")

    @pytest.mark.parametrize("past_end", [True, False])
    def test_label_token_id_out_of_range_exit_4(self, env, tmp_path, capsys, past_end):
        """An id past the end of the vocabulary or below zero, as an input
        id or an MLM label, also one that does not fit int64."""
        root, world = env
        for token in [len(world.vocab), 2**63, 10**30] if past_end else [-1, -2**63 - 1]:
            code, err = self.pretrain_on_record(root, tmp_path, capsys, mlm_labels=[[1, token]])
            assert code == 4 and err["error"] == "input"
            assert err["message"].startswith("MLM label token id out of range")
            code, err = self.pretrain_on_record(root, tmp_path, capsys, input_ids=[2, token, 3])
            assert code == 4 and err["error"] == "input"
            assert err["message"].startswith(f"token id out of range for vocab_size="
                                             f"{len(world.vocab)}")

    def late_bad_record(self, env, tmp_path, capsys, change, flags=()):
        """Exit code and the one JSON error line of `pretrain --steps 1` on
        the toy examples, with ``change`` applied to the last record (in the
        last batch, which step 1 does not train)."""
        root, _ = env
        built = tmp_path / "built.jsonl"
        assert run_build(root, built) == 0
        records = [json.loads(line) for line in built.read_text().splitlines()]
        assert len(records) > 8
        change(records[-1])
        examples = tmp_path / "ex.jsonl"
        examples.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        code = main(["pretrain", "--vocab", str(root / "res/vocab.txt"), "--in", str(examples),
                     "--out", str(tmp_path / "m.ckpt"), "--steps", "1", "--batch-size", "8",
                     "--log-every", "0", "--hidden-dim", "16", "--ffn-dim", "16",
                     "--num-heads", "2", *flags])
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "m.ckpt").exists()
        err = err.strip().splitlines()
        assert len(err) == 1
        return code, json.loads(err[0])

    def test_bad_id_in_last_batch_exit_4_before_step_1(self, env, tmp_path, capsys):
        def change(record):
            record["input_ids"][1] = 10**6

        code, err = self.late_bad_record(env, tmp_path, capsys, change)
        assert code == 4 and err["error"] == "input"
        assert err["message"].startswith(f"token id out of range for vocab_size="
                                         f"{len(env[1].vocab)}: ")

    def test_long_example_in_last_batch_exit_4_before_step_1(self, env, tmp_path, capsys):
        """An explicit --max-positions shorter than a late example."""
        def change(record):
            record["input_ids"] += [record["input_ids"][1]] * 60

        code, err = self.late_bad_record(env, tmp_path, capsys, change,
                                         flags=["--max-positions", "48"])
        assert code == 4 and err["error"] == "input"
        assert err["message"].startswith("sequence length ")
        assert err["message"].endswith(" exceeds max_positions=48")

    @pytest.mark.parametrize("field,value,message", [
        ("n_chars", "3", "meta.n_chars '3' is not an integer"),
        ("n_chars", 2.5, "meta.n_chars 2.5 is not an integer"),
        ("n_chars", -5, "meta.n_chars -5 is outside [0, 3], the non-marker token count"),
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
