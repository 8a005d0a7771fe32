"""Property tests: mutated example records, mutated ``pretrain`` flags,
mutated checkpoints, mutated resource files (embeddings, pinyin, lexicon
and vocabulary), mutated text corpora, mutated CoNLL files and odd values
of the ``build-corpus`` schedule flags and ``confusions --k`` end in a
documented exit code with exactly one JSON error line, never a traceback.

Every run goes through ``cli.main`` in-process, so an exception that is not
a ``MarkkitError`` fails the test, and so does a numpy RuntimeWarning (the
suite turns those into errors).
"""

import contextlib
import io
import json
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import write_conll
from markkit.cli import main
from markkit.model import MarkBert, ModelConfig, save_checkpoint
from markkit.ner import NerExample
from markkit.pretrain import ExampleMeta, PretrainingExample, RwdLabel, example_to_json
from markkit.toy import write_toy_corpus, write_toy_resources

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# one marker per word, an MLM label, a confusion marker with loss on
VALID = json.loads(example_to_json(PretrainingExample(
    input_ids=(2, 10, 11, 5, 12, 5, 3), mlm_labels={1: 10},
    rwd_labels={3: RwdLabel.NORMAL, 5: RwdLabel.PINYIN_CONFUSION},
    rwd_loss_mask={3: False, 5: True}, meta=ExampleMeta(n_chars=3))))

# integers past every bound: negative, beyond int64, and sizes whose tables
# numpy refuses before it allocates (their byte count overflows intp)
HUGE = (-1, -2**63 - 1, 2**60, 2**62, 2**63, 10**30)
WRONG_TYPES = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=2),
                        st.lists(st.integers(-1, 12), max_size=2),
                        st.fixed_dictionaries({"a": st.integers(0, 3)}))
TINY_MODEL = ["--hidden-dim", "8", "--num-heads", "2", "--ffn-dim", "8", "--num-layers", "1",
              "--steps", "1", "--log-every", "0"]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    toy = write_toy_resources(root / "res", seed=0)
    (root / "valid.jsonl").write_text(json.dumps(VALID) + "\n", encoding="utf-8")
    (root / "words.txt").write_text(" ".join(toy.words[:4]) + "\n", encoding="utf-8")
    (root / "lines.txt").write_text("\n".join(toy.words[:40]) + "\n", encoding="utf-8")
    write_toy_corpus(root / "corpus.txt", toy.words, 12, seed=3)
    write_toy_corpus(root / "corpus_tok.txt", toy.words, 12, seed=3, pretokenized=True)
    save_checkpoint(MarkBert(ModelConfig(vocab_size=len(toy.vocab), hidden_dim=8, num_layers=1,
                                         num_heads=2, ffn_dim=8, max_positions=16)),
                    root / "valid.ckpt")
    write_conll([NerExample("北京欢迎你", ("B-LOC", "E-LOC", "O", "O", "S-PER")),
                 NerExample("上海", ("B-LOC", "E-LOC"))], root / "gold.tsv")
    return root


def run(argv) -> tuple[int, list[str]]:
    """``main(argv)``'s exit code and its standard-error lines."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue().splitlines()


def assert_clean(code, lines, allowed):
    assert code in allowed
    if code:
        assert len(lines) == 1
        assert json.loads(lines[0])["exit_code"] == code
    else:
        assert lines == []


def _paths(node, prefix=()):
    """The path of every value below ``node``, a parsed JSON record."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _pick(draw, node):
    """A value below ``node``, a parsed JSON record, as (its parent, its key)."""
    path = draw(st.sampled_from(list(_paths(node))))
    for key in path[:-1]:
        node = node[key]
    return node, path[-1]


def _edit(draw, node):
    """One edit below ``node``: a value dropped, a value of the wrong JSON
    type, a huge or negative integer, or a list entry repeated."""
    parent, key = _pick(draw, node)
    kind = draw(st.sampled_from(("drop", "type", "number")
                                + (("repeat",) if isinstance(parent, list) else ())))
    if kind == "drop":
        del parent[key]
    elif kind == "type":
        parent[key] = draw(WRONG_TYPES)
    elif kind == "number":
        parent[key] = draw(st.sampled_from(HUGE))
    else:
        parent.append(json.loads(json.dumps(parent[key])))


@st.composite
def mutated_records(draw):
    """VALID with one to three ``_edit``s."""
    record = json.loads(json.dumps(VALID))
    for _ in range(draw(st.integers(1, 3))):
        _edit(draw, record)
    return record


@FUZZ
@given(record=mutated_records())
@example(record={**VALID, "input_ids": [2, 2**63, 11, 5, 12, 5, 3]})
@example(record={**VALID, "mlm_labels": [[1, 10**30]]})
@example(record={"input_ids": [], "mlm_labels": [], "rwd_labels": [], "rwd_loss_mask": [],
                 "meta": {**VALID["meta"], "n_chars": 0}})
def test_mutated_example_record(world, record):
    """``stats`` and ``pretrain`` on one mutated record exit 0 or 4."""
    path = world / "ex.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert_clean(*run(["stats", "--in", path]), allowed=(0, 4))
    assert_clean(*run(["pretrain", "--vocab", world / "res/vocab.txt", "--in", path,
                       "--out", world / "m.ckpt", *TINY_MODEL]), allowed=(0, 4))


INTS = st.one_of(st.integers(-2, 12), st.sampled_from(HUGE))
FLAGS = {
    # --steps and --num-layers stay small: their cost grows with the value
    "--steps": st.integers(-2, 2),
    "--num-layers": st.integers(-1, 2),
    "--batch-size": INTS, "--log-every": INTS, "--seed": INTS, "--hidden-dim": INTS,
    "--num-heads": INTS, "--ffn-dim": INTS, "--max-positions": INTS,
    "--lr": st.sampled_from(("nan", "inf", "-1", "0", "0.1", "10")),
    "--dropout": st.sampled_from(("nan", "-0.5", "0", "0.1", "1")),
}


@FUZZ
@given(flags=st.sets(st.sampled_from(sorted(FLAGS)), min_size=1, max_size=3).flatmap(
    lambda chosen: st.fixed_dictionaries({flag: FLAGS[flag] for flag in sorted(chosen)})))
@example(flags={"--seed": -1})
@example(flags={"--max-positions": 2**60})
@example(flags={"--ffn-dim": 2**60})
@example(flags={"--hidden-dim": 2**62})
def test_mutated_pretrain_flags(world, flags):
    """``pretrain`` with mutated numeric flags exits 0, 4 (an example longer
    than ``--max-positions``) or 5."""
    argv = ["pretrain", "--vocab", world / "res/vocab.txt", "--in", world / "valid.jsonl",
            "--out", world / "f.ckpt", *TINY_MODEL]
    for flag, value in flags.items():
        argv += [flag, value]
    assert_clean(*run(argv), allowed=(0, 4, 5))


def _with_header(header_text: str, payload: bytes) -> bytes:
    raw = header_text.encode("utf-8")
    return b"MARKKIT\x00" + struct.pack("<Q", len(raw)) + raw + payload


@st.composite
def mutated_checkpoints(draw, blob: bytes):
    """``blob``, a checkpoint, with one to three byte flips, truncated, with
    one ``_edit`` of its header, or with a header value replaced by 100,000
    nested arrays."""
    kind = draw(st.sampled_from(("flip", "truncate", "header", "nest")))
    if kind == "flip":
        data = bytearray(blob)
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header, payload = json.loads(blob[16:16 + header_len]), blob[16 + header_len:]
    if kind == "header":
        _edit(draw, header)
        return _with_header(json.dumps(header), payload)
    parent, key = _pick(draw, header)
    parent[key] = "NEST"
    return _with_header(json.dumps(header).replace('"NEST"', "[" * 100_000), payload)


@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_mutated_checkpoint(world, data):
    """``attn-dump`` on a mutated toy checkpoint exits 0 or 4."""
    path = world / "mutated.ckpt"
    path.write_bytes(data.draw(mutated_checkpoints((world / "valid.ckpt").read_bytes())))
    assert_clean(*run(["attn-dump", "--ckpt", path, "--vocab", world / "res/vocab.txt",
                       "--pretokenized", "--in", world / "words.txt"]), allowed=(0, 4))


@st.composite
def mutated_text_files(draw, blob: bytes, header: bool = False, corpus: bool = False):
    """``blob``, a text file, with one to three mutations in turn: byte
    flips, a truncation, CRLF line ends; when the file has a ``<count>
    <dim>`` header, a huge or negative number in it; and for a ``corpus``,
    a NUL character, a very long line (one line repeated, with or without a
    space between the copies) or a line of spaces."""
    kinds = (("flip", "truncate", "crlf") + (("header",) if header else ())
             + (("nul", "long", "spaces") if corpus else ()))
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "flip" and blob:
            data = bytearray(blob)
            for _ in range(draw(st.integers(1, 3))):
                data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
            blob = bytes(data)
        elif kind == "truncate" and blob:
            blob = blob[:draw(st.integers(0, len(blob) - 1))]
        elif kind == "crlf":
            blob = blob.replace(b"\n", b"\r\n")
        elif kind == "header":
            first, newline, rest = blob.partition(b"\n")
            fields = first.split(b" ")
            fields[draw(st.integers(0, len(fields) - 1))] = str(draw(st.sampled_from(HUGE))).encode()
            blob = b" ".join(fields) + newline + rest
        elif kind in ("nul", "long", "spaces"):
            lines = blob.split(b"\n")
            at = draw(st.integers(0, len(lines) - 1))
            if kind == "nul":  # at a character boundary, so the text stays UTF-8
                starts = [i for i, byte in enumerate(lines[at]) if byte & 0xC0 != 0x80]
                cut = draw(st.sampled_from(starts + [len(lines[at])]))
                lines[at] = lines[at][:cut] + b"\x00" + lines[at][cut:]
            elif kind == "long":
                copy = draw(st.sampled_from(lines))
                lines.insert(at, draw(st.sampled_from([b" ", b""])).join([copy] * 100))
            else:
                space = draw(st.sampled_from([b" ", b"\t", "\u3000".encode()]))
                lines.insert(at, space * draw(st.integers(1, 200)))
            blob = b"\n".join(lines)
    return blob


RESOURCE_FILES = {"--embeddings": "res/embeddings.txt", "--lexicon": "res/lexicon.tsv",
                  "--pinyin": "res/pinyin.tsv", "--vocab": "res/vocab.txt"}


@pytest.mark.parametrize("flag", sorted(RESOURCE_FILES))
@FUZZ
@given(data=st.data())
@example(data=None)
def test_mutated_resource_file(world, flag, data):
    """``build-corpus`` at ``--workers`` 1 and 2, and ``confusions``,
    ``encode`` or ``segment`` where they read the file, on one mutated toy
    resource file exit 0 or 4, or 5 for a vocabulary that repeats a token
    or lacks a required one (the example is the file unchanged)."""
    blob = (world / RESOURCE_FILES[flag]).read_bytes()
    if data is not None:
        blob = data.draw(mutated_text_files(blob, header=flag == "--embeddings"))
    path = world / "mutated-resource"
    path.write_bytes(blob)

    def files(*flags):
        return [arg for other in flags
                for arg in (other, path if other == flag else world / RESOURCE_FILES[other])]

    corpus = world / "corpus.txt"
    runs = [["build-corpus", *files(*RESOURCE_FILES), "--in", corpus, "--max-len", "48",
             "--pos-markers", "--workers", workers] for workers in (1, 2)]
    if flag in ("--embeddings", "--pinyin"):
        runs.append(["confusions", *files("--embeddings", "--pinyin"),
                     "--in", world / "lines.txt"])
    else:
        runs.append(["encode", *files("--lexicon", "--vocab"), "--in", corpus, "--pos-markers"])
    if flag == "--lexicon":
        runs.append(["segment", *files("--lexicon"), "--in", corpus, "--pos"])
    for argv in runs:
        assert_clean(*run(argv), allowed=(0, 4, 5) if flag == "--vocab" else (0, 4))


@FUZZ
@given(data=st.data())
@example(data=None)
def test_mutated_conll_file(world, data):
    """``eval-ner`` with a mutated CoNLL file as the prediction, and as the
    gold, exits 0 or 4 (the example is the file unchanged)."""
    gold = world / "gold.tsv"
    blob = gold.read_bytes()
    if data is not None:
        blob = data.draw(mutated_text_files(blob))
    path = world / "mutated.tsv"
    path.write_bytes(blob)
    assert_clean(*run(["eval-ner", "--pred", path, "--gold", gold]), allowed=(0, 4))
    assert_clean(*run(["eval-ner", "--pred", gold, "--gold", path]), allowed=(0, 4))


@pytest.mark.parametrize("segmenter", ["--lexicon", "--pretokenized"])
@settings(FUZZ, max_examples=25)  # each case runs five commands
@given(data=st.data())
@example(data=None)
def test_mutated_corpus(world, segmenter, data):
    """``segment``, ``encode`` and ``build-corpus`` at ``--workers`` 1 and
    2 on one mutated toy corpus exit 0 or 4; the two worker counts agree
    (the example is the corpus unchanged)."""
    corpus = world / ("corpus.txt" if segmenter == "--lexicon" else "corpus_tok.txt")
    blob = corpus.read_bytes()
    if data is not None:
        blob = data.draw(mutated_text_files(blob, corpus=True))
    path = world / "mutated-corpus.txt"
    path.write_bytes(blob)
    seg = ["--lexicon", world / "res/lexicon.tsv"] if segmenter == "--lexicon" else [segmenter]
    vocab = ["--vocab", world / "res/vocab.txt"]
    if segmenter == "--lexicon":
        assert_clean(*run(["segment", *seg, "--in", path, "--pos"]), allowed=(0, 4))
    assert_clean(*run(["encode", *seg, *vocab, "--in", path]), allowed=(0, 4))
    outcomes = []
    for workers in (1, 2):
        out = world / f"mutated-corpus-{workers}.jsonl"
        out.unlink(missing_ok=True)
        code, lines = run(["build-corpus", *seg, *vocab,
                           "--embeddings", world / "res/embeddings.txt",
                           "--pinyin", world / "res/pinyin.tsv", "--in", path, "--out", out,
                           "--max-len", "48", "--workers", workers])
        assert_clean(code, lines, allowed=(0, 4))
        outcomes.append((code, out.read_bytes() if code == 0 else None))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("segmenter", ["--lexicon", "--pretokenized"])
@settings(FUZZ, max_examples=25)
@given(data=st.data())
@example(data=None)
def test_mutated_corpus_attn_dump(world, segmenter, data):
    """``attn-dump`` on one mutated toy corpus, to which a line of 10**5
    characters may be added, exits 0 or 4 (the example is the corpus
    unchanged)."""
    corpus = world / ("corpus.txt" if segmenter == "--lexicon" else "corpus_tok.txt")
    blob = corpus.read_bytes()
    if data is not None:
        blob = data.draw(mutated_text_files(blob, corpus=True))
        if data.draw(st.booleans()):
            line = corpus.read_text(encoding="utf-8").split("\n")[0]
            joint = " " if segmenter == "--pretokenized" else ""
            blob += b"\n" + joint.join([line] * (10**5 // len(line) + 1)).encode()
    path = world / "mutated-attn-corpus.txt"
    path.write_bytes(blob)
    seg = ["--lexicon", world / "res/lexicon.tsv"] if segmenter == "--lexicon" else [segmenter]
    assert_clean(*run(["attn-dump", "--ckpt", world / "valid.ckpt",
                       "--vocab", world / "res/vocab.txt", *seg, "--in", path,
                       "--out", world / "attn.json"]), allowed=(0, 4))


ODD_FLOATS = ("nan", "inf", "-inf", "-0.0", "1e-320", "1e308")


@pytest.mark.parametrize("flag", ["--mask-ratio", "--p-no-marker", "--p-wwm", "--p-replace-word",
                                  "--p-normal-marker-loss", "--p-pinyin"])
def test_odd_schedule_flag(world, flag):
    """Each ``build-corpus`` schedule flag at NaN, an infinity, -0.0, a
    subnormal or a huge value exits 0, or 5 where the value is outside
    ``[0, 1]``."""
    for value in ODD_FLOATS:
        code, lines = run(["build-corpus", "--lexicon", world / "res/lexicon.tsv",
                           "--embeddings", world / "res/embeddings.txt",
                           "--pinyin", world / "res/pinyin.tsv", "--vocab", world / "res/vocab.txt",
                           "--in", world / "corpus.txt", "--out", world / "odd.jsonl",
                           "--max-len", "48", f"{flag}={value}"])  # argparse reads "-inf" as a flag
        assert_clean(code, lines, allowed=(0,) if 0 <= float(value) <= 1 else (5,))
        if code:
            assert json.loads(lines[0])["message"].startswith(f"{flag} ")


def test_huge_confusions_k(world):
    """``confusions --k 10**20`` lists every candidate there is."""
    argv = ["confusions", "--embeddings", world / "res/embeddings.txt",
            "--pinyin", world / "res/pinyin.tsv", "--in", world / "lines.txt"]
    outs = []
    for k in (10**20, 10**6):
        out = world / f"confusions-{len(outs)}.tsv"
        assert_clean(*run([*argv, "--k", k, "--out", out]), allowed=(0,))
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] and outs[0]
