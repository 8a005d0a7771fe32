import json
import subprocess
import sys
from pathlib import Path

from helpers import markkit_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_pretrain_demo_runs(tmp_path):
    """The end-to-end demo builds a corpus, prints its schedule statistics,
    trains and checkpoints, and dumps attention, on a small toy run, all
    through the CLI: this reads the `stats` JSON and the `pretrain` summary
    line it prints, and the `attn-dump` file."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_pretrain_demo.py"), "--out", str(tmp_path),
         "--sentences", "40", "--steps", "2"],
        capture_output=True, text=True, env=markkit_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("masking schedule statistics\n")
    records = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    stats, summary = records
    assert stats["counts"]["examples"] > 0 and stats["rates"]["replaced_word_rate"] > 0
    assert summary["steps"] == 2 and summary["checkpoint"] == str(tmp_path / "model.ckpt")
    assert (tmp_path / "model.ckpt").stat().st_size > 0
    record = json.loads((tmp_path / "attention.json").read_text(encoding="utf-8"))
    assert any(example["rows"] for example in record["examples"])
