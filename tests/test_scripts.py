import json
import os
import subprocess
import sys
from pathlib import Path

import markkit

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_pretrain_demo_runs(tmp_path):
    """The end-to-end demo builds a corpus, trains, checkpoints and dumps
    attention on a small toy run."""
    src = str(Path(markkit.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_pretrain_demo.py"), "--out", str(tmp_path),
         "--sentences", "40", "--steps", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("schedule rates: ")
    assert (tmp_path / "model.ckpt").stat().st_size > 0
    record = json.loads((tmp_path / "attention.json").read_text(encoding="utf-8"))
    assert any(example["rows"] for example in record["examples"])
