"""``scripts/line_census.py`` on a small module of its own: it names the
statement no call ran, marks the one under a ``__main__`` guard as
allowed, and sees the lines a forked pool worker runs."""

import importlib.util
import multiprocessing
import sys
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "line_census.py"
SOURCE = '''\
def sign(x):
    if x < 0:
        return -1
    return 1


if __name__ == "__main__":
    print(sign(1))
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_names_the_branch_no_call_took(tmp_path, monkeypatch):
    census = load("line_census", SCRIPT)
    tmp_path = tmp_path.resolve()  # the census names files by their real paths
    target = tmp_path / "target"
    target.mkdir()
    path = target / "census_target.py"
    path.write_text(SOURCE, encoding="utf-8")
    collector = census.Collector(target, tmp_path)
    collector.start()
    try:
        module = load("census_target", path)  # its import is traced too
        assert module.sign(1) == 1
    finally:
        collector.stop()
    count, found = census.unreached(path, collector.hits[str(path)])
    assert count == 6  # the def, three in its body, the guard and its print
    assert found == [(3, "return -1", False), (8, "print(sign(1))", True)]

    # a forked pool worker's lines reach the census: Pool.__exit__ ends the
    # worker with SIGTERM while it sleeps, and it writes them then
    monkeypatch.setitem(sys.modules, "census_target", module)
    collector.start()
    try:
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(module.sign, (-1,)) == -1
            pool.apply_async(time.sleep, (60,))
            time.sleep(0.5)
    finally:
        collector.stop()
    hits = {}
    census.read_hits(tmp_path, hits)
    assert 3 in hits[str(path)]
    assert census.unreached(path, collector.hits[str(path)] | hits[str(path)])[1] == [
        (8, "print(sign(1))", True)]
