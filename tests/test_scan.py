"""The seed-range scan of `tools/scan.py` reports each seed's statuses,
failures and report digest.

Two cheap suites and one planted failing suite run over two seeds.  The
planted suite fails by its witnesses at one seed and by an error at the
other; each failure must appear on its seed's line with its reproducer,
and the digests must repeat and equal those of `run_suite` called
directly.  Run in fresh processes under two hash seeds, a scan of two
suites that build curves must print identical lines.  Two seeds of the
full scan must reproduce their lines of `golden/scan_100_300.jsonl`,
which `tools/scan.py 100 300` wrote.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cbgraph import suites

SCAN_PATH = Path(__file__).resolve().parent.parent / "tools" / "scan.py"
GOLDEN_SCAN = Path(__file__).resolve().parent / "golden" / "scan_100_300.jsonl"
_spec = importlib.util.spec_from_file_location("tools_scan", SCAN_PATH)
scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scan)

CHEAP = ["height-formula", "link-chromatic"]


def _planted(rng, recipe):
    if recipe.seed % 2:
        raise ValueError("planted error")
    return False, {"draws": 1}, [["planted", rng.randint(0, 99)]]


@pytest.fixture
def planted(monkeypatch):
    monkeypatch.setitem(suites.SUITES, "planted", ("A suite that always fails", _planted))
    return CHEAP + ["planted"]


def _direct_digest(seed, checks):
    report = suites.run_suite(suites.Recipe(checks=checks, seed=seed))
    del report["timing"]
    del report["recipe"]["out"]
    return hashlib.sha256(suites.report_json(report).encode()).hexdigest()


def test_scan_lines_name_failures_and_repeat_digests(planted, capsys):
    argv = ["6", "7"] + [arg for name in planted for arg in ("--suite", name)]
    assert scan.main(argv) == 1
    lines = [json.loads(text) for text in capsys.readouterr().out.splitlines()]
    assert [line["seed"] for line in lines] == [6, 7]
    left_out = [name for name in suites.SUITES if name not in planted]
    assert len(left_out) == 10
    for line in lines:
        assert line["status"] == {"height-formula": "pass", "link-chromatic": "pass", "planted": "fail"}
        assert line["left_out"] == left_out
        (failed,) = line["failed"]
        assert failed["name"] == "planted"
        assert failed["reproducer"] == f"cbgraph run --suite planted --seed {line['seed']}"
    even, odd = (line["failed"][0] for line in lines)
    assert set(even) == {"name", "witnesses", "reproducer"}
    assert even["witnesses"][0][0] == "planted"
    assert set(odd) == {"name", "error", "witnesses", "reproducer"}
    assert odd["error"] == {"type": "ValueError", "message": "planted error"}
    assert odd["witnesses"] == []

    again = [scan.scan_line(seed, planted) for seed in (6, 7)]
    assert again == lines
    for line in lines:
        assert line["digest"] == _direct_digest(line["seed"], planted)
    assert lines[0]["digest"] != lines[1]["digest"]


def test_scan_of_passing_suites_exits_zero(capsys):
    assert scan.main(["3", "3", "--suite", CHEAP[0]]) == 0
    (line,) = [json.loads(text) for text in capsys.readouterr().out.splitlines()]
    assert line["failed"] == []
    assert line["left_out"] == [name for name in suites.SUITES if name != CHEAP[0]]


def test_scan_lines_do_not_depend_on_the_hash_seed():
    # Curves hash through `str` (the triangulation's checksum and their
    # encoded words), which Python salts per process; no report may
    # follow set or dict order that the salt changes.
    argv = [sys.executable, str(SCAN_PATH), "7", "7"]
    argv += ["--suite", "equivariance", "--suite", "chain-containment"]
    lines = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        lines.append(done.stdout)
    assert lines[0] == lines[1]
    assert json.loads(lines[0])["status"] == {"chain-containment": "pass", "equivariance": "pass"}


@pytest.mark.parametrize("seed", [100, 104])
def test_scan_lines_equal_the_golden_scan(seed):
    # Seed 104 pins a known failure (ROADMAP item 3) with its reproducer.
    golden = GOLDEN_SCAN.read_text().splitlines()
    assert len(golden) == 201
    assert json.dumps(scan.scan_line(seed), sort_keys=True) == golden[seed - 100]
