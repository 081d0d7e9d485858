"""tools/pool_digests.py, the byte-identity check of the benchmark pool
reports: two runs on one checkout print the same digests, one line per
pool config, and --against prints only the configs whose digests differ
from the other checkout's."""

import importlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = "fejer_theorems"


def _digests() -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pool_digests.py"),
         "--workloads", WORKLOAD, "--seeds", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pool_digests_repeat_one_line_per_config(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    pool = importlib.import_module("perfbench.workloads").make_plan(
        WORKLOAD, 1).pool
    first, second = _digests(), _digests()
    assert first == second
    lines = first.splitlines()
    assert len(lines) == len(pool) > 0
    for i, line in enumerate(lines):
        assert re.fullmatch(rf"{WORKLOAD} 1 {i} [0-9a-f]{{64}}", line), line


def _against(other: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pool_digests.py"),
         "--against", str(other), "--workloads", WORKLOAD, "--seeds", "1"],
        capture_output=True, text=True, timeout=300)


def test_against_itself_prints_nothing_and_exits_0():
    proc = _against(ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_against_a_changed_checkout_prints_each_config_and_exits_1(tmp_path):
    # a copy whose reports all gain a trailing space
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    with open(tmp_path / "src" / "expkant" / "experiments.py", "a") as fh:
        fh.write("\n_to_json = to_json\n\n\n"
                 "def to_json(*args, **kwargs):\n"
                 "    return _to_json(*args, **kwargs) + ' '\n")
    ours = dict(line.rsplit(" ", 1) for line in _digests().splitlines())
    proc = _against(tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(ours) > 0
    for line in lines:
        workload, seed, index, mine, theirs = line.split()
        assert mine == ours[f"{workload} {seed} {index}"] != theirs
