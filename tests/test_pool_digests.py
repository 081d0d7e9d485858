"""tools/pool_digests.py, the byte-identity check of the benchmark pool
reports: two runs on one checkout print the same digests, one line per
pool config."""

import importlib
import re
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
