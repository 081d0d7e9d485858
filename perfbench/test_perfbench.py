"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import oracle, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _bench(trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "pointwise_rates", "--seed", "3", "--seconds", "0.4",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    table, result = _bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    printed = {line.split()[0]: line.split()[-1] for line in table
               if not line.startswith("{")}
    assert printed == want


def test_same_seed_same_configs_other_seed_other_configs():
    for name in workloads.WORKLOADS:
        a = workloads.make_plan(name, 11)
        assert a == workloads.make_plan(name, 11)
        assert a != workloads.make_plan(name, 12)


def _pool_op(name: str, pick):
    plan = workloads.make_plan(name, 3)
    return next(cfg for cfg in plan.pool if pick(cfg))


def test_oracle_rejects_a_perturbed_value():
    from expkant import experiments

    cases = (
        # interior law of clipped_log
        (_pool_op("pointwise_rates",
                  lambda c: c["signal"]["name"] == "clipped_log"
                  and c["experiment"] == "converge_pointwise"),
         ("rows", -1, "error")),
        # direct dense sum with quadrature Steklov means
        (_pool_op("pointwise_rates",
                  lambda c: c["kernel"]["profile"]["name"] == "mellin_fejer"),
         ("rows", None, "error")),
        # m0 == 1 at unit step
        (_pool_op("kernel_audit",
                  lambda c: c["experiment"] == "moments"
                  and c["profile"]["name"] == "bspline"
                  and c["scheme"].get("step") == 1.0),
         ("rows", 0, "value")),
    )
    for cfg, (table, row, key) in cases:
        report = experiments.run(cfg)
        assert oracle.check(cfg, report) == []
        bad = copy.deepcopy(report)
        for i in range(len(bad[table])) if row is None else (row,):
            bad[table][i][key] += 1e-6
        problems = oracle.check(cfg, bad)
        assert problems and all(p.defect is None for p in problems)


def test_known_defects_match_only_their_signature():
    cfg = _pool_op("kernel_audit",
                   lambda c: c["experiment"] == "audit_kernel"
                   and c["kernel"]["profile"]["name"] == "mellin_fejer")
    assert oracle._audit_defect(cfg, "L1", {"quadrature": 1.0016}) \
        == "fejer_audit_L1"
    assert oracle._audit_defect(cfg, "L1", {"quadrature": 1.1}) is None
    chi4 = {"sup_values": [3.2e-5] * 4,
            "extra": {"m0_range": [1.0 - 3.2e-5, 1.0 + 3.2e-5]}}
    assert oracle._audit_defect(cfg, "chi4_T", chi4) \
        == "fejer_audit_chi4_partition"
    chi4["extra"]["m0_range"] = [0.99, 1.01]
    chi4["sup_values"] = [1e-2] * 4
    assert oracle._audit_defect(cfg, "chi4_T", chi4) is None
