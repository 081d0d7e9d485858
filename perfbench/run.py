"""Benchmark of expkant: experiment configs in, verdicts out.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
The load is a closed loop with one client in this process:
``EXPKANT_THREADS`` is removed from the environment (so the w loops run
serially) and BLAS gets one thread.  After an untimed warm-up the loop
issues the workload's seeded configs (``workloads.py``) to
``expkant.experiments.run`` in whole passes over the pool, as many as fit
in ``--seconds``.  The oracle (``oracle.py``) then judges every op outside
the timed region; repeated configs must give identical reports.

``--trace 0`` reports the end-to-end metrics: ops per second, median and
tail op time, set-up time of a fresh interpreter up to the first op issued
(median of twelve probes, half before and half after the loop), peak RSS
and the share of ops that did not fail.  Times are scaled to a nominal
host speed by a reference kernel timed beside them (see REF_NOMINAL_S);
the times as measured are kept in the notes.  ``--trace 1`` runs whole
passes for half the time untraced, then the same ops again with spans
around every layer (``tracer.py``), and reports per-op layer metrics and
the tracing overhead.  The last line of standard output is the
JSON result; the lines before it list every metric with its unit and an
environment block.  Full results and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 12
TAIL_BEYOND = 10  # samples above the reported tail percentile
# The speed of a shared VM swings by 1.3-1.8x for seconds to minutes at a
# time.  A reference kernel that does not touch expkant is timed at least
# every REF_EVERY_S between ops and around every set-up probe, and each
# measured time is scaled to a host on which the kernel takes
# REF_NOMINAL_S (its time on a 2 GHz Xeon VM in a fast phase).
REF_EVERY_S = 0.5
REF_NOMINAL_S = 0.005
L3_SIZE = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")


def _prepare_process() -> None:
    """One client: serial w loops and one BLAS thread, fixed before numpy
    loads; the package and the benchmark come from this checkout."""
    os.environ.pop("EXPKANT_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


class BenchError(Exception):
    """The benchmark cannot run here (no package source, bad arguments)."""


def _import_package():
    import expkant

    if Path(expkant.__file__).resolve().parent != ROOT / "src" / "expkant":
        raise BenchError(f"expkant imported from {expkant.__file__}, "
                         f"not from {ROOT / 'src'}")
    return expkant


def _probe_setup(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: stop where the first op
    would be issued."""
    _import_package()
    from expkant import experiments  # noqa: F401
    from perfbench import workloads

    workloads.make_plan(workload, seed)
    print("issued", flush=True)


@functools.cache
def _reference_arrays():
    import numpy as np

    x = np.linspace(-4.0, 4.0, 40_000)
    return x, np.empty_like(x), np.empty_like(x)


def reference() -> float:
    """Seconds the reference kernel takes now, best of three: numpy
    elementwise work on a cache-sized array and a pure-Python loop.  It
    allocates no arrays, so it does not depend on what the ops left in
    the allocator."""
    import numpy as np

    x, y, c = _reference_arrays()
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(y, x)
        for _ in range(6):
            np.multiply(y, 3.0, out=c)
            np.cos(c, out=c)
            np.multiply(y, y, out=y)
            np.negative(y, out=y)
            np.exp(y, out=y)
            np.multiply(y, c, out=y)
        total = 0.0
        for i in range(25_000):
            total += math.sqrt(i) % 1.7
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` as measured, scaled to the nominal host speed."""
    return seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))


def measure_setup(workload: str, seed: int, probes: int) -> list:
    """Seconds from starting a fresh interpreter to the first op issued,
    as measured and scaled to the nominal host speed, once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    times = []
    ref = reference()
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "issued" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code})")
        ref_after = reference()
        times.append((t1 - t0, scaled(t1 - t0, ref, ref_after)))
        ref = ref_after
    return times


def _run_op(run, cfg):
    t0 = time.perf_counter()
    try:
        outcome = run(cfg)
    except Exception as exc:  # the op failed; the oracle classifies it
        # drop the frames so a failed op's arrays are freed like a good one's
        exc.__context__ = exc.__cause__ = None
        outcome = exc.with_traceback(None)
    return outcome, time.perf_counter() - t0


def timed_loop(run, pool, seconds: float) -> list:
    """Run as many whole passes over ``pool``, a list of (key, config), as
    fit in ``seconds`` by the first pass's duration, and at least one, so
    every run holds the same mix of ops; returns (key, config, outcome,
    duration as measured, duration scaled) per op."""
    ops, refs = [], [(time.perf_counter(), reference())]
    t_start = time.perf_counter()
    pass_time = 0.0
    while not ops or time.perf_counter() - t_start + pass_time <= seconds:
        t_pass = time.perf_counter()
        for key, cfg in pool:
            if time.perf_counter() - refs[-1][0] >= REF_EVERY_S:
                refs.append((time.perf_counter(), reference()))
            ops.append((key, cfg, *_run_op(run, cfg), len(refs) - 1))
        pass_time = pass_time or time.perf_counter() - t_pass
    refs.append((time.perf_counter(), reference()))
    # each op between the reference samples taken before and after it
    return [(key, cfg, outcome, dt, scaled(dt, refs[i][1], refs[i + 1][1]))
            for key, cfg, outcome, dt, i in ops]


def tail(durations: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples above it, or a quarter of the samples in runs of
    fewer than 4 * TAIL_BEYOND ops."""
    ranked = sorted(durations, reverse=True)
    beyond = min(TAIL_BEYOND, len(ranked) // 4)
    return (ranked[beyond], 100.0 * (len(ranked) - beyond) / len(ranked),
            beyond)


def judge(ops: list) -> tuple:
    """(failed count, unexpected problems, known defects seen)."""
    from perfbench import oracle

    first, verdicts = {}, {}
    failed, unexpected, known = 0, [], set()
    for key, cfg, outcome, *_ in ops:
        if key not in verdicts:
            try:
                verdicts[key] = oracle.check(cfg, outcome)
            except Exception as exc:  # report it as a failed op, go on
                verdicts[key] = [oracle.Problem(
                    None, f"oracle raised {type(exc).__name__}: {exc}")]
            first[key] = _fingerprint(outcome)
            problems = verdicts[key]
        else:
            problems = verdicts[key]
            if _fingerprint(outcome) != first[key]:
                problems = problems + [oracle.Problem(
                    None, "repeated config gave a different result")]
        if problems:
            failed += 1
        for p in problems:
            if p.defect is None:
                unexpected.append(f"{key}: {p.message}")
            else:
                known.add(p.defect)
    return failed, unexpected, sorted(known)


def _fingerprint(outcome) -> str:
    if isinstance(outcome, BaseException):
        return f"{type(outcome).__name__}: {outcome}"
    return json.dumps(outcome, sort_keys=True, default=repr)


def _blas_threads():
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                         / "libscipy_openblas*.so"))
    try:
        return int(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_())
    except (IndexError, OSError, AttributeError):
        return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(working_set) -> dict:
    import numpy as np
    from expkant import backend

    try:
        l3 = L3_SIZE.read_text().strip()
        l3_bytes = int(l3.rstrip("K")) * 1024 if l3.endswith("K") else int(l3)
    except (OSError, ValueError):
        l3_bytes = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "backend": backend.BACKEND,
        "EXPKANT_THREADS": os.environ.get("EXPKANT_THREADS"),
        "l3_bytes": l3_bytes,
        # cells x nodes x 8 B of the widest Steklov level; traced runs only
        "largest_working_set_bytes_computed": working_set,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ops: list, wall: float, failed: int, setup: list,
               peak_rss_mb: float) -> tuple:
    """Metrics from the scaled times; the notes keep the times as
    measured."""
    durations = [op[4] for op in ops]
    value, pct, beyond = tail(durations)
    metrics = {
        "ops_per_s": _metric(len(ops) / sum(durations), "1/s"),
        "op_p50_ms": _metric(1e3 * statistics.median(durations), "ms"),
        "op_tail_ms": _metric(1e3 * value, "ms"),
        "setup_s": _metric(statistics.median(s for _, s in setup), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "ok_ratio": _metric((len(ops) - failed) / len(ops), "ratio"),
    }
    measured = [op[3] for op in ops]
    notes = {"tail_percentile": pct, "tail_samples_beyond": beyond,
             "ops": len(ops), "loop_s": wall,
             "measured_ops_per_s": len(ops) / sum(measured),
             "measured_op_p50_ms": 1e3 * statistics.median(measured),
             "measured_op_tail_ms": 1e3 * tail(measured)[0],
             "setup_samples_s": [m for m, _ in setup],
             "setup_samples_scaled_s": [s for _, s in setup]}
    return metrics, notes


def per_layer(spans, n_ops: int, untraced: float, traced: float) -> tuple:
    from expkant import operator
    from perfbench import tracer

    values, working_set = tracer.layer_metrics(spans, n_ops,
                                               operator.MAX_RETAINED_TERMS)
    values["trace.overhead_ratio"] = traced / untraced
    units = {"calls": "count", "cells": "count", "levels_capped": "count",
             "points": "count", "retained_terms": "count",
             "cap_hits": "count", "pairs": "count", "values": "count",
             "self_s": "s", "bytes_computed": "B", "levels_mean": "count",
             "useful_ratio": "ratio", "hit_ratio": "ratio",
             "overhead_ratio": "ratio"}
    return ({name: _metric(v, units[name.rsplit(".", 1)[1]])
             for name, v in values.items()}, working_set)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Runs one workload; returns the result line and the full detail."""
    _import_package()
    from expkant import experiments
    from perfbench import workloads

    plan = workloads.make_plan(workload, seed)
    # half the set-up probes before the timed loop and half after it, so
    # they sample the host's speed at two times
    setup = [] if trace else measure_setup(workload, seed, SETUP_REPEATS // 2)
    for cfg in plan.warmup:
        _run_op(experiments.run, cfg)

    t0 = time.perf_counter()
    pool = [(f"pool{j}", cfg) for j, cfg in enumerate(plan.pool)]
    ops = timed_loop(experiments.run, pool, seconds / 2 if trace else seconds)
    wall = time.perf_counter() - t0
    # before the oracle, which loads scipy and evaluates on its own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        setup += measure_setup(workload, seed,
                               SETUP_REPEATS - SETUP_REPEATS // 2)

    spans, working_set = None, None
    if trace:
        from perfbench.tracer import Tracer

        tr = Tracer()
        tr.install()
        # one pass over the same ops; the op id changes as each op starts
        replay = [(key, cfg) for key, cfg, *_ in ops]

        def traced_run(cfg):
            tr.op += 1
            return experiments.run(cfg)

        try:
            traced_ops = timed_loop(traced_run, replay, 0.0)
        finally:
            tr.uninstall()
        untraced_s = sum(op[4] for op in ops)
        traced_s = sum(op[4] for op in traced_ops)
        metrics, working_set = per_layer(tr.spans, len(ops), untraced_s,
                                         traced_s)
        notes = {"ops": len(ops), "untraced_scaled_s": untraced_s,
                 "traced_scaled_s": traced_s}
        spans = tr
        ops = ops + traced_ops

    failed, unexpected, known = judge(ops)
    if not trace:
        metrics, notes = end_to_end(ops, wall, failed, setup, peak_rss_mb)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}_seed{seed}_trace{int(trace)}"
    if spans is not None:
        spans.write(OUT / f"spans_{stem}.jsonl")
    result = {"correct": not unexpected, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "env": environment(working_set), "notes": notes,
              "known_defects_seen": known, "unexpected": unexpected,
              "ops": [{"key": op[0], "seconds": op[3], "scaled_s": op[4],
                       "error": (_fingerprint(op[2])
                                 if isinstance(op[2], BaseException)
                                 else None),
                       "passed": (None if isinstance(op[2], BaseException)
                                  else bool(op[2].get("passed")))}
                      for op in ops],
              "result": result}
    (OUT / f"result_{stem}.json").write_text(json.dumps(detail, indent=1))
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_process()
    try:
        from perfbench import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.probe_setup:
            _probe_setup(args.workload, args.seed)
            return 0
        result, detail = bench(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"env": detail["env"], "notes": detail["notes"],
                      "known_defects_seen": detail["known_defects_seen"],
                      "unexpected": detail["unexpected"]}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
