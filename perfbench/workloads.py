"""Seeded experiment configs for the four benchmark workloads.

A workload is a plan: a ``pool`` of configs that the closed loop runs in
whole passes, and a few ``warmup`` configs run before timing starts.  The
seed fixes every config; the program only ever sees the generated JSON
configs.

Each pool is a fixed list of slots.  A slot fixes what decides an op's
cost or verdict class (experiment, profile order, w ladder, scheme kind,
signal kind, radius where kinks must sit on cell edges); the seed draws the
rest (evaluation points, responses, clip levels, offsets, small jitter on
steps and radii, random-bump seeds).  Runs with different seeds therefore
do comparable work, which keeps the run-to-run spread small.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

FEJER = {"name": "mellin_fejer"}
UNIT = {"kind": "uniform", "step": 1.0, "offset": 0.0}


@dataclass(frozen=True)
class Plan:
    pool: tuple
    warmup: tuple  # run untimed before measuring: cheap ops on the same paths


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _r(x, digits: int = 4) -> float:
    return round(float(x), digits)


def _ladder(w0: float, n: int = 4) -> list:
    return [w0 * 2 ** i for i in range(n)]


def _bspline(n: int) -> dict:
    return {"name": "bspline", "n": int(n)}


def _jitter(rng, x: float, rel: float = 0.02) -> float:
    return _r(x * (1.0 + rng.uniform(-rel, rel)))


def _soft(rng, lo: float, hi: float) -> dict:
    return {"name": "soft", "alpha": _r(rng.uniform(lo, hi))}


def _compact_signal(rng, kind: str) -> dict:
    if kind == "cc":
        return {"name": "cc_bump", "radius": _jitter(rng, 1.75)}
    if kind == "random":
        return {"name": "random_bump", "seed": int(rng.integers(0, 1000))}
    if kind == "tent":
        # kinks at 0 and +-radius fall on cell edges for the w ladders used
        return {"name": "holder_bump", "nu": 1.0, "radius": 1.5}
    raise ValueError(kind)


def _x(rng, half: float) -> float:
    return _r(math.exp(rng.uniform(-half, half)), 6)


# ---------------------------------------------------------------------------
# fejer_theorems: heavy-tailed profile, Steklov quadrature and truncation


def _fejer_theorems(rng) -> Plan:
    # Fejer on an unbounded-support signal takes tolerance-mode truncation
    # to the MAX_RETAINED_TERMS cap; on sin_log it raises (known defect)
    capped = {"experiment": "converge_pointwise",
              "kernel": {"profile": FEJER},
              "signal": {"name": "sin_log"},
              "w_list": _ladder(float(rng.choice([2.0, 4.0]))),
              "x": _x(rng, 1.0)}

    # A Holder order of 1/2 puts a cusp at v = 0 that drives mean_values
    # through 8 of its 9 levels, and through all 9 at w = 16.  Radii and
    # ladders are fixed per slot: the level the doubling stops at, and so
    # the cost, jumps with them.
    def holder(radius):
        return {"name": "holder_bump", "nu": _r(rng.uniform(0.49, 0.51)),
                "radius": radius}

    lo = math.exp(-rng.uniform(0.2, 0.8) * 2.0)
    hi = math.exp(rng.uniform(0.2, 0.8) * 2.0)
    quantitative = {
        "experiment": "quantitative_3_2",
        "kernel": {"profile": FEJER},
        "signal": holder(2.0),
        "w_list": _ladder(32.0),
        "grid": {"lo": _r(lo, 6), "hi": _r(hi, 6), "points": 2},
        "beta": _r(rng.uniform(0.3, 0.7)),
    }
    # pointwise runs evaluate the operator only; the quantitative run adds
    # ~4 s of moment sums.  Five w0 = 32 runs put the median inside one
    # cost class, and the capped run and the two w0 = 16 runs (~2.5 s
    # each) hold the rank the tail is read at.
    pointwise = [{"experiment": "converge_pointwise",
                  "kernel": {"profile": FEJER},
                  "signal": holder(radius),
                  "w_list": _ladder(w0),
                  "x": _x(rng, 0.5 * radius)}
                 for radius, w0 in ((2.5, 32.0), (2.0, 16.0), (2.0, 32.0),
                                    (2.5, 32.0), (2.0, 16.0), (2.0, 32.0),
                                    (2.5, 32.0))]
    # the capped run warms the 2M-cell arrays and the Fejer moment sums
    return Plan((capped, quantitative, *pointwise), (capped,))


# ---------------------------------------------------------------------------
# bspline_modular: dense grid evaluation and modular integrals


def _bspline_modular(rng) -> Plan:
    # (profile order, signal, top of the w ladder) per modular_convergence
    # slot; random bumps vary in support with their seed, so they get the
    # cheap ladders
    convergence = ((2, "cc", 2048.0), (3, "random", 128.0), (4, "tent", 1024.0),
                   (2, "tent", 512.0), (3, "cc", 2048.0), (4, "random", 128.0),
                   (2, "random", 128.0), (3, "tent", 2048.0), (4, "cc", 1024.0))
    # (profile order, signal, w0, gamma): with n = 4, w0 = 8 and gamma
    # ~0.6 the e3_1 tail mass is zero for some w only, which makes
    # quantitative_5_1 raise (known defect, one op per pool pass)
    quantitative = ((2, "tent", 8.0, 0.5), (3, "cc", 16.0, 0.6),
                    (4, "tent", 8.0, 0.6))
    inequality = ((2, 8.0), (3, 4.0), (4, 16.0))
    pool = []
    for i in range(3):
        for n, kind, top in convergence[3 * i:3 * i + 3]:
            pool.append({
                "experiment": "modular_convergence",
                "kernel": {"profile": _bspline(n)},
                "signal": _compact_signal(rng, kind),
                "w_list": _ladder(top / 8.0),
                "lambda": _r(rng.uniform(0.5, 1.5)),
            })
        n, kind, w0, gamma = quantitative[i]
        pool.append({
            "experiment": "quantitative_5_1",
            "kernel": {"profile": _bspline(n),
                       "response": _soft(rng, 0.8, 1.5)},
            "signal": _compact_signal(rng, kind),
            "w_list": _ladder(w0),
            "gamma": _r(gamma + rng.uniform(-0.02, 0.02)),
        })
        n, w0 = inequality[i]
        pool.append({
            "experiment": "modular_inequality",
            "kernel": {"profile": _bspline(n)},
            "w_list": _ladder(w0),
            "seeds": [int(s) for s in rng.integers(0, 1000, size=2)],
            "lambda": _r(rng.uniform(0.3, 0.7)),
        })
    return Plan(tuple(pool), tuple(pool[:5]))


# ---------------------------------------------------------------------------
# kernel_audit: moments, partition bounds and condition audits only


def _scheme(rng, kind) -> dict:
    """A "unit" or "tabulated" scheme, or a uniform one near step ``kind``."""
    if kind == "unit":
        return {"kind": "uniform", "step": 1.0,
                "offset": _r(rng.uniform(0.0, 1.0))}
    if kind == "tabulated":
        gaps = [_jitter(rng, g, 0.05) for g in (0.6, 0.8, 0.7)]
        return {"kind": "tabulated", "base": [0.0, gaps[0], _r(sum(gaps[:2]))],
                "period": _r(sum(gaps))}
    return {"kind": "uniform", "step": _jitter(rng, kind, 0.01),
            "offset": _r(rng.uniform(0.0, 1.0))}


def _kernel_audit(rng) -> Plan:
    # at unit step m0 == 1 exactly, so every theory-fixed audit check must
    # pass; L1 and the chi4 checks fail there today (known defects)
    pool = [{"experiment": "audit_kernel",
             "kernel": {"profile": FEJER},
             "scheme": UNIT,
             "w_list": _ladder(4.0)}]
    # Fejer moments cost ~1/step and m0 == 1/step for steps below 2 pi.
    # Twelve of them against eight B-spline ops put the median op among
    # the numpy-bound phase sums rather than the ~50 ms B-spline runs,
    # whose speed swings most with the host's load.
    bspline = [("audit", "unit", 0.5), ("moments", "unit", None),
               ("audit", 0.8, 1.0), ("moments", 1.25, None),
               ("audit", "unit", 1.0), ("moments", "tabulated", None),
               ("audit", "tabulated", 0.5), ("moments", "unit", None)]
    for j in range(12):
        pool.append({
            "experiment": "moments", "profile": FEJER,
            "scheme": _scheme(rng, 4.0 + 0.15 * j),
            "betas": [0.0, 0.5]})
        if j % 3 == 2:
            continue
        i = j - j // 3
        kind, scheme, w0 = bspline[i]
        n = 2 + i % 3
        if kind == "moments":
            pool.append({"experiment": "moments", "profile": _bspline(n),
                         "scheme": _scheme(rng, scheme),
                         "betas": [0.0, 0.5, 1.0, 2.0]})
            continue
        pool.append({
            "experiment": "audit_kernel",
            "kernel": {"profile": _bspline(n),
                       "response": ({"name": "identity"} if scheme == "unit"
                                    else _soft(rng, 0.5, 2.0))},
            "scheme": _scheme(rng, scheme),
            # the ladder start decides whether e3_1 meets partly zero
            # tails (known defect), so it is fixed per slot
            "w_list": _ladder(w0),
            "r": _r(rng.uniform(0.3, 1.0)),
        })
    return Plan(tuple(pool), tuple(pool[1:4]))


# ---------------------------------------------------------------------------
# pointwise_rates: many small single-point operator evaluations


def _pointwise_rates(rng) -> Plan:
    pool = []
    for r in range(5):
        ns = [2 + (r + k) % 3 for k in range(8)]
        w0 = (4.0, 8.0)[r % 2]
        clip = _r(rng.uniform(4.0, 8.0))
        # interior law: K_w f(x) = ln x + 1/(2w) for |ln x| well inside clip
        pool.append({
            "experiment": "converge_pointwise",
            "kernel": {"profile": _bspline(ns[0])},
            "scheme": UNIT,
            "signal": {"name": "clipped_log", "clip": clip},
            "w_list": _ladder(w0),
            "x": _x(rng, clip - 2.0),
        })
        pool.append({
            "experiment": "converge_pointwise",
            "kernel": {"profile": _bspline(ns[1]),
                       "response": _soft(rng, 0.5, 2.0)},
            "scheme": _scheme(rng, "unit"),
            "signal": ({"name": "sin_log"} if r % 2 == 0
                       else _compact_signal(rng, "cc")),
            "w_list": _ladder((4.0, 8.0, 16.0)[r % 3]),
            "x": _x(rng, 0.8),
        })
        pool.append({
            "experiment": "converge_pointwise",
            "kernel": {"profile": FEJER},
            "signal": _compact_signal(rng, "random" if r == 4 else "cc"),
            "w_list": _ladder(w0),
            "x": _x(rng, 0.8),
        })
        pool.append({
            "experiment": "converge_pointwise",
            "kernel": {"profile": _bspline(ns[3])},
            "scheme": _scheme(rng, "unit"),
            "signal": {"name": "constant", "c": _r(rng.uniform(-3.0, 3.0))},
            "w_list": _ladder((2.0, 4.0, 8.0)[r % 3]),
            "x": _x(rng, 2.0),
        })
        pool.append({
            "experiment": "converge_pointwise",
            "kernel": {"profile": _bspline(ns[4])},
            "signal": _compact_signal(rng, "random"),
            "w_list": _ladder((4.0, 8.0, 16.0)[r % 3]),
            "x": _x(rng, 1.0),
        })
        clip = _r(rng.uniform(4.0, 8.0))
        pool.append({
            "experiment": "voronovskaja",
            "kernel": {"profile": _bspline(ns[5])},
            "scheme": UNIT,
            "signal": {"name": "clipped_log", "clip": clip},
            "w_list": _ladder(w0),
            "x": _x(rng, clip - 2.0),
            "r": 1.0,
        })
        pool.append({
            "experiment": "voronovskaja",
            "kernel": {"profile": _bspline(ns[6]),
                       "response": _soft(rng, 1.2, 2.0)},
            "signal": ({"name": "sin_log"} if r % 2 == 1
                       else _compact_signal(rng, "cc")),
            "w_list": _ladder(w0),
            "x": _x(rng, 0.8),
            "r": _r(rng.uniform(0.5, 1.0)),
        })
        pool.append({
            "experiment": "voronovskaja",
            "kernel": {"profile": _bspline(ns[7]),
                       "response": {"name": "soft_power",
                                    "alpha": _r(rng.uniform(1.2, 2.0)),
                                    "r": 1.0}},
            "signal": _compact_signal(rng, "tent"),
            "w_list": _ladder(w0),
            "x": _x(rng, 0.8),
            "r": 1.0,
        })
    return Plan(tuple(pool), tuple(pool))


_BUILDERS = {
    "fejer_theorems": _fejer_theorems,
    "bspline_modular": _bspline_modular,
    "kernel_audit": _kernel_audit,
    "pointwise_rates": _pointwise_rates,
}
WORKLOADS = tuple(_BUILDERS)


def make_plan(workload: str, seed: int) -> Plan:
    """The seeded plan of one workload; equal seeds give equal plans."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(one of {', '.join(WORKLOADS)})")
    return _BUILDERS[workload](_rng(workload, seed))

