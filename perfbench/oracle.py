"""Correctness oracle for benchmark ops, run outside the timed region.

Each op is judged from its config and what ``experiments.run`` returned
(a report, or the exception it raised).  The oracle recomputes sampled
values by its own means and checks the verdicts that theory fixes:

* operator values as direct dense sums ``sum_k L(y - t_k) g_w(m_k)`` with
  Steklov means ``m_k`` from ``scipy.integrate.quad`` (compact signals, or
  compact profiles where only the terms inside the support are nonzero);
* constant reproduction by B-splines at unit step;
* the ``clipped_log`` interior law ``K_w f(x) = ln x + 1/(2w)`` for
  B-splines with the identity response at unit step;
* ``m0 == 1`` for B-splines and the Mellin-Fejer profile at unit step
  (``1/step`` for Fejer at any step up to ``2 pi``).

A FAIL that comes from applying a decay rule to pre-asymptotic errors is a
result, not a failure, so rate verdicts are checked only where theory fixes
them exactly.  Profile values come from ``scipy.interpolate.BSpline`` and
``numpy.sinc``, not from the package.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import BSpline

# Slack between two independent quadratures of the same Steklov means,
# scaled by max(1, sup |f|).  The package iterates each mean to 1e-10.
QUAD_TOL = 1e-9

# signatures of the Fejer audit defects at unit step: L1 reads 1.0016, and
# the partition sum ranges over 1 +- 3.2e-5, which is also the size of the
# chi4 sups
FEJER_L1_READ, FEJER_L1_BAND = 1.0016, 5e-4
FEJER_M0_SPREAD = 5e-5

KNOWN_DEFECTS = {
    "fejer_sin_log_underflow":
        "Fejer x sin_log raises EvaluationError: at the 2M-term cap "
        "Signal.log_evaluate turns exp(v) for v < -745 into 0 and "
        "sin(log 0) is NaN",
    "fejer_audit_L1":
        "Fejer audit L1 reads 1.0016 against a declared 1: _l1_quadrature "
        "adds the full decay envelope to the quadrature",
    "fejer_audit_chi4_partition":
        "Fejer audit chi4_S, chi4_T and chi4_star fail on a partition range "
        "of 1 +- 3e-5 although m0 == 1 exactly at unit step",
    "e3_1_partial_zero":
        "check_e3_1 drops the rate fit when a compact profile's tail mass is "
        "zero for some w and not for others: the audit's e3_1 reads FAIL and "
        "quantitative_5_1 raises PreconditionError",
}


@dataclass(frozen=True)
class Problem:
    """One oracle finding; ``defect`` names a KNOWN_DEFECTS entry or is
    None for an unexpected failure."""

    defect: Optional[str]
    message: str


def _expect(ok, message: str) -> list:
    return [] if ok else [Problem(None, message)]


# ---------------------------------------------------------------------------
# independent building blocks


class _Profile:
    def __init__(self, spec: dict):
        if spec["name"] == "bspline":
            n = int(spec.get("n", 2))
            self.radius = 0.5 * (n + 1)
            knots = np.arange(n + 2) - self.radius
            self._basis = BSpline.basis_element(knots, extrapolate=False)
        else:
            self.radius = None

    @property
    def compact(self) -> bool:
        return self.radius is not None

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        if self.compact:
            return np.nan_to_num(self._basis(v), nan=0.0)
        return np.sinc(v / (2.0 * math.pi)) ** 2 / (2.0 * math.pi)


def _response(spec: Optional[dict]):
    spec = spec or {"name": "identity"}
    a = float(spec.get("alpha", 1.0))
    if spec["name"] == "identity":
        return lambda w, u: u
    if spec["name"] == "soft":
        return lambda w, u: u + w ** (-a) * np.tanh(u)
    r = float(spec.get("r", 1.0))
    return lambda w, u: u + w ** (-a) * np.sign(u) * np.minimum(
        np.abs(u) ** r, 1.0)


class _Scheme:
    def __init__(self, spec: Optional[dict]):
        spec = spec or {"kind": "uniform"}
        self.uniform = spec.get("kind", "uniform") == "uniform"
        if self.uniform:
            self.step = float(spec.get("step", 1.0))
            self.offset = float(spec.get("offset", 0.0))
        else:
            self.base = np.asarray(spec["base"], dtype=float)
            self.period = float(spec["period"])

    @property
    def unit_step(self) -> bool:
        return self.uniform and self.step == 1.0

    def nodes(self, ks):
        ks = np.asarray(ks)
        if self.uniform:
            return self.offset + ks * self.step
        q, i = np.divmod(ks, self.base.size)
        return q * self.period + self.base[i]

    def indices(self, lo: float, hi: float):
        """Every k whose node lies in [lo, hi], plus one on each side."""
        if self.uniform:
            k0 = math.floor((lo - self.offset) / self.step) - 1
            k1 = math.ceil((hi - self.offset) / self.step) + 1
            return np.arange(k0, k1 + 1)
        m = self.base.size
        q0 = math.floor((lo - self.base[-1]) / self.period) - 1
        q1 = math.ceil((hi - self.base[0]) / self.period) + 1
        return np.arange(q0 * m, (q1 + 1) * m)


def _signal(spec: dict):
    from expkant import experiments

    return experiments.build_signal(spec)


def _steklov_means(f, w: float, scheme: _Scheme, ks) -> np.ndarray:
    t = scheme.nodes(np.append(ks, ks[-1] + 1))
    rho = f.log_support_radius
    kinks = (0.0,) if rho is None else (0.0, -rho, rho)
    out = np.zeros(len(ks))
    for i in range(len(ks)):
        a, b = t[i] / w, t[i + 1] / w
        if rho is not None and (b <= -rho or a >= rho):
            continue
        pts = [p for p in kinks if a < p < b] or None
        val, _ = quad(lambda u: float(f.evaluate(np.array([math.exp(u)]))[0]),
                      a, b, points=pts, epsabs=1e-14, epsrel=1e-13,
                      limit=200)
        out[i] = val / (b - a)
    return out


def direct_values(cfg: dict, w: float, xs) -> np.ndarray:
    """K_w f at the points xs by direct dense summation."""
    profile = _Profile(cfg["kernel"]["profile"])
    g = _response(cfg["kernel"].get("response"))
    scheme = _Scheme(cfg.get("scheme"))
    f = _signal(cfg["signal"])
    ys = w * np.log(np.asarray(xs, dtype=float))
    rho = f.log_support_radius
    if profile.compact:
        lo, hi = ys.min() - profile.radius - 1.0, ys.max() + profile.radius
    else:
        lo, hi = -w * rho - 1.0, w * rho
    ks = scheme.indices(lo, hi)
    t = scheme.nodes(ks)
    g_m = g(w, _steklov_means(f, w, scheme, ks))
    return np.array([float(np.sum(profile(y - t) * g_m)) for y in ys])


def _tolerance(cfg: dict) -> float:
    sup = _signal(cfg["signal"]).sup_norm or 1.0
    return QUAD_TOL * max(1.0, abs(sup))


def _sample(cfg: dict, n: int) -> int:
    """A deterministic index in [0, n) fixed by the config."""
    return zlib.crc32(json.dumps(cfg, sort_keys=True).encode()) % n


# ---------------------------------------------------------------------------
# per-experiment checks


def _interior_law(cfg: dict) -> bool:
    """B-spline, identity response, unit scheme without offset, clipped_log,
    x far enough inside the clip that no saturated cell is in reach."""
    kern, sig = cfg["kernel"], cfg["signal"]
    scheme = _Scheme(cfg.get("scheme"))
    if (kern["profile"]["name"] != "bspline" or sig["name"] != "clipped_log"
            or kern.get("response", {"name": "identity"})["name"]
            != "identity" or not scheme.unit_step or scheme.offset != 0.0):
        return False
    reach = (0.5 * (kern["profile"].get("n", 2) + 1) + 2.0) / min(
        cfg["w_list"])
    return abs(math.log(cfg["x"])) + reach < sig.get("clip", 6.0)


def _pointwise_errors(cfg: dict, report: dict, key: str, scale) -> list:
    """Sampled |K_w f(x) - f(x)| against the reported error column."""
    rows = report["rows"]
    vals = np.array([row[key] for row in rows], dtype=float)
    problems = _expect(np.all(np.isfinite(vals)) and np.all(vals >= 0),
                       f"non-finite or negative {key} column")
    x = float(cfg["x"])
    ws = np.array([row["w"] for row in rows])
    if _interior_law(cfg):
        expected = np.array([scale(w) * 0.5 / w for w in ws])
        worst = float(np.max(np.abs(vals - expected)))
        problems += _expect(worst <= 1e-10,
                            f"interior law ln x + 1/(2w) missed by {worst:.3e}")
        return problems
    f = _signal(cfg["signal"])
    if f.log_support_radius is None and cfg["kernel"]["profile"]["name"] != "bspline":
        return problems  # truncated heavy-tailed sum: no exact reference
    i = _sample(cfg, len(ws))
    k = direct_values(cfg, ws[i], [x])[0]
    fx = float(f.evaluate(np.array([x]))[0])
    expected = scale(ws[i]) * abs(k - fx)
    miss = abs(vals[i] - expected)
    tol = scale(ws[i]) * _tolerance(cfg)
    problems += _expect(miss <= tol, f"{key} at w={ws[i]:g} misses the direct "
                        f"sum by {miss:.3e} (tolerance {tol:.1e})")
    return problems


def _check_converge_pointwise(cfg: dict, report: dict) -> list:
    problems = _pointwise_errors(cfg, report, "error", lambda w: 1.0)
    kern, sig = cfg["kernel"], cfg["signal"]
    scheme = _Scheme(cfg.get("scheme"))
    plain_bspline = (kern["profile"]["name"] == "bspline"
                     and kern.get("response", {"name": "identity"})["name"]
                     == "identity" and scheme.unit_step)
    if plain_bspline and sig["name"] == "constant":
        worst = max(row["error"] for row in report["rows"])
        problems += _expect(worst < 1e-12 and report["fit"] == "exact"
                            and report["passed"],
                            f"constant not reproduced (error {worst:.3e})")
    if _interior_law(cfg):
        problems += _expect(report["passed"], "interior-law run not passed")
    return problems


def _check_voronovskaja(cfg: dict, report: dict) -> list:
    r = float(cfg["r"])
    rep = report["report"]
    problems = _pointwise_errors(cfg, report, "lhs", lambda w: w ** r)
    f = _signal(cfg["signal"])
    x, h = float(cfg["x"]), 1e-6
    fd = float((f.evaluate(np.array([x * math.exp(h)]))
                - f.evaluate(np.array([x * math.exp(-h)])))[0]) / (2 * h)
    problems += _expect(abs(rep["theta"] - fd) <= 1e-5 * max(1.0, abs(fd)),
                        f"Mellin derivative {rep['theta']:.8g} vs {fd:.8g}")
    if _interior_law(cfg):
        problems += _expect(rep["passed"], "limit 0.5 not below the bound")
    return problems


def _check_quantitative_3_2(cfg: dict, report: dict) -> list:
    rows = report["rows"]
    problems = _expect(report["inequality_ok"],
                       "quantitative bound violated (theorem)")
    grid = cfg["grid"]
    xs = np.geomspace(grid["lo"], grid["hi"], int(grid["points"]))
    i = _sample(cfg, len(rows))
    w = rows[i]["w"]
    f = _signal(cfg["signal"])
    sup = float(np.max(np.abs(direct_values(cfg, w, xs) - f.evaluate(xs))))
    miss = abs(rows[i]["lhs"] - sup)
    tol = _tolerance(cfg)
    problems += _expect(miss <= tol, f"sup error at w={w:g} misses the direct "
                        f"sums by {miss:.3e} (tolerance {tol:.1e})")
    if cfg["kernel"]["profile"]["name"] == "mellin_fejer":
        m0 = report["constants"]["m0"]
        problems += _expect(report["constants"]["m1_diverged"],
                            "Fejer first moment not flagged divergent")
        problems += _expect(1.0 <= m0 <= 1.0 + 1e-3,
                            f"Fejer m0 bound {m0!r} not in [1, 1 + 1e-3]")
    return problems


def _check_grid_values(cfg: dict, w: float) -> list:
    """Sampled values of the grid evaluation behind the modular errors."""
    from expkant import experiments, operator

    f = _signal(cfg["signal"])
    grid = operator.eval_on_log_grid(
        f, w, experiments.build_kernel(cfg["kernel"]),
        experiments.build_scheme(cfg.get("scheme")))
    n = grid.v.size
    idx = sorted({int(np.argmax(np.abs(grid.values))), n // 3,
                  _sample(cfg, n)})
    direct = direct_values(cfg, w, np.exp(grid.v[idx]))
    miss = float(np.max(np.abs(direct - grid.values[idx])))
    tol = _tolerance(cfg)
    return _expect(miss <= tol, f"grid values at w={w:g} miss the direct sums "
                   f"by {miss:.3e} (tolerance {tol:.1e})")


def _check_modular_convergence(cfg: dict, report: dict) -> list:
    errs = np.array([row["modular_error"] for row in report["rows"]])
    problems = _expect(np.all(np.isfinite(errs)) and np.all(errs >= 0),
                       "non-finite or negative modular error")
    w = cfg["w_list"][_sample(cfg, len(cfg["w_list"]))]
    return problems + _check_grid_values(cfg, float(w))


def _check_quantitative_5_1(cfg: dict, report: dict) -> list:
    problems = _expect(report["inequality_ok"],
                       "quantitative modular bound violated (theorem)")
    w = cfg["w_list"][_sample(cfg, len(cfg["w_list"]))]
    return problems + _check_grid_values(cfg, float(w))


def _check_modular_inequality(cfg: dict, report: dict) -> list:
    return _expect(report["passed"] and report["violations"] == 0,
                   f"modular inequality violated {report['violations']} times "
                   "(theorem)")


def _expected_audit(cfg: dict) -> list:
    """Audit checks that theory says must pass for this config.

    Checks that fail in theory are left out: at finite w a decay rule can
    still read PASS there, and the Fejer L3 tails decay too slowly to pass
    at any w a run reaches.
    """
    profile = _Profile(cfg["kernel"]["profile"])
    response = cfg["kernel"].get("response", {"name": "identity"})
    must = ["chi1", "chi2", "L1", "L2", "e3_1"]
    # the slope psi(u) = 2u dominates g_w once w^-alpha <= 1
    if response["name"] == "identity" or min(cfg["w_list"]) >= 1.0:
        must.append("chi3")
    # m0 == 1 exactly: B-splines and Fejer at unit step
    if _Scheme(cfg.get("scheme")).unit_step:
        must += ["chi4_S", "chi4_T", "chi4_star"]
    # compact tails vanish once gamma * w covers the support
    if profile.compact and (max(cfg["w_list"]) * float(cfg.get("gamma", 1.0))
                            >= profile.radius):
        must.append("L3")
    return must


def _audit_defect(cfg: dict, name: str, check: dict) -> Optional[str]:
    """The known defect a failed audit check shows, matched on its values:
    the same check failing with other values is a new problem."""
    fejer = cfg["kernel"]["profile"]["name"] == "mellin_fejer"
    if (fejer and name == "L1"
            and abs(check["quadrature"] - FEJER_L1_READ) <= FEJER_L1_BAND):
        return "fejer_audit_L1"
    if fejer and name.startswith("chi4"):
        lo, hi = check["extra"]["m0_range"]
        sups = check["sup_values"]
        if (1.0 - FEJER_M0_SPREAD <= lo <= hi <= 1.0 + FEJER_M0_SPREAD
                and all(0.0 < v <= FEJER_M0_SPREAD for v in sups)):
            return "fejer_audit_chi4_partition"
    vals = check.get("sup_values", ())
    if (not fejer and name == "e3_1" and any(v == 0.0 for v in vals)
            and not all(v == 0.0 for v in vals)):
        return "e3_1_partial_zero"
    return None


def _check_audit_kernel(cfg: dict, report: dict) -> list:
    checks = report["checks"]
    problems = [Problem(_audit_defect(cfg, name, checks[name]),
                        f"audit {name} FAIL where theory gives PASS")
                for name in _expected_audit(cfg) if not checks[name]["passed"]]
    if _Scheme(cfg.get("scheme")).unit_step:
        m0 = checks["chi1"]["m0"]
        bound = 1e-12 if _Profile(cfg["kernel"]["profile"]).compact else 1e-3
        problems += _expect(1.0 - 1e-12 <= m0 <= 1.0 + bound,
                            f"m0 = {m0!r} at unit step")
    return problems


def _phase_sup(profile: _Profile, scheme: _Scheme, beta: float,
               half: float, phases: int) -> float:
    """Lower bound on sup_y sum_k L(y - t_k) |y - t_k|^beta: a finite
    window of nonnegative terms on a finite phase grid."""
    period = scheme.step if scheme.uniform else scheme.period
    ys = np.linspace(0.0, period, phases, endpoint=False)
    t = scheme.nodes(scheme.indices(-half, period + half))
    best = 0.0
    for chunk in np.array_split(ys, max(1, ys.size * t.size // 2_000_000)):
        d = chunk[:, None] - t[None, :]
        vals = profile(d) * (np.abs(d) ** beta if beta else 1.0)
        best = max(best, float(vals.sum(axis=1).max()))
    return best


def _check_moments(cfg: dict, report: dict) -> list:
    profile = _Profile(cfg["profile"])
    scheme = _Scheme(cfg.get("scheme"))
    problems = []
    for row in report["rows"]:
        beta, value = row["beta"], row["value"]
        if not profile.compact and beta >= 1.0:
            problems += _expect(row["diverged"] and math.isinf(value),
                                f"Fejer moment {beta:g} not flagged divergent")
            continue
        if beta == 0.0 and scheme.uniform and (
                scheme.step == 1.0 or not profile.compact):
            m0 = 1.0 / scheme.step
            hi = 1e-12 if profile.compact else 1e-3 * m0
            problems += _expect(m0 - 1e-12 <= value <= m0 + hi,
                                f"m0 = {value!r} where theory gives {m0:g}")
            continue
        if profile.compact:
            lb = _phase_sup(profile, scheme, beta, profile.radius + 2.0, 4096)
            slack = 1e-3 * max(1.0, lb)
        else:
            half = 2048.0
            lb = _phase_sup(profile, scheme, beta, half, 256)
            # envelope of the terms beyond the window plus phase-grid slack
            slack = (4.0 / (math.pi * scheme.step) * (half - 8.0) ** (beta - 1.0)
                     / (1.0 - beta) + 1e-3 * lb)
        problems += _expect(lb - 1e-12 <= value <= lb + slack,
                            f"moment {beta:g} = {value!r} outside "
                            f"[{lb:.6g}, {lb + slack:.6g}]")
    return problems


_CHECKS = {
    "converge_pointwise": _check_converge_pointwise,
    "voronovskaja": _check_voronovskaja,
    "quantitative_3_2": _check_quantitative_3_2,
    "modular_convergence": _check_modular_convergence,
    "quantitative_5_1": _check_quantitative_5_1,
    "modular_inequality": _check_modular_inequality,
    "audit_kernel": _check_audit_kernel,
    "moments": _check_moments,
}


def _raise_defect(cfg: dict, exc: BaseException) -> Optional[str]:
    from expkant import EvaluationError, PreconditionError

    profile = cfg.get("kernel", cfg)["profile"]["name"]
    if (cfg["experiment"] == "converge_pointwise"
            and profile == "mellin_fejer" and cfg["signal"]["name"] == "sin_log"
            and isinstance(exc, EvaluationError)
            and "non-finite" in str(exc)):
        return "fejer_sin_log_underflow"
    if (cfg["experiment"] == "quantitative_5_1" and profile == "bspline"
            and isinstance(exc, PreconditionError)
            and "tail-mass condition fit unavailable" in str(exc)):
        return "e3_1_partial_zero"
    return None


def check(cfg: dict, outcome) -> list:
    """Problems with one op: ``outcome`` is the report dict or the
    exception ``experiments.run`` raised.  An empty list means correct."""
    if isinstance(outcome, BaseException):
        return [Problem(_raise_defect(cfg, outcome),
                        f"raised {type(outcome).__name__}: {outcome}")]
    return _CHECKS[cfg["experiment"]](cfg, outcome)
