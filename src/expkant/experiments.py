"""Config-driven experiment runner: each experiment reproduces one
convergence statement as a (w, error) table with a rate fit and a
pass/fail verdict, or audits kernel admissibility conditions.

Each experiment is one row of ``_EXPERIMENTS``: its runner and its
required and optional config keys, read by both ``validate_config`` and
``run``.  Configs are single JSON documents; unknown keys are rejected at
every level so a run is reproducible from its config alone, and every
value is read through a typed reader (_number, _integer, _flag, _text,
_listed) that raises ValidationError naming the key path.  CSV tables
carry a header row, '.' decimals and 17 significant digits; JSON report
files are strict RFC 8259 JSON, with each non-finite float written as null.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from typing import Optional, Sequence

import numpy as np

from . import mellin, modular, moduli, moments, operator
from .core import (KernelProfile, NonlinearKernel, PhiPair,
                   PreconditionError, SamplingScheme, Signal,
                   ValidationError, make_builtin_profile, make_response)
from .modular import make_phi
from .ratefit import RateFit, fit_loglog
from .signals import make_signal

EXACT_ERROR = 1e-12

# the most points a config's x grid may ask for
MAX_GRID_POINTS = 10_000


# ---------------------------------------------------------------------------
# config parsing


def _require_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a JSON object")
    return value


def _number(value, where: str) -> float:
    """A finite number: an int or a float, not a bool, NaN or +-inf (which
    JSON text such as 1e400, Infinity or NaN reads as)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{where} must be a number (got {value!r})")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{where} must be finite (got {value!r})")
    return number


def _integer(value, where: str) -> int:
    """An integer: an int, or a float of integral value; not a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{where} must be an integer (got {value!r})")
    return int(value)


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{where} must be true or false (got {value!r})")
    return value


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a string (got {value!r})")
    return value


def _listed(value, where: str, read) -> list:
    """A list, each element read by read(element, where[i])."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{where} must be a list (got {value!r})")
    return [read(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _check_keys(spec: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(spec) - allowed
    if unknown:
        raise ValidationError(
            f"unknown keys in {where}: {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})")
    missing = required - set(spec)
    if missing:
        raise ValidationError(f"missing keys in {where}: {sorted(missing)}")


def build_scheme(spec: Optional[dict]) -> SamplingScheme:
    if spec is None:
        return SamplingScheme.uniform()
    spec = _require_dict(spec, "scheme")
    kind = _text(spec.get("kind", "uniform"), "scheme.kind")
    if kind == "uniform":
        _check_keys(spec, {"kind", "step", "offset"}, set(), "scheme")
        return SamplingScheme.uniform(
            _number(spec.get("step", 1.0), "scheme.step"),
            _number(spec.get("offset", 0.0), "scheme.offset"))
    if kind == "tabulated":
        _check_keys(spec, {"kind", "base", "period"}, {"base", "period"},
                    "scheme")
        return SamplingScheme.tabulated(
            _listed(spec["base"], "scheme.base", _number),
            _number(spec["period"], "scheme.period"))
    raise ValidationError(f"unknown scheme kind {kind!r}")


def build_profile(spec: dict, where: str = "profile") -> KernelProfile:
    """A built-in profile; only the B-spline takes an order "n" (default 2)."""
    spec = _require_dict(spec, where)
    bspline = spec.get("name") == "bspline"
    _check_keys(spec, {"name", "n"} if bspline else {"name"}, {"name"},
                where)
    name = _text(spec["name"], f"{where}.name")
    if not bspline:
        return make_builtin_profile(name)
    return make_builtin_profile(name, _integer(spec.get("n", 2), f"{where}.n"))


def build_kernel(spec: dict) -> NonlinearKernel:
    spec = _require_dict(spec, "kernel")
    _check_keys(spec, {"profile", "response"}, {"profile"}, "kernel")
    profile = build_profile(spec["profile"], "kernel.profile")
    rspec = _require_dict(spec.get("response", {"name": "identity"}),
                          "kernel.response")
    _check_keys(rspec, {"name", "alpha", "r"}, {"name"}, "kernel.response")
    response = make_response(
        _text(rspec["name"], "kernel.response.name"),
        alpha=_number(rspec.get("alpha", 1.0), "kernel.response.alpha"),
        r=_number(rspec.get("r", 1.0), "kernel.response.r"))
    return NonlinearKernel(profile, response)


def build_signal(spec: dict) -> Signal:
    """A built-in signal; every parameter is a number but random_bump's
    integer "seed"."""
    spec = _require_dict(spec, "signal")
    if "name" not in spec:
        raise ValidationError("signal spec needs a 'name'")
    params = {k: (_integer if k == "seed" else _number)(v, f"signal.{k}")
              for k, v in spec.items() if k != "name"}
    try:
        return make_signal(_text(spec["name"], "signal.name"), **params)
    except TypeError as exc:
        raise ValidationError(f"bad signal parameters: {exc}") from None


def build_phi(spec: Optional[dict]):
    if spec is None:
        return make_phi("power", 2.0)
    spec = _require_dict(spec, "phi")
    _check_keys(spec, {"name", "p", "allow_exponential"}, {"name"}, "phi")
    return make_phi(_text(spec["name"], "phi.name"),
                    p=_number(spec.get("p", 2.0), "phi.p"),
                    allow_exponential=_flag(
                        spec.get("allow_exponential", False),
                        "phi.allow_exponential"))


def build_pair(spec: Optional[dict], slope) -> PhiPair:
    """Power-type phi with the companion eta determined by the kernel slope
    (so the growth condition holds by construction)."""
    spec = _require_dict({} if spec is None else spec, "pair")
    _check_keys(spec, {"p"}, set(), "pair")
    return modular.matched_pair(_number(spec.get("p", 2.0), "pair.p"), slope)


def build_grid(spec: Optional[dict], f: Signal) -> np.ndarray:
    """Geometric evaluation x-grid from lo to hi; defaults to the interior
    of the signal support (or [e^-2, e^2] for unbounded-support signals)."""
    if spec is None:
        if f.log_support_radius is not None:
            half = 0.9 * f.log_support_radius
        else:
            half = 2.0
        return np.exp(np.linspace(-half, half, 21))
    spec = _require_dict(spec, "grid")
    _check_keys(spec, {"lo", "hi", "points"}, {"lo", "hi"}, "grid")
    lo, hi = _number(spec["lo"], "grid.lo"), _number(spec["hi"], "grid.hi")
    n = _integer(spec.get("points", 21), "grid.points")
    if not (0.0 < lo < hi) or n < 1:
        raise ValidationError("grid needs 0 < lo < hi and points >= 1")
    if n > MAX_GRID_POINTS:
        raise ValidationError(
            f"grid.points must be at most {MAX_GRID_POINTS} (got {n})")
    return np.geomspace(lo, hi, n)


def _setup(cfg: dict) -> tuple:
    """(kernel, scheme, signal or None, w array) of an experiment that takes
    a kernel, built in that order."""
    kernel = build_kernel(cfg["kernel"])
    scheme = build_scheme(cfg.get("scheme"))
    f = build_signal(cfg["signal"]) if "signal" in cfg else None
    w = np.array(_listed(cfg["w_list"], "w_list", _number))
    if w.size < 4 or np.any(np.diff(w) <= 0) or w[0] <= 0:
        raise ValidationError(
            "w_list must be strictly increasing, positive, length >= 4")
    return kernel, scheme, f, w


def _check_slope_range(kernel: NonlinearKernel, w_arr: np.ndarray,
                       gap: float = math.inf) -> None:
    """Refuse a run that takes the slope psi where it need not bound the
    response's Lipschitz modulus (ResponseFamily.slope_range): at a w below
    the range or at gaps |u - v| up to ``gap`` beyond it.  A run whose
    growth condition (H) takes psi at every gap passes gap = inf."""
    response = kernel.response
    w_min, gap_max = response.slope_range
    psi = f"the slope psi = {kernel.slope.name} of response {response.name}"
    if w_arr[0] < w_min:
        raise ValidationError(f"w_list starts at {w_arr[0]:g}, but {psi} "
                              f"holds only for w >= {w_min:.6g}")
    if gap > gap_max:
        raise ValidationError(
            f"kernel.response: {psi} holds only for gaps up to {gap_max:g}, "
            f"and this run takes it at gaps up to {gap:.6g}")


def validate_config(cfg: dict) -> str:
    cfg = _require_dict(cfg, "config")
    name = cfg.get("experiment")
    if not isinstance(name, str) or name not in _EXPERIMENTS:
        raise ValidationError(
            f"unknown experiment {name!r} "
            f"(one of {sorted(_EXPERIMENTS)})")
    _, required, optional = _EXPERIMENTS[name]
    _check_keys(cfg, required | optional | {"experiment", "output"},
                required | {"experiment"}, "config")
    if "output" in cfg:
        out = _require_dict(cfg["output"], "output")
        _check_keys(out, {"csv", "json"}, set(), "output")
        for key, path in out.items():
            _text(path, f"output.{key}")
    return name


# ---------------------------------------------------------------------------
# verdicts


def _fit_dict(fit: Optional[RateFit]) -> Optional[dict]:
    return None if fit is None else fit.to_dict()


def _decay_report(w_arr: np.ndarray, errors: np.ndarray, **extra) -> dict:
    """The (w, error) table of a convergence run.  It passes when every
    error is below EXACT_ERROR (fit "exact"), or when the fitted slope is
    negative and the last error is below the first."""
    fit = fit_loglog(w_arr, errors)
    exact = bool(np.all(errors < EXACT_ERROR))
    return {
        "rows": [{"w": float(w), "error": float(e)}
                 for w, e in zip(w_arr, errors)],
        "columns": ["w", "error"],
        **extra,
        "fit": "exact" if exact else _fit_dict(fit),
        "passed": exact or (fit is not None and bool(
            fit.slope < 0.0 and errors[-1] < errors[0])),
    }


# the bound verdicts' relative margins: fixed slacks, not error bounds
QUANTITATIVE_3_2_SLACK = 1e-6
QUANTITATIVE_5_1_SLACK = 0.05


def _bound_report(rows: list, w_arr: np.ndarray, slack: float, floor: float,
                  parts: Optional[list], **extra) -> dict:
    """The (w, lhs, rhs) table of a quantitative estimate.  It passes when
    lhs <= rhs (1 + slack) + floor in every row and, unless parts is None,
    the fitted decay of lhs is no slower than min(parts) - 0.1."""
    inequality_ok = all(r["lhs"] <= r["rhs"] * (1.0 + slack) + floor
                        for r in rows)
    fit = fit_loglog(w_arr, [r["lhs"] for r in rows])
    required = None if parts is None else min(parts)
    rate_ok = required is None or fit is None \
        or -fit.slope >= required - 0.1
    return {
        "rows": rows,
        "columns": ["w", "lhs", "rhs"],
        **extra,
        "fit": _fit_dict(fit),
        "required_order": required,
        "rate_ok": bool(rate_ok),
        "inequality_ok": bool(inequality_ok),
        "passed": bool(inequality_ok and rate_ok),
    }


# ---------------------------------------------------------------------------
# experiments


def _run_converge_uniform(cfg: dict) -> dict:
    kernel, scheme, f, w_arr = _setup(cfg)
    grid = build_grid(cfg.get("grid"), f)
    return _decay_report(w_arr, np.array([
        operator.sup_error(f, float(w), grid, kernel, scheme)
        for w in w_arr]))


def _run_converge_pointwise(cfg: dict) -> dict:
    kernel, scheme, f, w_arr = _setup(cfg)
    x = _number(cfg["x"], "x")
    if x <= 0:
        raise ValidationError("converge_pointwise needs x > 0")
    fx = float(f(np.array([x]))[0])
    return _decay_report(w_arr, np.array([
        abs(operator.eval_kantorovich(f, float(w), x, kernel, scheme)[0] - fx)
        for w in w_arr]), x=x)


def _run_quantitative_3_2(cfg: dict) -> dict:
    """Quantitative uniform estimate: sup error against the measured-constant
    RHS, in the beta >= 1 and 0 < beta < 1 variants."""
    kernel, scheme, f, w_arr = _setup(cfg)
    grid = build_grid(cfg.get("grid"), f)
    beta = _number(cfg["beta"], "beta")
    j = _integer(cfg.get("j", 2), "j")
    if beta <= 0:
        raise ValidationError("quantitative_3_2 needs beta > 0")
    if f.sup_norm is None:
        raise ValidationError("quantitative_3_2 needs a bounded signal")

    case = 1 if beta >= 1.0 else 2
    omegas = [moduli.log_modulus(f, 1.0 / w if case == 1 else w ** (-beta))
              for w in w_arr]
    # psi is taken at ||f||, at each omega, and at gaps between two values
    # of f, up to its spread (2 ||f|| when the signal declares none)
    spread = 2.0 * f.sup_norm if f.spread is None else f.spread
    _check_slope_range(kernel, w_arr, max(f.sup_norm, spread, *omegas))

    profile = kernel.profile
    psi = kernel.slope
    delta = scheme.upper_gap
    m0 = moments.moment_value(profile, scheme, 0.0)
    m1 = moments.moment_value(profile, scheme, 1.0)
    if case == 1:
        if not math.isfinite(m1):
            raise ValidationError(
                "beta >= 1 variant needs a finite first moment; "
                "use 0 < beta < 1 for this profile")
        const = m0 + delta * m0 + m1  # the M_3 aggregate
        m_beta = m1
    else:
        m_beta = moments.moment_value(profile, scheme, beta)
        if not math.isfinite(m_beta):
            raise ValidationError(f"moment of order {beta:g} diverges")
        const = m0 + m_beta + delta**beta * m0  # the M_4 aggregate

    _, s_vals, t_vals, _ = moments.chi4_functionals(kernel, scheme, j, w_arr)

    lhs = np.array([operator.sup_error(f, float(w), grid, kernel, scheme)
                    for w in w_arr])
    rows = []
    for i, (w, omega) in enumerate(zip(w_arr, omegas)):
        rhs = const * float(psi(omega)) + s_vals[i] + f.sup_norm * t_vals[i]
        if case == 2:
            rhs += 2.0 ** (beta + 1.0) * float(psi(f.sup_norm)) \
                * w ** (-beta) * m_beta
        rows.append({"w": float(w), "lhs": float(lhs[i]), "rhs": float(rhs)})

    parts = None
    alpha = kernel.response.deviation_rate
    q = kernel.slope.growth_exponent
    if f.holder is not None and q is not None:
        nu = f.holder[0]
        parts = [nu * q] if case == 1 else [nu * beta * q, beta]
        if alpha is not None:
            parts.append(alpha)
    return _bound_report(
        rows, w_arr, QUANTITATIVE_3_2_SLACK, 0.0, parts, case=case,
        constants={"m0": m0, "m_beta": m_beta, "aggregate": const,
                   "m1_diverged": not math.isfinite(m1)})


def _run_voronovskaja(cfg: dict) -> dict:
    kernel, scheme, f, w_arr = _setup(cfg)
    rep = mellin.voronovskaja_experiment(
        f, _number(cfg["x"], "x"), _number(cfg["r"], "r"), kernel, scheme,
        w_arr)
    return {
        "rows": [{"w": float(w), "lhs": float(v)}
                 for w, v in zip(rep.w_values, rep.lhs_values)],
        "columns": ["w", "lhs"],
        "report": rep.to_dict(),
        "passed": rep.passed,
    }


def _run_modular_convergence(cfg: dict) -> dict:
    kernel, scheme, f, w_arr = _setup(cfg)
    if f.log_support_radius is None:
        raise ValidationError(
            "modular_convergence needs a compactly supported signal")
    phi = build_phi(cfg.get("phi"))
    lam = _number(cfg.get("lambda", 1.0), "lambda")
    threshold = _number(cfg.get("threshold", 1e-5), "threshold")

    errors = np.array([
        modular.modular_error(
            phi, f, operator.eval_on_log_grid(f, float(w), kernel, scheme),
            lam).value
        for w in w_arr])
    decreasing = bool(np.all(np.diff(errors) <= 1e-12))
    passed = decreasing and errors[-1] < threshold
    fit = fit_loglog(w_arr, errors)
    return {
        "rows": [{"w": float(w), "modular_error": float(e)}
                 for w, e in zip(w_arr, errors)],
        "columns": ["w", "modular_error"],
        "threshold": threshold,
        "decreasing": decreasing,
        "fit": _fit_dict(fit),
        "passed": bool(passed),
    }


def _run_modular_inequality(cfg: dict) -> dict:
    kernel, scheme, _, w_arr = _setup(cfg)
    _check_slope_range(kernel, w_arr)
    pair = build_pair(cfg.get("pair"), kernel.slope)
    lam = _number(cfg.get("lambda", 0.5), "lambda")
    seeds = _listed(cfg.get("seeds", list(range(10))), "seeds", _integer)
    if not seeds:
        raise ValidationError("modular_inequality needs at least one seed")
    rows = []
    for seed in seeds:
        f = make_signal("random_bump", seed=seed)
        g = make_signal("random_bump", seed=seed + 1000)
        reports = modular.modular_lipschitz_check(kernel, scheme, pair, f, g,
                                                  w_arr, lam)
        for w, rep in zip(w_arr, reports):
            rows.append({"seed": seed, "w": float(w),
                         "lhs": rep.lhs, "rhs": rep.rhs,
                         "rhs_converged": rep.rhs_converged,
                         "passed": rep.passed})
    passed = all(r["passed"] for r in rows)
    return {
        "rows": rows,
        "columns": ["seed", "w", "lhs", "rhs", "rhs_converged", "passed"],
        "violations": sum(not r["passed"] for r in rows),
        "passed": bool(passed),
    }


def _run_quantitative_5_1(cfg: dict) -> dict:
    """Quantitative modular estimate: I_phi[nu(K_w f - f)] against the
    four-term RHS built from the smoothness moduli, the tail-mass fit and
    the (chi4*) deviation."""
    kernel, scheme, f, w_arr = _setup(cfg)
    if not scheme.is_unit_uniform:
        raise ValidationError(
            "quantitative_5_1 requires the unit uniform scheme (gaps = 1)")
    if f.log_support_radius is None:
        raise ValidationError(
            "quantitative_5_1 needs a compactly supported signal")
    _check_slope_range(kernel, w_arr)
    pair = build_pair(cfg.get("pair"), kernel.slope)
    gamma = _number(cfg["gamma"], "gamma")
    if not (0.0 < gamma < 1.0):
        raise ValidationError("quantitative_5_1 needs gamma in (0, 1)")
    lam0 = _number(cfg.get("lambda0", 1.0), "lambda0")
    lam = _number(cfg.get("lambda", 0.9 * min(1.0, lam0 / 2.0)), "lambda")
    if not (0.0 < lam < min(1.0, lam0 / 2.0)):
        raise ValidationError("need 0 < lambda < min(1, lambda0/2)")

    h_rep = modular.check_H(pair, kernel.slope)
    if not h_rep.passed:
        raise PreconditionError(
            "growth condition (H) fails for this phi/eta/slope combination")

    profile = kernel.profile
    m0 = moments.moment_value(profile, scheme, 0.0)
    # the zero moment of tau, the indicator of [1, e]: the sup over y of the
    # number of nodes in [y - 1, y], which on the unit scheme is 2, both
    # ends holding a node at an integer phase
    m0_tau = 2.0
    star = moments.check_chi4_star(kernel, scheme, w_arr)
    star_exact = all(v < moments.EXACT_SUP for v in star.sup_values)
    alpha = kernel.response.deviation_rate
    if star_exact:
        big_m = 0.0
    else:
        if alpha is None or not star.passed:
            raise PreconditionError(
                "(chi4*) audit failed: no usable deviation rate")
        big_m = float(max(np.asarray(star.sup_values)
                          * np.asarray(star.w_values) ** alpha))
    e31 = moments.check_e3_1(profile, gamma, w_arr)
    gamma0 = e31.extra.get("gamma0")
    m3 = e31.extra.get("M3", 0.0)
    if gamma0 is None:
        raise PreconditionError("tail-mass condition fit unavailable")

    c_lam = pair.c_lambda(lam)
    nu = c_lam / (3.0 * m0)
    if big_m > 0:
        nu = min(nu, lam0 / (3.0 * big_m))
    i_eta = modular.modular(pair.eta, f, lam0)
    i_phi = modular.modular(pair.phi, f, lam0)
    i_eta_lam0, i_phi_lam0 = i_eta.value, i_phi.value
    if not (math.isfinite(i_eta_lam0) and math.isfinite(i_phi_lam0)):
        raise ValidationError("modulars of the signal diverge at lambda0")

    rows = []
    for w, mass in zip(w_arr, e31.sup_values):
        w = float(w)
        kf = operator.eval_on_log_grid(f, w, kernel, scheme)
        lhs = modular.modular_error(pair.phi, f, kf, nu).value
        om_gamma = modular.log_smoothness(pair.eta, f, lam, w ** (-gamma))
        om_w = modular.log_smoothness(pair.eta, f, lam, 1.0 / w)
        term1 = profile.l1_log_norm * m0_tau / (3.0 * m0) * om_gamma
        # gamma0 = inf: the tail mass is 0 at every w or from zero_from_w
        # on, and term 2 takes each w's measured mass instead
        term2 = (mass * m0_tau * i_eta_lam0 / (3.0 * m0) if math.isinf(gamma0)
                 else m3 * m0_tau * i_eta_lam0 / (3.0 * m0) * w ** (-gamma0))
        term3 = om_w / 3.0
        term4 = 0.0 if star_exact else i_phi_lam0 / 3.0 * w ** (-alpha)
        rows.append({"w": w, "lhs": float(lhs),
                     "rhs": float(term1 + term2 + term3 + term4)})
    parts = None
    if f.holder is not None:
        parts = [gamma * f.holder[0]]
        if not math.isinf(gamma0):
            parts.append(gamma0)
        if not star_exact:
            parts.append(alpha)
    return _bound_report(
        rows, w_arr, QUANTITATIVE_5_1_SLACK, 1e-15, parts,
        constants={"m0": m0, "m0_tau": m0_tau, "nu": nu, "lambda": lam,
                   "lambda0": lam0, "gamma": gamma, "gamma0": gamma0,
                   "chi4_star_exact": star_exact,
                   "modulars_converged": i_eta.converged and i_phi.converged},
        tail_condition=e31.to_dict())


def _run_audit_kernel(cfg: dict) -> dict:
    kernel, scheme, _, w_arr = _setup(cfg)
    j = _integer(cfg.get("j", 2), "j")
    profile = kernel.profile
    beta = _number(cfg.get("beta", 2.0 if profile.is_compact else 0.5),
                   "beta")
    r = _number(cfg.get("r", 0.5), "r")
    gamma = _number(cfg.get("gamma", 1.0), "gamma")
    e31_gamma = _number(cfg.get("e31_gamma", 0.5), "e31_gamma")

    checks: dict = {}
    # summability: the zero moment must be finite
    m0 = moments.moment_value(profile, scheme, 0.0)
    checks["chi1"] = {"m0": m0, "passed": math.isfinite(m0)}
    # the response must vanish at 0
    zeros = [abs(float(kernel.response(float(w), np.array([0.0]))[0]))
             for w in w_arr]
    checks["chi2"] = {"max_abs": max(zeros), "passed": max(zeros) < 1e-14}
    # Lipschitz condition against the slope on random pairs
    rng = np.random.default_rng(0)
    u = rng.uniform(-10.0, 10.0, size=200)
    v = rng.uniform(-10.0, 10.0, size=200)
    worst = 0.0
    for w in w_arr:
        lhs = np.abs(kernel.response(float(w), u) - kernel.response(float(w), v))
        rhs = np.asarray(kernel.slope(np.abs(u - v)), dtype=float)
        worst = max(worst, float(np.max(lhs - rhs)))
    checks["chi3"] = {"worst_margin": worst, "passed": worst <= 1e-12}
    s_rep, t_rep = moments.check_chi4(kernel, scheme, j, w_arr)
    checks["chi4_S"] = s_rep.to_dict()
    checks["chi4_T"] = t_rep.to_dict()
    checks["chi4_star"] = moments.check_chi4_star(kernel, scheme, w_arr).to_dict()
    # the fixed panel rule of the tail integral at 0, panels ending on every
    # knot and the Fejer tail beyond moments._TAIL_REACH in closed form
    l1 = moments._log_tail_integral(profile, 0.0)
    checks["L1"] = {"quadrature": l1, "declared": profile.l1_log_norm,
                    "tail_bound": (0.0 if profile.is_compact else
                                   moments.integral_tail(
                                       profile, moments._TAIL_REACH)),
                    "passed": abs(l1 - profile.l1_log_norm) < 1e-6}
    mrep = moments.discrete_moment(profile, scheme, beta)
    checks["L2"] = {**mrep.to_dict(), "passed": not mrep.diverged}
    checks["L3"] = moments.check_L3(profile, scheme, r, gamma, w_arr).to_dict()
    checks["e3_1"] = moments.check_e3_1(profile, e31_gamma, w_arr).to_dict()
    if "pair" in cfg:
        checks["H"] = modular.check_H(build_pair(cfg["pair"], kernel.slope),
                                      kernel.slope).to_dict()
    passed = all(c["passed"] for c in checks.values())
    rows = [{"condition": name, "passed": c["passed"]}
            for name, c in checks.items()]
    return {
        "rows": rows,
        "columns": ["condition", "passed"],
        "checks": checks,
        "passed": bool(passed),
    }


def _run_moments(cfg: dict) -> dict:
    profile = build_profile(cfg["profile"])
    scheme = build_scheme(cfg.get("scheme"))
    betas = _listed(cfg["betas"], "betas", _number)
    if not betas:
        raise ValidationError("moments experiment needs a non-empty betas list")
    rows = []
    for beta in betas:
        rep = moments.discrete_moment(profile, scheme, beta)
        rows.append({"beta": beta, "value": rep.value,
                     "diverged": rep.diverged})
    return {
        "rows": rows,
        "columns": ["beta", "value", "diverged"],
        "passed": True,
    }


# name: (runner, required config keys, optional config keys); every config
# also takes "experiment" (required) and "output" (optional)
_EXPERIMENTS = {
    "converge_uniform": (_run_converge_uniform,
                         {"kernel", "signal", "w_list"}, {"scheme", "grid"}),
    "converge_pointwise": (_run_converge_pointwise,
                           {"kernel", "signal", "w_list", "x"}, {"scheme"}),
    "quantitative_3_2": (_run_quantitative_3_2,
                         {"kernel", "signal", "w_list", "beta"},
                         {"scheme", "grid", "j"}),
    "voronovskaja": (_run_voronovskaja,
                     {"kernel", "signal", "w_list", "x", "r"}, {"scheme"}),
    "modular_convergence": (_run_modular_convergence,
                            {"kernel", "signal", "w_list"},
                            {"scheme", "phi", "lambda", "threshold"}),
    "modular_inequality": (_run_modular_inequality, {"kernel", "w_list"},
                           {"scheme", "pair", "seeds", "lambda"}),
    "quantitative_5_1": (_run_quantitative_5_1,
                         {"kernel", "signal", "w_list", "gamma"},
                         {"scheme", "pair", "lambda0", "lambda"}),
    "audit_kernel": (_run_audit_kernel, {"kernel", "w_list"},
                     {"scheme", "j", "beta", "r", "gamma", "e31_gamma",
                      "pair"}),
    "moments": (_run_moments, {"profile", "betas"}, {"scheme"}),
}


# ---------------------------------------------------------------------------
# report output


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: str, columns: Sequence[str], rows: Sequence[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def _finite(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def to_json(report, **kwargs) -> str:
    """RFC 8259 JSON text of a report, each non-finite float written as
    null; the report's flags (diverged, exact_zero, zero_from_w) say why."""
    return json.dumps(_finite(report), allow_nan=False, **kwargs)


def write_outputs(report: dict, output: Optional[dict]) -> None:
    if not output:
        return
    if "csv" in output:
        write_csv(output["csv"], report["columns"], report["rows"])
    if "json" in output:
        with open(output["json"], "w") as fh:
            fh.write(to_json(report, indent=2) + "\n")


def run(cfg: dict) -> dict:
    """Validates the config, runs the experiment, writes any requested
    report files and returns the report dict (with a 'passed' verdict)."""
    name = validate_config(cfg)
    report = _EXPERIMENTS[name][0](cfg)
    report["experiment"] = name
    report["config"] = {k: v for k, v in cfg.items() if k != "output"}
    write_outputs(report, cfg.get("output"))
    return report
