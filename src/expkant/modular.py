"""Mellin-Orlicz machinery: modular functionals with respect to the
logarithmic measure, the growth-compatibility condition linking phi, the
kernel slope and a companion eta, the modular inequality between operator
outputs, and the log-modulus of smoothness.

All integrals are taken in the log variable v = ln x, where the measure
dx/x becomes dv.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import moments
from .core import (EvaluationError, NonlinearKernel, PhiFunction, PhiPair,
                   SamplingScheme, Signal, SlopeFunction, ValidationError,
                   difference_signal, gauss_panels)
from .moduli import UNBOUNDED_LOG_RADIUS
from .operator import GridFunction, eval_on_log_grid

_log = logging.getLogger(__name__)

# log_smoothness's base resolution: its grid step is no coarser than
# MODULAR_POINTS points over the window
MODULAR_POINTS = 8192


# ---------------------------------------------------------------------------
# phi-function registry


def phi_power(p: float) -> PhiFunction:
    """u^p; the Mellin-Lebesgue case for p >= 1."""
    if p < 1:
        raise ValidationError("phi_power needs p >= 1 for convexity")
    return PhiFunction(f"u^{p:g}", lambda u: np.abs(u) ** p)


def phi_power_log(p: float) -> PhiFunction:
    """u^p * (1 + |ln u|) for u > 0 (continuously 0 at 0)."""
    if p < 1:
        raise ValidationError("phi_power_log needs p >= 1")

    def f(u):
        u = np.abs(np.asarray(u, dtype=float))
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = u[pos] ** p * (1.0 + np.abs(np.log(u[pos])))
        return out

    return PhiFunction(f"u^{p:g}(1+|ln u|)", f)


def phi_exponential() -> PhiFunction:
    """e^u - 1; can overflow on operator-error tails, hence opt-in."""
    return PhiFunction("e^u-1", lambda u: np.expm1(np.abs(u)))


def make_phi(name: str, p: float = 2.0,
             allow_exponential: bool = False) -> PhiFunction:
    if name == "power":
        return phi_power(p)
    if name == "power_log":
        return phi_power_log(p)
    if name == "exponential":
        if not allow_exponential:
            raise ValidationError(
                "exponential phi-functions are opt-in (allow_exponential=True)")
        return phi_exponential()
    raise ValidationError(f"unknown phi-function {name!r}")


def power_pair(p: float, q: float = 1.0) -> PhiPair:
    """phi = u^p with companion eta = u^{pq} and C_lambda = lambda^q,
    matching a slope psi(u) = u^q with equality in the growth condition."""
    return PhiPair(phi=phi_power(p), eta=phi_power(p * q),
                   c_lambda=lambda lam, _q=q: lam ** _q)


def matched_pair(p: float, slope: SlopeFunction) -> PhiPair:
    """power_pair(p, q) with C_lambda rescaled so the growth condition
    holds for slopes psi(u) = s * u^q with s >= 1: C_lambda = lambda^q / s,
    where s is measured as sup psi(u) / u^q over a log grid."""
    q = slope.growth_exponent
    if q is None:
        raise ValidationError("matched_pair needs a slope with a declared "
                              "growth exponent")
    u = np.geomspace(1e-6, 1e3, 181)
    s = float(np.max(np.asarray(slope(u), dtype=float) / u**q))
    s = max(s, 1.0)
    return PhiPair(phi=phi_power(p), eta=phi_power(p * q),
                   c_lambda=lambda lam, _q=q, _s=s: lam ** _q / _s)


# ---------------------------------------------------------------------------
# modular functionals


def _phi_of(phi: PhiFunction, lam: float, h: np.ndarray,
            tail: bool = False) -> np.ndarray:
    """phi(lam |h|), the integrand of every modular.  EvaluationError when a
    value overflowed to a non-finite one, or, except on a tail, where the
    whole may underflow harmlessly, when all are 0 while h is not."""
    with np.errstate(over="ignore"):
        out = phi(lam * np.abs(h))
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"phi = {phi.name} at lambda = {lam:g} "
                              f"overflows: phi(lambda |h|) is not finite")
    if not tail and not out.any() and h.any():
        raise EvaluationError(f"phi = {phi.name} at lambda = {lam:g} "
                              f"underflows: phi(lambda |h|) is 0 everywhere")
    return out


@dataclass(frozen=True)
class ModularValue:
    lam: float
    value: float
    quadrature_error: float
    diverged: bool = False
    converged: bool = True

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "value": self.value,
                "quadrature_error": self.quadrature_error,
                "diverged": self.diverged, "converged": self.converged}


def _panel_integrate(fun: Callable[[np.ndarray], np.ndarray], lo: float,
                     hi: float, panels: int, nodes: int = 8) -> float:
    edges = np.linspace(lo, hi, panels + 1)
    v, wts = gauss_panels(edges[:-1], edges[1:], nodes)
    return float(np.sum(fun(v) * wts))


def _adaptive_integral(fun, lo: float, hi: float):
    """(value, error, converged): 64 Gauss panels, doubled until two
    successive values agree to 1e-8 * max(1, |value|).  When 6 doublings
    run out the last value is returned with converged False and a debug
    line."""
    prev = _panel_integrate(fun, lo, hi, 64)
    panels = 64
    err = math.inf
    for _ in range(6):
        panels *= 2
        cur = _panel_integrate(fun, lo, hi, panels)
        err = abs(cur - prev)
        if err <= 1e-8 * max(1.0, abs(cur)):
            return cur, err, True
        prev = cur
    _log.debug("_adaptive_integral: unconverged on [%g, %g] at %d panels; "
               "last change %.3g", lo, hi, panels, err)
    return prev, err, False


def modular(phi: PhiFunction, f: Signal, lam: float) -> ModularValue:
    """I_phi[lam f] = integral of phi(lam |f(e^v)|) dv.

    For signals without compact support the window is extended until the
    added tail mass is negligible; a non-decaying tail sets the diverged
    flag instead of silently truncating.
    """
    if lam <= 0:
        raise ValidationError("modular needs lambda > 0")

    def integrand(v, tail=False):
        return _phi_of(phi, lam, f.log_evaluate(v), tail)

    if f.log_support_radius is not None:
        r = f.log_support_radius
        value, err, converged = _adaptive_integral(integrand, -r, r)
        return ModularValue(lam, value, err, converged=converged)
    # unbounded support: grow the window and watch the tail panels decay
    value, err, converged = _adaptive_integral(integrand, -30.0, 30.0)
    tail = sum(_panel_integrate(lambda v: integrand(v, tail=True), lo, hi, 256)
               for lo, hi in ((30.0, 60.0), (-60.0, -30.0)))
    diverged = tail > max(1e-8 * max(1.0, value), 1e-12)
    return ModularValue(lam, value + tail, max(err, tail), diverged, converged)


def _trapezoid(values: np.ndarray, step: float) -> np.ndarray:
    """Trapezoid rule of step ``step`` along the last axis."""
    return step * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))


def modular_error(phi: PhiFunction, f: Union[Signal, GridFunction],
                  g: GridFunction, lam: float) -> ModularValue:
    """I_phi[lam (g - f)] by the trapezoid rule at g's own log-uniform
    points, an odd number of them (eval_on_log_grid), and its coarse value
    by the rule on the even points, both ends among them; the difference is
    reported as the quadrature error.  f is a Signal, evaluated once at
    g.v, whose support lies in g's window, or a GridFunction on g's points;
    any other f, or an even number of points, raises ValidationError."""
    if lam <= 0:
        raise ValidationError("modular_error needs lambda > 0")
    v = g.v
    if v.size < 3 or v.size % 2 == 0:
        raise ValidationError(
            f"modular_error needs an odd number >= 3 of points, not {v.size}")
    if isinstance(f, GridFunction):
        if not np.array_equal(f.v, v):
            raise ValidationError("modular_error needs f on g's points")
        fv = f.values
    else:
        r = f.log_support_radius
        if r is None or not v[0] <= -r <= r <= v[-1]:
            raise ValidationError(
                f"signal {f.name!r} has a support that reaches past the "
                f"window [{v[0]:g}, {v[-1]:g}] of modular_error's points")
        fv = f.log_evaluate(v)
    step = (v[-1] - v[0]) / (v.size - 1)
    fine = _phi_of(phi, lam, g.values - fv)
    i2 = float(_trapezoid(fine, step))
    i1 = float(_trapezoid(fine[::2], 2.0 * step))
    return ModularValue(lam, i2, abs(i2 - i1))


# ---------------------------------------------------------------------------
# growth condition and the modular Lipschitz inequality


@dataclass(frozen=True)
class ConditionHReport:
    passed: bool
    worst_margin: float          # max of phi(C_lam psi(u)) - eta(lam u)
    worst_at: tuple              # (lambda, u)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "worst_margin": self.worst_margin,
                "worst_at": list(self.worst_at)}


def check_H(pair: PhiPair, slope: SlopeFunction) -> ConditionHReport:
    """Pointwise check of phi(C_lambda psi(u)) <= eta(lambda u), to within
    1e-9 max(1, |worst margin|), at lambda in {0.1, 0.25, 0.5, 0.75, 0.9}
    and u = 0 and 181 log-spaced points in [1e-6, 1e3]."""
    u_grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 181)])
    worst = -math.inf
    at = (math.nan, math.nan)
    for lam in (0.1, 0.25, 0.5, 0.75, 0.9):
        c = pair.c_lambda(lam)
        lhs = pair.phi(c * slope(u_grid))
        rhs = pair.eta(lam * u_grid)
        margin = lhs - rhs
        i = int(np.argmax(margin))
        if margin[i] > worst:
            worst = float(margin[i])
            at = (float(lam), float(u_grid[i]))
    scale = max(1.0, abs(worst))
    return ConditionHReport(worst <= 1e-9 * scale, worst, at)


@dataclass(frozen=True)
class ModularLipschitzReport:
    lhs: float
    rhs: float
    lam: float
    c: float
    passed: bool
    rhs_converged: bool = True  # the quadrature of the rhs modular


# the modular inequality's relative margin: a fixed slack, not an error bound
MODULAR_INEQUALITY_SLACK = 1e-3


def modular_lipschitz_check(kernel: NonlinearKernel, scheme: SamplingScheme,
                            pair: PhiPair, f: Signal, g: Signal,
                            w_list: Sequence[float],
                            lam: float = 0.5) -> tuple:
    """The modular inequality between operator outputs,
    I_phi[c (K_w f - K_w g)] <= (||L||_1 / (delta M_0)) I_eta[lam (f - g)]
    with c = C_lambda / M_0, both sides by quadrature: one
    ModularLipschitzReport per w of w_list, in order, which passes when
    lhs <= rhs (1 + MODULAR_INEQUALITY_SLACK) + 1e-15.  The right-hand side
    does not depend on w, so it and the convergence of its modular are
    computed once for the whole ladder.  Both signals take the pair's larger
    declared support, so K_w f and K_w g come on one grid; a support is an
    enclosure, so the cells this adds have means of exactly 0."""
    if not (0.0 < lam < 1.0):
        raise ValidationError("modular_lipschitz_check needs lambda in (0,1)")
    m0 = moments.moment_value(kernel.profile, scheme, 0.0)
    diff = difference_signal(f, g)  # the larger support, when both have one
    rhs_mod = modular(pair.eta, diff, lam)
    if diff.support is not None:
        f, g = (dataclasses.replace(s, support=diff.support) for s in (f, g))
    rhs = kernel.profile.l1_log_norm / (scheme.lower_gap * m0) * rhs_mod.value
    c = pair.c_lambda(lam) / m0
    reports = []
    for w in w_list:
        kf = eval_on_log_grid(f, float(w), kernel, scheme)
        kg = eval_on_log_grid(g, float(w), kernel, scheme)
        lhs = modular_error(pair.phi, kg, kf, c).value
        reports.append(ModularLipschitzReport(
            lhs, rhs, lam, c,
            lhs <= rhs * (1.0 + MODULAR_INEQUALITY_SLACK) + 1e-15,
            rhs_mod.converged))
    return tuple(reports)


# ---------------------------------------------------------------------------
# log-modulus of smoothness


def _shift_grid(r: float, delta: float, t_points: int):
    """(step, shifts): a grid step that divides every shift of
    linspace(-delta, delta, t_points) and is at most
    2(r + delta)/(MODULAR_POINTS - 1), and those shifts as integer
    multiples of the step.

    The shifts are multiples of unit = delta/units, with units = q/2 for
    even q = t_points - 1 and q for odd q; the step is unit/m for the least
    integer m that makes it no coarser than the base step."""
    q = t_points - 1
    units = q // 2 if q % 2 == 0 else q
    unit = delta / units
    m = math.ceil(unit * (MODULAR_POINTS - 1) / (2.0 * (r + delta)))
    shifts = (2 * np.arange(t_points) - q) * units // q * m
    return unit / m, shifts


def log_smoothness(phi: PhiFunction, f: Signal, lam: float,
                   delta: float) -> float:
    """sup over dilations |ln t| <= delta of I_phi[lam (f(. t) - f(.))],
    over the 17 shifts h of linspace(-delta, delta, 17) of the log
    variable.

    f is evaluated once, on a uniform grid whose step divides every shift
    (_shift_grid) and is no coarser than 2(r + delta)/8191, r the log
    support radius (8 without a support); each f(. + h) is then a slice of
    that array and each integral over [-(r + delta), r + delta], outside
    which the integrand vanishes, a trapezoid row sum.  When delta/8 is
    below that base step the grid step is delta/8 and the grid has about
    16(r + delta)/delta points: more than the 18 x 8192 evaluations of one
    8192-point grid per shift only for delta < 2.2e-4 at r = 2."""
    if delta <= 0:
        raise ValidationError("log_smoothness needs delta > 0")
    r = (f.log_support_radius if f.log_support_radius is not None
         else UNBOUNDED_LOG_RADIUS)
    step, shifts = _shift_grid(r, delta, 17)
    half = math.ceil((r + delta) / step)  # grid points v = i step, |i| <= half
    reach = half + int(shifts[-1])
    fv = f.log_evaluate(step * np.arange(-reach, reach + 1))
    base = fv[reach - half:reach + half + 1]
    best = 0.0
    for s in shifts.tolist():
        shifted = fv[reach - half + s:reach + half + 1 + s]
        diff = _phi_of(phi, lam, shifted - base)
        best = max(best, float(_trapezoid(diff, step)))
    return best
