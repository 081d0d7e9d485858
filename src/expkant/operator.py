"""Evaluation of the Kantorovich-type series K_w f and the sample-value
baseline S_w f by truncated summation with a certified truncation bound.

With y := w ln x the series reads sum_k L(y - t_k) * g_w(m_k) where
m_k = (w / Delta_k) * integral of f(e^u) over [t_k/w, t_{k+1}/w].
Terms with m_k = 0 vanish identically (chi(., 0) = 0), so for compactly
supported signals the retained index set is finite and the sum is exact.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import backend, moments
from .core import (EvaluationError, NonlinearKernel, SamplingScheme, Signal,
                   ValidationError, gauss_legendre)

MAX_RETAINED_TERMS = 2_000_000

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuadratureSpec:
    """Inner-integral rule: Gauss-Legendre nodes per cell, doubled until
    successive values agree to `tolerance`."""

    nodes: int = 8
    tolerance: float = 1e-10
    max_doublings: int = 8

    def __post_init__(self):
        if self.nodes < 1:
            raise ValidationError("quadrature needs nodes >= 1")


@dataclass(frozen=True)
class TruncationPolicy:
    """window(gamma): sum over |t_k - w ln x| <= gamma * w.
    tolerance(eps, beta): pick gamma from the moment tail bound so that
    psi(2 ||f||_inf) * M_beta / (gamma w)^beta <= eps."""

    mode: str = "tolerance"
    gamma: Optional[float] = None
    eps: float = 1e-10
    beta: Optional[float] = None

    def __post_init__(self):
        if self.mode == "window":
            if self.gamma is None or self.gamma <= 0:
                raise ValidationError("window truncation needs gamma > 0")
        elif self.mode == "tolerance":
            if self.eps <= 0:
                raise ValidationError("tolerance truncation needs eps > 0")
            if self.beta is not None and self.beta <= 0:
                raise ValidationError("tolerance truncation needs beta > 0")
        else:
            raise ValidationError(f"unknown truncation mode {self.mode!r}")


def default_truncation(f: Signal, kernel: NonlinearKernel,
                       scheme: SamplingScheme) -> TruncationPolicy:
    """Certified tolerance-mode truncation when the tail bound applies,
    window mode sized from the support radii otherwise."""
    profile = kernel.profile
    if profile.is_compact or f.support is not None:
        return TruncationPolicy(mode="window",
                                gamma=2.0 * ((profile.support_radius or 8.0)
                                             + scheme.upper_gap))
    if f.sup_norm is not None:
        beta = 1.0 if profile.decay_power > 2.0 else 0.5 * (profile.decay_power - 1.0)
        return TruncationPolicy(mode="tolerance", eps=1e-10, beta=beta)
    return TruncationPolicy(mode="window", gamma=8.0)


# ---------------------------------------------------------------------------
# Steklov means


# (cell x node) values per block of mean_values: 8 MB per temporary.  The
# 2M-cell windows of heavy-tailed profiles span 16M values at 8 nodes;
# smaller windows fit one block, so their allocations, and with them
# glibc's dynamic mmap threshold, stay as they are.
_CELL_BLOCK = 1 << 20


def _gauss_cells(a: np.ndarray, b: np.ndarray, m: int):
    nodes, weights = gauss_legendre(m)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    u = mid[:, None] + half[:, None] * nodes[None, :]
    wts = half[:, None] * weights[None, :]
    return u, wts


def mean_values(f: Signal, k_lo: int, k_hi: int, w: float,
                scheme: SamplingScheme, quad: QuadratureSpec) -> np.ndarray:
    """Steklov means (w/Delta_k) * int_{t_k/w}^{t_{k+1}/w} f(e^u) du for
    k in [k_lo, k_hi].

    Each cell's node count doubles until its own mean changes by at most
    quad.tolerance * max(1, max_k |mean_k|); cells that met it are not
    evaluated again.  When max_doublings runs out, the last values are
    returned.

    Cells are evaluated in order, in blocks of at most _CELL_BLOCK
    (cell x node) values, so a non-finite value raises at the first block
    that holds one."""
    if k_hi < k_lo:
        return np.empty(0)
    t = scheme.nodes(k_lo, k_hi + 1)
    a, b = t[:-1] / w, t[1:] / w
    m = quad.nodes
    vals = None
    active = None  # rows still refined; None means every cell, ungathered
    for _ in range(quad.max_doublings + 1):
        lo, hi = (a, b) if active is None else (a[active], b[active])
        parts = []
        rows = max(1, _CELL_BLOCK // m)
        for start in range(0, lo.size, rows):
            cells = slice(start, start + rows)
            u, wts = _gauss_cells(lo[cells], hi[cells], m)
            fv = f.log_evaluate(u)
            finite = np.isfinite(fv).all(axis=1)
            if not finite.all():
                row = start + int(np.argmin(finite))
                bad = k_lo + (row if active is None else int(active[row]))
                raise EvaluationError(
                    f"non-finite signal value inside the mean cell of k={bad}")
            parts.append((fv * wts).sum(axis=1) / (hi[cells] - lo[cells]))
        new = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if vals is None:
            vals = new
        else:
            if active is None:
                change = np.abs(new - vals)
                vals = new
            else:
                change = np.abs(new - vals[active])
                vals[active] = new
            scale = max(1.0, float(np.max(np.abs(vals))))
            keep = ~(change <= quad.tolerance * scale)  # NaN stays active
            active = np.flatnonzero(keep) if active is None else active[keep]
            change = change[keep]
            if active.size == 0:
                return vals
        m *= 2
    if active is not None:  # None: max_doublings = 0, nothing compared
        worst = int(np.argmax(change))
        _log.debug("mean_values: %d of %d cells unconverged after %d "
                   "doublings; worst k=%d changed by %.3g",
                   active.size, vals.size, quad.max_doublings,
                   k_lo + int(active[worst]), float(change[worst]))
    return vals


def mean_value(f: Signal, k: int, w: float, scheme: SamplingScheme,
               quad: QuadratureSpec = QuadratureSpec()) -> float:
    if w <= 0:
        raise ValidationError("mean_value needs w > 0")
    return float(mean_values(f, k, k, w, scheme, quad)[0])


# ---------------------------------------------------------------------------
# retained index window


def _retained_interval(f: Signal, w: float, y: float, kernel: NonlinearKernel,
                       scheme: SamplingScheme, trunc: TruncationPolicy):
    """Interval [lo, hi] of node positions to retain, plus the certified
    truncation bound and the half-width actually used."""
    profile = kernel.profile
    rho = f.log_support_radius

    if profile.is_compact:
        half = profile.support_radius + 1e-12
        bound = 0.0
    elif trunc.mode == "window":
        half = trunc.gamma * w
        bound = _tail_bound(f, kernel, scheme, w, half / w, trunc.beta)
    else:
        if f.sup_norm is None or trunc.beta is None:
            raise EvaluationError(
                "tolerance truncation needs a bounded signal and a moment order")
        m_beta = moments.moment_value(profile, scheme, trunc.beta)
        if not math.isfinite(m_beta):
            raise EvaluationError(
                f"moment of order {trunc.beta} diverges for {profile.name}")
        psi_val = float(kernel.slope(2.0 * f.sup_norm))
        gamma = (psi_val * m_beta / trunc.eps) ** (1.0 / trunc.beta) / w
        gamma_cap = MAX_RETAINED_TERMS * scheme.lower_gap / (2.0 * w)
        gamma = min(gamma, gamma_cap)
        half = gamma * w
        bound = psi_val * m_beta / (gamma * w) ** trunc.beta

    lo, hi = y - half, y + half
    if rho is not None:
        # outside the signal support every Steklov mean vanishes (chi2),
        # so the remaining sum is exact
        lo2 = -w * rho - scheme.upper_gap
        hi2 = w * rho
        if profile.is_compact:
            lo, hi = max(lo, lo2), min(hi, hi2)
        else:
            lo, hi, bound = lo2, hi2, 0.0
    return lo, hi, bound, half / w


def _tail_bound(f: Signal, kernel: NonlinearKernel, scheme: SamplingScheme,
                w: float, gamma: float, beta: Optional[float]) -> float:
    profile = kernel.profile
    if profile.is_compact and gamma * w >= profile.support_radius:
        return 0.0
    if f.sup_norm is None or beta is None:
        return math.nan
    m_beta = moments.moment_value(profile, scheme, beta)
    if not math.isfinite(m_beta):
        return math.inf
    return float(kernel.slope(2.0 * f.sup_norm)) * m_beta / (gamma * w) ** beta


def _check_evaluable(f: Signal, kernel: NonlinearKernel,
                     trunc: TruncationPolicy) -> None:
    if f.sup_norm is None and f.support is None:
        if f.log_growth is None:
            raise EvaluationError(
                "unbounded signal without log-growth metadata")
        if trunc.mode != "window":
            raise EvaluationError(
                "log-growth signals need window-mode truncation")


# ---------------------------------------------------------------------------
# operators


def eval_kantorovich(f: Signal, w: float, x: float, kernel: NonlinearKernel,
                     scheme: SamplingScheme,
                     trunc: Optional[TruncationPolicy] = None,
                     quad: QuadratureSpec = QuadratureSpec()):
    """(K_w f)(x) by truncated summation; returns (value, truncation_bound)."""
    if w <= 0 or x <= 0:
        raise ValidationError("eval_kantorovich needs w > 0 and x > 0")
    if trunc is None:
        trunc = default_truncation(f, kernel, scheme)
    _check_evaluable(f, kernel, trunc)
    y = w * math.log(x)
    lo, hi, bound, _ = _retained_interval(f, w, y, kernel, scheme, trunc)
    k_lo, k_hi = scheme.index_range(lo, hi)
    if k_hi < k_lo:
        if f.log_support_radius is not None:
            return 0.0, bound  # the whole series vanishes term by term
        raise EvaluationError("empty retained index set; widen gamma")
    means = mean_values(f, k_lo, k_hi, w, scheme, quad)
    g = kernel.response(w, means)
    t = scheme.nodes(k_lo, k_hi)
    value = float(backend.profile_sum(kernel.profile, y, t, g)[0])
    return value, bound


def eval_generalized(f: Signal, w: float, x: float, kernel: NonlinearKernel,
                     scheme: SamplingScheme,
                     trunc: Optional[TruncationPolicy] = None) -> float:
    """(S_w f)(x): sample values f(e^{t_k/w}) instead of Steklov means."""
    if w <= 0 or x <= 0:
        raise ValidationError("eval_generalized needs w > 0 and x > 0")
    if trunc is None:
        trunc = default_truncation(f, kernel, scheme)
    _check_evaluable(f, kernel, trunc)
    y = w * math.log(x)
    lo, hi, _, _ = _retained_interval(f, w, y, kernel, scheme, trunc)
    k_lo, k_hi = scheme.index_range(lo, hi)
    if k_hi < k_lo:
        if f.log_support_radius is not None:
            return 0.0
        raise EvaluationError("empty retained index set; widen gamma")
    t = scheme.nodes(k_lo, k_hi)
    samples = f.log_evaluate(t / w)
    if not np.all(np.isfinite(samples)):
        bad = k_lo + int(np.argmax(~np.isfinite(samples)))
        raise EvaluationError(f"non-finite sample value at k={bad}")
    g = kernel.response(w, samples)
    return float(backend.profile_sum(kernel.profile, y, t, g)[0])


def sup_error(f: Signal, w: float, grid, kernel: NonlinearKernel,
              scheme: SamplingScheme, trunc: Optional[TruncationPolicy] = None,
              quad: QuadratureSpec = QuadratureSpec()) -> float:
    """max over the grid of |(K_w f)(x) - f(x)| (discretized sup norm)."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("sup_error needs a non-empty grid")
    if np.any(grid <= 0):
        raise ValidationError("sup_error grid must be positive")
    fx = f(grid)
    err = 0.0
    for x, fv in zip(grid, fx):
        val, _ = eval_kantorovich(f, w, float(x), kernel, scheme, trunc, quad)
        err = max(err, abs(val - float(fv)))
    return err


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-linear interpolant of operator values on a log-uniform
    grid; zero outside the grid window."""

    v: np.ndarray
    values: np.ndarray

    def log_evaluate(self, vq) -> np.ndarray:
        return np.interp(np.asarray(vq, dtype=float), self.v, self.values,
                         left=0.0, right=0.0)

    def evaluate(self, x) -> np.ndarray:
        return self.log_evaluate(np.log(np.asarray(x, dtype=float)))


def eval_on_log_grid(f: Signal, w: float, kernel: NonlinearKernel,
                     scheme: SamplingScheme,
                     quad: QuadratureSpec = QuadratureSpec(),
                     n_points: int = 4096,
                     window: Optional[tuple] = None) -> GridFunction:
    """K_w f on a log-uniform grid spanning the signal support inflated by
    the kernel's effective radius.  Exact (no truncation) for compactly
    supported signals: the Steklov coefficients are computed once and the
    profile sums vectorize over the grid."""
    if f.log_support_radius is None:
        raise ValidationError("grid evaluation needs a compactly supported signal")
    rho = f.log_support_radius
    radius = (kernel.profile.support_radius
              if kernel.profile.is_compact
              else kernel.profile.effective_radius(1e-10))
    if window is None:
        half = rho + (radius + scheme.upper_gap) / w + 0.25
        window = (-half, half)
    v = np.linspace(window[0], window[1], n_points)
    k_lo, k_hi = scheme.index_range(-w * rho - scheme.upper_gap, w * rho)
    if k_hi < k_lo:
        return GridFunction(v, np.zeros_like(v))
    means = mean_values(f, k_lo, k_hi, w, scheme, quad)
    g = kernel.response(w, means)
    t = scheme.nodes(k_lo, k_hi)
    values = backend.profile_sum(kernel.profile, w * v, t, g)
    return GridFunction(v, values)
