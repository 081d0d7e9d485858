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

# points of the log-uniform grid of eval_on_log_grid
_GRID_POINTS = 4096

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuadratureSpec:
    """Inner-integral rule: Gauss-Legendre nodes per cell, doubled until
    successive values agree to `tolerance`, at most `max_doublings` times
    (at least once, so that every mean is checked)."""

    nodes: int = 8
    tolerance: float = 1e-10
    max_doublings: int = 8

    def __post_init__(self):
        if self.nodes < 1:
            raise ValidationError("quadrature needs nodes >= 1")
        if self.max_doublings < 1:
            raise ValidationError("quadrature needs max_doublings >= 1")


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

    A signal that declares its cell means (Signal.log_mean; every built-in
    but sin_log and power_clipped) gives every mean from that declaration,
    in blocks of _CELL_BLOCK cells, and quad is not used: no Gauss level
    and no doubling.  The mean of a cell [a, b] is then off by the bound
    the signal states: round-off only, at most 4 eps max(|G(a)|, |G(b)|)
    / (b - a) + eps |mean| for an exact antiderivative G, plus
    2 delta |h| R / (b - a) + 2^-1073 / (b - a) + 2^-1074 for the bumps,
    whose G = h R Phi(v/R) is tabulated to within delta
    (signals.BUMP_INTEGRAL_ERROR); the powers of 2 bound underflow.

    Otherwise each cell's node count doubles until its own mean changes by
    at most quad.tolerance * max(1, max_k |mean_k|); cells that met it are
    not evaluated again.  When cells are still unconverged after
    quad.max_doublings doublings, a debug log line and EvaluationError name
    their count, the worst k and its last change.  Cells are evaluated in
    order, in blocks of at most _CELL_BLOCK (cell x node) values.

    Either way a non-finite value raises at the first block that holds
    one, naming its cell."""
    if k_hi < k_lo:
        return np.empty(0)
    t = scheme.nodes(k_lo, k_hi + 1)
    a, b = t[:-1] / w, t[1:] / w
    if f.log_mean is not None:
        vals = np.empty(a.size)
        for start in range(0, a.size, _CELL_BLOCK):
            cells = slice(start, start + _CELL_BLOCK)
            vals[cells] = f.log_mean(a[cells], b[cells])
            finite = np.isfinite(vals[cells])
            if not finite.all():
                raise EvaluationError(
                    f"non-finite declared mean of the cell "
                    f"k={k_lo + start + int(np.argmin(finite))}")
        return vals
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
    worst = int(np.argmax(change))
    message = (f"mean_values: {active.size} of {vals.size} cells unconverged "
               f"after {quad.max_doublings} doublings; worst "
               f"k={k_lo + int(active[worst])} changed by "
               f"{float(change[worst]):.3g}")
    _log.debug(message)
    raise EvaluationError(message)


def mean_value(f: Signal, k: int, w: float, scheme: SamplingScheme,
               quad: QuadratureSpec = QuadratureSpec()) -> float:
    if w <= 0:
        raise ValidationError("mean_value needs w > 0")
    return float(mean_values(f, k, k, w, scheme, quad)[0])


# ---------------------------------------------------------------------------
# the evaluation plan


def _retained_half_width(f: Signal, w: float, kernel: NonlinearKernel,
                         scheme: SamplingScheme, trunc: TruncationPolicy):
    """(half, support, bound): the half-width of node positions retained
    around every phase, the node-position interval outside which every
    Steklov mean vanishes (None for an unbounded support) and the certified
    truncation bound.  None of them depends on the phase."""
    if f.sup_norm is None and f.support is None:
        if f.log_growth is None:
            raise EvaluationError(
                "unbounded signal without log-growth metadata")
        if trunc.mode != "window":
            raise EvaluationError(
                "log-growth signals need window-mode truncation")
    profile = kernel.profile
    if profile.is_compact:
        half = profile.support_radius + 1e-12
        bound = 0.0
    elif trunc.mode == "window":
        half = trunc.gamma * w
        bound = math.nan
        if f.sup_norm is not None and trunc.beta is not None:
            m_beta = moments.moment_value(profile, scheme, trunc.beta)
            bound = (float(kernel.slope(2.0 * f.sup_norm)) * m_beta
                     / half ** trunc.beta if math.isfinite(m_beta) else math.inf)
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

    rho = f.log_support_radius
    if rho is None:
        return half, None, bound
    if not profile.is_compact:
        # outside the signal support every Steklov mean vanishes (chi2), so
        # summing the whole support is exact
        half, bound = math.inf, 0.0
    return half, (-w * rho - scheme.upper_gap, w * rho), bound


def _runs(ys: np.ndarray, half: float, support, scheme: SamplingScheme):
    """(runs, empty): ascending disjoint index runs (k_lo, k_hi) whose union
    holds every node t_k with |t_k - y| <= half for some phase y, within
    the support interval when there is one, and whether some merged window
    held no node."""
    ys = np.sort(ys)
    lo, hi = ys - half, ys + half
    if support is not None:
        inside = (hi >= support[0]) & (lo <= support[1])
        lo = np.maximum(lo[inside], support[0])
        hi = np.minimum(hi[inside], support[1])
    # the sorted windows share one half-width, so lo and hi both ascend and
    # a window that starts past its predecessor's end starts a new run
    edge = np.ones(lo.size + 1, dtype=bool)
    np.greater(lo[1:], hi[:-1], out=edge[1:-1])
    runs, empty = [], False
    for a, b in zip(lo[edge[:-1]].tolist(), hi[edge[1:]].tolist()):
        k_lo, k_hi = scheme.index_range(a, b)
        if k_hi < k_lo:
            empty = True
        elif runs and k_lo <= runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], max(runs[-1][1], k_hi))
        else:
            runs.append((k_lo, k_hi))
    return runs, empty


def _coefficients(f: Signal, k_lo: int, k_hi: int, w: float,
                  scheme: SamplingScheme, quad: Optional[QuadratureSpec]):
    """Steklov means, or with quad None the sample values f(e^{t_k/w})."""
    if quad is not None:
        return mean_values(f, k_lo, k_hi, w, scheme, quad)
    samples = f.log_evaluate(scheme.nodes(k_lo, k_hi) / w)
    if not np.all(np.isfinite(samples)):
        bad = k_lo + int(np.argmax(~np.isfinite(samples)))
        raise EvaluationError(f"non-finite sample value at k={bad}")
    return samples


def _series(f: Signal, w: float, ys: np.ndarray, kernel: NonlinearKernel,
            scheme: SamplingScheme, trunc: Optional[TruncationPolicy],
            quad: Optional[QuadratureSpec]):
    """(values, bound): sum_k L(y - t_k) g_w(c_k) at every phase y of ys
    over the nodes retained for any of them, with c_k the Steklov means
    (quad given) or the sample values (quad None), and the certified
    truncation bound of each value.

    The retained half-width is fixed once per call; the windows around the
    phases merge into runs of indices, the coefficients are computed once
    per run, the response applied once and the profile summed once over
    every phase.  A node inside another phase's window only adds a term
    the truncation bound already covers (exactly 0 for a compact
    profile).

    A B-spline series on a uniform scheme of step 1, at any offset, is
    summed by backend.bspline_lattice_sum: one (piece x n+1) coefficient
    table from the response values, then n Horner steps per phase.  Every
    other profile and scheme goes through backend.profile_sum."""
    if trunc is None:
        trunc = default_truncation(f, kernel, scheme)
    half, support, bound = _retained_half_width(f, w, kernel, scheme, trunc)
    runs, empty = _runs(ys, half, support, scheme)
    if empty and support is None:
        raise EvaluationError("empty retained index set; widen gamma")
    if not runs:
        return np.zeros(ys.shape), bound  # every term vanishes
    # the nodes only after the coefficients, and no copy of a lone run: a
    # capped run holds 2M values per array
    c = [_coefficients(f, k_lo, k_hi, w, scheme, quad) for k_lo, k_hi in runs]
    g = kernel.response(w, c[0] if len(c) == 1 else np.concatenate(c))
    t = [scheme.nodes(k_lo, k_hi) for k_lo, k_hi in runs]
    t = t[0] if len(t) == 1 else np.concatenate(t)
    profile = kernel.profile
    if (profile.fast_kind == backend.KIND_BSPLINE and scheme.kind == "uniform"
            and scheme.step == 1.0):
        return (backend.bspline_lattice_sum(ys, t, g, profile.fast_order),
                bound)
    return backend.profile_sum(profile, ys, t, g), bound


# ---------------------------------------------------------------------------
# operators


def eval_kantorovich(f: Signal, w: float, x: float, kernel: NonlinearKernel,
                     scheme: SamplingScheme,
                     trunc: Optional[TruncationPolicy] = None,
                     quad: QuadratureSpec = QuadratureSpec()):
    """(K_w f)(x) by truncated summation; returns (value, truncation_bound)."""
    if w <= 0 or x <= 0:
        raise ValidationError("eval_kantorovich needs w > 0 and x > 0")
    values, bound = _series(f, w, np.array([w * math.log(x)]), kernel, scheme,
                            trunc, quad)
    return float(values[0]), bound


def eval_generalized(f: Signal, w: float, x: float, kernel: NonlinearKernel,
                     scheme: SamplingScheme,
                     trunc: Optional[TruncationPolicy] = None) -> float:
    """(S_w f)(x): sample values f(e^{t_k/w}) instead of Steklov means."""
    if w <= 0 or x <= 0:
        raise ValidationError("eval_generalized needs w > 0 and x > 0")
    values, _ = _series(f, w, np.array([w * math.log(x)]), kernel, scheme,
                        trunc, None)
    return float(values[0])


def sup_error(f: Signal, w: float, grid, kernel: NonlinearKernel,
              scheme: SamplingScheme, trunc: Optional[TruncationPolicy] = None,
              quad: QuadratureSpec = QuadratureSpec()) -> float:
    """max over the grid of |(K_w f)(x) - f(x)| (discretized sup norm)."""
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValidationError("sup_error needs a non-empty grid")
    if np.any(grid <= 0):
        raise ValidationError("sup_error grid must be positive")
    values, _ = _series(f, w, w * np.log(grid), kernel, scheme, trunc, quad)
    return float(np.max(np.abs(values - f(grid))))


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
                     quad: QuadratureSpec = QuadratureSpec()) -> GridFunction:
    """K_w f on _GRID_POINTS log-uniform points spanning the signal support
    inflated by the kernel's effective radius.  Exact (no truncation) for
    compactly supported signals."""
    if f.log_support_radius is None:
        raise ValidationError("grid evaluation needs a compactly supported signal")
    radius = (kernel.profile.support_radius
              if kernel.profile.is_compact
              else kernel.profile.effective_radius(1e-10))
    half = f.log_support_radius + (radius + scheme.upper_gap) / w + 0.25
    v = np.linspace(-half, half, _GRID_POINTS)
    values, _ = _series(f, w, w * v, kernel, scheme, None, quad)
    return GridFunction(v, values)
