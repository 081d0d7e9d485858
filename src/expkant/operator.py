"""Evaluation of the exponential Kantorovich series K_w f by truncated
summation with a certified truncation bound.

With y := w ln x the series reads sum_k L(y - t_k) * g_w(m_k) where
m_k = (w / Delta_k) * integral of f(e^u) over [t_k/w, t_{k+1}/w].
Terms with m_k = 0 vanish identically (chi(., 0) = 0), so for compactly
supported signals the retained index set is finite and the sum is exact.

One truncation rule serves every entry point (_retained_half_width): a
compact profile or a compactly supported signal is summed exactly, and the
heavy-tailed Mellin-Fejer profile on a bounded signal keeps
MAX_RETAINED_TERMS nodes around each point and reports a bound on the
terms beyond them: the closed-form lattice tail at the evaluated phases
(moments._phase_sums), which falls like 1/half.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
import numpy as np

from . import backend, moments
from .core import (EvaluationError, NonlinearKernel, SamplingScheme, Signal,
                   ValidationError)

MAX_RETAINED_TERMS = 20_000

# points of the log-uniform grid of eval_on_log_grid
_GRID_POINTS = 4096

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuadratureSpec:
    """A bare record the package does not read: the benchmark's tracer
    (perfbench/tracer.py) builds one on every traced mean_values call.  It
    goes, with the tracer's levels_* counters, in the next benchmark
    change."""

    nodes: int = 8
    max_doublings: int = 8


# ---------------------------------------------------------------------------
# Steklov means


def _require_means(f: Signal) -> None:
    if f.log_mean is None:
        raise ValidationError(
            f"signal {f.name!r} declares no cell means (Signal.log_mean), "
            f"which the Steklov means need")


# cells per block of mean_values: 8 MB per temporary of the declared
# means.  Every window the truncation rule retains fits one block; the
# blocks bound the memory of a call over a wider index range, as a
# compactly supported signal at a large w asks for.
_CELL_BLOCK = 1 << 20


def mean_values(f: Signal, k_lo: int, k_hi: int, w: float,
                scheme: SamplingScheme) -> np.ndarray:
    """Steklov means (w/Delta_k) * int_{t_k/w}^{t_{k+1}/w} f(e^u) du for
    k in [k_lo, k_hi], from the cell means the signal declares
    (Signal.log_mean; every built-in does, each within the round-off bound
    that Signal states), in blocks of _CELL_BLOCK cells.  A signal that
    declares none raises ValidationError, and a non-finite mean raises
    EvaluationError at the first block that holds one, naming its cell."""
    _require_means(f)
    if k_hi < k_lo:
        return np.empty(0)
    t = scheme.nodes(k_lo, k_hi + 1)
    a, b = t[:-1] / w, t[1:] / w
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


# ---------------------------------------------------------------------------
# the evaluation plan


def _retained_half_width(f: Signal, w: float, kernel: NonlinearKernel,
                         scheme: SamplingScheme, ys: np.ndarray):
    """(half, support, bound): the half-width of node positions retained
    around every phase, the node-position interval outside which every
    Steklov mean vanishes (None for an unbounded support) and the certified
    truncation bound of the series at every phase of ys.  The half-width
    and the support do not depend on the phase.

    One rule, for signals that declare a sup norm or a support (others
    raise EvaluationError):
    - a compact profile: its support radius, bound 0;
    - a compactly supported signal: its whole support, since outside it
      every Steklov mean vanishes (chi2), bound 0;
    - the heavy-tailed Mellin-Fejer profile on a bounded signal:
      MAX_RETAINED_TERMS nodes' worth, half = MAX_RETAINED_TERMS *
      lower_gap / 2.  Every dropped term is its profile value times
      g_w(m_k), a mean m_k with |m_k| <= ||f||_inf, so the bound is
      sup over |u| <= ||f||_inf of |g_w(u)| times the lattice tail beyond
      half in closed form (moments._phase_sums with beta = 0, maxed over
      ys), which falls like 1/half.  That sup is at most psi(||f||_inf)
      under (chi2) and (chi3), and max |g_w(+-||f||_inf)| for a monotone
      response; the larger of the two is taken, so either suffices.  The
      tail is cut one lower gap inside the window, so that a node at the
      window's edge counts whichever side of it round-off puts the
      node."""
    if f.sup_norm is None and f.support is None:
        raise EvaluationError(
            f"signal {f.name!r} declares neither a sup norm nor a support")
    profile = kernel.profile
    rho = f.log_support_radius
    support = None if rho is None else (-w * rho - scheme.upper_gap, w * rho)
    if profile.is_compact:
        return profile.support_radius + 1e-12, support, 0.0
    if support is not None:
        return math.inf, support, 0.0
    half = MAX_RETAINED_TERMS * scheme.lower_gap / 2.0
    norm = f.sup_norm
    scale = max(float(kernel.slope(norm)), float(np.max(np.abs(
        kernel.response(w, np.array([-norm, norm]))))))
    tails = moments._phase_sums(profile, scheme, ys, 0.0,
                                half - scheme.lower_gap)[0]
    return half, None, scale * float(np.max(tails))


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


def _series(f: Signal, w: float, ys: np.ndarray, kernel: NonlinearKernel,
            scheme: SamplingScheme):
    """(values, bound): sum_k L(y - t_k) g_w(m_k) at every phase y of ys
    over the nodes retained for any of them, with m_k the Steklov means,
    and the certified truncation bound of each value
    (_retained_half_width).  A signal that declares no means raises
    ValidationError before any window is formed, at every point alike.

    The retained half-width is fixed once per call; the windows around the
    phases merge into runs of indices, the means are computed once per
    run, the response applied once and the profile summed once over
    every phase.  A heavy-tailed window writes one debug line with its
    half-width, the nodes retained and the bound.  A node inside another
    phase's window only adds a term the truncation bound already covers
    (exactly 0 for a compact profile).

    A B-spline series on a one-point base of period 1 (a uniform scheme of
    step 1, at any offset) is summed by backend.bspline_lattice_sum: one
    (piece x n+1) coefficient table from the response values, then n
    Horner steps per phase.  Every other profile and scheme goes through
    backend.profile_sum."""
    half, support, bound = _retained_half_width(f, w, kernel, scheme, ys)
    _require_means(f)
    runs, empty = _runs(ys, half, support, scheme)
    if support is None and not kernel.profile.is_compact:
        _log.debug("heavy-tailed window: half-width %g, %d nodes retained, "
                   "truncation bound %.3g", half,
                   sum(k_hi - k_lo + 1 for k_lo, k_hi in runs), bound)
    if empty and support is None:
        raise EvaluationError(
            "empty retained index set: no node within the profile's reach")
    if not runs:
        return np.zeros(ys.shape), bound  # every term vanishes
    # the nodes only after the means, and no copy of a lone run
    c = [mean_values(f, k_lo, k_hi, w, scheme) for k_lo, k_hi in runs]
    g = kernel.response(w, c[0] if len(c) == 1 else np.concatenate(c))
    t = [scheme.nodes(k_lo, k_hi) for k_lo, k_hi in runs]
    t = t[0] if len(t) == 1 else np.concatenate(t)
    profile = kernel.profile
    if (profile.kind == backend.KIND_BSPLINE and len(scheme.base) == 1
            and scheme.period == 1.0):
        return backend.bspline_lattice_sum(ys, t, g, profile.order), bound
    return backend.profile_sum(profile, ys, t, g), bound


# ---------------------------------------------------------------------------
# operators


def eval_kantorovich(f: Signal, w: float, x: float, kernel: NonlinearKernel,
                     scheme: SamplingScheme):
    """(K_w f)(x) by truncated summation; returns (value, truncation_bound)."""
    if w <= 0 or x <= 0:
        raise ValidationError("eval_kantorovich needs w > 0 and x > 0")
    values, bound = _series(f, w, np.array([w * math.log(x)]), kernel, scheme)
    return float(values[0]), bound


def sup_error(f: Signal, w: float, grid, kernel: NonlinearKernel,
              scheme: SamplingScheme) -> float:
    """max over the grid of |(K_w f)(x) - f(x)| (discretized sup norm)."""
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValidationError("sup_error needs a non-empty grid")
    if np.any(grid <= 0):
        raise ValidationError("sup_error grid must be positive")
    values, _ = _series(f, w, w * np.log(grid), kernel, scheme)
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


def eval_on_log_grid(f: Signal, w: float, kernel: NonlinearKernel,
                     scheme: SamplingScheme) -> GridFunction:
    """K_w f on _GRID_POINTS log-uniform points spanning the signal support
    inflated by the profile's support radius.  Exact (no truncation): it
    needs a compactly supported signal and a compact profile.  A
    heavy-tailed profile raises ValidationError, since 4096 points over
    its reach do not resolve K_w f and no bound covers the interpolant."""
    if f.log_support_radius is None:
        raise ValidationError("grid evaluation needs a compactly supported signal")
    if not kernel.profile.is_compact:
        raise ValidationError(
            f"grid evaluation needs a compact profile, not {kernel.profile.name}")
    half = (f.log_support_radius
            + (kernel.profile.support_radius + scheme.upper_gap) / w + 0.25)
    v = np.linspace(-half, half, _GRID_POINTS)
    values, _ = _series(f, w, w * v, kernel, scheme)
    return GridFunction(v, values)
