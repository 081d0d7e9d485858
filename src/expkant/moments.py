"""Log-discrete absolute moments and numerical audits of every kernel
admissibility condition the convergence theorems assume.

The moment sup is taken over the phase variable y = w ln x,
    M_beta(L) = sup_y sum_k L(e^{y - t_k}) |y - t_k|^beta,
which is periodic in y with the scheme's period and independent of w.
It is taken on a grid of phases and refined around the best one by
brackets of a few dozen phases per profile sum, which at beta = 0 refine
the least sum too, so one cached sweep gives both ends of m0.  Every phase
sum is one profile sum over all phases (_phase_sums), cut to the nodes
beyond the tail's half width.

A profile is compact or of the Mellin-Fejer form (1 - cos v)/(pi v^2).
A compact profile sums every node within its support.  The Fejer profile
gets its partition sum m0 in closed form on phase periods up to 2 pi
(Poisson summation), and its lattice tails from a few dozen direct nodes
per side, Hurwitz zeta values and repeated summation by parts on the
cosine part.
"""

from __future__ import annotations

import functools
import logging
import math
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import backend
from .core import (KernelProfile, NonlinearKernel, SamplingScheme,
                   ValidationError, gauss_panels)
from .ratefit import fit_loglog

EXACT_SUP = 1e-12

# Direct nodes of a lattice tail, per residue class and side: up to
# _LATTICE_REACH log units past the cut, and no more than
# _PARTS_SPAN / |1 - e^{iP}| nodes, beyond which _PARTS_ORDER summations by
# parts bound the cosine part.  Each of them shrinks the bound by about
# (k + 2 - beta) P / (u |1 - e^{iP}|) <= (k + 2)/_PARTS_SPAN at distance u;
# near P = 2 pi m, where |1 - e^{iP}| vanishes, the reach caps the nodes.
_LATTICE_REACH = 512.0
_PARTS_SPAN = 24.0
_PARTS_ORDER = 6
# Phase periods whose lattice-tail plan (_lattice_plan) stays cached.
_PLAN_CACHE_SIZE = 64

# Bracket refinement of a phase sup: phases of the probe grid on one
# period, calls after it, and phases per call (spacing 1/16 of the
# bracket's half width).
_PROBE_PHASES = 2048
_REFINE_CALLS = 8
_REFINE_POINTS = 33
# The offsets 0, 1, ..., _REFINE_POINTS - 1 that every bracket scales
# (_bracket), built once.
_BRACKET_OFFSETS = np.arange(_REFINE_POINTS, dtype=float)
_BRACKET_OFFSETS.setflags(write=False)
# Phases of one period at which check_L3 takes each tail sup.
_L3_PHASES = 128

# Bernoulli numbers B_2, B_4, ..., B_16 over (2j)!, for Euler-Maclaurin.
_BERNOULLI_OVER_FACTORIAL = tuple(
    b / math.factorial(2 * j) for j, b in enumerate(
        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
         -3617 / 510), start=1))
# zeta(s, q) sums its first terms directly until q + n >= _ZETA_SHIFT.
_ZETA_SHIFT = 16.0

# Log units out to which a Fejer tail integral takes Gauss panels, with
# integral_tail's closed-form bound beyond.
_TAIL_REACH = 400.0

_EPS = float(np.finfo(float).eps)

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MomentReport:
    """A moment sup; ``half_width`` is the half width around each phase
    inside which every node is summed directly and ``remainder`` the tail
    bound added to ``value`` at the phase that attains the sup (both None
    when the moment is flagged divergent up front).  ``exact`` marks a
    value known in closed form at every phase (no window, remainder 0).
    ``least`` is, at beta = 0 only, the least lower bound of the partition
    sum over the sampled phases (``value`` when exact)."""

    beta: float
    value: float
    probe_grid: str
    diverged: bool
    half_width: Optional[float] = None
    remainder: Optional[float] = None
    exact: bool = False
    least: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    params: dict
    w_values: tuple
    sup_values: tuple
    fitted_rate: Optional[float]
    passed: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"condition": self.condition, "params": self.params,
                "w_values": list(self.w_values),
                "sup_values": list(self.sup_values),
                "fitted_rate": self.fitted_rate, "passed": self.passed,
                "extra": self.extra}


# ---------------------------------------------------------------------------
# phase sums


def _window_nodes(scheme: SamplingScheme, center: float, half: float) -> np.ndarray:
    k_lo, k_hi = scheme.index_range(center - half, center + half)
    if k_hi < k_lo:
        return np.empty(0)
    return scheme.nodes(k_lo, k_hi)


def hurwitz_zeta(s: float, q) -> tuple:
    """(value, bound) with |zeta(s, q) - value| <= bound, where
    zeta(s, q) = sum_{k >= 0} (q + k)^-s, for real s > 1 and q > 0.

    Euler-Maclaurin at a = q + n, after n direct terms that raise a to at
    least _ZETA_SHIFT:
        zeta(s, q) = sum_{k < n} (q + k)^-s + a^(1-s)/(s-1) + a^-s/2
                     + sum_{j=1}^{M} B_2j/(2j)! (s)_{2j-1} a^(-s-2j+1) + R,
    |R| <= |B_2M|/(2M)! (s)_2M a^(1-s-2M)/(s+2M-1), with (s)_k the rising
    factorial (Johansson, Numer. Algorithms 2015, arXiv:1309.2877).  The
    bound adds 64 ulp of the value for round-off.  Each Bernoulli term
    divides the last power by a^2, formed once per call."""
    q = np.asarray(q, dtype=float)
    n = np.maximum(0.0, np.ceil(_ZETA_SHIFT - q))
    value = np.zeros(q.shape)
    for k in range(int(n.max(initial=0.0))):
        value += np.where(k < n, (q + k) ** -s, 0.0)
    a = q + n
    value += a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** -s
    rising, power = s, a ** (-s - 1.0)    # (s)_{2j-1} and a^(-s-2j+1)
    square = a * a
    for j, coeff in enumerate(_BERNOULLI_OVER_FACTORIAL, start=1):
        value += coeff * rising * power
        last = rising * (s + 2 * j - 1)   # (s)_2j
        rising = last * (s + 2 * j)
        power = power / square
    m = len(_BERNOULLI_OVER_FACTORIAL)
    remainder = (abs(_BERNOULLI_OVER_FACTORIAL[-1]) * last
                 * a ** (1.0 - s - 2 * m) / (s + 2 * m - 1.0))
    return value, remainder + 64.0 * _EPS * value


def _exact_partition(profile: KernelProfile,
                    scheme: SamplingScheme) -> Optional[float]:
    """m0(y) = sum_k L(e^{y - t_k}) in closed form, or None.

    By Poisson summation each residue class b + qP contributes
    (1/P) sum_n Lhat(2 pi n/P) e^{2 pi i n (y - b)/P}.  The Fejer form's
    Lhat is the triangle (1 - |xi|)_+, so for P <= 2 pi only n = 0 is
    left and m0 == (number of classes) * l1_log_norm / P at every phase
    (Butzer & Jansche, JFAA 1997).  None for a compact profile and for
    P > 2 pi."""
    if profile.is_compact:
        return None
    if scheme.period > 2.0 * math.pi:
        return None
    return len(scheme.base) * profile.l1_log_norm / scheme.period


def _lattice_terms(period: float) -> int:
    """Nodes per class and side that a lattice tail sums directly:
    min(ceil(_LATTICE_REACH / P), ceil(_PARTS_SPAN / |1 - e^{iP}|))."""
    depth = max(1, math.ceil(_LATTICE_REACH / period))
    chord = 2.0 * abs(math.sin(0.5 * period))
    if chord * depth > _PARTS_SPAN:
        depth = max(1, math.ceil(_PARTS_SPAN / chord))
    return depth


def _parts_matrix(period: float) -> tuple:
    """(matrix, scale) for summation by parts on a lattice of step P.

    With g_j = g(u + jP), j = 0..K (K = _PARTS_ORDER), z = e^{iP} and
    forward differences Delta, the (K+1) x 3 matrix takes the row of g_j to
    the real and imaginary parts of sum_{k<K} z^k Delta^k g_0 / (1-z)^(k+1)
    and to Delta^K g_0.  scale = sum_{k<=K} 2^k / |1 - z|^(k+1) bounds the
    sum of the absolute coefficients of each column, for round-off."""
    k = np.arange(_PARTS_ORDER + 1)
    sine = math.sin(0.5 * period)
    # z^k / (1 - z)^(k+1), from 1 - z = -2i sin(P/2) e^{iP/2}
    ratio = (0.5j / sine) ** (k + 1) * np.exp(0.5j * (k - 1) * period)
    # Delta^k g_0 = sum_j diff[j, k] g_j
    diff = np.array([[math.comb(kk, j) * (-1) ** ((kk - j) % 2) for kk in k]
                     for j in k], dtype=float)
    coeffs = diff[:, :-1] @ ratio[:-1]
    matrix = np.stack([coeffs.real, coeffs.imag, diff[:, -1]], axis=1)
    return matrix, float(np.sum(2.0 ** k * np.abs(ratio)))


class _LatticePlan(NamedTuple):
    """What a lattice tail of phase period P needs that does not depend on
    the phases: the depth D = _lattice_terms(P), the direct lattice
    -(D-1)P..0, the steps 0..K P of the differences, _parts_matrix(P),
    |sin(P/2)| and E_K / |Delta^K g_0| = 1/(|1 - z|^K |sin(P/2)|)."""

    depth: int
    lattice: np.ndarray
    steps: np.ndarray
    parts: np.ndarray
    scale: float
    sine: float
    rest: float


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _lattice_plan(period: float) -> _LatticePlan:
    """The _LatticePlan of phase period P, built once per period and kept
    for the last _PLAN_CACHE_SIZE periods; its arrays are read-only, so
    threads share them."""
    depth = _lattice_terms(period)
    lattice = -period * np.arange(depth)[::-1]
    steps = period * np.arange(_PARTS_ORDER + 1)
    parts, scale = _parts_matrix(period)
    for a in (lattice, steps, parts):
        a.setflags(write=False)
    sine = abs(math.sin(0.5 * period))
    return _LatticePlan(depth, lattice, steps, parts, scale, sine,
                        1.0 / ((2.0 * sine) ** _PARTS_ORDER * sine))


def _first_beyond(b: float, period: float, ys: np.ndarray,
                  cut: float) -> np.ndarray:
    """Per phase y, the first q with (b + q P) - y > cut, decided on the
    node positions as SamplingScheme.nodes computes them."""
    q = np.floor((ys + cut - b) / period)
    q -= b + (q - 1.0) * period - ys > cut
    q += b + q * period - ys <= cut
    return q


def _lattice_tails(profile: KernelProfile, scheme: SamplingScheme,
                   ys: np.ndarray, cut: Optional[float],
                   beta: float, lower: bool = False) -> tuple:
    """(direct, bound) per phase y_i, whose sum bounds from above
        sum over |t_k - y_i| > cut of L(e^{y_i - t_k}) |y_i - t_k|^beta
    (over every node when cut is None) for the Mellin-Fejer profile
    and 0 <= beta < 1; with lower, (direct, bound, least), direct + least
    a lower bound of the same sum.  Only a call with lower forms least.

    On each side of y_i, the nodes of a residue class b + qP lie at
    distances u_j = u_0 + jP.  The first D = _lattice_terms(P) are summed
    directly, in one profile_sum over all phases.  Beyond them the terms
    are (1 - cos u_j) g_j / pi with g_j = (u_D + jP)^(beta-2), whose sum
    is (Z - Re e^{i u_D} S)/pi with
        Z = sum_j g_j = P^(beta-2) zeta(2 - beta, u_D/P),
        S = sum_j z^j g_j,  z = e^{iP}.
    K = _PARTS_ORDER summations by parts (Abel; Knopp, Theory and
    Application of Infinite Series) give
        S = sum_{k<K} z^k Delta^k g_0/(1-z)^(k+1)
            + (z/(1-z))^K sum_j z^j Delta^K g_j,
    and since u^(beta-2) is completely monotone, (-1)^K Delta^K g_j >= 0
    falls with j, so by Abel's inequality the last sum is at most
    |Delta^K g_0| / |sin(P/2)| in modulus.  The bound is (1/pi) times the
    least of
        Z - C_K + E_K + round-off,   2Z,   Z + g_0/|sin(P/2)|,
    with C_K = Re(e^{i u_D} sum_{k<K} ...), E_K = |Delta^K g_0| /
    (|1 - z|^K |sin(P/2)|) and the round-off allowance 64 + 4 (u_D + |y|
    + |b|) ulp of g_0 times the scale of _parts_matrix.  The lower bound
    is (1/pi) max(0, Z_lo - C_K - E_K - round-off, Z_lo - g_0/|sin(P/2)|),
    Z_lo = P^(beta-2) (zeta less its error bound).  The direct lattice,
    the differences' steps and the summation-by-parts matrix come from the
    period's cached plan (_lattice_plan), so a call builds none of them.
    One debug line per call records the tails on which summation by parts
    loses."""
    period = scheme.period
    ys = np.asarray(ys, dtype=float)
    plan = _lattice_plan(period)
    sine = plan.sine
    step_power = period ** (beta - 2.0)
    ulps = 64.0 + 4.0 * np.abs(np.concatenate([ys, ys]))
    direct, bound = np.zeros(ys.size), np.zeros(ys.size)
    least = np.zeros(ys.size) if lower else None
    lost = forced = 0
    for b in scheme.base:
        q = _first_beyond(b, period, ys, 0.0 if cut is None else cut)
        right = b + q * period - ys
        if cut is None:
            left = ys - (b + (q - 1.0) * period)
        else:
            left = -b + _first_beyond(-b, period, -ys, cut) * period + ys
        u = np.concatenate([right, left])
        near = backend.profile_sum(profile, u, plan.lattice, beta=beta)
        far = u + plan.depth * period
        g = (far[:, None] + plan.steps) ** (beta - 2.0)
        re, im, last = (g @ plan.parts).T
        zeta, zeta_err = hurwitz_zeta(2.0 - beta, far / period)
        z = step_power * (zeta + zeta_err)
        roundoff = (_EPS * plan.scale * g[:, 0]
                    * (ulps + 4.0 * (far + abs(b))))
        c_re, s_im, e_k = (np.cos(far) * re, np.sin(far) * im,
                           np.abs(last) * plan.rest)
        summed = z - c_re + s_im + e_k + roundoff
        dirichlet = z + g[:, 0] / sine
        plain = np.minimum(2.0 * z, dirichlet)
        losing = summed > plain
        lost += int(np.count_nonzero(losing))
        forced += int(np.count_nonzero(losing & (2.0 * z < dirichlet)))
        tail = np.minimum(summed, plain) / math.pi
        direct += near[:ys.size] + near[ys.size:]
        bound += tail[:ys.size] + tail[ys.size:]
        if lower:
            z_lo = step_power * (zeta - zeta_err)
            floor = np.maximum(0.0, np.maximum(
                z_lo - c_re + s_im - e_k - roundoff,
                z_lo - g[:, 0] / sine)) / math.pi
            least += floor[:ys.size] + floor[ys.size:]
    if lost:
        _log.debug("lattice tails: summation by parts loses on %d of %d tails "
                   "at P = %g; |sin(P/2)| = %.3g forces the 2Z bound on %d",
                   lost, 2 * ys.size * len(scheme.base), period, sine, forced)
    return (direct, bound, least) if lower else (direct, bound)


def integral_tail(profile: KernelProfile, v0: float) -> float:
    """Upper bound on the integral over |v| > v0 > 0 of L(e^v) dv.

    For the Fejer form it is (2/pi)(1/v0 - int_v0^inf cos v/v^2 dv), and
    integrating by parts twice gives int_v0^inf cos v/v^2 = -sin v0/v0^2
    + 2 cos v0/v0^3 - 6 int_v0^inf cos v/v^4, the last integral at most
    1/(3 v0^3).  A compact profile's is 0 beyond its support."""
    if profile.is_compact:
        return 0.0 if v0 >= profile.support_radius else math.inf
    return (2.0 / math.pi * (1.0 / v0 + math.sin(v0) / v0 ** 2
                             - 2.0 * math.cos(v0) / v0 ** 3)
            + 4.0 / math.pi / v0 ** 3)


def _phase_sums(profile: KernelProfile, scheme: SamplingScheme,
                ys: np.ndarray, beta: float, cut: Optional[float] = None,
                lower: bool = False) -> tuple:
    """(upper, lower, remainder, half_width) for the phase sums
        sum over |t_k - y| > cut of L(e^{y - t_k}) |y - t_k|^beta
    (over every node when cut is None) at every phase y of ys: per-phase
    bounds (the lower one only when asked for, None otherwise), the part
    of the upper one that bounds the nodes not summed (_lattice_tails; 0
    for a compact profile, whose sums are exact) and the half width around
    each phase inside which nodes are summed directly (None when no node
    counts)."""
    if not profile.is_compact:
        tails = _lattice_tails(profile, scheme, ys, cut, beta, lower)
        direct, bound = tails[:2]
        plan = _lattice_plan(scheme.period)
        return (direct + bound, direct + tails[2] if lower else None, bound,
                (cut or 0.0) + plan.depth * scheme.period)
    zeros = np.zeros(ys.size)
    if cut is not None and cut >= profile.support_radius:
        return zeros, zeros if lower else None, zeros, None
    outer = profile.support_radius + scheme.upper_gap
    span = float(ys.max() - ys.min())
    t = _window_nodes(scheme, float(ys.min()) + 0.5 * span, outer + 0.5 * span)
    sums = backend.profile_sum(profile, ys, t, beta=beta,
                               cut=None if cut is None else (cut, outer))
    return sums, sums if lower else None, zeros, outer


def _bracket(lo: float, hi: float) -> np.ndarray:
    """np.linspace(lo, hi, _REFINE_POINTS), bit for bit, without its
    Python-level setup: numpy's own formula, the offsets times
    (hi - lo)/(_REFINE_POINTS - 1) plus lo, with the last point set to hi.
    A step that rounds to 0 takes numpy's denormal branch, so it is left to
    np.linspace."""
    step = (hi - lo) / (_REFINE_POINTS - 1)
    if step == 0.0:
        return np.linspace(lo, hi, _REFINE_POINTS)
    ys = _BRACKET_OFFSETS * step
    ys += lo
    ys[-1] = hi
    return ys


def _refined_sup(fun, ys: np.ndarray, h: float,
                 least: Optional[int] = None, probe: Optional[tuple] = None
                 ) -> tuple:
    """The sup over the phase of fun on the grid ys of spacing h, refined
    around the best phase.

    fun(ys) returns a tuple of arrays over ys, the first the values to
    maximise; the result is that tuple's entries at the best phase found.
    probe, when given, is fun(ys) already summed (discrete_moment reads it
    off a denser grid), so the grid is not summed again.  Each of
    _REFINE_CALLS calls evaluates _REFINE_POINTS phases over +-1 spacing of
    the best phase so far (_bracket), so the spacing shrinks 16-fold per
    call and ends at h 16^-8 for grid spacing h, narrower than the bracket
    2 h 0.618^40 that 40 golden-section steps leave.  With least = i the
    same calls also refine the least value of entry i, each over the
    phases of both brackets, and the result is the pair (entries at the
    best phase, entries at the least)."""
    best = low = None
    out = fun(ys) if probe is None else probe
    for call in range(_REFINE_CALLS + 1):
        i = int(np.argmax(out[0]))
        if best is None or out[0][i] > best[0]:
            best, top = tuple(float(a[i]) for a in out), float(ys[i])
        if least is not None:
            i = int(np.argmin(out[least]))
            if low is None or out[least][i] < low[least]:
                low, bottom = tuple(float(a[i]) for a in out), float(ys[i])
        if call == _REFINE_CALLS:
            break
        if least is None:
            ys = _bracket(top - h, top + h)
        else:
            ys = np.concatenate([_bracket(top - h, top + h),
                                 _bracket(bottom - h, bottom + h)])
        h = float(ys[1] - ys[0])
        out = fun(ys)
    return best if least is None else (best, low)


def _check_compact_moment(profile: KernelProfile, scheme: SamplingScheme,
                          beta: float) -> None:
    """Raise ValidationError when a compact sweep's sums of order beta could
    overflow.  Its pairs lie within R + upper_gap plus the phases' span of
    each other (the window of _phase_sums), and the span is below one
    period P, so |v| <= R + upper_gap + P; each phase sums at most the
    nodes of one such window, each term L |v|^beta <= |v|^beta (a B-spline
    is at most 1)."""
    reach = profile.support_radius + scheme.upper_gap + scheme.period
    k_lo, k_hi = scheme.index_range(-reach, scheme.period + reach)
    try:
        top = (k_hi - k_lo + 1) * reach ** beta
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ValidationError(
            f"discrete_moment: |v|**beta overflows for beta={beta:g} on "
            f"{profile.name}, whose sums reach |v| = {reach:g}")


def discrete_moment(profile: KernelProfile, scheme: SamplingScheme,
                    beta: float) -> MomentReport:
    """Log-discrete absolute moment of order beta (w-independent in the
    phase variable), the sup of _phase_sums over _PROBE_PHASES phases of
    one period, refined (_refined_sup).  A compact profile sums a grid of
    twice the density first and reads the probe's sums off its even
    phases, which are the probe grid bit for bit, so its sup makes
    1 + _REFINE_CALLS profile sums.  At beta = 0 the same calls refine the
    least lower bound too (``least``), which partition_bounds reads.  Both
    ends are sampled, not certified.

    A negative or NaN beta raises ValidationError, and so does a compact
    profile's order beta for which |v|^beta could overflow over the pairs
    its sweep forms (_check_compact_moment), before any sum.

    The Fejer profile's moments of order beta >= 1 are flagged divergent
    immediately: its weighted terms decay like |v|^(beta - 2), which is
    not summable.  Its partition sum (beta = 0) is exact on phase periods
    up to 2 pi; every other moment of it adds the closed-form lattice
    tails (_lattice_tails) to the nodes summed directly.
    """
    if not beta >= 0.0:
        raise ValidationError(f"discrete_moment needs beta >= 0 (got {beta:g})")
    period = scheme.period
    m0 = _exact_partition(profile, scheme) if beta == 0.0 else None
    if m0 is not None:
        return MomentReport(beta, m0, "exact at every phase (Poisson "
                            "summation)", False, None, 0.0, True, m0)
    desc = f"{_PROBE_PHASES} phase points on one period [0, {period:g})"
    if not profile.is_compact and beta >= 1.0:
        _log.debug("discrete_moment: %s beta=%g flagged divergent, the "
                   "Fejer terms decay like |v|^(beta - 2)", profile.name, beta)
        return MomentReport(beta, math.inf, desc, True)
    desc += (f", the best{' and the least' if beta == 0.0 else ''} refined "
             f"by {_REFINE_CALLS} brackets of {_REFINE_POINTS} phases")

    # (upper, remainder) per phase, and the lower bound at beta = 0
    lower = beta == 0.0

    def sums(ys):
        upper, low, rem, _ = _phase_sums(profile, scheme, ys, beta,
                                         lower=lower)
        return (upper, rem, low) if lower else (upper, rem)

    h = period / _PROBE_PHASES
    if not profile.is_compact:
        ys = np.linspace(0.0, period, _PROBE_PHASES, endpoint=False)
        probe = None
        half = _lattice_plan(period).depth * period
    else:
        _check_compact_moment(profile, scheme, beta)
        # a grid of twice the density, for a peak the probe missed; its
        # even phases are the probe grid bit for bit (its step is exactly
        # half the probe's), so they give the probe's sums
        dense_ys = np.linspace(0.0, period, 2 * _PROBE_PHASES, endpoint=False)
        dense = sums(dense_ys)
        ys, probe = dense_ys[::2], tuple(a[::2] for a in dense)
        desc += f", and {2 * _PROBE_PHASES} phase points"
        half = profile.support_radius + scheme.upper_gap
    best, low = (_refined_sup(sums, ys, h, least=2, probe=probe) if lower
                 else (_refined_sup(sums, ys, h, probe=probe), None))
    value = best[0]
    least = None if low is None else low[2]
    if profile.is_compact:
        value = max(value, float(dense[0].max()))
        least = None if least is None else min(least, float(dense[2].min()))
    return MomentReport(beta, value, desc, False, half, best[1], least=least)


_MOMENT_CACHE_SIZE = 256
_MOMENT_CACHE: OrderedDict = OrderedDict()
_MOMENT_LOCK = threading.Lock()


def _moment_report(profile: KernelProfile, scheme: SamplingScheme,
                   beta: float) -> MomentReport:
    """Cached discrete_moment.

    The cache is one LRU of _MOMENT_CACHE_SIZE reports shared by all
    threads.  Profiles compare by identity, so the key holds the profile
    itself: an id() could be reused once the profile is gone.  Schemes
    compare by value, so equal (base, period) pairs share their moments.  A
    moment is computed outside the lock; when two threads compute the same
    one, both get the report stored first."""
    key = (profile, scheme, beta)
    with _MOMENT_LOCK:
        if key in _MOMENT_CACHE:
            _MOMENT_CACHE.move_to_end(key)
            return _MOMENT_CACHE[key]
    rep = discrete_moment(profile, scheme, beta)
    with _MOMENT_LOCK:
        rep = _MOMENT_CACHE.setdefault(key, rep)
        _MOMENT_CACHE.move_to_end(key)
        while len(_MOMENT_CACHE) > _MOMENT_CACHE_SIZE:
            _MOMENT_CACHE.popitem(last=False)
    return rep


def moment_value(profile: KernelProfile, scheme: SamplingScheme,
                 beta: float) -> float:
    """Cached moment lookup (_moment_report); inf when it diverges."""
    rep = _moment_report(profile, scheme, beta)
    return math.inf if rep.diverged else rep.value


def tail_sum(profile: KernelProfile, scheme: SamplingScheme, gamma: float,
             w: float, x: float) -> float:
    """sum over |t_k - w ln x| > gamma w of L(e^{-t_k} x^w), as an upper
    bound (exact for a compact profile; direct nodes plus the closed-form
    lattice tail for the Fejer form)."""
    if gamma <= 0 or w <= 0 or x <= 0:
        raise ValidationError("tail_sum needs gamma, w, x > 0")
    return float(_phase_sums(profile, scheme, np.array([w * math.log(x)]),
                             0.0, gamma * w)[0][0])


# ---------------------------------------------------------------------------
# partition sums m0 and the (chi4) functionals


def partition_bounds(profile: KernelProfile, scheme: SamplingScheme) -> tuple:
    """(min, max) of m0(y) = sum_k L(e^{y - t_k}) over the phase: the
    least and the sup of the cached beta = 0 sweep (_moment_report), both
    refined and both sampled, not certified.  For the Fejer form both are
    the exact value on phase periods up to 2 pi; beyond, they are the
    direct sums plus the tail's lower and upper bounds, below and above m0
    at their phases."""
    rep = _moment_report(profile, scheme, 0.0)
    return rep.least, rep.value


def _signed_logspace(lo: float, hi: float, n: int) -> np.ndarray:
    g = np.geomspace(lo, hi, n)
    return np.concatenate([-g[::-1], g])


def _chi4_report(condition: str, params: dict, w_arr: np.ndarray,
                 vals: np.ndarray, m0_range: tuple) -> ConditionReport:
    """A (chi4) report: it passes when every sup is below EXACT_SUP, or
    when the fitted decay is no slower than the declared alpha less 0.1."""
    alpha = params["alpha_declared"]
    fit = fit_loglog(w_arr, vals)
    passed = bool(np.all(vals < EXACT_SUP)) or (
        alpha is not None and fit is not None and fit.slope <= -alpha + 0.1)
    return ConditionReport(
        condition=condition, params=params, w_values=tuple(w_arr),
        sup_values=tuple(vals),
        fitted_rate=None if fit is None else fit.slope, passed=passed,
        extra={"m0_range": list(m0_range)})


def _sup_functional(kernel: NonlinearKernel, m0_lo: float, m0_hi: float,
                    w: float, u: np.ndarray, relative: bool) -> float:
    """sup over u and m0 in [m0_lo, m0_hi] of |g_w(u) m0 - u| (absolute) or
    |g_w(u) m0 / u - 1| (relative).  Linear in m0, so endpoints suffice."""
    d = np.outer((m0_lo, m0_hi), kernel.response(w, u)) - u
    return float(np.max(np.abs(d / u if relative else d)))


def chi4_functionals(kernel: NonlinearKernel, scheme: SamplingScheme, j: int,
                     w_list: Sequence[float]):
    """Raw values of the two (chi4) functionals per w: the small-u sup S
    and the large-u relative sup T, both over the phase and u grids."""
    if j < 1:
        raise ValidationError("chi4 functionals need j >= 1")
    w_arr = np.asarray(sorted(w_list), dtype=float)
    m0_lo, m0_hi = partition_bounds(kernel.profile, scheme)
    u_small = np.concatenate([[0.0], _signed_logspace(1e-8, (1.0 / j) * (1 - 1e-12), 41)])
    u_large = _signed_logspace(1.0 / j, 1e3, 61)
    s_vals = np.array([_sup_functional(kernel, m0_lo, m0_hi, w, u_small, False)
                       for w in w_arr])
    t_vals = np.array([_sup_functional(kernel, m0_lo, m0_hi, w, u_large, True)
                       for w in w_arr])
    return w_arr, s_vals, t_vals, (m0_lo, m0_hi)


def check_chi4(kernel: NonlinearKernel, scheme: SamplingScheme, j: int,
               w_list: Sequence[float]):
    """The small-u and large-u functionals of condition (chi4); returns a
    pair of ConditionReports (S first, T second)."""
    w_arr, s_vals, t_vals, m0_range = chi4_functionals(kernel, scheme, j,
                                                       w_list)
    alpha = kernel.response.deviation_rate
    return tuple(_chi4_report(name, {"j": j, "alpha_declared": alpha}, w_arr,
                              vals, m0_range)
                 for name, vals in (("chi4_S", s_vals), ("chi4_T", t_vals)))


def check_chi4_star(kernel: NonlinearKernel, scheme: SamplingScheme,
                    w_list: Sequence[float]) -> ConditionReport:
    """Condition (chi4*): sup over u != 0 of |(1/u) sum_k chi(., u) - 1|,
    on 101 log-spaced |u| in [1e-8, 1e3] of each sign."""
    w_arr = np.asarray(sorted(w_list), dtype=float)
    m0_range = partition_bounds(kernel.profile, scheme)
    u_grid = _signed_logspace(1e-8, 1e3, 101)
    vals = np.array([_sup_functional(kernel, *m0_range, w, u_grid, True)
                     for w in w_arr])
    return _chi4_report(
        "chi4_star", {"alpha_declared": kernel.response.deviation_rate},
        w_arr, vals, m0_range)


def check_L3(profile: KernelProfile, scheme: SamplingScheme, r: float,
             gamma: float, w_list: Sequence[float]) -> ConditionReport:
    """Condition (L3): weighted tails beyond |t_k - w ln x| > gamma w must
    vanish as w grows.  ``extra`` gives per w the half width around each
    phase inside which nodes are summed directly (None when no node can
    count) and the tail bound added at the phase of the sup (0 for a
    compact profile, whose cut sums are exact).  The Fejer tails of order
    r = 1 diverge and are flagged before any sum: every sup reads inf,
    with no half width or bound."""
    if not (0.0 < r <= 1.0) or gamma <= 0:
        raise ValidationError("check_L3 needs r in (0,1] and gamma > 0")
    w_arr = np.asarray(sorted(w_list), dtype=float)
    params = {"r": r, "gamma": gamma}
    if not profile.is_compact and r >= 1.0:
        none = [None] * w_arr.size
        return ConditionReport(
            condition="L3", params=params, w_values=tuple(w_arr),
            sup_values=(math.inf,) * w_arr.size, fitted_rate=None,
            passed=False,
            extra={"diverged": True, "half_width": none, "remainder": none})
    period = scheme.period
    ys = np.linspace(0.0, period, _L3_PHASES, endpoint=False)
    vals, half_widths, remainders = [], [], []
    for w in w_arr:
        totals, _, rem, half = _phase_sums(profile, scheme, ys, r, gamma * w)
        i = int(np.argmax(totals))
        vals.append(float(totals[i]))
        half_widths.append(half)
        remainders.append(float(rem[i]))
    vals = np.array(vals)
    exact = np.all(vals[w_arr * gamma >= (profile.support_radius or math.inf)]
                   == 0.0) and profile.is_compact
    nonincreasing = np.all(np.diff(vals) <= 1e-15)
    passed = (profile.is_compact and np.any(vals == 0.0) and exact) or (
        nonincreasing and vals[-1] < 1e-8)
    fit = fit_loglog(w_arr, vals)
    return ConditionReport(
        condition="L3", params=params,
        w_values=tuple(w_arr), sup_values=tuple(vals),
        fitted_rate=None if fit is None else fit.slope,
        passed=bool(passed),
        extra={"diverged": False, "half_width": half_widths,
               "remainder": remainders})


# ---------------------------------------------------------------------------
# the integral tail condition of the quantitative modular estimate


def _log_tail_integral(profile: KernelProfile, threshold: float) -> float:
    """integral over |v| > threshold of L(e^v) dv (two-sided), as an upper
    bound beyond the integrated panels; at threshold 0 the L1 log norm.

    Panels are at most 0.5 wide, narrow enough to resolve the Fejer
    form's oscillation, and reach max(_TAIL_REACH, 2 threshold), beyond
    which integral_tail bounds the rest.  A compact profile's panels end
    on the points -R + j/2, which hold every knot -R + j of the B-spline
    of support radius R, so that each panel integrates one polynomial
    piece, exactly but for round-off up to degree 15."""
    if profile.is_compact:
        hi = profile.support_radius
        if threshold >= hi:
            return 0.0
        knots = np.arange(-hi, hi, 0.5)
        edges = np.concatenate(([threshold], knots[knots > threshold], [hi]))
    else:
        hi = max(_TAIL_REACH, 2.0 * threshold)
        n_panels = max(8, int(math.ceil((hi - threshold) / 0.5)))
        edges = np.linspace(threshold, hi, n_panels + 1)
    v, wts = gauss_panels(edges[:-1], edges[1:], 8)
    total = float(np.sum((profile.log_values(v) + profile.log_values(-v))
                         * wts))
    return total + integral_tail(profile, hi)


def check_e3_1(profile: KernelProfile, gamma: float,
               w_list: Sequence[float]) -> ConditionReport:
    """Tail-mass condition: w * integral over |ln y| > w^-gamma of L(y^w)
    equals the log-tail integral beyond w^{1-gamma}.  gamma_0 is the
    log-log rate fit and M_3 the least constant with M_3 w^-gamma_0 at or
    above every measured mass, so that the bound covers each one."""
    if not (0.0 < gamma < 1.0):
        raise ValidationError("check_e3_1 needs gamma in (0, 1)")
    w_arr = np.asarray(sorted(w_list), dtype=float)
    vals = np.array([_log_tail_integral(profile, w ** (1.0 - gamma))
                     for w in w_arr])
    exact_zero = bool(np.all(vals < 1e-15))
    fit = fit_loglog(w_arr, vals)
    extra = {"exact_zero": exact_zero}
    # the threshold w^(1-gamma) grows with w, so a compact profile's tail
    # mass is exactly 0 on a suffix of the w's, where (e3_1) holds with
    # any gamma0; runners take the measured masses before it
    zeros = np.flatnonzero(vals == 0.0)
    zero_suffix = bool(0 < zeros.size < vals.size
                       and zeros.size == vals.size - zeros[0])
    if fit is not None:
        # the least-squares line may pass below a measured mass
        positive = vals > 0.0
        extra["M3"] = float(np.max(vals[positive]
                                   * w_arr[positive] ** -fit.slope))
        extra["gamma0"] = -fit.slope
    elif exact_zero:
        extra["gamma0"] = math.inf
    elif zero_suffix:
        extra["gamma0"] = math.inf
        extra["zero_from_w"] = float(w_arr[zeros[0]])
    passed = (exact_zero or (fit is not None and fit.slope < 0)
              or (fit is None and zero_suffix))
    return ConditionReport(
        condition="e3_1", params={"gamma": gamma},
        w_values=tuple(w_arr), sup_values=tuple(vals),
        fitted_rate=None if fit is None else fit.slope,
        passed=passed, extra=extra)
