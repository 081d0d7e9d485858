"""Built-in test signals with analytic regularity metadata.

All are defined through their log-variable core g(v) = f(e^v); the
metadata (sup norm, support, log-Holder order, Mellin derivative) is exact,
so experiments can compare measured quantities against ground truth, and
each declares a spread at or above sup f - inf f.

Like every Signal, each built-in is given by its core, Signal.log_core,
so log_evaluate(v) evaluates g(v) directly, with no round trip through exp
and log, and evaluate(x) is g(ln x).  All seven declare their Steklov cell
means (Signal.log_mean), the only source operator.mean_values has:

* constant(c): exactly c;
* clipped_log: exactly (a + b)/2 inside the clip, the antiderivative
  difference across and beyond it;
* sin_log: (cos a - cos b)/(b - a), computed as
  2 sin((a + b)/2) sin((b - a)/2)/(b - a), which does not cancel however
  narrow the cell (sin_log_mean states its round-off);
* holder_bump (any nu, the tent included): (G(b) - G(a))/(b - a) with
  G(v) = sign(v) (m - m^(nu+1)/((nu+1) R^nu)), m = min(|v|, R);
* cc_bump and random_bump: from the one bump integral
  Phi(x) = int_{-1}^x exp(1 - 1/(1 - s^2)) ds (bump_integral), which has no
  elementary form and is tabulated as piecewise Chebyshev polynomials to
  within BUMP_INTEGRAL_ERROR;
* power_clipped: e^(a lo) expm1(a h)/(a h) inside the clip (h = hi - lo),
  and beyond it, where the saturated part has no elementary
  antiderivative, the entire series of the exponential integral
  (_saturated_integral).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import Signal, ValidationError


def constant(c: float) -> Signal:
    return Signal(
        name=f"constant({c:g})",
        log_core=lambda v: np.full_like(v, c),
        log_mean=lambda a, b: np.full_like(a, c),
        sup_norm=abs(c),
        spread=0.0,
        holder=(1.0, 0.0),
        mellin_derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def _exp_param(x: float, what: str) -> float:
    """math.exp(x) of a builder's parameters; ValidationError naming them
    where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        raise ValidationError(f"{what} is too large: e^{x:g} overflows") \
            from None


def _saturation_slope(a: np.ndarray, clip: float) -> np.ndarray:
    """e^(clip - a) at |v| = a beyond the clip and 1 inside it: the slope of
    _saturate.  The exponent is clamped at 0, which changes no selected
    value and keeps np.where's other branch from overflowing at a clip
    above 709.78."""
    return np.where(a <= clip, 1.0, np.exp(np.minimum(clip - a, 0.0)))


def _saturate(v: np.ndarray, clip: float) -> np.ndarray:
    """v on [-clip, clip], saturating smoothly (C^1, slope <= 1) outside."""
    a = np.abs(v)
    return np.where(a <= clip, v,
                    np.sign(v) * (clip + 1.0 - _saturation_slope(a, clip)))


def _saturate_antiderivative(v: np.ndarray, clip: float) -> np.ndarray:
    """int_0^v _saturate(u, clip) du, an even function of v."""
    a = np.abs(v)
    return np.where(a <= clip, 0.5 * v * v,
                    0.5 * clip * clip + (clip + 1.0) * (a - clip)
                    + np.expm1(clip - np.maximum(a, clip)))


def _saturate_mean(a: np.ndarray, b: np.ndarray, clip: float) -> np.ndarray:
    """Mean of _saturate over each cell [a, b]."""
    h = b - a
    out = (_saturate_antiderivative(b, clip)
           - _saturate_antiderivative(a, clip)) / h
    # beyond the clip on one side the linear parts cancel exactly:
    # +-(clip + 1 - e^(clip - near) (1 - e^-h) / h), near the edge closer
    # to 0
    near = np.minimum(np.abs(a), np.abs(b))
    beyond = (near > clip) & (np.sign(a) == np.sign(b))
    tail = np.sign(a) * (clip + 1.0 + np.exp(clip - np.maximum(near, clip))
                         * np.expm1(-h) / h)
    out = np.where(beyond, tail, out)
    return np.where(np.maximum(np.abs(a), np.abs(b)) <= clip, 0.5 * (a + b),
                    out)


def clipped_log(clip: float = 6.0) -> Signal:
    """ln x on [e^-clip, e^clip], saturating smoothly to +-(clip+1) outside.

    Globally Lipschitz with constant 1 in the log variable, so the
    log-modulus of continuity is exactly min(delta, ...) = delta for small
    delta, and theta f = 1 on the interior.
    """
    if clip <= 0:
        raise ValidationError("clipped_log needs clip > 0")

    def theta(x):
        return _saturation_slope(np.abs(np.log(np.asarray(x, dtype=float))),
                                 clip)

    return Signal(
        name=f"clipped_log({clip:g})",
        log_core=lambda v: _saturate(v, clip),
        log_mean=lambda a, b: _saturate_mean(a, b, clip),
        sup_norm=clip + 1.0,
        spread=2.0 * (clip + 1.0),
        holder=(1.0, 1.0),
        mellin_derivative=theta,
    )


def _power_clipped_mean(lo, hi, a: float, clip: float) -> np.ndarray:
    """Cell means of exp(a _saturate(v, clip)) over [lo, hi], elementwise:
    the integrals over the cell's parts inside and beyond [-clip, clip],
    over hi - lo.  Inside, a part [l, l + d] adds e^(a l) expm1(a d)/(a d) d
    (the ratio 1 at a d = 0, so every mean is exactly 1 at a = 0).  Above
    the clip, with s = e^(clip - v), the integrand is c e^(-a s),
    c = e^(a(clip + 1)), and the exponential-integral series (DLMF 6.6.2)
    makes a part [n, n + d] add c (d + sum_k x^k (1 - e^(-k d))/(k k!)),
    x = -a e^(clip - n), whose log term is d exactly; the part below the
    clip is the one above for -a over [-hi, -lo].  Horner's rule sums the
    first K = 55 + ceil(2e|a|) terms: by k! >= (k/e)^k the rest add less
    than eps/4 of d."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    shape, lo, hi = lo.shape, lo.ravel(), hi.ravel()
    l = np.clip(lo, -clip, clip)
    d = np.clip(hi, -clip, clip) - l
    ad = a * d
    with np.errstate(invalid="ignore"):
        total = np.exp(a * l) * np.where(ad == 0.0, 1.0, np.expm1(ad) / ad) * d
    for sa, p, q in ((a, lo, hi), (-a, -hi, -lo)):
        near = np.maximum(p, clip)
        d = np.maximum(q, clip) - near
        part = d > 0.0
        if part.any():
            x, d = -sa * np.exp(clip - near[part]), d[part]
            series = np.zeros_like(d)
            for k in range(55 + math.ceil(2.0 * math.e * abs(a)), 0, -1):
                series -= np.expm1(-k * d) * (1 / (k * math.factorial(k)))
                series *= x
            total[part] += math.exp(sa * (clip + 1.0)) * (d + series)
    return (total / (hi - lo)).reshape(shape)


def power_clipped(a: float, clip: float = 6.0) -> Signal:
    """x^a with the exponent's log saturated outside [-clip, clip], with
    closed-form cell means (_power_clipped_mean).  A mean over [lo, hi],
    h = hi - lo, is off by at most eps ((3|a|(clip + 1) + 16) B
    + sum_+- |c| (n - clip + 16) T1 / h), B = (d_in M + sum_+- |c| (d + T))
    / h: M the larger of f at the edges (f is monotone in v), d_in the
    length inside the clip, and per part beyond it, of length d and near
    edge |v| = n, c = e^(+-a(clip + 1)), x = a e^(clip - n) and the
    absolute sums T = sum_k |x|^k (1 - e^(-k d))/(k k!), T1 = sum_k |x|^k
    (1 - e^(-k d))/k!.  The first term covers the rounded exponents a l
    and a(clip + 1) and the few products and library ulps, the second the
    k-th term's k roundings of x and of Horner's rule.  Where the series
    alternates (a > 0 above the clip, a < 0 below) T exceeds its sum, and
    the bound grows like e^(2|x|), |x| <= |a|."""

    def core(v):
        return np.exp(a * _saturate(v, clip))

    def theta(x):
        v = np.log(np.asarray(x, dtype=float))
        return a * _saturation_slope(np.abs(v), clip) * core(v)

    norm = _exp_param(abs(a) * (clip + 1.0), f"power_clipped's |a| (clip + 1) "
                      f"(a={a:g}, clip={clip:g})")
    return Signal(
        name=f"power_clipped({a:g},{clip:g})",
        log_core=core,
        log_mean=lambda lo, hi: _power_clipped_mean(lo, hi, a, clip),
        sup_norm=norm,
        spread=norm,
        mellin_derivative=theta,
    )


def sin_log_mean(a, b) -> np.ndarray:
    """Cell means (1/(b - a)) int_a^b sin v dv = (cos a - cos b)/(b - a),
    elementwise, as 2 sin((a + b)/2) sin((b - a)/2)/(b - a): a product of
    factors with small relative error, with no difference of nearby
    cosines to cancel.

    The mean is off by at most eps (|a| + |b|)/2 + 4 eps (eps = 2^-52,
    the spacing of doubles at 1).  The first term is the rounding of
    a + b, which moves the argument of the outer sine by up to
    eps (|a| + |b|)/4 and dominates far out (2.2e-12 at |v| = 1e4); the
    second covers the two sines (within one ulp each), the rounding of
    b - a, which moves sin(x)/x, x = (b - a)/2, by less than eps, and the
    product and quotient.  Nothing underflows: the factors are sines of
    finite arguments."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = b - a
    return 2.0 * np.sin(0.5 * (a + b)) * np.sin(0.5 * h) / h


def sin_log() -> Signal:
    """sin(ln x): bounded, log-Lipschitz-1, theta f = cos(ln x); log-native
    (log_core = sin) with closed-form cell means (sin_log_mean)."""
    return Signal(
        name="sin_log",
        log_core=np.sin,
        log_mean=sin_log_mean,
        sup_norm=1.0,
        spread=2.0,
        holder=(1.0, 1.0),
        mellin_derivative=lambda x: np.cos(np.log(np.asarray(x, dtype=float))),
    )


def holder_bump(nu: float, radius: float = 2.0) -> Signal:
    """f(e^v) = (1 - (|v|/R)^nu)_+: compact support [e^-R, e^R], exact
    log-modulus of continuity (delta/R)^nu for delta <= R, and cell means
    from the antiderivative G(v) = sign(v) m (1 - (m/R)^nu/(nu+1)),
    m = min(|v|, R)."""
    if not (0.0 < nu <= 1.0) or radius <= 0:
        raise ValidationError("holder_bump needs nu in (0,1] and radius > 0")

    def core(v):
        return np.maximum(0.0, 1.0 - (np.abs(v) / radius) ** nu)

    def antiderivative(v):
        m = np.minimum(np.abs(v), radius)
        return np.sign(v) * m * (1.0 - (m / radius) ** nu / (nu + 1.0))

    def theta(x):
        # tent function: theta f defined away from the kinks
        v = np.log(np.asarray(x, dtype=float))
        inside = (np.abs(v) < radius) & (v != 0.0)
        return np.where(inside, -np.sign(v) / radius, 0.0)

    return Signal(
        name=f"holder_bump({nu:g},{radius:g})",
        log_core=core,
        log_mean=lambda a, b: (antiderivative(b) - antiderivative(a)) / (b - a),
        sup_norm=1.0,
        spread=1.0,
        support=_exp_param(radius, f"holder_bump's radius={radius:g}"),
        holder=(nu, radius ** (-nu)),
        mellin_derivative=theta if nu == 1.0 else None,
    )


# ---------------------------------------------------------------------------
# the bump integral

# degree of the Chebyshev interpolant of the bump on each table panel: 20
# needs the same 12 panels as 24, and four Horner steps fewer per point
_PHI_DEGREE = 20

# max |bump_integral(x) - Phi(x)| over 18,900 random points of [-1, 1], a
# quarter of them within 0.1 of +-1, measured against 30-digit mpmath
# quadrature: 2.4e-16, about one unit in the last place of
# Phi(1) = 1.2069...; rounded up
BUMP_INTEGRAL_ERROR = 3e-16


@functools.lru_cache(maxsize=1)
def _bump_integral_table() -> tuple:
    """(inner, mid, inv_half, coefficients): the panels of [-1, 1] by their
    inner edges, midpoints and inverse half-widths, and per panel the
    power-series coefficients of Phi in t = (x - mid) inv_half, which runs
    over [-1, 1]; one row per power, highest first.

    Each panel interpolates the bump at _PHI_DEGREE + 1 Chebyshev points and
    is bisected until the two last coefficients fall to the round-off of
    the interpolant, (_PHI_DEGREE + 1) eps of the bump's maximum 1: 12
    panels, the finest toward +-1, where the bump is flat.  A panel's Phi
    is the interpolant's antiderivative plus the integral of the panels
    left of it.  Built on first use, once per process (10-20 ms); the
    arrays are shared by every caller and therefore read-only."""
    chebyshev = np.polynomial.chebyshev
    bump = cc_bump(1.0).log_core
    tol = (_PHI_DEGREE + 1) * np.finfo(float).eps
    todo, panels = [(-1.0, 1.0)], []
    while todo:
        lo, hi = todo.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        c = chebyshev.chebinterpolate(lambda t: bump(mid + half * t),
                                      _PHI_DEGREE)
        if np.max(np.abs(c[-2:])) > tol:
            todo += [(mid, hi), (lo, mid)]
        else:
            panels.append((lo, hi, chebyshev.chebint(c, lbnd=-1.0, scl=half)))
    panels.sort()
    rows, integrals = [], []  # integrals: of the panels left of this one
    for _, _, c in panels:
        power = chebyshev.cheb2poly(c)
        power[0] += math.fsum(integrals)  # Phi at the panel's left edge
        integrals.extend(c)  # the antiderivative at t = 1 is its sum
        rows.append(power[::-1])
    edges = np.array([lo for lo, _, _ in panels] + [1.0])
    arrays = (edges[1:-1], 0.5 * (edges[1:] + edges[:-1]),
              2.0 / np.diff(edges), np.array(rows).T.copy())
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def bump_integral(x) -> np.ndarray:
    """Phi(x) = int_{-1}^x exp(1 - 1/(1 - s^2)) ds, elementwise, within
    BUMP_INTEGRAL_ERROR of the exact value.  x is clipped to [-1, 1]: below
    -1, Phi is the table's value at -1 (0 to within BUMP_INTEGRAL_ERROR),
    above 1 its value at 1 (Phi(1) = 1.2069...), the same bit for bit for
    every point beyond the same end.  One Horner step per power on every
    point, with the coefficient of the point's panel."""
    inner, mid, inv_half, coefficients = _bump_integral_table()
    x = np.maximum(np.asarray(x, dtype=float), -1.0)
    np.minimum(x, 1.0, out=x)
    panel = np.searchsorted(inner, x, side="right")
    t = x - mid[panel]
    t *= inv_half[panel]
    out = coefficients[0][panel]
    for row in coefficients[1:]:
        out *= t
        out += row[panel]
    return out


def _bump_mean(a, b, centers, radii, scales) -> np.ndarray:
    """Cell means over [a, b] of sum_i h_i exp(1 - 1/(1 - ((v - c_i)/R_i)^2))
    as sum_i (G_i(b) - G_i(a))/(b - a), G_i(v) = h_i R_i Phi((v - c_i)/R_i),
    from the parts' columns of c_i, R_i and h_i R_i: one bump_integral call
    over every part and cell edge.  Adjacent cells share an edge (a[1:]
    equal to b[:-1], as in operator.mean_values), which is then evaluated
    once: half the points.

    A cell beyond a part's support on either side gets the same clipped
    Phi at both edges, so that part adds exactly 0.  Otherwise the mean is
    off by at most 4 eps max|G_i| / (b - a) + 2 BUMP_INTEGRAL_ERROR
    |h_i| R_i / (b - a) + 2^-1073 / (b - a) per part, plus eps |mean|
    + 2^-1074 (eps the double precision unit round-off).  The two powers of
    2 bound underflow: h_i R_i, its product with the rise of Phi (at most
    Phi(1) < 1.21) and the division each round to a multiple of 2^-1074
    when their result is subnormal, which only a mean near 1e-308 sees."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1 and a.size > 0 and np.all(a[1:] == b[:-1]):
        phi = bump_integral((np.concatenate((a, b[-1:])) - centers) / radii)
        rise = phi[:, 1:] - phi[:, :-1]
    else:
        n = a.size
        phi = bump_integral((np.concatenate((a.ravel(), b.ravel())) - centers)
                            / radii)
        rise = phi[:, n:] - phi[:, :n]
    rise *= scales
    return rise.sum(axis=0).reshape(a.shape) / (b - a)


def cc_bump(radius: float = 2.0, height: float = 1.0) -> Signal:
    """Mollified indicator: the C-infinity bump h exp(1 - 1/(1 - (v/R)^2)).

    Its cell means come from G(v) = h R Phi(v/R) (bump_integral):
    (G(b) - G(a))/(b - a), off by at most 4 eps max(|G(a)|, |G(b)|)/(b - a)
    + 2 BUMP_INTEGRAL_ERROR |h| R/(b - a) + eps |mean| + underflow,
    2^-1073/(b - a) + 2^-1074, and exactly 0 for a cell beyond +-R."""
    if radius <= 0:
        raise ValidationError("cc_bump needs radius > 0")
    parts = (np.zeros((1, 1)), np.full((1, 1), float(radius)),
             np.full((1, 1), height * radius))

    def core(v):
        s = (v / radius) ** 2
        out = np.zeros_like(v)
        inside = s < 1.0
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - s[inside]))
        return out

    def theta(x):
        v = np.log(np.asarray(x, dtype=float))
        s = (v / radius) ** 2
        out = np.zeros_like(v)
        inside = s < 1.0
        vi = v[inside]
        out[inside] = core(vi) * (-2.0 * vi / radius**2) / (1.0 - (vi / radius) ** 2) ** 2
        return out

    return Signal(
        name=f"cc_bump({radius:g},{height:g})",
        log_core=core,
        log_mean=lambda a, b: _bump_mean(a, b, *parts),
        sup_norm=abs(height),
        spread=abs(height),
        support=_exp_param(radius, f"cc_bump's radius={radius:g}"),
        holder=(1.0, None),
        mellin_derivative=theta,
    )


def random_bump(seed: int) -> Signal:
    """Seeded random mix of shifted mollified bumps; compactly supported.

    Its cell means sum the parts' bump_integral terms at a - c_i and
    b - c_i, within the cc_bump bound of each part but its eps |mean|
    + 2^-1074, which the sum adds once.  The seed must be >= 0."""
    if seed < 0:
        raise ValidationError(f"random_bump needs a seed >= 0 (got {seed})")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    heights = rng.uniform(-2.0, 2.0, size=n)
    centers = rng.uniform(-1.5, 1.5, size=n)
    radii = rng.uniform(0.5, 1.5, size=n)
    cores = [cc_bump(r, h).log_core for r, h in zip(radii, heights)]

    def core(v):
        out = np.zeros_like(v)
        for part, c in zip(cores, centers):
            out += part(v - c)
        return out

    parts = (centers[:, None], radii[:, None], (heights * radii)[:, None])
    r_log = float(np.max(np.abs(centers) + radii))
    return Signal(
        name=f"random_bump(seed={seed})",
        log_core=core,
        log_mean=lambda a, b: _bump_mean(a, b, *parts),
        sup_norm=float(np.sum(np.abs(heights))),
        spread=float(np.sum(np.abs(heights))),
        support=math.exp(r_log),
    )


_BUILDERS = {
    "constant": constant,
    "clipped_log": clipped_log,
    "power_clipped": power_clipped,
    "sin_log": sin_log,
    "holder_bump": holder_bump,
    "cc_bump": cc_bump,
    "random_bump": random_bump,
}


def make_signal(name: str, **params) -> Signal:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValidationError(f"unknown signal name {name!r}") from None
    return builder(**params)
