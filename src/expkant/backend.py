"""The profile sum every operator rests on, in numpy.

    profile_sum(profile, y, t, coeffs, beta)[i] = sum_j L(y_i - t_j) c_j

with c_j = coeffs_j (operator series) or |y_i - t_j|**beta (moments).

Built-in profile kinds (KernelProfile.fast_kind):
    0 -- central B-spline of degree n (convolution of n+1 unit indicators,
         support [-(n+1)/2, (n+1)/2] in the log variable)
    1 -- Mellin-Fejer profile (1/(2*pi)) * (sin(v/2)/(v/2))**2

The sum runs over (phase x node) blocks of about _CHUNK pairs, so that each
temporary of a block stays in cache.  A profile with a compact support sums
only the band of nodes it can reach from each phase.  The Fejer profile on
three or more phases takes its sines in separable form,
    sin((y - t)/2) = sin(y/2) cos(t/2) - cos(y/2) sin(t/2),
from one sine and one cosine per phase and per node, instead of one sine
per pair; pairs with |y - t| <= 1, where the difference would cancel, keep
the direct sine.  With one or two phases (operator point evaluations,
tail sums) one sine per pair is the cheaper form and is kept throughout.
"""

import math

import numpy as np

BACKEND = "python"

KIND_BSPLINE = 0
KIND_FEJER = 1

# (phase x node) pairs per block: 64k doubles are 512 KB, so the few
# temporaries of one block stay in L2 cache.  A window wider than this is
# summed one phase at a time, over all its nodes at once.
_CHUNK = 65_536

# Fewest phases for which the separable Fejer sines (two per phase and two
# per node) are cheaper than one sine per pair.
_SEPARABLE_MIN_PHASES = 3

# |y - t| up to which a Fejer pair keeps the direct sine: below it the
# separable difference loses relative accuracy as |y - t| shrinks.
_DIRECT_REACH = 1.0


def bspline_values(v, n):
    """Central B-spline of degree ``n`` evaluated at log-variable ``v``.

    Truncated-power representation
        B(v) = (1/n!) * sum_i (-1)^i C(n+1, i) ((n+1)/2 + v - i)_+^n.
    """
    v = np.asarray(v, dtype=float)
    half = 0.5 * (n + 1)
    # evaluate only inside the support: outside it the alternating sum
    # cancels exactly in theory but leaves round-off residue in floats
    inside = np.abs(v) < half
    vi = v[inside]
    acc = np.zeros_like(vi)
    for i in range(n + 2):
        t = half + vi - i
        np.maximum(t, 0.0, out=t)
        acc += ((-1) ** i) * math.comb(n + 1, i) * t**n
    acc /= math.factorial(n)
    # clip tiny negative round-off near the support boundary
    np.maximum(acc, 0.0, out=acc)
    out = np.zeros_like(v)
    out[inside] = acc
    return out


def fejer_values(v):
    """Mellin-Fejer profile at log-variable ``v``; value 1/(2*pi) at v=0."""
    v = np.asarray(v, dtype=float)
    half = 0.5 * v
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(half != 0.0, np.sin(half) / np.where(half != 0.0, half, 1.0), 1.0)
    return s * s / (2.0 * math.pi)


def _kind(kind, n):
    """(values, support radius) of a built-in profile kind."""
    if kind == KIND_BSPLINE:
        return (lambda v: bspline_values(v, n)), 0.5 * (n + 1)
    if kind == KIND_FEJER:
        return fejer_values, None
    raise ValueError(f"unknown profile kind {kind}")


def _reach(t, y, reach):
    """First node index and node count of the closed band
    [y_i - reach, y_i + reach] per phase, for ascending nodes t."""
    first = np.searchsorted(t, y - reach, "left")
    return first, np.searchsorted(t, y + reach, "right") - first


def _band(radius, y, t):
    """First node index and node count of the closed band [y_i - R', y_i + R']
    per phase, or None when the whole window should be summed.

    Banding pays only when the window holds clearly more nodes than one
    band.  R' sits a hair above R so that rounding in y - R' never drops a
    node the profile weighs; any extra node meets the profile's own zeros.
    """
    if radius is None or t.size < 2:
        return None
    spacing = (float(t[-1]) - float(t[0])) / (t.size - 1)
    if not spacing > 0.0 or t.size <= 2.0 * (2.0 * radius / spacing + 2.0):
        return None
    reach = radius + 1e-12 * (radius + max(abs(float(t[0])), abs(float(t[-1]))))
    return _reach(t, y, reach)


def _fejer_separable(y, t):
    """Fejer values of (phase x node) blocks from separable sines.

    Returns block(lo, hi, v): the values at v = y[lo:hi, None] - t, taking
    sin(v/2) = sin(y/2) cos(t/2) - cos(y/2) sin(t/2) from sines and cosines
    computed once here, except for the pairs with |v| <= _DIRECT_REACH,
    which keep fejer_values(v) as it is.
    """
    sy, cy = np.sin(0.5 * y), np.cos(0.5 * y)
    st, ct = np.sin(0.5 * t), np.cos(0.5 * t)
    first, count = _reach(t, y, _DIRECT_REACH)

    def block(lo, hi, v):
        s = sy[lo:hi, None] * ct
        tmp = cy[lo:hi, None] * st
        s -= tmp
        np.multiply(v, 0.5, out=tmp)
        with np.errstate(invalid="ignore", divide="ignore"):
            s /= tmp  # v = 0 lies among the direct pairs below
        s *= s
        s /= 2.0 * math.pi
        c = count[lo:hi]
        rows = np.repeat(np.arange(hi - lo), c)
        cols = np.arange(rows.size) - np.repeat(np.cumsum(c) - c - first[lo:hi], c)
        s[rows, cols] = fejer_values(v[rows, cols])
        return s

    return block


def _sum(values, radius, y, t, coeffs, beta):
    """sum_j values(y_i - t_j) * (coeffs_j or |y_i - t_j|**beta) for
    ascending nodes t, one (phase x node) block at a time."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    t = np.asarray(t, dtype=float)
    if coeffs is not None:
        coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros(y.shape)
    if t.size == 0 or y.size == 0:
        return out
    band = _band(radius, y, t)
    block = None
    if band is None:
        width = t.size
        if values is fejer_values and y.size >= _SEPARABLE_MIN_PHASES:
            block = _fejer_separable(y, t)
    else:
        first, count = band
        width = int(count.max())
        if width == 0:
            return out
        offsets = np.arange(width)
    step = max(1, _CHUNK // width)
    for lo in range(0, y.size, step):
        hi = min(lo + step, y.size)
        yb = y[lo:hi, None]
        if band is None:
            v = yb - t[None, :]
        else:
            idx = first[lo:hi, None] + offsets[None, :]
            outside = offsets[None, :] >= count[lo:hi, None]
            np.minimum(idx, t.size - 1, out=idx)
            v = yb - t[idx]
        vals = values(v) if block is None else block(lo, hi, v)
        if band is not None:
            vals = np.where(outside, 0.0, vals)
        if coeffs is None:
            if beta != 0.0:
                vals = vals * np.abs(v) ** beta
            out[lo:hi] = vals.sum(axis=1)
        elif band is None:
            out[lo:hi] = vals @ coeffs
        else:
            out[lo:hi] = np.einsum("ij,ij->i", vals, coeffs[idx])
    return out


def phase_weighted_sum(y, t, beta, kind, n):
    """For each phase ``y_i`` return ``sum_j L(y_i - t_j) |y_i - t_j|**beta``.

    ``t`` is the ascending window of node positions retained for the sum;
    ``beta = 0`` reduces to the plain partition sum.
    """
    values, radius = _kind(kind, n)
    return _sum(values, radius, y, t, None, beta)


def weighted_series_sum(y, t, coeffs, kind, n):
    """For each phase ``y_i`` return ``sum_j L(y_i - t_j) * coeffs_j``
    over the ascending node window ``t``."""
    values, radius = _kind(kind, n)
    return _sum(values, radius, y, t, coeffs, 0.0)


def profile_sum(profile, y, t, coeffs=None, beta=0.0):
    """sum_j L(y_i - t_j) * c_j for each phase y_i over the ascending node
    window t, with c_j = coeffs_j when coeffs is given and
    |y_i - t_j|**beta otherwise.

    Built-in profiles go through weighted_series_sum / phase_weighted_sum;
    any other profile is evaluated through its log_values and banded by
    its support_radius when it has one."""
    if coeffs is not None and beta != 0.0:
        raise ValueError("profile_sum takes coeffs or beta, not both")
    if profile.fast_kind is not None:
        if coeffs is None:
            return phase_weighted_sum(y, t, beta, profile.fast_kind,
                                      profile.fast_order)
        return weighted_series_sum(y, t, coeffs, profile.fast_kind,
                                   profile.fast_order)
    return _sum(profile.log_values, profile.support_radius, y, t, coeffs, beta)
