"""The profile sum every operator rests on, in numpy.

    profile_sum(profile, y, t, coeffs, beta)[i] = sum_j L(y_i - t_j) c_j

with c_j = coeffs_j (operator series) or |y_i - t_j|**beta (moments).

Built-in profile kinds (KernelProfile.fast_kind):
    0 -- central B-spline of degree n (convolution of n+1 unit indicators,
         support [-(n+1)/2, (n+1)/2] in the log variable)
    1 -- Mellin-Fejer profile (1/(2*pi)) * (sin(v/2)/(v/2))**2
"""

import math

import numpy as np

BACKEND = "python"

KIND_BSPLINE = 0
KIND_FEJER = 1

# Keep broadcasted (phase x node) blocks below ~8M doubles.
_CHUNK = 8_000_000


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
    first = np.searchsorted(t, y - reach, "left")
    count = np.searchsorted(t, y + reach, "right") - first
    return first, count


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
    if band is None:
        width = t.size
    else:
        first, count = band
        width = int(count.max())
        if width == 0:
            return out
        offsets = np.arange(width)
    step = max(1, _CHUNK // width)
    for lo in range(0, y.size, step):
        yb = y[lo:lo + step, None]
        if band is None:
            v = yb - t[None, :]
        else:
            idx = first[lo:lo + step, None] + offsets[None, :]
            outside = offsets[None, :] >= count[lo:lo + step, None]
            np.minimum(idx, t.size - 1, out=idx)
            v = yb - t[idx]
        vals = values(v)
        if band is not None:
            vals = np.where(outside, 0.0, vals)
        if coeffs is None:
            if beta != 0.0:
                vals = vals * np.abs(v) ** beta
            out[lo:lo + step] = vals.sum(axis=1)
        elif band is None:
            out[lo:lo + step] = vals @ coeffs
        else:
            out[lo:lo + step] = np.einsum("ij,ij->i", vals, coeffs[idx])
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
