"""The profile sum every operator rests on, in numpy.

    profile_sum(profile, y, t, coeffs, beta)[i] = sum_j L(y_i - t_j) c_j

with c_j = coeffs_j (operator series) or |y_i - t_j|**beta (moments).

Built-in profile kinds (KernelProfile.kind; _kind is their one table):
    0 -- central B-spline of degree n (convolution of n+1 unit indicators,
         support [-(n+1)/2, (n+1)/2] in the log variable), evaluated piece
         by piece: n Horner steps from a cached table of its polynomial
         coefficients on each unit piece, exactly 0 outside the support
    1 -- Mellin-Fejer profile (1/(2*pi)) * (sin(v/2)/(v/2))**2

The sum runs over (phase x node) blocks of about _CHUNK pairs (the Fejer
matrix form) or _BAND_CHUNK pairs (every other sum), so that each
temporary of a block stays in cache; a phase's sum never spans two
blocks, so the block size does not change it.  A profile with a compact
support sums only the band of nodes it can reach from each phase.  The Fejer profile on
three or more phases is summed as one matrix product per block, from
    L(v) |v|^beta = (1 - cos y cos t - sin y sin t) |v|^(beta-2) / pi,
v = y - t: the block holds W = |v|^(beta-2) (1/v^2 at beta = 0, no power)
and BLAS multiplies it by the (node x 3) matrix [c, c cos t, c sin t],
with c the coeffs or 1; the three columns are combined with cos y and
sin y once per phase.  So no pair takes a sine, and windows wider than
_CHUNK are split over nodes in the same form.  Pairs with |y - t| <= 1,
where 1 - cos(y - t) would cancel, keep fejer_values.  With one or two
phases (operator point evaluations, tail sums) the profile values are
taken pair by pair.

A moment sum can take a keyword-only cut (inner, outer): only the pairs
with inner < |y - t| <= outer count.  The cut is applied inside each
block, so that the tails beyond a w-dependent half width take one call
over all phases.

On a unit lattice of nodes (t_j - t_0 integers) a B-spline series is a
spline itself: bspline_lattice_sum builds its (piece x n+1) coefficient
table once, as one product of the coefficients' windows with the piece
table, and takes n Horner steps per phase, with no (phase x node) pairs.
The operator sums every B-spline series on a uniform scheme of step 1 this
way; moments, Fejer sums and other lattices keep the banded pair sums.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

BACKEND = "python"

KIND_BSPLINE = 0
KIND_FEJER = 1

# (phase x node) pairs per block: 64k doubles are 512 KB, so the few
# temporaries of one block stay in L2 cache.  Outside the Fejer matrix
# form, a window wider than this is summed one phase at a time, over all
# its nodes at once.
_CHUNK = 65_536
# Pairs per block of every sum outside the Fejer matrix form: banded
# compact sums, compact windows too narrow to band and one or two Fejer
# phases.  Such a block makes several more temporaries per pair (the
# profile values, the cut or band mask, |v|^beta); at 128 KB each they stay
# in L2 cache, which made 18 B-spline moments about a quarter faster than
# 64k-pair blocks.
_BAND_CHUNK = 16_384

# Values per block of bspline_values: its three temporaries (192 KB) stay
# in L2 cache and are reused block after block.
_BSPLINE_BLOCK = 8192

# Fewest phases for which the Fejer matrix form (a sine and a cosine per
# phase and per node) is cheaper than one sine per pair.
_SEPARABLE_MIN_PHASES = 3

# |y - t| up to which a Fejer pair keeps fejer_values: below it
# 1 - cos y cos t - sin y sin t loses relative accuracy as |y - t| shrinks.
_DIRECT_REACH = 1.0


@functools.lru_cache(maxsize=32)
def _bspline_pieces(n):
    """Coefficients of the central B-spline of degree ``n`` piece by piece:
    entry [d, m + 1] is the coefficient of u^d on [m, m + 1) in
    s = v + (n+1)/2, u = s - m, for m = 0..n, each the float nearest the
    exact rational

        C(n, d)/n! * sum_{i <= m} (-1)^i C(n+1, i) (m - i)^(n-d).

    Columns 0 and n + 2 are zero, for the nodes outside the support."""
    table = np.zeros((n + 1, n + 3))
    for m, d in itertools.product(range(n + 1), range(n + 1)):
        exact = sum(Fraction((-1) ** i * math.comb(n + 1, i)
                             * (m - i) ** (n - d)) for i in range(m + 1))
        table[d, m + 1] = float(exact * math.comb(n, d) / math.factorial(n))
    table.setflags(write=False)
    return table


def bspline_values(v, n):
    """Central B-spline of degree ``n`` evaluated at log-variable ``v``.

    Piece by piece: with s = v + (n+1)/2 the value on [m, m + 1) is a
    polynomial in u = s - m, taken by n Horner steps from the coefficients
    of _bspline_pieces; outside the support every coefficient is 0, so the
    value is exactly 0 there.  The values are formed _BSPLINE_BLOCK at a
    time in three reused temporaries."""
    table = _bspline_pieces(n)
    v = np.asarray(v, dtype=float)
    out = np.empty(v.shape)
    v, flat = v.reshape(-1), out.reshape(-1)
    step = max(1, min(v.size, _BSPLINE_BLOCK))
    shifted, terms = np.empty(step), np.empty(step)
    columns = np.empty(step, dtype=np.intp)
    for lo in range(0, v.size, step):
        hi = min(lo + step, v.size)
        u, column, term = shifted[:hi - lo], columns[:hi - lo], terms[:hi - lo]
        acc = flat[lo:hi]
        # s + 1, so that piece m sits at [m + 1, m + 2) and truncation
        # toward 0 gives its column
        np.add(v[lo:hi], 0.5 * (n + 3), out=u)
        np.clip(u, 0.0, n + 2.0, out=u)
        column[...] = u
        u -= column
        table[n].take(column, out=acc)
        for d in range(n - 1, -1, -1):
            acc *= u
            acc += table[d].take(column, out=term)
    # the last piece's alternating coefficients may round below 0 near its end
    np.maximum(out, 0.0, out=out)
    return out


def bspline_lattice_sum(y, t, coeffs, n):
    """sum_j B_n(y_i - t_j) * coeffs_j for ascending nodes t on a unit
    lattice (t_j - t_0 an integer k_j): the series of a B-spline of degree
    ``n``, equal to weighted_series_sum(y, t, coeffs, KIND_BSPLINE, n).

    With the coefficients laid out at their integers k (gaps filled with
    zeros), the series on [J, J + 1) in z = y - t_0 + (n+1)/2 is the
    polynomial sum_d C[J, d] u^d in u = z - J, where

        C[J, d] = sum_m c_{J-m} * _bspline_pieces(n)[d, m + 1]:

    one product of the (piece x n+1) windows of the coefficients with the
    piece table builds C, and each phase takes n Horner steps on its row.
    A gap of more than n zero nodes shrinks to n zeros, since no piece
    reaches across it.  Rows J = -1 and J = k_last + n + 1 are zero, and a
    phase below or above the nodes' reach, or in a gap, reads one of them."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    t = np.asarray(t, dtype=float)
    if t.size == 0 or y.size == 0:
        return np.zeros(y.shape)
    span = round(float(t[-1] - t[0]))
    gapped = span != t.size - 1
    if gapped:
        k = np.rint(t - t[0]).astype(np.intp)
        gaps = np.subtract(k[1:], k[:-1])
        np.minimum(gaps, n + 1, out=gaps)
        pos = np.zeros(t.size, dtype=np.intp)
        np.add.accumulate(gaps, out=pos[1:])
        dense = np.zeros(pos[-1] + 1)
        dense[pos] = coeffs
    else:
        dense = coeffs
    # row i of the windows holds c_{J-n}..c_J for J = i - 1
    padded = np.zeros(len(dense) + 2 * n + 2)
    padded[n + 1:n + 1 + len(dense)] = dense
    windows = padded[np.add.outer(np.arange(len(dense) + n + 2),
                                  np.arange(n + 1))]
    table = _bspline_pieces(n)[:, n + 1:0:-1] @ windows.T
    z = y - t[0]
    z += 0.5 * (n + 1)
    np.maximum(z, -1.0, out=z)
    np.minimum(z, span + n + 1.0, out=z)
    piece = np.floor(z)
    u = z - piece
    row = piece.astype(np.intp)
    if gapped:
        last = np.searchsorted(k, row, "right") - 1  # last node at or below
        reach = row - k[last]
        row = pos[last] + reach
        row[(last < 0) | (reach > n)] = -1
    row += 1
    acc = table[n].take(row)
    for d in range(n - 1, -1, -1):
        acc *= u
        acc += table[d].take(row)
    return acc


def fejer_values(v):
    """Mellin-Fejer profile at log-variable ``v``; value 1/(2*pi) at v=0."""
    v = np.asarray(v, dtype=float)
    half = 0.5 * v
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(half != 0.0, np.sin(half) / np.where(half != 0.0, half, 1.0), 1.0)
    return s * s / (2.0 * math.pi)


def _kind(kind, n):
    """(name, values, support radius) of a built-in profile kind: the
    B-spline of degree n or the Fejer profile (n unused); both have unit
    L1 norm along the log axis."""
    if kind == KIND_BSPLINE:
        return f"bspline({n})", (lambda v: bspline_values(v, n)), 0.5 * (n + 1)
    if kind == KIND_FEJER:
        return "mellin_fejer", fejer_values, None
    raise ValueError(f"unknown profile kind {kind!r}")


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


def _keep(v, cut):
    """Mask of the pairs with cut[0] < |v| <= cut[1]."""
    a = np.abs(v)
    return (a > cut[0]) & (a <= cut[1])


def _fejer_sum(y, t, coeffs, beta, cut):
    """Fejer sums on three or more phases, from
        L(v) |v|^beta = (1 - cos y cos t - sin y sin t) |v|^(beta-2) / pi:
    per block W = |v|^(beta-2) times the (node x 3) matrix
    [c, c cos t, c sin t], with c the coeffs or 1, combined with cos y and
    sin y at the end.  The pairs with |v| <= _DIRECT_REACH, where
    1 - cos v would cancel, are zero in W and summed from fejer_values."""
    c = np.ones(t.size) if coeffs is None else coeffs
    basis = np.stack([c, c * np.cos(t), c * np.sin(t)], axis=1)
    first, count = _reach(t, y, _DIRECT_REACH)
    starts = np.concatenate([[0], np.cumsum(count)])
    rows = np.repeat(np.arange(y.size), count)
    cols = np.arange(rows.size) - np.repeat(starts[:-1] - first, count)
    acc = np.zeros((y.size, 3))
    width = min(t.size, _CHUNK)
    step = _CHUNK // width
    for a, lo in itertools.product(range(0, t.size, width),
                                   range(0, y.size, step)):
        b, hi = min(a + width, t.size), min(lo + step, y.size)
        w = y[lo:hi, None] - t[a:b]  # v, turned into W in place
        keep = None if cut is None else _keep(w, cut)
        if beta == 0.0:
            np.multiply(w, w, out=w)
            # a |v| below 1e-154 squares to a subnormal or 0 whose
            # reciprocal overflows: those pairs are zeroed just below
            with np.errstate(divide="ignore", over="ignore"):
                np.divide(1.0, w, out=w)
        else:
            np.abs(w, out=w)
            # a |v| near 0 may overflow: those pairs are zeroed just below
            with np.errstate(divide="ignore", over="ignore"):
                np.power(w, beta - 2.0, out=w)
        near = slice(starts[lo], starts[hi])
        r, k = rows[near] - lo, cols[near] - a
        inside = (k >= 0) & (k < b - a)
        w[r[inside], k[inside]] = 0.0  # v = 0 is among them
        if keep is not None:
            w *= keep
        acc[lo:hi] += w @ basis[a:b]
    out = (acc[:, 0] - np.cos(y) * acc[:, 1] - np.sin(y) * acc[:, 2]) / math.pi
    v = y[rows] - t[cols]
    vals = fejer_values(v)
    if coeffs is not None:
        vals *= coeffs[cols]
    elif beta != 0.0:
        vals *= np.abs(v) ** beta
    if cut is not None:
        vals *= _keep(v, cut)
    return out + np.bincount(rows, vals, minlength=y.size)


def _sum(values, radius, y, t, coeffs, beta, cut=None):
    """sum_j values(y_i - t_j) * (coeffs_j or |y_i - t_j|**beta) for
    ascending nodes t, one (phase x node) block at a time, over the pairs
    with cut[0] < |y_i - t_j| <= cut[1] when a cut is given."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    t = np.asarray(t, dtype=float)
    if coeffs is not None:
        coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros(y.shape)
    if t.size == 0 or y.size == 0:
        return out
    band = _band(radius, y, t)
    if band is None:
        if values is fejer_values and y.size >= _SEPARABLE_MIN_PHASES:
            return _fejer_sum(y, t, coeffs, beta, cut)
        width = t.size
    else:
        first, count = band
        width = int(count.max())
        if width == 0:
            return out
        offsets = np.arange(width)
    step = max(1, _BAND_CHUNK // width)
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
        vals = values(v)
        if cut is not None:
            kept = _keep(v, cut)
            outside = ~kept if band is None else outside | ~kept
        if band is not None or cut is not None:
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


def phase_weighted_sum(y, t, beta, kind, n, *, cut=None):
    """For each phase ``y_i`` return ``sum_j L(y_i - t_j) |y_i - t_j|**beta``.

    ``t`` is the ascending window of node positions retained for the sum;
    ``beta = 0`` reduces to the plain partition sum.  With ``cut`` =
    (inner, outer) only nodes with inner < |y_i - t_j| <= outer count.
    """
    _, values, radius = _kind(kind, n)
    return _sum(values, radius, y, t, None, beta, cut)


def weighted_series_sum(y, t, coeffs, kind, n):
    """For each phase ``y_i`` return ``sum_j L(y_i - t_j) * coeffs_j``
    over the ascending node window ``t``."""
    _, values, radius = _kind(kind, n)
    return _sum(values, radius, y, t, coeffs, 0.0)


def profile_sum(profile, y, t, coeffs=None, beta=0.0, *, cut=None):
    """sum_j L(y_i - t_j) * c_j for each phase y_i over the ascending node
    window t, with c_j = coeffs_j when coeffs is given and
    |y_i - t_j|**beta otherwise; a moment sum (no coeffs) with
    cut = (inner, outer) counts only the nodes with
    inner < |y_i - t_j| <= outer.

    The profile's kind and order go to weighted_series_sum (coeffs) or
    phase_weighted_sum (moments)."""
    if coeffs is not None and (beta != 0.0 or cut is not None):
        raise ValueError("profile_sum takes coeffs or beta and cut, not both")
    if coeffs is not None:
        return weighted_series_sum(y, t, coeffs, profile.kind, profile.order)
    # wrappers of the kind functions may take positional arguments only, so
    # the cut is passed on only when there is one
    kw = {} if cut is None else {"cut": cut}
    return phase_weighted_sum(y, t, beta, profile.kind, profile.order, **kw)
