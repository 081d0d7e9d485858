"""Built-in test signals with analytic regularity metadata.

All are defined through their log-variable core g(v) = f(e^v); the
metadata (sup norm, support, log-Holder order, Mellin derivative) is exact,
so experiments can compare measured quantities against ground truth.

Every built-in except sin_log is log-native: it declares its core as
Signal.log_core, so log_evaluate(v) evaluates g(v) directly, with no round
trip through exp and log, and evaluate(x) is g(ln x).  Three declare their
Steklov cell means in closed form (Signal.log_mean), which
operator.mean_values takes instead of quadrature:

* constant(c): exactly c;
* clipped_log: exactly (a + b)/2 inside the clip, the antiderivative
  difference across and beyond it;
* holder_bump (any nu, the tent included): (G(b) - G(a))/(b - a) with
  G(v) = sign(v) (m - m^(nu+1)/((nu+1) R^nu)), m = min(|v|, R).

The bumps cc_bump and random_bump have no elementary antiderivative, and
power_clipped's saturated part has none either, so their means stay on
Gauss quadrature.  sin_log stays in the x domain: at the 2M-term cap of a
Fejer series its samples reach v < -745, where exp underflows to 0 and
sin(ln 0) is NaN, so the series raises.  Made log-native it would sum
2M-term series that the cap exists to stop (a known defect, kept until a
capped Fejer series is cheap).
"""

from __future__ import annotations

import math

import numpy as np

from .core import Signal, ValidationError


def constant(c: float) -> Signal:
    return Signal(
        name=f"constant({c:g})",
        log_core=lambda v: np.full_like(v, c),
        log_mean=lambda a, b: np.full_like(a, c),
        sup_norm=abs(c),
        holder=(1.0, 0.0),
        mellin_derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def _saturate(v: np.ndarray, clip: float) -> np.ndarray:
    """v on [-clip, clip], saturating smoothly (C^1, slope <= 1) outside."""
    a = np.abs(v)
    out = np.where(a <= clip, v, np.sign(v) * (clip + 1.0 - np.exp(clip - a)))
    return out


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
        v = np.log(np.asarray(x, dtype=float))
        a = np.abs(v)
        return np.where(a <= clip, 1.0, np.exp(clip - a))

    return Signal(
        name=f"clipped_log({clip:g})",
        log_core=lambda v: _saturate(v, clip),
        log_mean=lambda a, b: _saturate_mean(a, b, clip),
        sup_norm=clip + 1.0,
        holder=(1.0, 1.0),
        mellin_derivative=theta,
        log_growth=(0.0, 1.0),
    )


def power_clipped(a: float, clip: float = 6.0) -> Signal:
    """x^a with the exponent's log saturated outside [-clip, clip]."""

    def core(v):
        return np.exp(a * _saturate(v, clip))

    def theta(x):
        v = np.log(np.asarray(x, dtype=float))
        slope = np.where(np.abs(v) <= clip, 1.0, np.exp(clip - np.abs(v)))
        return a * slope * core(v)

    return Signal(
        name=f"power_clipped({a:g},{clip:g})",
        log_core=core,
        sup_norm=math.exp(abs(a) * (clip + 1.0)),
        mellin_derivative=theta,
    )


def sin_log() -> Signal:
    """sin(ln x): bounded, log-Lipschitz-1, theta f = cos(ln x).  Given in
    the x domain (see the module docstring)."""
    return Signal(
        name="sin_log",
        evaluate=lambda x: np.sin(np.log(np.asarray(x, dtype=float))),
        sup_norm=1.0,
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
        support=math.exp(radius),
        holder=(nu, radius ** (-nu)),
        mellin_derivative=theta if nu == 1.0 else None,
    )


def cc_bump(radius: float = 2.0, height: float = 1.0) -> Signal:
    """Mollified indicator: the C-infinity bump exp(1 - 1/(1 - (v/R)^2))."""
    if radius <= 0:
        raise ValidationError("cc_bump needs radius > 0")

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
        sup_norm=abs(height),
        support=math.exp(radius),
        holder=(1.0, None),
        mellin_derivative=theta,
    )


def random_bump(seed: int) -> Signal:
    """Seeded random mix of shifted mollified bumps; compactly supported."""
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

    r_log = float(np.max(np.abs(centers) + radii))
    return Signal(
        name=f"random_bump(seed={seed})",
        log_core=core,
        sup_norm=float(np.sum(np.abs(heights))),
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
