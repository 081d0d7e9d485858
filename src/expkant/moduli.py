"""Log-modulus of continuity: grid-based sup estimation over pairs with
|ln x - ln y| <= delta, plus the log-Holder order fit.

Estimates are lower bounds of the true sup (the acceptance signals have
analytically known moduli, so the bias is measurable); refining the search
grid never decreases the value.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import Signal, ValidationError
from .ratefit import fit_loglog

ZERO_MODULUS = 1e-14


def _search_window(f: Signal, delta: float) -> tuple:
    if f.log_support_radius is not None:
        r = f.log_support_radius + delta
        return (-r, r)
    return (-8.0, 8.0)


def log_modulus(f: Signal, delta: float, window: Optional[tuple] = None,
                anchors: int = 513, offsets: int = 65) -> float:
    """Lower-bound estimate of sup |f(x) - f(y)| over |ln x - ln y| <= delta.

    Anchor points on a log grid, offset sweep in [-delta, delta], then one
    local refinement pass around the best pair.  Each pass is one signal
    evaluation over an (offset x anchor) array; the best pair is the first
    anchor of the first offset row whose largest difference is the
    largest.
    """
    if delta <= 0:
        raise ValidationError("log_modulus needs delta > 0")
    if window is None:
        window = _search_window(f, delta)
    if window[1] <= window[0]:
        raise ValidationError("empty search window")
    v = np.linspace(window[0], window[1], anchors)
    h = np.linspace(-delta, delta, offsets)
    diff = np.abs(f.log_evaluate(v[None, :] + h[:, None]) - f.log_evaluate(v))
    rows = diff.max(axis=1)
    bj = int(np.argmax(rows))
    bi = int(np.argmax(diff[bj]))
    # local refinement around the best (anchor, offset) pair
    dv = (window[1] - window[0]) / (anchors - 1)
    v2 = np.linspace(v[bi] - dv, v[bi] + dv, 41)
    dh = 2.0 * delta / (offsets - 1)
    h2 = np.clip(np.linspace(h[bj] - dh, h[bj] + dh, 21), -delta, delta)
    diff2 = np.abs(f.log_evaluate(v2[None, :] + h2[:, None])
                   - f.log_evaluate(v2))
    return max(float(rows[bj]), float(diff2.max()))


def holder_fit(curve) -> Optional[float]:
    """Log-Holder order: log-log slope of a curve of moduli at deltas
    (deltas, values, is_zero; modular.SmoothnessCurve), clipped to (0, 1].
    None marks the zero-modulus case."""
    if curve.is_zero:
        return None
    fit = fit_loglog(1.0 / np.asarray(curve.deltas), np.asarray(curve.values))
    if fit is None:
        return None
    return float(min(1.0, max(1e-12, -fit.slope)))
