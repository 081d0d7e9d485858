"""Log-modulus of continuity: grid-based sup estimation over pairs with
|ln x - ln y| <= delta.

Estimates are lower bounds of the true sup (the acceptance signals have
analytically known moduli, so the bias is measurable); refining the search
grid never decreases the value.
"""

from __future__ import annotations

import numpy as np

from .core import Signal, ValidationError

# the log radius searched and integrated over for a signal that declares
# no support: the window [-8, 8] of the log variable
UNBOUNDED_LOG_RADIUS = 8.0

# the log_modulus sweep: anchors over the window, offsets in [-delta, delta]
_ANCHORS = 513
_OFFSETS = 65


def log_modulus(f: Signal, delta: float) -> float:
    """Lower-bound estimate of sup |f(x) - f(y)| over |ln x - ln y| <= delta.

    Anchor points on a log grid over the support widened by delta (the
    window [-8, 8] when f declares no support), offset sweep in
    [-delta, delta], then one local refinement pass around the best pair.
    Each pass is one signal evaluation over an (offset x anchor) array;
    the best pair is the first anchor of the first offset row whose
    largest difference is the largest.
    """
    if delta <= 0:
        raise ValidationError("log_modulus needs delta > 0")
    r = (f.log_support_radius + delta if f.log_support_radius is not None
         else UNBOUNDED_LOG_RADIUS)
    v = np.linspace(-r, r, _ANCHORS)
    h = np.linspace(-delta, delta, _OFFSETS)
    diff = np.abs(f.log_evaluate(v[None, :] + h[:, None]) - f.log_evaluate(v))
    rows = diff.max(axis=1)
    bj = int(np.argmax(rows))
    bi = int(np.argmax(diff[bj]))
    # local refinement around the best (anchor, offset) pair
    dv = 2.0 * r / (_ANCHORS - 1)
    v2 = np.linspace(v[bi] - dv, v[bi] + dv, 41)
    dh = 2.0 * delta / (_OFFSETS - 1)
    h2 = np.clip(np.linspace(h[bj] - dh, h[bj] + dh, 21), -delta, delta)
    diff2 = np.abs(f.log_evaluate(v2[None, :] + h2[:, None])
                   - f.log_evaluate(v2))
    return max(float(rows[bj]), float(diff2.max()))
