"""Log-log least-squares rate fitting shared by the audit and experiment
modules.  Every O(w^-a) claim in the theorems is operationalized here."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

EXACT_FLOOR = 1e-12


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    points_used: int

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "r_squared": self.r_squared, "points_used": self.points_used}


def fit_loglog(w: Sequence[float],
               values: Sequence[float]) -> Optional[RateFit]:
    """Least squares on (ln w, ln value) over the largest two thirds of the
    w's, discarding pre-asymptotic points and exact-zero values.

    Returns None when fewer than 3 usable points remain (the "exact" case).
    """
    w = np.asarray(w, dtype=float)
    values = np.asarray(values, dtype=float)
    order = np.argsort(w)
    w, values = w[order], values[order]
    keep = values > EXACT_FLOOR
    w, values = w[keep], values[keep]
    if w.size < 3:
        return None
    n_tail = max(3, int(np.ceil(2.0 / 3.0 * w.size)))
    w, values = w[-n_tail:], values[-n_tail:]
    if w.size < 3:
        return None
    lx, ly = np.log(w), np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(float(slope), float(intercept), r2, int(w.size))
