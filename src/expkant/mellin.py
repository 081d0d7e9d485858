"""Mellin derivative (x f'(x)) and the asymptotic pointwise-rate
experiment that compares w^r times the operator error against the bound
built from the derivative and the measured kernel moments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import moments, operator
from .core import (EvaluationError, NonlinearKernel, PreconditionError,
                   SamplingScheme, Signal, ValidationError)


def mellin_derivative(f: Signal, x: float) -> float:
    """theta f(x) = x f'(x): the declared derivative when present, else a
    Richardson-extrapolated central difference in the log variable.

    Raises EvaluationError when the estimates at steps 1e-5 and 5e-6
    disagree by more than 1e-4 (the non-differentiable flag).
    """
    if x <= 0:
        raise ValidationError("mellin_derivative needs x > 0")
    if f.mellin_derivative is not None:
        return float(f.mellin_derivative(np.array([x]))[0])

    v = math.log(x)

    def central(step):
        up, down = f.log_evaluate(np.array([v + step, v - step]))
        return float(up - down) / (2.0 * step)

    d1, d2 = central(1e-5), central(5e-6)
    if abs(d1 - d2) > 1e-4:
        raise EvaluationError(
            f"finite differences disagree at x={x:g}: signal looks "
            "non-differentiable there")
    return (4.0 * d2 - d1) / 3.0


@dataclass(frozen=True)
class VoronovskajaReport:
    x: float
    r: float
    w_values: tuple
    lhs_values: tuple        # w^r |K_w f(x) - f(x)|
    rhs_bound: float
    passed: bool
    theta: float

    def to_dict(self) -> dict:
        return {"x": self.x, "r": self.r, "w_values": list(self.w_values),
                "lhs_values": list(self.lhs_values),
                "rhs_bound": self.rhs_bound, "passed": self.passed,
                "theta": self.theta}


def _audit_preconditions(kernel: NonlinearKernel, scheme: SamplingScheme,
                         r: float, w_list: Sequence[float]) -> None:
    slope_q = kernel.slope.growth_exponent
    if slope_q is not None and slope_q < r - 1e-12:
        raise PreconditionError(
            f"slope grows like u^{slope_q:g} but the experiment needs u^{r:g}")
    rep = moments.check_chi4_star(kernel, scheme, w_list)
    exact = all(v < moments.EXACT_SUP for v in rep.sup_values)
    if not exact:
        alpha = kernel.response.deviation_rate
        if alpha is None or alpha <= r:
            raise PreconditionError(
                "(chi4*) rate alpha must exceed r for the asymptotic bound")
        if not rep.passed:
            raise PreconditionError("(chi4*) audit failed: "
                                    f"fitted rate {rep.fitted_rate}")
    if not math.isfinite(moments.moment_value(kernel.profile, scheme, r)):
        raise PreconditionError(f"moment of order {r:g} diverges")
    l3 = moments.check_L3(kernel.profile, scheme, r, 1.0,
                          sorted(w_list)[-4:])
    if l3.extra.get("diverged"):
        raise PreconditionError("(L3) weighted tails diverge at this order")


# the Voronovskaja verdict's relative margin: a fixed slack, not an error bound
VORONOVSKAJA_SLACK = 0.05


def voronovskaja_experiment(f: Signal, x: float, r: float,
                            kernel: NonlinearKernel, scheme: SamplingScheme,
                            w_list: Sequence[float]) -> VoronovskajaReport:
    """Computes w^r |K_w f(x) - f(x)| along w_list and the moment bound
    (Delta^r |theta f(x)|^r / 2^r) M_0 + |theta f(x)|^r M_r.

    The limsup is operationalized as the max over the final third of the
    w's, and passes within VORONOVSKAJA_SLACK of the bound; all hypotheses
    are audited first and failures name the condition.
    """
    if not (0.0 < r <= 1.0):
        raise ValidationError("voronovskaja_experiment needs r in (0, 1]")
    w_arr = np.asarray(sorted(w_list), dtype=float)
    if w_arr.size < 4:
        raise ValidationError("need at least 4 w values")
    _audit_preconditions(kernel, scheme, r, w_arr)
    theta = mellin_derivative(f, x)
    fx = float(f.evaluate(np.array([x]))[0])
    lhs = []
    for w in w_arr:
        val, _ = operator.eval_kantorovich(f, float(w), x, kernel, scheme)
        lhs.append(float(w) ** r * abs(val - fx))
    m0 = moments.moment_value(kernel.profile, scheme, 0.0)
    mr = moments.moment_value(kernel.profile, scheme, r)
    delta_hi = scheme.upper_gap
    rhs = (delta_hi**r * abs(theta) ** r / 2.0**r) * m0 + abs(theta) ** r * mr
    tail = lhs[-max(2, w_arr.size // 3):]
    passed = bool(max(tail) <= rhs * (1.0 + VORONOVSKAJA_SLACK) + 1e-12)
    return VoronovskajaReport(x, r, tuple(w_arr), tuple(lhs), rhs, passed,
                              theta)
