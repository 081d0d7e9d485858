"""Mellin derivative and the asymptotic pointwise-rate experiment."""

import math

import numpy as np
import pytest

from expkant import mellin, signals
from expkant.core import (EvaluationError, NonlinearKernel, PreconditionError,
                          SamplingScheme, Signal, ValidationError,
                          make_builtin_profile, make_response)

UNIT = SamplingScheme.uniform()


def bspline_soft(r: float = 1.0):
    # deviation rate alpha must exceed the experiment order r
    return NonlinearKernel(make_builtin_profile("bspline", 2),
                           make_response("soft_power", alpha=r + 1.0, r=r))


class TestMellinDerivative:
    def test_power_law(self):
        # theta x^a = a x^a; exercised via finite differences
        for a in (0.5, 1.0, 2.0):
            f = Signal(f"x^{a:g}", lambda v, _a=a: np.exp(_a * v))
            for x in (0.3, 1.0, 2.5):
                assert mellin.mellin_derivative(f, x) == pytest.approx(
                    a * x ** a, rel=1e-8)

    def test_log(self):
        # theta ln x = 1 (declared derivative short-circuits the stencil)
        f = signals.clipped_log()
        assert mellin.mellin_derivative(f, 2.0) == 1.0

    def test_sin_log(self):
        f = signals.sin_log()
        for x in (0.7, 1.0, 3.0):
            assert mellin.mellin_derivative(f, x) == pytest.approx(
                math.cos(math.log(x)), abs=1e-12)

    def test_finite_difference_matches_declared(self):
        declared = signals.sin_log()
        bare = Signal("bare", declared.log_core)
        for x in (0.5, 1.3):
            assert mellin.mellin_derivative(bare, x) == pytest.approx(
                math.cos(math.log(x)), abs=1e-9)

    def test_non_differentiable_flagged(self):
        # sqrt-type kink: stencils at h and h/2 disagree right next to it
        f = Signal("kink", lambda v: np.sqrt(np.abs(v)))
        with pytest.raises(EvaluationError, match="non-differentiable"):
            mellin.mellin_derivative(f, math.exp(1e-6))

    def test_validation(self):
        with pytest.raises(ValidationError):
            mellin.mellin_derivative(signals.constant(1.0), -2.0)


class TestVoronovskaja:
    def test_constant_signal_zero_lhs(self):
        k = NonlinearKernel(make_builtin_profile("bspline", 2),
                            make_response("identity"))
        rep = mellin.voronovskaja_experiment(signals.constant(2.0), 1.5, 1.0,
                                             k, UNIT, [4, 8, 16, 32])
        assert all(v < 1e-10 for v in rep.lhs_values)
        assert rep.passed
        assert rep.theta == 0.0

    def test_log_signal_exact_limit(self):
        # w |K_w ln - ln| = 1/2 for every w; bound = M_0/2 + M_1 = 1/2 + 1
        f = signals.clipped_log()
        k = NonlinearKernel(make_builtin_profile("bspline", 2),
                            make_response("identity"))
        rep = mellin.voronovskaja_experiment(f, 2.0, 1.0, k, UNIT,
                                             [4, 8, 16, 32, 64])
        for v in rep.lhs_values:
            assert v == pytest.approx(0.5, abs=1e-10)
        assert rep.rhs_bound == pytest.approx(1.0, abs=1e-6)
        assert rep.passed

    def test_sin_log_fractional_order(self):
        f = signals.sin_log()
        rep = mellin.voronovskaja_experiment(f, math.e, 0.5,
                                             bspline_soft(0.5), UNIT,
                                             [4, 8, 16, 32, 64])
        assert rep.passed
        assert rep.theta == pytest.approx(math.cos(1.0), abs=1e-12)

    def test_slope_precondition_named(self):
        # slope u^{0.5} cannot support order r = 1
        with pytest.raises(PreconditionError, match="slope"):
            mellin.voronovskaja_experiment(signals.sin_log(), 1.0, 1.0,
                                           bspline_soft(0.5), UNIT,
                                           [4, 8, 16, 32])

    def test_moment_precondition_named(self):
        # Fejer-type profile: the order-1 moment diverges.  soft(2) keeps
        # the (chi4*) audit passing so the moment check is what trips.
        k = NonlinearKernel(make_builtin_profile("mellin_fejer"),
                            make_response("soft", alpha=2.0))
        with pytest.raises(PreconditionError, match="moment"):
            mellin.voronovskaja_experiment(signals.sin_log(), 1.0, 1.0, k,
                                           UNIT, [4, 8, 16, 32])

    def test_order_validation(self):
        with pytest.raises(ValidationError):
            mellin.voronovskaja_experiment(signals.sin_log(), 1.0, 1.5,
                                           bspline_soft(), UNIT, [4, 8, 16, 32])
        with pytest.raises(ValidationError):
            mellin.voronovskaja_experiment(signals.sin_log(), 1.0, 1.0,
                                           bspline_soft(), UNIT, [4, 8])
