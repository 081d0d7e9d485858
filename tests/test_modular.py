"""Modular functionals in the log measure, the growth-compatibility
condition, and the modular Lipschitz inequality between operator outputs."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from expkant import experiments, modular, moduli, operator, signals
from expkant.core import (NonlinearKernel, SamplingScheme, Signal,
                          ValidationError, make_builtin_profile, make_response)
from expkant.operator import GridFunction
from expkant.ratefit import fit_loglog

UNIT = SamplingScheme.uniform()


def indicator(lo: float, hi: float, height: float = 1.0):
    """height * 1_{[lo, hi]} as a Signal (multiplicative interval)."""
    v_lo, v_hi = math.log(lo), math.log(hi)

    def core(v):
        return np.where((v >= v_lo) & (v <= v_hi), height, 0.0)

    return Signal(f"ind[{lo:g},{hi:g}]", core, sup_norm=abs(height),
                  support=max(hi, 1.0 / lo, math.e))


class TestModularFunctional:
    def test_indicator_power_oracle(self):
        # I_phi[c 1_{[1,e]}] = c^p: the log measure of [1, e] is 1
        f = indicator(1.0, math.e, height=2.0)
        for p, lam in ((1.0, 1.0), (2.0, 1.5), (3.0, 0.5)):
            got = modular.modular(modular.phi_power(p), f, lam)
            assert got.value == pytest.approx((2.0 * lam) ** p, rel=1e-6)
            assert not got.diverged
        # u^p (1 + |ln u|) at u = 2 lam: the jumps at v = 0 and 1 sit on
        # panel edges, so every panel integrates a constant
        for p, lam in ((1.0, 1.0), (2.0, 0.25), (3.0, 1.5)):
            u = 2.0 * lam
            want = u ** p * (1.0 + abs(math.log(u)))
            got = modular.modular(modular.phi_power_log(p), f, lam)
            assert got.value == pytest.approx(want, rel=1e-12)
            assert not got.diverged

    def test_power_log_vanishes_at_zero(self):
        phi = modular.phi_power_log(2.0)
        assert phi(0.0) == 0.0
        assert phi(np.array([0.0, -0.0]))[1] == 0.0

    def test_wide_indicator_oracle(self):
        # lam = 3 on 1_{[1, e^2]} with phi = u^2: 3^2 * 2 = 18
        f = indicator(1.0, math.e ** 2)
        got = modular.modular(modular.phi_power(2.0), f, 3.0)
        assert got.value == pytest.approx(18.0, rel=1e-6)

    def test_monotone_in_lambda(self):
        f = signals.random_bump(8)
        phi = modular.phi_power(2.0)
        vals = [modular.modular(phi, f, lam).value
                for lam in (0.25, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_dilation_invariance(self):
        # dv is dilation invariant: I_phi[lam f(. c)] = I_phi[lam f]
        f = signals.cc_bump(1.2)
        phi = modular.phi_power(2.0)
        base = modular.modular(phi, f, 1.0).value
        for c in (0.5, math.e, 3.7):
            assert modular.modular(phi, f.dilate(c), 1.0).value == \
                pytest.approx(base, rel=1e-6)

    def test_convexity_splitting(self):
        # I_phi[(a+b)/2] <= (I_phi[a] + I_phi[b]) / 2 for convex phi
        phi = modular.phi_power(2.0)
        f = signals.random_bump(3)
        lams = (0.5, 2.0)
        mid = modular.modular(phi, f, sum(lams) / 2).value
        avg = sum(modular.modular(phi, f, l).value for l in lams) / 2
        assert mid <= avg + 1e-9

    def test_unbounded_support_converges(self):
        f = Signal("laplace_log", lambda v: np.exp(-np.abs(v)),
                   sup_norm=1.0)
        got = modular.modular(modular.phi_power(2.0), f, 1.0)
        assert not got.diverged
        # int e^{-2|v|} dv = 1
        assert got.value == pytest.approx(1.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            modular.modular(modular.phi_power(2.0), signals.constant(1.0), 0.0)
        with pytest.raises(ValidationError):
            modular.phi_power(0.5)
        with pytest.raises(ValidationError):
            modular.make_phi("exponential")
        with pytest.raises(ValidationError):
            modular.make_phi("nope")


class TestAdaptiveIntegral:
    def test_unconverged_integral_is_flagged(self, caplog):
        # 1_{[1, e^0.3]} is integrated over its support [-1, 1]; its jump
        # at v = 0.3 never falls on a panel edge -1 + 2i/N (N a power of
        # 2), so the doubling stops at its cap
        f = indicator(1.0, math.exp(0.3))
        assert f.log_support_radius == 1.0
        with caplog.at_level(logging.DEBUG, logger="expkant.modular"):
            got = modular.modular(modular.phi_power(1.0), f, 1.0)
        assert not got.converged
        assert got.value == pytest.approx(0.3, abs=1e-3)
        assert got.to_dict()["converged"] is False
        assert any("unconverged on [-1, 1] at 4096 panels" in r.getMessage()
                   for r in caplog.records)

    def test_converged_integral_is_not_flagged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="expkant.modular"):
            got = modular.modular(modular.phi_power(2.0), signals.cc_bump(),
                                  1.0)
        assert got.converged and got.to_dict()["converged"] is True
        assert not caplog.records


class _Recording:
    """A log-evaluable signal that records the abscissae it is given."""

    def __init__(self, f):
        self.f, self.calls = f, []
        self.log_support_radius = f.log_support_radius

    def log_evaluate(self, v):
        self.calls.append(np.array(v, copy=True))
        return self.f.log_evaluate(v)


def samples(f, v) -> GridFunction:
    """f at the log points v, as a GridFunction."""
    return GridFunction(v, f.log_evaluate(v))


def bspline_kernel(n: int) -> NonlinearKernel:
    return NonlinearKernel(make_builtin_profile("bspline", n),
                           make_response("identity"))


class TestModularError:
    def test_coarse_points_are_the_even_fine_points(self):
        # integrand v^2 over the window [-r, r], r = 2: the trapezoid
        # values differ by O(h^2)
        f = _Recording(Signal("ramp", lambda v: v, support=math.exp(2.0)))
        r = f.log_support_radius
        v = np.linspace(-r, r, 2 * 4096 + 1)
        g = GridFunction(v, np.zeros(v.size))
        phi = modular.phi_power(2.0)
        got = modular.modular_error(phi, f, g, 1.0)
        # f evaluated once, at g's own points
        assert len(f.calls) == 1 and np.array_equal(f.calls[0], v)
        vals = phi(np.abs(v))
        fine = np.trapezoid(vals, dx=v[1] - v[0])
        coarse = np.trapezoid(vals[::2], dx=2.0 * (v[1] - v[0]))
        assert got.value == pytest.approx(fine, rel=1e-14)
        assert got.value == pytest.approx(2.0 * r**3 / 3.0, rel=1e-6)
        assert got.quadrature_error > 1e-8
        assert got.quadrature_error == pytest.approx(abs(fine - coarse),
                                                     rel=1e-12)

    def test_identical_signals(self):
        # a signal against its own samples
        f = signals.cc_bump(1.0)
        v = np.linspace(-1.5, 1.5, 1025)
        got = modular.modular_error(modular.phi_power(2.0), f, samples(f, v),
                                    1.0)
        assert got.value == 0.0 and got.quadrature_error == 0.0

    def test_indicator_shift_oracle(self):
        # 1_{[1,e]} vs its dilation by e^h differ on log measure ~ 2|h|
        f = indicator(1.0, math.e)
        h = 0.05
        v = np.linspace(-1.5, 1.5, 2 * 4096 + 1)
        got = modular.modular_error(modular.phi_power(1.0), f,
                                    samples(f.dilate(math.exp(h)), v), 1.0)
        assert got.value == pytest.approx(2 * h, rel=0.02)

    def test_integrates_the_operator_samples_to_the_dense_reference(self):
        # the trapezoid rule on K_w f at 2^20 + 1 points of the same window;
        # interpolating 4096 samples onto a finer grid missed it by 3.73e-9
        f, w = signals.cc_bump(2.0), 4.0
        kernel = bspline_kernel(2)
        g = operator.eval_on_log_grid(f, w, kernel, UNIT)
        phi = modular.phi_power(2.0)
        got = modular.modular_error(phi, f, g, 1.0)
        vd = np.linspace(g.v[0], g.v[-1], 2**20 + 1)
        dense, _ = operator._series(f, w, w * vd, kernel, UNIT)
        ref = np.trapezoid(phi(np.abs(dense - f.log_evaluate(vd))), vd)
        assert abs(got.value - ref) <= 1e-10
        assert got.quadrature_error > abs(got.value - ref)

    def test_refuses_a_grid_function_on_other_points(self):
        f = signals.cc_bump(1.0)
        v = np.linspace(-1.5, 1.5, 1025)
        with pytest.raises(ValidationError, match="g's points"):
            modular.modular_error(modular.phi_power(2.0), samples(f, v[:-2]),
                                  samples(f, v[2:]), 1.0)

    def test_refuses_a_signal_reaching_past_the_window(self):
        f = signals.cc_bump(2.0)
        r = f.log_support_radius
        phi = modular.phi_power(2.0)
        for lo, hi in ((-0.5 * r, 2 * r), (-2 * r, 0.5 * r)):
            g = samples(f, np.linspace(lo, hi, 1025))
            with pytest.raises(ValidationError, match="reaches past"):
                modular.modular_error(phi, f, g, 1.0)
        unbounded = signals.constant(1.0)
        with pytest.raises(ValidationError, match="reaches past"):
            modular.modular_error(phi, unbounded, samples(
                unbounded, np.linspace(-3.0, 3.0, 1025)), 1.0)

    def test_refuses_an_even_number_of_points(self):
        f = signals.cc_bump(1.0)
        with pytest.raises(ValidationError, match="odd number"):
            modular.modular_error(modular.phi_power(2.0), f,
                                  samples(f, np.linspace(-1.5, 1.5, 1024)),
                                  1.0)


class TestConditionH:
    def test_power_pair_identity_slope(self):
        # psi(u) = u, phi = u^p, eta = u^p, C_lam = lam: equality
        slope = make_response("identity").lipschitz_slope
        rep = modular.check_H(modular.power_pair(2.0), slope)
        assert rep.passed
        assert abs(rep.worst_margin) < 1e-9

    def test_power_pair_fails_steep_slope(self):
        # psi(u) = 2 tanh-based slope exceeds u: equality pair must fail
        slope = make_response("soft", alpha=1.0).lipschitz_slope
        rep = modular.check_H(modular.power_pair(2.0), slope)
        assert not rep.passed
        assert rep.worst_margin > 0

    def test_matched_pair_rescues_steep_slope(self):
        slope = make_response("soft", alpha=1.0).lipschitz_slope
        rep = modular.check_H(modular.matched_pair(2.0, slope), slope)
        assert rep.passed

    def test_matched_pair_fractional_exponent(self):
        slope = make_response("soft_power", alpha=1.0, r=0.5).lipschitz_slope
        rep = modular.check_H(modular.matched_pair(2.0, slope), slope)
        assert rep.passed

    def test_matched_pair_needs_exponent(self):
        from expkant.core import SlopeFunction
        anon = SlopeFunction("anon", lambda u: np.asarray(u, dtype=float))
        with pytest.raises(ValidationError):
            modular.matched_pair(2.0, anon)


class TestModularLipschitz:
    def test_identity_kernel_random_pairs(self):
        k = NonlinearKernel(make_builtin_profile("bspline", 2),
                            make_response("identity"))
        pair = modular.power_pair(2.0)
        for seed, w in ((0, 8.0), (1, 16.0), (2, 8.0)):
            f = signals.random_bump(seed)
            g = signals.random_bump(seed + 1000)
            (rep,) = modular.modular_lipschitz_check(k, UNIT, pair, f, g, [w])
            assert rep.passed, f"lhs={rep.lhs} rhs={rep.rhs}"

    def test_soft_kernel_matched_pair(self):
        resp = make_response("soft", alpha=1.0)
        k = NonlinearKernel(make_builtin_profile("bspline", 2), resp)
        pair = modular.matched_pair(2.0, resp.lipschitz_slope)
        f = signals.random_bump(5)
        g = signals.random_bump(1005)
        (rep,) = modular.modular_lipschitz_check(k, UNIT, pair, f, g, [12.0])
        assert rep.passed

    def test_both_outputs_on_one_grid(self, monkeypatch):
        # the pair's supports differ, and both take the larger one
        f, g = signals.random_bump(0), signals.random_bump(1000)
        assert f.support != g.support
        grids = []

        def recording(*args):
            grids.append(operator.eval_on_log_grid(*args))
            return grids[-1]

        monkeypatch.setattr(modular, "eval_on_log_grid", recording)
        modular.modular_lipschitz_check(bspline_kernel(2), UNIT,
                                        modular.power_pair(2.0), f, g,
                                        [8.0, 16.0])
        assert len(grids) == 4
        for kf, kg in (grids[:2], grids[2:]):
            assert np.array_equal(kf.v, kg.v)
        assert abs(grids[0].v[0]) > abs(grids[2].v[0])

    def test_a_signal_without_support_is_refused(self):
        with pytest.raises(ValidationError, match="compactly supported"):
            modular.modular_lipschitz_check(
                bspline_kernel(2), UNIT, modular.power_pair(2.0),
                signals.cc_bump(), signals.constant(0.5), [8.0])

    def test_lambda_validation(self):
        k = NonlinearKernel(make_builtin_profile("bspline", 2),
                            make_response("identity"))
        with pytest.raises(ValidationError):
            modular.modular_lipschitz_check(k, UNIT, modular.power_pair(2.0),
                                            signals.cc_bump(), signals.cc_bump(2.0),
                                            [8.0], lam=1.0)


class TestLogSmoothness:
    def test_indicator_linear_oracle(self):
        # omega_phi(1_{[1,e]}, delta) with phi = u: measure of two strips = 2 delta
        f = indicator(1.0, math.e)
        for delta in (0.02, 0.1):
            got = modular.log_smoothness(modular.phi_power(1.0), f, 1.0, delta)
            assert got == pytest.approx(2 * delta, rel=0.02)

    def test_lambda_quarter_scaling(self):
        # phi = u^2: halving lambda scales the smoothness by 1/4
        f = signals.random_bump(9)
        phi = modular.phi_power(2.0)
        a = modular.log_smoothness(phi, f, 1.0, 0.1)
        b = modular.log_smoothness(phi, f, 0.5, 0.1)
        assert b == pytest.approx(a / 4.0, rel=1e-9)

    def test_curve_order_for_lipschitz_signal(self):
        # f Lipschitz in v, phi = u^2: omega_phi ~ delta^2, so the log-log
        # slope of omega against 1/delta is -2
        f = signals.cc_bump(1.0)
        deltas = np.geomspace(1e-3, 0.1, 6)
        omegas = [modular.log_smoothness(modular.phi_power(2.0), f, 1.0, d)
                  for d in deltas]
        fit = fit_loglog(1.0 / deltas, omegas)
        assert fit.slope == pytest.approx(-2.0, abs=1e-3)

    def test_zero_curve(self):
        for delta in (0.1, 0.2):
            assert modular.log_smoothness(modular.phi_power(2.0),
                                          signals.constant(5.0), 1.0,
                                          delta) == 0.0


def smoothness_reference(phi, f, lam, delta, t_points=17):
    """One grid of MODULAR_POINTS per shift, the shifted signal evaluated
    anew."""
    r = (f.log_support_radius if f.log_support_radius is not None
         else moduli.UNBOUNDED_LOG_RADIUS)
    v = np.linspace(-(r + delta), r + delta, modular.MODULAR_POINTS)
    fv = f.log_evaluate(v)
    best = 0.0
    for h in np.linspace(-delta, delta, t_points):
        diff = phi(lam * np.abs(f.log_evaluate(v + h) - fv))
        best = max(best, float(np.trapezoid(diff, v)))
    return best


DELTAS = (0.35, 0.125, 0.054, 0.0078, 1e-3)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("f, rel", [
    (signals.cc_bump(1.3), 1e-12),
    (signals.random_bump(4), 1e-12),
    (signals.random_bump(7), 1e-12),
    # the tent's kinks leave trapezoid errors of O(step^2) on either grid
    (signals.holder_bump(1.0, 1.7), 1e-5),
], ids=["cc_bump", "random_bump4", "random_bump7", "tent"])
def test_log_smoothness_matches_the_per_shift_loop(f, rel, delta):
    phi = modular.phi_power(2.0)
    got = modular.log_smoothness(phi, f, 0.8, delta)
    assert got == pytest.approx(smoothness_reference(phi, f, 0.8, delta),
                                rel=rel)


@pytest.mark.parametrize("t_points", [2, 3, 16, 17])
@pytest.mark.parametrize("delta", DELTAS)
def test_shift_grid_holds_every_shift(t_points, delta):
    r, n_points = 2.0, modular.MODULAR_POINTS
    step, shifts = modular._shift_grid(r, delta, t_points)
    assert step <= 2.0 * (r + delta) / (n_points - 1)
    np.testing.assert_allclose(step * shifts,
                               np.linspace(-delta, delta, t_points),
                               rtol=0, atol=4e-16 * delta)
    assert shifts[0] == -shifts[-1] and step * shifts[-1] == pytest.approx(
        delta, rel=1e-15)


def test_modular_convergence_with_power_log():
    rep = experiments.run({"experiment": "modular_convergence",
                           "kernel": {"profile": {"name": "bspline", "n": 2}},
                           "signal": {"name": "cc_bump"},
                           "phi": {"name": "power_log", "p": 2.0},
                           "w_list": [4, 8, 16, 32]})
    errors = [row["modular_error"] for row in rep["rows"]]
    assert all(math.isfinite(e) and e >= 0.0 for e in errors)
    assert rep["decreasing"]


def test_modular_inequality_rhs_once_per_signal_pair(monkeypatch):
    # the rhs modular I_eta[lam (f - g)] is the only call of modular.modular
    calls = []
    orig = modular.modular
    monkeypatch.setattr(modular, "modular",
                        lambda *a, **k: calls.append(a) or orig(*a, **k))
    rep = experiments.run({"experiment": "modular_inequality",
                           "kernel": {"profile": {"name": "bspline", "n": 2}},
                           "w_list": [4.0, 8.0, 16.0, 32.0], "seeds": [3, 8],
                           "lambda": 0.5})
    assert len(calls) == 2 and len(rep["rows"]) == 8
    k = NonlinearKernel(make_builtin_profile("bspline", 2),
                        make_response("identity"))
    f, g = signals.random_bump(3), signals.random_bump(1003)
    pair = experiments.build_pair(None, k.slope)
    rows = rep["rows"][:4]
    reports = modular.modular_lipschitz_check(k, UNIT, pair, f, g,
                                              [row["w"] for row in rows])
    for row, direct in zip(rows, reports, strict=True):
        assert (direct.lhs, direct.rhs, direct.passed,
                direct.rhs_converged) == (row["lhs"], row["rhs"],
                                          row["passed"], row["rhs_converged"])
        assert row["rhs_converged"] is True


def test_modular_inequality_rows_carry_rhs_convergence(monkeypatch):
    # an rhs modular that stops unconverged is flagged in every row of its
    # signal pair, next to an unchanged verdict
    orig = modular.modular
    monkeypatch.setattr(modular, "modular", lambda *a, **k: (
        dataclasses.replace(orig(*a, **k), converged=False)))
    rep = experiments.run({"experiment": "modular_inequality",
                           "kernel": {"profile": {"name": "bspline", "n": 2}},
                           "w_list": [4.0, 8.0, 16.0, 32.0], "seeds": [3]})
    assert [r["rhs_converged"] for r in rep["rows"]] == [False] * 4
    assert "rhs_converged" in rep["columns"] and rep["passed"]
