"""Acceptance suite: one numbered criterion per test, each printing a
single pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to
see the lines as they complete."""

import math

import numpy as np
import pytest

from expkant import (experiments, mellin, modular, moments, operator,
                     signals)
from expkant.core import (NonlinearKernel, SamplingScheme,
                          make_builtin_profile, make_response)
from expkant.ratefit import fit_loglog

UNIT = SamplingScheme.uniform()
BSPLINE = make_builtin_profile("bspline", 2)
FEJER = make_builtin_profile("mellin_fejer")


def verdict(number: int, title: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {number:2d}: {title}{suffix}")
    assert ok, f"criterion {number}: {title}{suffix}"


def identity_kernel(profile=None):
    return NonlinearKernel(profile or BSPLINE, make_response("identity"))


def soft_kernel(alpha=1.0):
    return NonlinearKernel(BSPLINE, make_response("soft", alpha=alpha))


class TestAcceptance:
    def test_01_constant_reproduction(self):
        f = signals.constant(3.7)
        grid = np.geomspace(0.2, 5.0, 21)
        worst = 0.0
        for w in (4.0, 16.0, 64.0):
            worst = max(worst, operator.sup_error(f, w, grid,
                                                  identity_kernel(), UNIT))
            # independent oracle: direct full-support summation
            for x in (0.7, 1.3, 3.1):
                y = w * math.log(x)
                k = np.arange(math.floor(y - 2), math.ceil(y + 3))
                direct = float(np.sum(BSPLINE.log_values(y - k)) * 3.7)
                val, _ = operator.eval_kantorovich(f, w, x,
                                                   identity_kernel(), UNIT)
                assert val == pytest.approx(direct, abs=1e-12)
        verdict(1, "constant reproduction < 1e-10", worst < 1e-10,
                f"sup error {worst:.2e}")

    def test_02_exact_interior_error_law(self):
        f = signals.clipped_log()
        grid = np.geomspace(0.5, 2.0, 15)
        w_arr = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        worst = 0.0
        errors = []
        for w in w_arr:
            for x in grid:
                val, _ = operator.eval_kantorovich(f, float(w), float(x),
                                                   identity_kernel(), UNIT)
                worst = max(worst, abs(val - math.log(x) - 0.5 / w))
            errors.append(operator.sup_error(f, float(w), grid,
                                             identity_kernel(), UNIT))
        fit = fit_loglog(w_arr, errors)
        ok = worst < 1e-8 and abs(fit.slope + 1.0) <= 0.02
        verdict(2, "interior error equals 1/(2w), rate -1 +/- 0.02", ok,
                f"deviation {worst:.2e}, slope {fit.slope:.4f}")

    def test_03_quantitative_estimate_case1(self):
        report = experiments.run({
            "experiment": "quantitative_3_2",
            "kernel": {"profile": {"name": "bspline", "n": 2},
                       "response": {"name": "soft", "alpha": 1.0}},
            "signal": {"name": "holder_bump", "nu": 0.5},
            "w_list": [8, 16, 32, 64, 128, 256],
            "beta": 1.0,
        })
        ok = (report["case"] == 1 and report["inequality_ok"]
              and report["rate_ok"]
              and -report["fit"]["slope"] >= min(0.5, 1.0) - 0.1)
        verdict(3, "case-1 quantitative bound and fitted order", ok,
                f"slope {report['fit']['slope']:.4f}, "
                f"required >= {report['required_order']:.2f} - 0.1")

    def test_04_quantitative_estimate_case2(self):
        report = experiments.run({
            "experiment": "quantitative_3_2",
            "kernel": {"profile": {"name": "mellin_fejer"}},
            "signal": {"name": "holder_bump", "nu": 0.5},
            "w_list": [16, 32, 64, 128, 256, 512],
            "beta": 0.5,
        })
        consts = report["constants"]
        ok = (report["case"] == 2 and consts["m1_diverged"]
              and math.isfinite(consts["m_beta"])
              and report["inequality_ok"] and report["passed"])
        verdict(4, "case-2 bound with divergent first moment", ok,
                f"M_1/2 = {consts['m_beta']:.4f}")

    def test_05_tail_bound_random_triples(self):
        rng = np.random.default_rng(42)
        violations = 0
        for profile, beta in ((BSPLINE, 2.0), (FEJER, 0.5)):
            m_beta = moments.moment_value(profile, UNIT, beta)
            for _ in range(50):
                gamma = float(rng.uniform(0.3, 3.0))
                w = float(rng.uniform(2.0, 128.0))
                x = float(math.exp(rng.uniform(-2.0, 2.0)))
                tail = moments.tail_sum(profile, UNIT, gamma, w, x)
                if tail > m_beta / (gamma * w) ** beta + 1e-12:
                    violations += 1
        verdict(5, "tail sums below the moment bound (100 triples)",
                violations == 0, f"{violations} violations")

    def test_06_chi4_audit(self):
        s_id, t_id = moments.check_chi4(identity_kernel(), UNIT, 2,
                                        [4, 8, 16, 32, 64])
        exact = (max(s_id.sup_values) < 1e-12
                 and max(t_id.sup_values) < 1e-12)
        s_soft, t_soft = moments.check_chi4(soft_kernel(), UNIT, 2,
                                            [4, 8, 16, 32, 64])
        rates_ok = all(-1.15 <= r.fitted_rate <= -0.85
                       for r in (s_soft, t_soft))
        verdict(6, "chi4 functionals: exact identity, soft rate -1",
                exact and rates_ok,
                f"soft rates {s_soft.fitted_rate:.3f}, "
                f"{t_soft.fitted_rate:.3f}")

    def test_07_asymptotic_pointwise_rate(self):
        rep = mellin.voronovskaja_experiment(
            signals.clipped_log(), 2.0, 1.0, identity_kernel(), UNIT,
            [4, 8, 16, 32, 64])
        tail = max(rep.lhs_values[-2:])
        ok = abs(tail - 0.5) < 1e-6 and tail < rep.rhs_bound and rep.passed
        verdict(7, "pointwise limit 0.5 strictly below moment bound", ok,
                f"limsup {tail:.8f}, bound {rep.rhs_bound:.4f}")

    def test_08_modular_convergence(self):
        report = experiments.run({
            "experiment": "modular_convergence",
            "kernel": {"profile": {"name": "bspline", "n": 2}},
            "signal": {"name": "cc_bump"},
            "w_list": [16, 32, 64, 128, 256],
            "lambda": 1.0,
            "threshold": 1e-5,
        })
        last = report["rows"][-1]["modular_error"]
        verdict(8, "modular error decreasing and < 1e-5 by w = 256",
                report["decreasing"] and last < 1e-5 and report["passed"],
                f"final {last:.3e}")

    def test_09_modular_inequality(self):
        pair = modular.power_pair(2.0)  # phi = eta = u^2, C_lambda = lambda
        k = identity_kernel()
        violations = 0
        for seed in range(10):
            f = signals.random_bump(seed)
            g = signals.random_bump(seed + 1000)
            reps = modular.modular_lipschitz_check(k, UNIT, pair, f, g,
                                                   (8.0, 32.0))
            violations += sum(not rep.passed for rep in reps)
        verdict(9, "modular inequality on 10 random pairs, w in {8, 32}",
                violations == 0, f"{violations} violations")

    def test_10_quantitative_modular_rate(self):
        report = experiments.run({
            "experiment": "quantitative_5_1",
            "kernel": {"profile": {"name": "bspline", "n": 2},
                       "response": {"name": "soft", "alpha": 1.0}},
            "signal": {"name": "holder_bump", "nu": 1.0},
            "w_list": [8, 16, 32, 64],
            "gamma": 0.5,
        })
        tail = report["tail_condition"]
        ok = (tail["extra"]["exact_zero"] and report["rate_ok"]
              and report["passed"]
              and -report["fit"]["slope"] >= report["required_order"] - 0.1)
        verdict(10, "modular decay order >= min(gamma*nu, gamma0, alpha)",
                ok, f"slope {report['fit']['slope']:.4f}, "
                f"required {report['required_order']:.2f}")

    def test_11_dilation_properties(self):
        rng = np.random.default_rng(99)
        k = soft_kernel()
        worst_op = 0.0
        for _ in range(20):
            f = signals.random_bump(int(rng.integers(0, 500)))
            w = float(rng.integers(3, 24))
            j = int(rng.integers(-5, 6))
            x = float(math.exp(rng.uniform(-1.0, 1.0)))
            c = math.exp(j / w)
            lhs, _ = operator.eval_kantorovich(f, w, x * c, k, UNIT)
            rhs, _ = operator.eval_kantorovich(f.dilate(c), w, x, k, UNIT)
            worst_op = max(worst_op, abs(lhs - rhs))
        phi = modular.phi_power(2.0)
        worst_mod = 0.0
        for _ in range(20):
            f = signals.random_bump(int(rng.integers(0, 500)))
            c = float(math.exp(rng.uniform(-2.0, 2.0)))
            base = modular.modular(phi, f, 1.0).value
            dil = modular.modular(phi, f.dilate(c), 1.0).value
            worst_mod = max(worst_mod, abs(dil - base) / max(1.0, base))
        ok = worst_op < 1e-8 and worst_mod < 1e-8
        verdict(11, "dilation covariance and modular invariance to 1e-8",
                ok, f"operator {worst_op:.2e}, modular {worst_mod:.2e}")
