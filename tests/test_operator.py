"""Series evaluation: Steklov means, exact reproduction laws, truncation
soundness and the structural operator properties."""

import decimal
import logging
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expkant import moments, operator, signals
from expkant.core import (EvaluationError, NonlinearKernel, SamplingScheme,
                          Signal, ValidationError, gauss_legendre,
                          make_builtin_profile, make_response)
from expkant.operator import QuadratureSpec

UNIT = SamplingScheme.uniform()


def bspline_kernel(response="identity", **kw):
    return NonlinearKernel(make_builtin_profile("bspline", 2),
                           make_response(response, **kw))


def fejer_kernel(response="identity", **kw):
    return NonlinearKernel(make_builtin_profile("mellin_fejer"),
                           make_response(response, **kw))


class TestMeanValue:
    def test_constant(self):
        f = signals.constant(1.0)
        for k, w in ((0, 1.0), (3, 7.0), (-5, 2.5)):
            assert operator.mean_value(f, k, w, UNIT) == pytest.approx(1.0)

    def test_log_closed_form(self):
        # mean of ln over [k/w, (k+1)/w] is (2k+1)/(2w)
        f = signals.clipped_log()
        for k, w in ((0, 1.0), (2, 8.0), (-3, 4.0), (5, 16.0)):
            assert operator.mean_value(f, k, w, UNIT) == pytest.approx(
                (2 * k + 1) / (2 * w), abs=1e-12)

    def test_exponential_closed_form(self):
        # mean of e^u over [0, 1] is e - 1
        f = signals.power_clipped(1.0)
        assert operator.mean_value(f, 0, 1.0, UNIT) == pytest.approx(
            math.e - 1.0, abs=1e-10)

    def test_nonfinite_signal_named(self):
        bad = Signal("bad", lambda x: np.where(np.asarray(x) > 2.0,
                                               np.nan, 1.0), sup_norm=1.0)
        with pytest.raises(EvaluationError, match="k="):
            operator.mean_value(bad, 3, 2.0, UNIT)


def _global_doubling_means(f, k_lo, k_hi, w, quad):
    """Reference: every cell doubled until the worst cell converges; None
    when it has not converged after quad.max_doublings doublings."""
    t = UNIT.nodes(k_lo, k_hi + 1)
    a, b = t[:-1] / w, t[1:] / w
    m, prev = quad.nodes, None
    for _ in range(quad.max_doublings + 1):
        x, wx = np.polynomial.legendre.leggauss(m)
        u = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x[None, :]
        vals = 0.5 * (f.log_evaluate(u) * wx[None, :]).sum(axis=1)
        if prev is not None:
            scale = max(1.0, float(np.max(np.abs(vals))))
            if float(np.max(np.abs(vals - prev))) <= quad.tolerance * scale:
                return vals
        prev = vals
        m *= 2
    return None


def _holder_x(nu=0.5, radius=2.0):
    """holder_bump given in the x domain only: it declares no cell means,
    so its means take the quadrature path."""
    base = signals.holder_bump(nu, radius)
    return Signal("holder_x", base.evaluate, sup_norm=1.0,
                  support=base.support)


def _cc_x(radius=2.0):
    """cc_bump given in the x domain only, on the quadrature path."""
    base = signals.cc_bump(radius)
    return Signal("cc_x", base.evaluate, sup_norm=1.0, support=base.support)


class TestCellRefinement:
    """mean_values refines only the cells that have not converged."""

    QUAD = QuadratureSpec()

    @pytest.mark.parametrize("f, quad, converges", [
        (_holder_x(0.5), QUAD, True),                            # all 9 levels
        (_holder_x(0.5), QuadratureSpec(max_doublings=3), False),  # capped
        (_cc_x(), QUAD, True),                                   # level 2
    ], ids=["holder_bump", "holder_bump-capped", "cc_bump"])
    def test_agrees_with_global_doubling(self, f, quad, converges):
        ref = _global_doubling_means(f, -34, 33, 16.0, quad)
        assert (ref is not None) == converges
        if not converges:
            # the reference stops unconverged at the cap, and mean_values
            # raises rather than return its last values
            with pytest.raises(EvaluationError, match="unconverged"):
                operator.mean_values(f, -34, 33, 16.0, UNIT, quad)
            return
        got = operator.mean_values(f, -34, 33, 16.0, UNIT, quad)
        tol = quad.tolerance * max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(got - ref)) <= tol

    def test_only_cusp_cells_refined(self):
        # holder_bump(0.5, 2) at w = 16: the cusp at v = 0 is the edge
        # between cells k = -1 and k = 0; the kinks at |v| = 2 are cell
        # edges too, where the bump is smooth from either side
        base = signals.holder_bump(0.5, 2.0)
        shapes, cells = [], []

        def counting(x):
            shapes.append(x.shape)
            cells.append(np.floor(16.0 * np.log(x).mean(axis=1)).astype(int))
            return base.evaluate(x)

        f = Signal("counted", counting, sup_norm=1.0, support=base.support)
        operator.mean_values(f, -34, 33, 16.0, UNIT, self.QUAD)
        assert shapes[:2] == [(68, 8), (68, 16)]
        assert shapes[2:] == [(2, 8 * 2 ** i) for i in range(2, 9)]
        for level in cells[2:]:
            assert sorted(level) == [-1, 0]

    def test_doubling_cap_logged(self, caplog):
        # the cusp cells need 2048 nodes at w = 16; 3 doublings stop at 64
        # with two cells unconverged, which is logged and raises instead of
        # returning
        f = _holder_x(0.5, 2.0)
        quad = QuadratureSpec(max_doublings=3)
        message = (r"2 of 68 cells unconverged after 3 doublings; "
                   r"worst k=(-1|0) changed by 4\.6\de-07")
        with caplog.at_level(logging.DEBUG, logger="expkant.operator"):
            with pytest.raises(EvaluationError, match=message + "$"):
                operator.mean_values(f, -34, 33, 16.0, UNIT, quad)
        assert re.search(message, caplog.text)

    def test_every_mean_checked(self):
        # a single level compares nothing, so it is refused
        with pytest.raises(ValidationError, match="max_doublings >= 1"):
            QuadratureSpec(max_doublings=0)
        f = _holder_x(0.5, 2.0)
        got = operator.mean_values(f, 5, 20, 16.0, UNIT,
                                   QuadratureSpec(max_doublings=1))
        assert got.shape == (16,)  # smooth cells converge at level 2

    def test_nonfinite_at_refined_level_named(self):
        # finite on the 8- and 16-node levels; the refined levels evaluate
        # only the cells next to the kink at v = 5.5, and cell k = 5 is NaN
        def kinked(x):
            v = np.log(x)
            vals = np.sqrt(np.abs(v - 5.5))
            if v.shape[-1] > 16:
                vals = np.where((v > 5.0) & (v < 6.0), np.nan, vals)
            return vals

        f = Signal("kinked", kinked, sup_norm=3.0)
        with pytest.raises(EvaluationError, match=r"k=5$"):
            operator.mean_values(f, 0, 9, 1.0, UNIT, self.QUAD)

    def test_blocks_match_one_block(self, monkeypatch):
        # 3001 cells of 8 to 2048 nodes in blocks of 1024 values, against
        # one block holding every cell of a level
        f = _holder_x(0.5, 2.0)
        monkeypatch.setattr(operator, "_CELL_BLOCK", 1024)
        blocked = operator.mean_values(f, -1500, 1500, 512.0, UNIT, self.QUAD)
        monkeypatch.setattr(operator, "_CELL_BLOCK", 1 << 40)
        whole = operator.mean_values(f, -1500, 1500, 512.0, UNIT, self.QUAD)
        assert np.array_equal(blocked, whole)

    def test_nonfinite_raises_at_its_block(self, monkeypatch):
        # blocks of 8 cells: cell k = 80 is the first NaN one, and no cell
        # after its block is evaluated
        seen = []

        def late_nan(x):
            v = np.log(x)
            seen.append(float(v.max()))
            return np.where(v > 80.0, np.nan, 1.0)

        monkeypatch.setattr(operator, "_CELL_BLOCK", 64)
        f = Signal("late_nan", late_nan, sup_norm=1.0)
        with pytest.raises(EvaluationError, match=r"k=80$"):
            operator.mean_values(f, 0, 99, 1.0, UNIT, self.QUAD)
        assert len(seen) == 11 and max(seen) < 88.0

    def test_cached_rule_read_only(self):
        nodes, weights = gauss_legendre(8)
        assert gauss_legendre(8)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0


EPS = np.finfo(float).eps


def _roundoff_bound(g_a, g_b, a, b, mean):
    """The stated round-off bound of a mean from an antiderivative G."""
    return (4.0 * EPS * max(abs(g_a), abs(g_b)) / (b - a)
            + EPS * abs(mean))


def _quad_mean(core, a, b, breaks, cusp=None):
    """(mean, error estimate) of core over [a, b] by scipy.integrate.quad,
    split at the breaks inside the cell and, toward a cusp, at distances
    halving from the cell's far edge down to its near edge: a piece that
    ends next to a cusp, not on it, defeats quad's error estimate."""
    from scipy.integrate import IntegrationWarning, quad

    pts = {a, b, *(p for p in breaks if a < p < b)}
    if cusp is not None:
        for lo, hi in ((a, min(b, cusp)), (max(a, cusp), b)):
            if lo < hi:
                near, far = sorted((abs(lo - cusp), abs(hi - cusp)))
                side = 1.0 if hi > cusp else -1.0
                d = 0.5 * far
                for _ in range(60):
                    if d <= near:
                        break
                    pts.add(cusp + side * d)
                    d *= 0.5
    pts = sorted(pts)
    total = err = 0.0
    with warnings.catch_warnings():
        # quad flags round-off on the pieces next to a cusp; its error
        # estimate there stays above its true error (checked against
        # 40-digit mpmath)
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(pts, pts[1:]):
            val, e = quad(core, lo, hi, epsabs=1e-15, epsrel=0.0, limit=200)
            total, err = total + val, err + e
    return total / (b - a), err / (b - a)


def _drawn_scheme(data):
    if data.draw(st.booleans(), label="tabulated"):
        gaps = data.draw(st.lists(st.floats(0.5, 1.5), min_size=1,
                                  max_size=3), label="gaps")
        base = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
        return SamplingScheme.tabulated(base, float(sum(gaps)))
    return SamplingScheme.uniform(1.0, data.draw(st.floats(-1.0, 1.0),
                                                 label="offset"))


def _cells_near(scheme, w, points, count=4):
    """Indices of the 2 count consecutive cells around each point (in the
    log variable), the cell holding the point among them."""
    ks = set()
    for p in points:
        k_lo, _ = scheme.index_range(w * p - 2.0, w * p + 2.0)
        ks.update(range(k_lo, k_lo + 2 * count))
    return sorted(ks)


class TestClosedFormMeans:
    """Signals that declare their cell means (Signal.log_mean) skip the
    quadrature: mean_values returns the closed form for every cell."""

    @settings(max_examples=100, deadline=None)
    @given(nu=st.floats(0.3, 1.0), radius=st.floats(1.0, 3.0),
           log2_w=st.integers(2, 12), far=st.floats(-1.0, 1.0),
           data=st.data())
    def test_holder_bump_within_the_bound(self, nu, radius, log2_w, far,
                                          data):
        f = signals.holder_bump(nu, radius)
        w = 2.0 ** log2_w
        scheme = _drawn_scheme(data)

        def g(v):
            m = min(abs(v), radius)
            return math.copysign(m - m ** (nu + 1) / ((nu + 1) * radius ** nu),
                                 v)

        def core(v):
            return max(0.0, 1.0 - (abs(v) / radius) ** nu)

        for k in _cells_near(scheme, w, (0.0, -radius, radius, far * radius)):
            a, b = scheme.node(k) / w, scheme.node(k + 1) / w
            got = operator.mean_value(f, k, w, scheme)
            ref, err = _quad_mean(core, a, b, (-radius, radius), cusp=0.0)
            assert abs(got - ref) <= _roundoff_bound(g(a), g(b), a, b, got) + err

    @settings(max_examples=100, deadline=None)
    @given(clip=st.floats(0.5, 8.0), log2_w=st.integers(2, 12),
           beyond=st.floats(0.0, 40.0), data=st.data())
    def test_clipped_log_within_the_bound(self, clip, log2_w, beyond, data):
        # cells across +-clip and beyond it, where the antiderivative grows
        f = signals.clipped_log(clip)
        w = 2.0 ** log2_w
        scheme = _drawn_scheme(data)

        def h(v):
            a = abs(v)
            if a <= clip:
                return 0.5 * v * v
            return 0.5 * clip * clip + (clip + 1.0) * (a - clip) + math.expm1(clip - a)

        def core(v):
            a = abs(v)
            return v if a <= clip else math.copysign(clip + 1.0 - math.exp(clip - a), v)

        points = (-clip, clip, clip + beyond, -clip - beyond)
        for k in _cells_near(scheme, w, points):
            a, b = scheme.node(k) / w, scheme.node(k + 1) / w
            got = operator.mean_value(f, k, w, scheme)
            ref, err = _quad_mean(core, a, b, (-clip, clip))
            assert abs(got - ref) <= _roundoff_bound(h(a), h(b), a, b, got) + err

    def test_exact_values(self):
        for scheme in (SamplingScheme.uniform(1.0, 0.37),
                       SamplingScheme.tabulated((0.0, 0.3, 0.7), 1.1)):
            for w in (3.0, 64.0, 4096.0):
                got = operator.mean_values(signals.constant(2.5), -500, 500,
                                           w, scheme, QuadratureSpec())
                assert np.all(got == 2.5)
                # every cell of [-500, 500] lies inside the clip of 6 at
                # w >= 64
                t = scheme.nodes(-300, 301) / w
                got = operator.mean_values(signals.clipped_log(), -300, 300,
                                           w, scheme, QuadratureSpec())
                if w >= 64.0:
                    assert np.array_equal(got, 0.5 * (t[:-1] + t[1:]))

    def test_clipped_log_far_beyond_the_clip(self):
        # far beyond the clip (|v| ~ 1e5) the exponential part underflows
        # and the mean is +-(clip + 1) to round-off; an
        # antiderivative difference there would lose 4 eps |H| w ~ 1e-9
        f = signals.clipped_log(6.0)
        scheme = SamplingScheme.uniform(1.0, 0.37)
        for w in (3.3, 48.5):
            for k_lo in (400_000, -400_100):
                got = operator.mean_values(f, k_lo, k_lo + 99, w, scheme,
                                           QuadratureSpec())
                want = math.copysign(7.0, k_lo)
                assert np.all(np.abs(got - want) <= 2.0 * EPS * 7.0)

    def test_cusp_cell(self):
        # holder_bump(0.4956, 2.5), offset 0.3, w = 256: cell k = -1 holds
        # the cusp at v = 0.  The doubling quadrature stopped at its cap
        # 1.95e-8 off (0.9795578234803419); the reference is 40-digit
        # mpmath quadrature split at the cusp
        f = signals.holder_bump(0.4956, 2.5)
        scheme = SamplingScheme.uniform(1.0, 0.3)
        got = operator.mean_value(f, -1, 256.0, scheme)
        assert abs(got - 0.97955780393738898552) <= 2.0 * EPS

    def test_no_signal_evaluation(self, monkeypatch):
        calls = []
        original = Signal.log_evaluate

        def counting(self, v):
            calls.append(np.size(v))
            return original(self, v)

        monkeypatch.setattr(Signal, "log_evaluate", counting)
        for f in (signals.holder_bump(0.5), signals.holder_bump(1.0, 1.5),
                  signals.constant(1.5), signals.clipped_log(),
                  signals.holder_bump(0.5).dilate(1.7),
                  signals.cc_bump(1.75, -0.5), signals.random_bump(7),
                  signals.random_bump(3).dilate(0.6)):
            operator.mean_values(f, -100, 100, 32.0, UNIT, QuadratureSpec())
        assert calls == []
        operator.mean_values(_cc_x(), -100, 100, 32.0, UNIT, QuadratureSpec())
        assert calls  # no declared means: quadrature

    def test_nonfinite_mean_raises_at_its_block(self, monkeypatch):
        # blocks of 8 cells: the first NaN mean is cell k = 21, and no
        # block after its own is computed
        seen = []

        def log_mean(a, b):
            seen.append(a.size)
            return np.where(a * 4.0 > 20.5, np.nan, 1.0)

        f = Signal("nan_mean", lambda x: np.ones_like(x), sup_norm=1.0,
                   log_mean=log_mean)
        monkeypatch.setattr(operator, "_CELL_BLOCK", 8)
        with pytest.raises(EvaluationError, match=r"k=21$"):
            operator.mean_values(f, 0, 99, 4.0, UNIT, QuadratureSpec())
        assert seen == [8, 8, 8]

    @settings(max_examples=100, deadline=None)
    @given(log2_w=st.integers(1, 12), far=st.floats(-1e4, 1e4),
           data=st.data())
    def test_sin_log_within_the_bound(self, log2_w, far, data):
        # cells near 0 and out to |v| = 1e4, where the rounding of a + b
        # dominates the stated bound; the reference integrates
        # sin(a + t) = sin a cos t + cos a sin t over t in [0, b - a], so
        # that quad sees no large argument, and allows 2 eps for its own
        # sin a, cos a and b - a
        from scipy.integrate import IntegrationWarning, quad

        f = signals.sin_log()
        assert f.log_mean is signals.sin_log_mean
        w = 2.0 ** log2_w
        scheme = _drawn_scheme(data)
        for k in _cells_near(scheme, w, (0.0, far)):
            a, b = scheme.node(k) / w, scheme.node(k + 1) / w
            got = operator.mean_value(f, k, w, scheme)
            d = b - a
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                c, c_err = quad(math.cos, 0.0, d, epsabs=1e-15, epsrel=0.0)
                s, s_err = quad(math.sin, 0.0, d, epsabs=1e-15, epsrel=0.0)
            ref = (math.sin(a) * c + math.cos(a) * s) / d
            err = (c_err + s_err) / d + 2.0 * EPS
            bound = EPS * (abs(a) + abs(b)) / 2.0 + 4.0 * EPS
            assert abs(got - ref) <= bound + err


# Phi(x) = int_{-1}^x exp(1 - 1/(1 - s^2)) ds to 40 significant digits:
# mpmath tanh-sinh quadrature at 50 digits, summed from -1 over the sorted
# points; Phi(x) + Phi(-x) = Phi(1) holds to 3e-51 on every pair
_PHI_REFERENCE = (
    (-0.9999999850988388,
     "1.54072128587498249080259564124806986609e-14572520"),
    (-0.9999999701976776,
     "1.164782342392242384398682464545620293273e-7286267"),
    (-0.9999999403953552,
     "1.332230717863373329890243717005889822865e-3643140"),
    (-0.9999998807907104,
     "7.065432241406826897502802650385171217864e-1821577"),
    (-0.9999997615814209, "7.359886474768036127698206910551150635756e-910795"),
    (-0.9999995231628418, "1.141470003209579616490068976355617351729e-455403"),
    (-0.9999990463256836, "1.294640556501090353549198437787004582659e-227707"),
    (-0.9999980926513672, "3.709077226807606425422525744990632114517e-113859"),
    (-0.9999961853027344, "1.001245070491424275294367389032375119427e-56934"),
    (-0.9999923706054688, "2.574183276943419144946955189128664153653e-28472"),
    (-0.9999847412109375, "1.012864078281987376847404095091572865615e-14240"),
    (-0.999969482421875, "1.421437936299583278224218355337301244071e-7124"),
    (-0.99993896484375, "2.806919532005407492016946232478071595776e-3566"),
    (-0.9998779296875, "8.317187703699638531323964744942148145785e-1787"),
    (-0.999755859375, "9.468537547443587714317185105460792620047e-897"),
    (-0.99951171875, "1.906555793086055331032518057872971922728e-451"),
    (-0.9990234375, "1.769840358205846164190289736715104102651e-228"),
    (-0.999, "3.004175659170224778342182627961162404628e-223"),
    (-0.998046875, "1.058279270768867129703595343973211437683e-116"),
    (-0.99609375, "1.636145011031730138391512523359350281719e-60"),
    (-0.9921875, "4.016931749089334137592171874095898451111e-32"),
    (-0.984375, "1.231745654943949969151797626645804270269e-17"),
    (-0.96875, "4.143866612571861496404139591315386130261e-10"),
    (-0.95, "4.03034420810631771120613538469121895128e-7"),
    (-0.9375, "4.483774650904936554317979789423247561086e-6"),
    (-0.875, "8.343380405325829230557083192616553394216e-4"),
    (-0.8125, "6.244752643759465550195011939919463210738e-3"),
    (-0.75, "1.931674152521013117067775509735816715116e-2"),
    (-0.6875, "4.075781770890251366033587074296838499985e-2"),
    (-0.625, "7.00512768369484948829433597294291567675e-2"),
    (-0.5625, "0.1062676353156302901560781890549221443436"),
    (-0.5, "0.1484092538367181233346001329308749510982"),
    (-0.4375, "0.195534705829199166092551647799751364868"),
    (-0.375, "0.2467936637854921724251484596600038196423"),
    (-0.3125, "0.3014274636482460134869356181581180105824"),
    (-0.3, "0.3126982489434705403687064251974569469526"),
    (-0.25, "0.3587575826733296221473099347451057577197"),
    (-0.1875, "0.4181707936341335518612170014976542157062"),
    (-0.125, "0.4791042659604840619563080180169851811729"),
    (-0.0625, "0.5410316368833322579117484037543933965254"),
    (0.0, "0.6034501612189380876681189981652416974166"),
    (0.0625, "0.6658686855545439174244895925760899983079"),
    (0.1, "0.7031158255094275756955980525611027299244"),
    (0.125, "0.7277960564773921133799299783134982136604"),
    (0.1875, "0.7887295288037426234750209948328291791271"),
    (0.25, "0.8481427397645465531889280615853776371136"),
    (0.3125, "0.9054728587896301618493023781723653842509"),
    (0.375, "0.960106658652384002911089536670479575191"),
    (0.4375, "1.011365616608677009243686348530732029965"),
    (0.5, "1.058491068601158052001637863399608443735"),
    (0.5625, "1.10063268712224588518015980727556125049"),
    (0.625, "1.136849045600927680453294636601054238066"),
    (0.6875, "1.166142504728973661675902125587515009833"),
    (0.7071067811865476, "1.173751552359313558124680112237710473319"),
    (0.75, "1.187583580912666044165560241233125227682"),
    (0.8125, "1.200655569794116709786042984390563931623"),
    (0.875, "1.206065984397343592413182288011221739494"),
    (0.9375, "1.206895838663225270399683678350693971586"),
    (0.96875, "1.206900322023489514079051846690069435702"),
    (0.984375, "1.206900322437876163018781446890983703315"),
    (0.9921875, "1.206900322437876175336237996330443225516"),
    (0.99609375, "1.206900322437876175336237996330483394833"),
    (0.998046875, "1.206900322437876175336237996330483394833"),
    (0.999, "1.206900322437876175336237996330483394833"),
    (0.9990234375, "1.206900322437876175336237996330483394833"),
    (0.99951171875, "1.206900322437876175336237996330483394833"),
    (0.999755859375, "1.206900322437876175336237996330483394833"),
    (0.9998779296875, "1.206900322437876175336237996330483394833"),
    (0.99993896484375, "1.206900322437876175336237996330483394833"),
    (0.999969482421875, "1.206900322437876175336237996330483394833"),
    (0.9999847412109375, "1.206900322437876175336237996330483394833"),
    (0.9999923706054688, "1.206900322437876175336237996330483394833"),
    (0.9999961853027344, "1.206900322437876175336237996330483394833"),
    (0.9999980926513672, "1.206900322437876175336237996330483394833"),
    (0.9999990463256836, "1.206900322437876175336237996330483394833"),
    (0.9999995231628418, "1.206900322437876175336237996330483394833"),
    (0.9999997615814209, "1.206900322437876175336237996330483394833"),
    (0.9999998807907104, "1.206900322437876175336237996330483394833"),
    (0.9999999403953552, "1.206900322437876175336237996330483394833"),
    (0.9999999701976776, "1.206900322437876175336237996330483394833"),
    (0.9999999850988388, "1.206900322437876175336237996330483394833"),
)


def _bump_bound(parts, a, b, mean):
    """The stated bound of a bump mean over [a, b]: per part (c, R, h) of
    G(v) = h R Phi((v - c)/R), 4 eps max(|G(a)|, |G(b)|)/(b - a)
    + 2 delta |h| R/(b - a) + 2^-1073/(b - a), plus eps |mean| + 2^-1074;
    the powers of 2 bound underflow."""
    delta = signals.BUMP_INTEGRAL_ERROR
    total = EPS * abs(mean) + 2.0 ** -1074
    for c, r, h in parts:
        g = abs(h) * r * np.max(signals.bump_integral(
            (np.array([a, b]) - c) / r))
        total += (4.0 * EPS * g + 2.0 * delta * abs(h) * r
                  + 2.0 ** -1073) / (b - a)
    return total


def _random_bump_parts(seed):
    """(center, radius, height) of each part, drawn as random_bump does."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    heights = rng.uniform(-2.0, 2.0, size=n)
    centers = rng.uniform(-1.5, 1.5, size=n)
    radii = rng.uniform(0.5, 1.5, size=n)
    return list(zip(centers, radii, heights))


class TestBumpMeans:
    """cc_bump and random_bump declare their cell means through the
    tabulated bump integral Phi (signals.bump_integral)."""

    def test_bump_integral_reference(self):
        ctx = decimal.Context(prec=60)
        delta = decimal.Decimal(signals.BUMP_INTEGRAL_ERROR)
        x = np.array([p for p, _ in _PHI_REFERENCE])
        got = signals.bump_integral(x)
        for (p, want), value in zip(_PHI_REFERENCE, got.tolist()):
            err = ctx.subtract(decimal.Decimal(value), decimal.Decimal(want))
            assert abs(err) <= delta, (p, float(err))
        # clipped beyond +-1: the values at the ends, bit for bit
        ends = signals.bump_integral(np.array([-1.0, 1.0]))
        beyond = signals.bump_integral(np.array(
            [-7.0, np.nextafter(-1.0, -2.0), -np.inf,
             np.nextafter(1.0, 2.0), 3.0, np.inf]))
        assert np.array_equal(beyond, np.repeat(ends, 3))
        assert abs(ends[0]) <= signals.BUMP_INTEGRAL_ERROR

    def test_table_built_once_on_first_use(self):
        # importing the package builds no table
        code = ("import expkant, expkant.signals as s; "
                "print(s._bump_integral_table.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                 sys.path)}).stdout
        assert out.strip() == "0"
        table = signals._bump_integral_table()
        assert signals._bump_integral_table() is table
        for arr in table:
            assert not arr.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(radius=st.floats(0.5, 3.0), height=st.floats(-2.0, 2.0),
           log2_w=st.integers(2, 12), far=st.floats(-1.0, 1.0),
           data=st.data())
    def test_cc_bump_within_the_bound(self, radius, height, log2_w, far,
                                      data):
        f = signals.cc_bump(radius, height)
        unit = signals.cc_bump(radius)
        w = 2.0 ** log2_w
        scheme = _drawn_scheme(data)

        def core(v):
            return float(unit.log_core(np.array([v]))[0])

        parts = [(0.0, radius, height)]
        for k in _cells_near(scheme, w, (0.0, -radius, radius, far * radius)):
            a, b = scheme.node(k) / w, scheme.node(k + 1) / w
            got = operator.mean_value(f, k, w, scheme)
            # the mean is linear in h: the unit bump's reference scaled by
            # h, which a subnormal h does not make underflow inside quad
            ref, err = _quad_mean(core, a, b, (-radius, radius))
            ref, err = height * ref, abs(height) * err
            assert abs(got - ref) <= _bump_bound(parts, a, b, got) + err

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), log2_w=st.integers(2, 12),
           data=st.data())
    def test_random_bump_within_the_bound(self, seed, log2_w, data):
        f = signals.random_bump(seed)
        parts = _random_bump_parts(seed)
        w = 2.0 ** log2_w
        scheme = _drawn_scheme(data)

        def core(v):
            return float(f.log_core(np.array([v]))[0])

        edges = [c + s * r for c, r, _ in parts for s in (-1.0, 1.0)]
        points = [c for c, _, _ in parts] + edges
        for k in _cells_near(scheme, w, points, count=2):
            a, b = scheme.node(k) / w, scheme.node(k + 1) / w
            got = operator.mean_value(f, k, w, scheme)
            ref, err = _quad_mean(core, a, b, edges)
            assert abs(got - ref) <= _bump_bound(parts, a, b, got) + err

    @pytest.mark.parametrize("scheme", [
        SamplingScheme.uniform(1.0, 0.37),
        SamplingScheme.tabulated((0.0, 0.3, 0.7), 1.1)], ids=["unit", "tab"])
    def test_cells_past_the_support_read_zero(self, scheme):
        for f in (signals.cc_bump(1.3, -1.7), signals.random_bump(11),
                  signals.random_bump(12).dilate(2.5)):
            rho = f.log_support_radius
            for w in (3.0, 64.0, 4096.0):
                # the cells that end at or before -rho, the cells that
                # start at or after rho
                k_first = scheme.index_range(-w * rho - 60.0, -w * rho)
                k_last = scheme.index_range(w * rho, w * rho + 60.0)
                for k_lo, k_hi in ((k_first[0], k_first[1] - 1), k_last):
                    got = operator.mean_values(f, k_lo, k_hi, w, scheme,
                                               QuadratureSpec())
                    assert got.size >= 30 and np.all(got == 0.0)

    def test_means_are_elementwise(self):
        # a cell's mean does not depend on the cells passed with it, on
        # their order or on the array's shape: adjacent cells, whose shared
        # edges are evaluated once, read the same as shuffled ones
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(-4.0, 4.0, 400))
        a, b = t[:-1], t[1:]
        order = rng.permutation(a.size)
        for f in (signals.cc_bump(1.9, 0.7), signals.random_bump(5),
                  signals.random_bump(8)):
            whole = f.log_mean(a, b)
            shuffled = f.log_mean(a[order], b[order])
            assert np.array_equal(shuffled, whole[order])
            one = f.log_mean(a[17], b[17])
            assert one.shape == () and one == whole[17]
            grid = f.log_mean(a.reshape(3, 133), b.reshape(3, 133))
            assert np.array_equal(grid, whole.reshape(3, 133))


class TestKantorovich:
    def test_constant_reproduction(self):
        f = signals.constant(2.5)
        k = bspline_kernel()
        for w in (3.0, 10.0, 41.0):
            for x in (0.4, 1.0, 2.7):
                val, bound = operator.eval_kantorovich(f, w, x, k, UNIT)
                assert val == pytest.approx(2.5, abs=1e-12)
                assert bound == 0.0

    def test_log_law(self):
        # K_w(ln)(x) = ln x + 1/(2w) away from the clipping region
        f = signals.clipped_log()
        k = bspline_kernel()
        val, _ = operator.eval_kantorovich(f, 10.0, 2.0, k, UNIT)
        assert val == pytest.approx(math.log(2.0) + 0.05, abs=1e-12)

    def test_zero_signal(self):
        f = signals.constant(0.0)
        val, _ = operator.eval_kantorovich(f, 5.0, 1.3, bspline_kernel(), UNIT)
        assert val == 0.0

    def test_compact_signal_empty_window_is_zero(self):
        f = signals.cc_bump(0.5)
        # x far outside the support: every retained mean vanishes
        val, bound = operator.eval_kantorovich(f, 8.0, 100.0,
                                               bspline_kernel(), UNIT)
        assert val == 0.0 and bound == 0.0

    def test_unbounded_signal_needs_metadata(self):
        raw = Signal("raw", lambda x: np.log(np.asarray(x, dtype=float)))
        with pytest.raises(EvaluationError):
            operator.eval_kantorovich(raw, 4.0, 2.0, bspline_kernel(), UNIT)

    def test_boundedness(self):
        f = signals.sin_log()
        k = bspline_kernel("soft", alpha=1.0)
        m0 = moments.moment_value(k.profile, UNIT, 0.0)
        cap = m0 * float(k.slope(np.array([f.sup_norm]))[0])
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.uniform(2.0, 40.0)
            x = math.exp(rng.uniform(-3, 3))
            val, _ = operator.eval_kantorovich(f, w, x, k, UNIT)
            assert abs(val) <= cap + 1e-9

    def test_lipschitz_contraction(self):
        # |K_w f - K_w g| <= M_0 * psi(||f - g||) for the identity response
        k = bspline_kernel()
        rng = np.random.default_rng(11)
        v = np.linspace(-4, 4, 20001)
        for seed in range(5):
            f = signals.random_bump(seed)
            g = signals.random_bump(seed + 50)
            diff = float(np.max(np.abs(f.log_evaluate(v) - g.log_evaluate(v))))
            w = rng.uniform(3.0, 30.0)
            x = math.exp(rng.uniform(-2, 2))
            vf, _ = operator.eval_kantorovich(f, w, x, k, UNIT)
            vg, _ = operator.eval_kantorovich(g, w, x, k, UNIT)
            assert abs(vf - vg) <= diff * (1.0 + 1e-3) + 1e-12

    def test_dilation_covariance(self):
        # (K_w f)(x e^{j/w}) = (K_w f_j)(x) with f_j(x) = f(x e^{j/w})
        k = bspline_kernel("soft", alpha=1.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = signals.random_bump(int(rng.integers(0, 100)))
            w = float(rng.integers(3, 20))
            j = int(rng.integers(-4, 5))
            x = math.exp(rng.uniform(-1, 1))
            c = math.exp(j / w)
            lhs, _ = operator.eval_kantorovich(f, w, x * c, k, UNIT)
            rhs, _ = operator.eval_kantorovich(f.dilate(c), w, x, k, UNIT)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(profile=st.sampled_from([make_builtin_profile("bspline", 2),
                                    make_builtin_profile("bspline", 3),
                                    make_builtin_profile("mellin_fejer")]),
           step=st.floats(0.25, 2.0), offset=st.floats(-1.0, 1.0),
           m=st.integers(-5, 5), w=st.floats(2.0, 40.0),
           log_x=st.floats(-2.0, 2.0), radius=st.floats(1.0, 2.5))
    def test_dilation_covariance_on_any_lattice(self, profile, step, offset,
                                                m, w, log_x, radius):
        # c = e^{m step / w} shifts the phase by m steps, onto the lattice:
        # K_w(f(c .))(x) = K_w f(c x)
        kernel = NonlinearKernel(profile, make_response("soft", alpha=1.0))
        scheme = SamplingScheme.uniform(step, offset)
        f = signals.cc_bump(radius)
        c = math.exp(m * step / w)
        x = math.exp(log_x)
        lhs, _ = operator.eval_kantorovich(f.dilate(c), w, x, kernel, scheme)
        rhs, _ = operator.eval_kantorovich(f, w, c * x, kernel, scheme)
        assert abs(lhs - rhs) <= 1e-13

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["constant", "clipped_log", "holder_bump",
                                 "cc_bump", "random_bump"]),
           p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0),
           n=st.integers(2, 4), m=st.integers(-5, 5),
           log2_w=st.floats(1.0, 8.0), log_x=st.floats(-2.0, 2.0),
           data=st.data())
    def test_dilation_covariance_of_declared_means(self, kind, p, q, n, m,
                                                   log2_w, log_x, data):
        # every built-in that declares its cell means, on unit and
        # tabulated schemes: c = e^{m P / w}, P the phase period, shifts
        # the nodes onto themselves, so K_w(f(c .))(x) = K_w f(c x) up to
        # the round-off of the shifted phase and cell edges
        f = {"constant": lambda: signals.constant(6.0 * p - 3.0),
             "clipped_log": lambda: signals.clipped_log(0.5 + 4.0 * p),
             "holder_bump": lambda: signals.holder_bump(0.3 + 0.7 * p,
                                                        1.0 + 2.0 * q),
             "cc_bump": lambda: signals.cc_bump(0.5 + 2.5 * p, 4.0 * q - 2.0),
             "random_bump": lambda: signals.random_bump(int(1000 * p)),
             }[kind]()
        assert f.log_mean is not None
        kernel = NonlinearKernel(make_builtin_profile("bspline", n),
                                 make_response("soft", alpha=1.0))
        scheme = _drawn_scheme(data)
        w, x = 2.0 ** log2_w, math.exp(log_x)
        period = scheme.phase_period
        c = math.exp(m * period / w)
        g = f.dilate(c)
        a = np.linspace(-3.0, 3.0, 41)
        assert np.array_equal(g.log_mean(a[:-1], a[1:]),
                              f.log_mean(a[:-1] + math.log(c),
                                         a[1:] + math.log(c)))
        lhs, _ = operator.eval_kantorovich(g, w, x, kernel, scheme)
        rhs, _ = operator.eval_kantorovich(f, w, c * x, kernel, scheme)
        # phases of size |y| = |w ln(c x)| carry eps |y| each
        scale = w + abs(w * math.log(c * x)) + abs(m) * period
        assert abs(lhs - rhs) <= 8.0 * EPS * max(1.0, f.sup_norm) * scale

    # (scheme, x, moment bound psi(2c) M_1/2 / half^1/2 of 2M-term windows,
    # the least factor by which the lattice-tail bound of MAX_RETAINED_TERMS
    # terms lies below it); the moment bound falls like half^-1/2 and the
    # tail like 1/(P half) with half proportional to the lower gap, so the
    # factor shrinks with the gaps: 17.8 at step 0.5, 13.9 on the
    # tabulated scheme with lower gap 0.3, 25.4 at unit step, 82 at step 6
    TRUNCATION_CASES = (
        (SamplingScheme.uniform(0.5, 0.0), 1.0, 6.799e-3, 15.0),
        (SamplingScheme.uniform(1.0, 0.3), 2.7, 2.423e-3, 25.0),
        (SamplingScheme.uniform(2.5, -0.7), 0.4, 6.365e-4, 25.0),
        (SamplingScheme.uniform(6.0, 1.1), 1.9, 2.180e-4, 25.0),
        (SamplingScheme.tabulated((0.0, 0.3, 1.1), 1.6), 1.3, 8.309e-3,
         12.0),
    )

    def test_truncation_soundness(self):
        # Fejer x constant(c), identity response, phase period P < 2 pi:
        # m0 = (classes)/P at every phase (Poisson summation), so K_w c is
        # c m0 exactly and the truncated sum misses it by the dropped
        # tail, which the bound must cover
        c = 0.75
        for scheme, x, moment_bound, factor in self.TRUNCATION_CASES:
            m0 = len(scheme.base or (0,)) / scheme.phase_period
            value, bound = operator.eval_kantorovich(
                signals.constant(c), 4.0, x, fejer_kernel(), scheme)
            assert 0.0 < bound <= moment_bound / factor
            assert abs(value - c * m0) <= bound
            # the tail is positive: the truncated sum stays below c m0
            assert value <= c * m0 * (1.0 + 1e-12)

    @pytest.mark.parametrize("response, w", [("identity", 4.0),
                                             ("soft", 0.25)])
    def test_truncation_bound_is_sharp(self, response, w):
        # Fejer x constant(c): every dropped term is g_w(c) times its
        # profile value, so the truncated sum misses g_w(c) m0 by g_w(c)
        # times the lattice tail, and the bound, sup |g_w| over [-c, c]
        # times the tail's closed-form bound, lies just above that.  For
        # soft(1) at w = 0.25, |g_w(c)| = 3.29 exceeds psi(c) = 1.5: w^-1 > 1
        # breaks (chi3), and the monotone response's own values bound it
        c = 0.75
        kernel = fejer_kernel(response, alpha=1.0)
        g = float(kernel.response(w, np.array([c]))[0])
        for scheme, x, _, _ in self.TRUNCATION_CASES:
            m0 = len(scheme.base or (0,)) / scheme.phase_period
            value, bound = operator.eval_kantorovich(
                signals.constant(c), w, x, kernel, scheme)
            error = g * m0 - value
            assert 0.0 < error <= bound <= 1.01 * error

    @pytest.mark.parametrize("step", [1.0, 2.5])
    @pytest.mark.parametrize("w", [4.0, 32.0])
    def test_fejer_sin_log_within_bound_of_wider_window(self, monkeypatch,
                                                        step, w):
        # the MAX_RETAINED_TERMS window against one 100 times wider: both
        # hold the same terms but for the dropped tails, so the two values
        # differ by at most the sum of their bounds
        kernel = fejer_kernel("soft", alpha=1.0)
        scheme = SamplingScheme.uniform(step)
        f = signals.sin_log()
        value, bound = operator.eval_kantorovich(f, w, 1.37, kernel, scheme)
        monkeypatch.setattr(operator, "MAX_RETAINED_TERMS",
                            100 * operator.MAX_RETAINED_TERMS)
        ref, ref_bound = operator.eval_kantorovich(f, w, 1.37, kernel, scheme)
        assert np.isfinite(value) and 0.0 < ref_bound < bound < 3e-4
        assert abs(value - ref) <= bound + ref_bound

    def test_compact_profile_bound_is_zero(self):
        f = signals.sin_log()
        _, bound = operator.eval_kantorovich(f, 6.0, 1.5, bspline_kernel(),
                                             UNIT)
        assert bound == 0.0

    def test_compactly_supported_signal_is_exact(self):
        # Fejer on a compactly supported signal: the whole support is summed
        _, bound = operator.eval_kantorovich(signals.cc_bump(1.5), 6.0, 1.2,
                                             fejer_kernel(), UNIT)
        assert bound == 0.0

    def test_undeclared_signal_raises(self):
        f = Signal("bare", lambda x: np.ones_like(np.asarray(x, dtype=float)))
        for kernel in (bspline_kernel(), fejer_kernel()):
            with pytest.raises(EvaluationError, match="sup norm"):
                operator.eval_kantorovich(f, 4.0, 1.0, kernel, UNIT)


class TestFejerSmallSignals:
    """Fejer at unit step with the identity response on signals whose sup
    norm makes the moment tail bound tiny or zero: the retained window is
    the MAX_RETAINED_TERMS cap whatever the bound."""

    @pytest.mark.parametrize("w", [1.0, 8.0])
    def test_zero_signal(self, w):
        f = signals.constant(0.0)
        k = fejer_kernel()
        assert operator.eval_kantorovich(f, w, 1.0, k, UNIT) == (0.0, 0.0)
        assert operator.sup_error(f, w, [1.0], k, UNIT) == 0.0
        assert operator.eval_generalized(f, w, 1.0, k, UNIT) == 0.0

    def test_zero_signal_pointwise_config(self):
        from expkant import experiments
        report = experiments.run({
            "experiment": "converge_pointwise",
            "kernel": {"profile": {"name": "mellin_fejer"}},
            "signal": {"name": "constant", "c": 0.0},
            "w_list": [1, 2, 4, 8], "x": 1.0})
        assert [row["error"] for row in report["rows"]] == [0.0] * 4
        assert report["passed"]

    @pytest.mark.parametrize("w", [1.0, 8.0])
    def test_tiny_signal_within_bound(self, w):
        c = 1e-12
        value, bound = operator.eval_kantorovich(signals.constant(c), w, 1.37,
                                                 fejer_kernel(), UNIT)
        assert 0.0 < bound < 1e-14
        assert abs(value - c) <= bound


class TestGeneralized:
    def test_constant(self):
        f = signals.constant(4.2)
        assert operator.eval_generalized(f, 7.0, 1.9, bspline_kernel(),
                                         UNIT) == pytest.approx(4.2, abs=1e-12)

    def test_log_exact(self):
        # sample-value operator reproduces ln exactly (first-moment identity)
        f = signals.clipped_log()
        val = operator.eval_generalized(f, 10.0, 2.0, bspline_kernel(), UNIT)
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 5), w=st.floats(0.5, 256.0),
           log_x=st.floats(-40.0, 40.0))
    def test_log_law_at_unit_step(self, n, w, log_x):
        # S_w ln = ln at unit step: sum_k B(y - k) k = y for the centred
        # B-spline, with every retained sample inside the clip
        kernel = NonlinearKernel(make_builtin_profile("bspline", n),
                                 make_response("identity"))
        x = math.exp(log_x)
        val = operator.eval_generalized(signals.clipped_log(50.0), w, x,
                                        kernel, UNIT)
        assert abs(val - math.log(x)) <= 1e-13 * max(1.0, abs(math.log(x)))

    def test_zero(self):
        f = signals.constant(0.0)
        assert operator.eval_generalized(f, 5.0, 0.8, bspline_kernel(),
                                         UNIT) == 0.0


class TestGrids:
    def test_sup_error_log_signal(self):
        f = signals.clipped_log()
        grid = np.geomspace(0.5, 2.0, 9)
        err = operator.sup_error(f, 8.0, grid, bspline_kernel(), UNIT)
        assert err == pytest.approx(1.0 / 16.0, abs=1e-10)

    def test_sup_error_halves_when_w_doubles(self):
        f = signals.clipped_log()
        grid = np.geomspace(0.5, 2.0, 9)
        e1 = operator.sup_error(f, 8.0, grid, bspline_kernel(), UNIT)
        e2 = operator.sup_error(f, 16.0, grid, bspline_kernel(), UNIT)
        assert e2 == pytest.approx(e1 / 2.0, rel=1e-9)

    @pytest.mark.parametrize("kernel, f, scheme, w, grid", [
        (fejer_kernel(), signals.holder_bump(0.5), UNIT, 16.0,
         np.geomspace(0.3, 3.0, 9)),
        # points 6.4 apart in w ln x, windows 4 wide: one run per point
        (NonlinearKernel(make_builtin_profile("bspline", 3),
                         make_response("soft", alpha=1.0)),
         signals.cc_bump(), UNIT, 24.0, np.geomspace(0.2, 5.0, 13)),
        (bspline_kernel(), signals.clipped_log(),
         SamplingScheme.tabulated((0.0, 0.3, 0.7), 1.1), 8.0,
         np.geomspace(0.5, 2.0, 9)),
        (fejer_kernel(), signals.cc_bump(), UNIT, 12.0,
         np.exp(np.linspace(-1.8, 1.8, 21))),
    ], ids=["fejer-holder", "bspline3-cc", "bspline2-log-tabulated",
            "fejer-cc-21"])
    def test_sup_error_is_the_max_of_point_evaluations(self, kernel, f,
                                                       scheme, w, grid):
        ref = max(abs(operator.eval_kantorovich(f, w, float(x), kernel,
                                                scheme)[0] - float(f(x)))
                  for x in grid)
        got = operator.sup_error(f, w, grid, kernel, scheme)
        assert abs(got - ref) <= 1e-15 * max(1.0, ref)

    def test_sup_error_validation(self):
        f = signals.constant(1.0)
        with pytest.raises(Exception):
            operator.sup_error(f, 4.0, [], bspline_kernel(), UNIT)
        with pytest.raises(Exception):
            operator.sup_error(f, 4.0, [-1.0], bspline_kernel(), UNIT)

    def test_eval_on_log_grid_refuses_heavy_tailed_profiles(self):
        with pytest.raises(ValidationError, match="compact profile"):
            operator.eval_on_log_grid(signals.cc_bump(1.75), 8.0,
                                      fejer_kernel(), UNIT)

    def test_eval_on_log_grid_matches_pointwise(self):
        f = signals.cc_bump(1.5)
        k = bspline_kernel("soft", alpha=1.0)
        gf = operator.eval_on_log_grid(f, 12.0, k, UNIT)
        for x in (0.7, 1.0, 1.8):
            direct, _ = operator.eval_kantorovich(f, 12.0, x, k, UNIT)
            assert float(gf.evaluate(np.array([x]))[0]) == pytest.approx(
                direct, abs=1e-6)

    def test_grid_function_zero_outside(self):
        gf = operator.GridFunction(np.linspace(-1, 1, 11), np.ones(11))
        assert gf.log_evaluate(np.array([5.0]))[0] == 0.0


class TestUnitLatticePath:
    """B-spline series on uniform schemes of step 1 are summed from the
    spline's piece table (backend.bspline_lattice_sum).  The tabulated
    scheme with one base point per unit period has the same nodes, as the
    same floats, and takes the banded profile sum."""

    @staticmethod
    def schemes(offset):
        return (SamplingScheme.uniform(1.0, offset),
                SamplingScheme.tabulated((offset,), 1.0))

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("offset", [0.0, 0.37, -2.6])
    def test_agrees_with_the_banded_sum(self, n, offset):
        kernel = NonlinearKernel(make_builtin_profile("bspline", n),
                                 make_response("soft", alpha=1.0))
        lattice, tabulated = self.schemes(offset)
        f = signals.random_bump(11)
        eps = np.finfo(float).eps
        for w in (3.0, 24.0, 256.0):
            a = operator.eval_on_log_grid(f, w, kernel, lattice)
            b = operator.eval_on_log_grid(f, w, kernel, tabulated)
            scale = f.sup_norm + 1.0  # bounds |g_w| of the soft response
            bound = 4.0 * eps * scale * (1.0 + np.abs(w * a.v).max() + abs(offset))
            assert np.abs(a.values - b.values).max() <= bound
            # points far apart in w ln x: one run each
            grid = np.exp(np.linspace(-1.5, 1.5, 7))
            assert len(operator._runs(w * np.log(grid), 0.5 * (n + 1), None,
                                      lattice)[0]) == (7 if w > 3.0 else 1)
            got = [operator.eval_kantorovich(f, w, x, kernel, s)[0]
                   for s in (lattice, tabulated) for x in (0.6, 1.3)]
            assert np.abs(np.subtract(got[:2], got[2:])).max() <= bound
            assert abs(operator.sup_error(f, w, grid, kernel, lattice)
                       - operator.sup_error(f, w, grid, kernel, tabulated)) <= bound

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("offset", [0.0, 0.37, -2.6])
    def test_constant_reproduction(self, n, offset):
        kernel = NonlinearKernel(make_builtin_profile("bspline", n),
                                 make_response("identity"))
        grid = np.exp(np.linspace(-2.0, 2.0, 41))
        for w in (3.0, 41.0, 512.0):
            err = operator.sup_error(signals.constant(2.5), w, grid, kernel,
                                     self.schemes(offset)[0])
            assert err < 1e-13


@settings(max_examples=80, deadline=None)
@given(ys=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=30),
       half=st.floats(0.5, 4.0), offset=st.floats(0.0, 1.0),
       tabulated=st.booleans(),
       support=st.one_of(st.none(), st.tuples(st.floats(-40.0, 0.0),
                                              st.floats(0.0, 40.0))))
def test_runs_hold_each_window(ys, half, offset, tabulated, support):
    # every phase's window, clipped to the support, lies inside one run;
    # runs ascend and are neither adjacent nor overlapping
    scheme = (SamplingScheme.tabulated((offset, offset + 0.4), 1.3)
              if tabulated else SamplingScheme.uniform(1.0, offset))
    ys = np.array(ys)
    runs, _ = operator._runs(ys, half, support, scheme)
    assert all(b + 1 < c for (_, b), (c, _) in zip(runs, runs[1:]))
    for y in ys.tolist():
        lo, hi = y - half, y + half
        if support is not None:
            lo, hi = max(lo, support[0]), min(hi, support[1])
        k_lo, k_hi = scheme.index_range(lo, hi)
        if k_lo <= k_hi:
            assert sum(a <= k_lo and k_hi <= b for a, b in runs) == 1
