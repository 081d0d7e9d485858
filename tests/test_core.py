"""Domain types: schemes, profiles, responses, signals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expkant import backend, core, moments, signals
from expkant.core import (KernelProfile, NonlinearKernel, SamplingScheme,
                          ValidationError, make_builtin_profile, make_response)


class TestSamplingScheme:
    def test_uniform_nodes(self):
        s = SamplingScheme.uniform(0.5, offset=0.25)
        assert s.node(0) == 0.25
        assert s.node(3) == 1.75
        np.testing.assert_allclose(s.nodes(-2, 2),
                                   [-0.75, -0.25, 0.25, 0.75, 1.25])
        assert s.lower_gap == s.upper_gap == 0.5

    def test_unit_uniform_flag(self):
        assert SamplingScheme.uniform().is_unit_uniform
        assert not SamplingScheme.uniform(2.0).is_unit_uniform
        assert not SamplingScheme.uniform(1.0, offset=0.5).is_unit_uniform

    def test_index_range_uniform(self):
        s = SamplingScheme.uniform()
        assert s.index_range(-2.0, 3.5) == (-2, 3)
        assert s.index_range(0.5, 0.9) == (1, 0)  # empty

    def test_tabulated_periodic_extension(self):
        s = SamplingScheme.tabulated([0.0, 0.4, 1.1], period=2.0)
        # t_{3q+i} = 2q + base_i
        assert s.node(3) == pytest.approx(2.0)
        assert s.node(-1) == pytest.approx(-2.0 + 1.1)
        assert s.lower_gap == pytest.approx(0.4)
        assert s.upper_gap == pytest.approx(0.9)
        # every node from nodes() respects the gap bounds
        t = s.nodes(-7, 7)
        d = np.diff(t)
        assert np.all(d >= s.lower_gap - 1e-12)
        assert np.all(d <= s.upper_gap + 1e-12)

    def test_tabulated_index_range(self):
        s = SamplingScheme.tabulated([0.0, 0.4, 1.1], period=2.0)
        k_lo, k_hi = s.index_range(-1.0, 2.5)
        t = s.nodes(k_lo, k_hi)
        assert t[0] >= -1.0 - 1e-9 and t[-1] <= 2.5 + 1e-9
        assert s.node(k_lo - 1) < -1.0 and s.node(k_hi + 1) > 2.5

    def test_validation(self):
        with pytest.raises(ValidationError):
            SamplingScheme.uniform(0.0)
        with pytest.raises(ValidationError):
            SamplingScheme.tabulated([0.0, 1.0], period=0.5)
        with pytest.raises(ValidationError):
            SamplingScheme.tabulated([1.0, 0.5], period=3.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                SamplingScheme.uniform(bad)
            with pytest.raises(ValidationError):
                SamplingScheme.uniform(1.0, offset=bad)
            with pytest.raises(ValidationError):
                SamplingScheme.tabulated([0.0, bad], period=3.0)
            with pytest.raises(ValidationError):
                SamplingScheme.tabulated([0.0, 1.0], period=bad)

    @pytest.mark.parametrize("base, period", [
        ([0.0], 1.0), ((0.5, 0.2), 1.0), ((0.3, 0.3), 1.0), ((), 1.0),
        ((0,), 1.0), ((0.0, 0.4), 0.4), ((0.0,), 0.0), ((math.nan,), 1.0),
        ((0.0, math.inf), 1.0), ((0.0,), math.inf)],
        ids=["list", "decreasing", "repeated", "empty", "int", "short",
             "zero-period", "nan-base", "inf-base", "inf-period"])
    def test_direct_construction_is_checked(self, base, period):
        # the pair is checked where it is built, whether or not through
        # uniform or tabulated
        with pytest.raises(ValidationError):
            SamplingScheme(base, period)

    @settings(max_examples=200, deadline=None)
    @given(step=st.floats(0.01, 100.0), offset=st.floats(-100.0, 100.0))
    def test_uniform_is_a_one_point_base(self, step, offset):
        u = SamplingScheme.uniform(step, offset)
        t = SamplingScheme.tabulated((offset,), step)
        assert u == t and hash(u) == hash(t)
        assert (u.base, u.period) == ((offset,), step)
        assert u.lower_gap == u.upper_gap == step

    @settings(max_examples=200, deadline=None)
    @given(step=st.floats(0.01, 100.0), offset=st.floats(-100.0, 100.0),
           k_lo=st.integers(-10**6, 10**6), count=st.integers(0, 50))
    def test_uniform_nodes_bitwise(self, step, offset, k_lo, count):
        s = SamplingScheme.uniform(step, offset)
        ks = np.arange(k_lo, k_lo + count)
        assert np.array_equal(s.nodes(k_lo, k_lo + count - 1),
                              offset + ks * step)
        assert s.node(k_lo) == offset + k_lo * step

    @staticmethod
    def _drawn_scheme(data):
        if data.draw(st.booleans(), label="tabulated"):
            gaps = data.draw(st.lists(st.floats(0.01, 10.0), min_size=1,
                                      max_size=6), label="gaps")
            start = data.draw(st.floats(-50.0, 50.0), label="start")
            base = start + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
            return SamplingScheme.tabulated(base, float(sum(gaps)))
        return SamplingScheme.uniform(data.draw(st.floats(0.01, 10.0)),
                                      data.draw(st.floats(-50.0, 50.0)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_index_range_matches_a_node_scan(self, data):
        # every node inside [lo, hi] is in the range, and every node of the
        # range lies inside up to the 1e-12 period tolerance of the closed
        # form; the edges are drawn on nodes too
        s = self._drawn_scheme(data)
        m, p = len(s.base), s.period

        def node(k):
            q, i = divmod(k, m)
            return q * p + s.base[i]

        span = 40 * m
        ks = range(-span, span + 1)
        t = [node(k) for k in ks]
        j = data.draw(st.integers(-span // 2, span // 2), label="j")
        if data.draw(st.booleans(), label="on a node"):
            lo = node(j)
        else:
            lo = node(j) + data.draw(st.floats(-p, p), label="lo shift")
        hi = lo + data.draw(st.floats(0.0, 10.0 * p), label="width")
        if data.draw(st.booleans(), label="hi on a node"):
            hi = max(lo, max(tk for tk in t if tk <= hi))
        k_lo, k_hi = s.index_range(lo, hi)
        inside = [k for k, tk in zip(ks, t) if lo <= tk <= hi]
        assert all(k_lo <= k <= k_hi for k in inside)
        tol = 4e-12 * max(p, abs(lo), abs(hi), 1.0)
        assert all(lo - tol <= node(k) <= hi + tol
                   for k in range(k_lo, k_hi + 1))


class TestProfiles:
    def test_bspline_center_value(self):
        p = make_builtin_profile("bspline", 2)
        assert p.log_values(np.array([0.0]))[0] == pytest.approx(0.75, abs=1e-14)

    def test_bspline_support_boundary(self):
        p = make_builtin_profile("bspline", 2)
        assert p.log_values(np.array([1.5]))[0] == 0.0
        assert p.log_values(np.array([-1.5]))[0] == 0.0
        assert p.log_values(np.array([1.49]))[0] > 0.0
        assert p.support_radius == 1.5

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bspline_partition_of_unity(self, n):
        p = make_builtin_profile("bspline", n)
        v = np.linspace(-0.5, 0.5, 101)
        k = np.arange(-n - 2, n + 3)
        sums = p.log_values(v[:, None] - k[None, :]).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_bspline_matches_indicator_convolution(self):
        # B_n = (n+1)-fold convolution of the unit indicator, by quadrature
        p = make_builtin_profile("bspline", 2)
        u = np.linspace(-0.5, 0.5, 20001)
        du = u[1] - u[0]
        for v in (0.0, 0.3, -0.7, 1.2):
            # B_2(v) = int B_1(v - u) du over [-1/2, 1/2]
            b1 = np.maximum(0.0, 1.0 - np.abs(v - u))
            assert float(np.trapezoid(b1, dx=du)) == pytest.approx(
                float(p.log_values(np.array([v]))[0]), abs=1e-7)

    def test_fejer_properties(self):
        p = make_builtin_profile("mellin_fejer")
        assert p.log_values(np.array([0.0]))[0] == pytest.approx(
            1.0 / (2 * math.pi))
        v = np.linspace(-50, 50, 10001)
        assert np.all(p.log_values(v) >= 0.0)
        # (1 - cos v)/(pi v^2) <= 2/(pi v^2)
        big = np.array([10.0, 100.0, -40.0])
        assert np.all(p.log_values(big) <= 2.0 / (math.pi * big ** 2) + 1e-15)

    @pytest.mark.parametrize("name, n", [("bspline", 2), ("bspline", 3),
                                         ("bspline", 4), ("bspline", 5),
                                         ("mellin_fejer", 2)])
    def test_attributes_come_from_the_kind_table(self, name, n):
        p = make_builtin_profile(name, n)
        label, values, radius = backend._kind(p.kind, p.order)
        assert (p.kind, p.order) == ((backend.KIND_BSPLINE, n)
                                     if name == "bspline"
                                     else (backend.KIND_FEJER, 0))
        assert p.name == label == (f"bspline({n})" if name == "bspline"
                                   else "mellin_fejer")
        assert p.support_radius == radius
        assert p.is_compact is (radius is not None)
        assert p.l1_log_norm == 1.0
        v = np.linspace(-9.0, 9.0, 1001)
        assert np.array_equal(p.log_values(v), values(v))
        # derived once, at construction
        assert p.log_values is p.log_values

    def test_profiles_compare_by_identity(self):
        a = make_builtin_profile("bspline", 3)
        assert a == a and a != make_builtin_profile("bspline", 3)

    def test_unknown_kind_fails_at_construction(self):
        with pytest.raises(ValidationError, match="unknown profile kind"):
            KernelProfile(7, 2)

    def test_fejer_l1_norm_quadrature(self):
        p = make_builtin_profile("mellin_fejer")
        # upper bound: Gauss panels to 400 plus the closed-form tail bound
        got = moments._log_tail_integral(p, 0.0)
        assert 1.0 - 1e-9 <= got <= 1.0 + 5e-3

    def test_errors(self):
        with pytest.raises(ValidationError):
            make_builtin_profile("bspline", 1)
        with pytest.raises(ValidationError):
            make_builtin_profile("nope")


class TestResponses:
    def test_identity(self):
        r = make_response("identity")
        assert r(10.0, np.array([0.3]))[0] == 0.3
        assert r.deviation_rate is None

    def test_soft_zero_and_deviation(self):
        r = make_response("soft", alpha=1.0)
        for w in (2.0, 8.0, 100.0):
            assert r(w, np.array([0.0]))[0] == 0.0
        u = np.linspace(-10, 10, 4001)
        for w in (4.0, 16.0, 64.0):
            dev = np.max(np.abs(r(w, u) - u))
            assert dev <= 1.0 / w + 1e-15

    def test_soft_power_slope(self):
        r = make_response("soft_power", alpha=1.0, r=0.5)
        assert r(8.0, np.array([0.0]))[0] == 0.0
        assert r.lipschitz_slope.growth_exponent == 0.5

    def test_slope_concavity_midpoint(self):
        psi = make_response("soft", alpha=1.0).lipschitz_slope
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 5, 50)
        b = rng.uniform(0, 5, 50)
        mid = psi((a + b) / 2)
        assert np.all(mid >= (psi(a) + psi(b)) / 2 - 1e-12)

    def test_kernel_slope_is_the_response_slope(self):
        response = make_response("soft", alpha=2.0)
        k = NonlinearKernel(make_builtin_profile("bspline", 2), response)
        assert k.slope is response.lipschitz_slope

    def test_kernel_vanishes_at_zero(self):
        k = NonlinearKernel(make_builtin_profile("bspline", 2),
                            make_response("soft", alpha=2.0))
        assert np.all(k.response(5.0, np.zeros(7)) == 0.0)

    def test_errors(self):
        with pytest.raises(ValidationError):
            make_response("soft", alpha=0.0)
        with pytest.raises(ValidationError):
            make_response("soft_power", alpha=1.0, r=1.5)
        with pytest.raises(ValidationError):
            make_response("nope")


def slope_margin(response, w, gaps):
    """max of |g_w(u) - g_w(v)| - psi(|u - v|) over the pairs u = -v = d/2
    (the worst for these odd responses) and u = c, v = c + d with c on a
    grid of [-3, 3], for each gap d in gaps."""
    d = np.asarray(gaps, dtype=float)
    c = np.linspace(-3.0, 3.0, 61)[:, None]
    u = np.concatenate([0.5 * d[None, :], c + 0.0 * d])
    v = np.concatenate([-0.5 * d[None, :], c + d])
    moved = np.abs(response(w, u) - response(w, v))
    return float(np.max(moved - response.lipschitz_slope(np.abs(u - v))))


class TestSlopeRanges:
    """psi bounds the response's Lipschitz modulus on its slope_range, and
    not just below its least w, nor at that w just past a finite gap
    bound."""

    GAPS = np.geomspace(1e-4, 1.0, 400)

    def test_identity_holds_everywhere(self):
        r = make_response("identity")
        assert r.slope_range == (0.0, math.inf)
        assert slope_margin(r, 1e-6, np.geomspace(1e-4, 1e3, 200)) <= 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_soft_from_w_1(self, alpha):
        r = make_response("soft", alpha=alpha)
        assert r.slope_range == (1.0, math.inf)
        gaps = np.geomspace(1e-4, 1e3, 400)
        assert slope_margin(r, 1.0, gaps) <= 1e-12
        assert slope_margin(r, 1.0 - 1e-3, gaps) > 0.0

    @pytest.mark.parametrize("alpha, r", [(1.0, 0.5), (2.0, 0.25),
                                          (0.5, 0.75), (1.5, 1.0)])
    def test_soft_power_at_its_threshold(self, alpha, r):
        resp = make_response("soft_power", alpha=alpha, r=r)
        w_min, gap_max = resp.slope_range
        assert w_min == 2.0 ** ((1.0 - r) / alpha)
        assert gap_max == (1.0 if r < 1.0 else math.inf)
        gaps = self.GAPS if r < 1.0 else np.geomspace(1e-4, 1e3, 400)
        assert slope_margin(resp, w_min, gaps) <= 1e-12
        assert slope_margin(resp, w_min * (1.0 - 1e-3), gaps) > 0.0
        if r < 1.0:
            # at the least w, a gap just past 1 breaks psi
            assert slope_margin(resp, w_min, [1.01]) > 0.0

    def test_soft_power_gap_bound(self):
        # alpha = 1, r = 1/2: the margin at gap 1 crosses 0 at w = sqrt 2,
        # and a gap of 9 breaks psi by 3 at any w
        resp = make_response("soft_power", alpha=1.0, r=0.5)
        assert slope_margin(resp, 1.0, [1.0]) == pytest.approx(
            math.sqrt(2.0) - 1.0)
        assert slope_margin(resp, 1.40, [1.0]) > 0.0
        assert slope_margin(resp, 1.415, [1.0]) < 0.0
        assert slope_margin(resp, 1e6, [9.0]) == pytest.approx(3.0, abs=1e-5)


class TestSignals:
    def test_support_metadata(self):
        f = signals.holder_bump(0.5, radius=2.0)
        x = np.array([math.exp(2.01), math.exp(-2.01)])
        assert np.all(f(x) == 0.0)
        assert f.log_support_radius == pytest.approx(2.0)

    def test_sup_norm_bound(self):
        # and the declared spread bounds sup f - inf f, within 2 ||f||
        for f in (signals.constant(-0.75), signals.clipped_log(2.0),
                  signals.power_clipped(-0.5, 2.0), signals.sin_log(),
                  signals.holder_bump(0.5), signals.cc_bump(height=-2.0),
                  signals.random_bump(3)):
            values = f.log_evaluate(np.linspace(-12.0, 12.0, 100_001))
            assert np.all(np.abs(values) <= f.sup_norm + 1e-12)
            assert float(values.max() - values.min()) <= f.spread
            assert f.spread <= 2.0 * f.sup_norm

    def test_dilate(self):
        f = signals.cc_bump(1.0)
        g = f.dilate(math.e)
        x = np.array([0.3, 1.0, 2.0])
        np.testing.assert_allclose(g(x), f(x * math.e))
        assert g.log_support_radius == pytest.approx(2.0)
        assert g.spread == f.spread == 1.0

    def test_difference_signal(self):
        f, g = signals.cc_bump(1.0), signals.cc_bump(2.0, height=0.5)
        d = core.difference_signal(f, g)
        x = np.geomspace(0.2, 5.0, 11)
        np.testing.assert_allclose(d(x), f(x) - g(x))
        assert d.support == max(f.support, g.support)
        assert d.spread == 1.5
        bare = core.Signal("bare", log_core=np.sin, sup_norm=1.0)
        assert core.difference_signal(f, bare).spread is None

    LOG_NATIVE = (signals.constant(2.5), signals.clipped_log(),
                  signals.clipped_log(3.3), signals.power_clipped(0.7),
                  signals.power_clipped(-1.3, 4.0), signals.holder_bump(0.5),
                  signals.holder_bump(1.0, 1.5), signals.holder_bump(0.3, 3.0),
                  signals.cc_bump(), signals.random_bump(3),
                  signals.random_bump(17), signals.sin_log())

    def test_log_native_builtins(self):
        # every built-in evaluates its log core directly; the round trip
        # through exp and log moves v by about one ulp, so the grid keeps
        # |v| >= 0.01 off the cusp of the Holder bumps (v = 0 itself is
        # exact), and sin_log, of slope up to 1 at values up to 1, differs
        # by up to a few ulp of v
        v = np.linspace(-700.0, 700.0, 140001)
        for f in self.LOG_NATIVE:
            assert f.log_core is not None
            direct, round_trip = f.log_evaluate(v), f.evaluate(np.exp(v))
            scale = np.maximum(np.maximum(np.abs(direct), np.abs(round_trip)), 1.0)
            if f.name == "sin_log":
                scale = np.maximum(scale, np.abs(v))
            assert np.all(np.abs(direct - round_trip) <= 4.0 * np.spacing(scale)), f.name

    def test_log_native_far_out(self):
        # no underflow: v = -800 is x = 0 to exp
        v = np.array([-800.0, 800.0])
        np.testing.assert_array_equal(signals.clipped_log().log_evaluate(v),
                                      [-7.0, 7.0])
        np.testing.assert_array_equal(signals.constant(1.5).log_evaluate(v),
                                      [1.5, 1.5])
        # x = 0 and x = inf are query points: ln 0 = -inf raises no warning
        with np.errstate(divide="raise"):
            np.testing.assert_array_equal(
                signals.clipped_log()(np.array([0.0, np.inf])), [-7.0, 7.0])

    def test_random_bump_parts(self):
        # the seeded draws, replayed: each part is cc_bump(r, h) centred at
        # c in the log variable, f(x) = sum_i cc_bump(r_i, h_i)(x e^-c_i)
        x = np.geomspace(0.02, 50.0, 401)
        for seed in (0, 3, 17):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 4))
            heights = rng.uniform(-2.0, 2.0, size=n)
            centers = rng.uniform(-1.5, 1.5, size=n)
            radii = rng.uniform(0.5, 1.5, size=n)
            want = sum(signals.cc_bump(r, h)(x * math.exp(-c))
                       for r, h, c in zip(radii, heights, centers))
            np.testing.assert_allclose(signals.random_bump(seed)(x), want,
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("meta", [
        {"support": 0.5}, {"support": 1.0}, {"support": math.nan},
        {"support": math.inf}, {"sup_norm": -1.0}, {"sup_norm": math.inf},
        {"spread": -0.5}, {"spread": math.nan}, {"holder": (0.0, 1.0)},
        {"holder": (1.5, 1.0)}, {"holder": (1.0, -1.0)},
        {"holder": (0.5, math.inf)}, {"holder": (1.0,)}, {"holder": "x"}],
        ids=lambda m: "-".join(f"{k}={v!r}" for k, v in m.items()))
    def test_signal_refuses_bad_metadata(self, meta):
        # with support 0.5, modular(phi_power(1), f, 1) read -1.386
        with pytest.raises(ValidationError):
            core.Signal("bad", log_core=np.cos, **meta)

    def test_signal_accepts_declared_metadata(self):
        f = core.Signal("ok", log_core=np.cos, sup_norm=0.0, spread=0.0,
                        support=1.5, holder=(1.0, None))
        assert f.holder == (1.0, None)
        assert core.Signal("ok", np.cos, holder=(0.25, 0.0)).holder[0] == 0.25
        for f in self.LOG_NATIVE:
            assert f.dilate(2.0).support == (
                None if f.support is None else pytest.approx(
                    f.support * 2.0))

    def test_random_bump_refuses_a_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            signals.random_bump(-229)

    def test_signal_needs_a_definition(self):
        # the log core is a required field
        with pytest.raises(TypeError):
            core.Signal("empty", sup_norm=1.0)

    def test_dilate_carries_log_core_and_mean(self):
        f = signals.holder_bump(0.5, 2.0)
        c = 1.7
        g = f.dilate(c)
        s = math.log(c)
        v = np.linspace(-3.0, 3.0, 61)
        np.testing.assert_array_equal(g.log_evaluate(v), f.log_core(v + s))
        a, b = v[:-1], v[1:]
        np.testing.assert_array_equal(g.log_mean(a, b),
                                      f.log_mean(a + s, b + s))
        x = np.exp(v)
        np.testing.assert_allclose(g(x), f(x * c), rtol=0, atol=1e-12)
        # sin_log's core and mean shift too
        h = signals.sin_log().dilate(c)
        np.testing.assert_array_equal(h.log_evaluate(v), np.sin(v + s))
        np.testing.assert_array_equal(h.log_mean(a, b),
                                      signals.sin_log_mean(a + s, b + s))

    def test_difference_carries_log_core_and_mean(self):
        f, g = signals.holder_bump(0.5), signals.clipped_log(1.0)
        d = core.difference_signal(f, g)
        v = np.linspace(-3.0, 3.0, 61)
        np.testing.assert_array_equal(d.log_evaluate(v),
                                      f.log_core(v) - g.log_core(v))
        a, b = v[:-1], v[1:]
        np.testing.assert_array_equal(d.log_mean(a, b),
                                      f.log_mean(a, b) - g.log_mean(a, b))
        # a user-built signal with no declared means: a core, no mean
        bare_cos = core.Signal("bare_cos", log_core=np.cos, sup_norm=1.0)
        e = core.difference_signal(f, bare_cos)
        assert e.log_core is not None and e.log_mean is None
        # sin_log declares both
        s = core.difference_signal(f, signals.sin_log())
        np.testing.assert_array_equal(s.log_mean(a, b),
                                      f.log_mean(a, b)
                                      - signals.sin_log_mean(a, b))

    def test_unknown_signal(self):
        with pytest.raises(ValidationError):
            signals.make_signal("nope")

    @pytest.mark.parametrize("name, params, named", [
        ("holder_bump", {"nu": 0.5, "radius": 710.0}, "radius"),
        ("cc_bump", {"radius": 710.0}, "radius"),
        ("power_clipped", {"a": 1.0, "clip": 800.0}, "clip"),
        ("power_clipped", {"a": -800.0, "clip": 1.0}, "a=-800"),
    ], ids=["holder_bump", "cc_bump", "power_clipped-clip",
            "power_clipped-a"])
    def test_builder_refuses_an_overflowing_parameter(self, name, params,
                                                      named):
        # an OverflowError from math.exp before
        with pytest.raises(ValidationError, match=named):
            signals.make_signal(name, **params)

    @pytest.mark.parametrize("clip", [710.0, 800.0, 1e4])
    def test_saturation_beyond_the_exp_range(self, clip):
        # e^(clip - |v|) on np.where's unselected branch overflowed for
        # every |v| inside a clip above 709.78
        v = np.array([-1e5, -clip - 1.0, -clip, -3.0, 0.0, 2.5, clip,
                      clip + 0.5, 1e5])
        x = np.exp(np.clip(v, -700.0, 700.0))
        with np.errstate(over="raise"):
            core_values = signals.clipped_log(clip).log_evaluate(v)
            slopes = signals.clipped_log(clip).mellin_derivative(x)
            power_slopes = signals.power_clipped(1e-3, clip) \
                .mellin_derivative(x)
        assert np.all(np.isfinite(core_values))
        inside = np.abs(v) <= clip
        np.testing.assert_array_equal(core_values[inside], v[inside])
        np.testing.assert_array_equal(slopes[np.abs(np.log(x)) <= clip], 1.0)
        assert np.all(np.isfinite(power_slopes))


def _unclamped_saturation(v, clip):
    """_saturate and the slope of clipped_log and power_clipped with the
    exponent e^(clip - |v|) unclamped."""
    a = np.abs(v)
    return (np.where(a <= clip, v, np.sign(v) * (clip + 1.0
                                                 - np.exp(clip - a))),
            np.where(a <= clip, 1.0, np.exp(clip - a)))


@settings(max_examples=200, deadline=None)
@given(clip=st.floats(1e-3, 700.0),
       v=st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=20))
def test_clamped_saturation_is_bitwise_the_unclamped(clip, v):
    v = np.array(v)
    x = np.exp(v)
    lv = np.log(x)
    core_want, slope_want = _unclamped_saturation(lv, clip)
    f = signals.clipped_log(clip)
    assert np.array_equal(f.log_evaluate(lv), core_want)
    assert np.array_equal(f.mellin_derivative(x), slope_want)
    for a in (1.0, -0.5):
        g = signals.power_clipped(a, min(clip, 100.0))
        slope = _unclamped_saturation(lv, min(clip, 100.0))[1]
        assert np.array_equal(g.mellin_derivative(x),
                              a * slope * g.log_core(lv))


def test_cached_rule_read_only():
    nodes, weights = core.gauss_legendre(8)
    assert core.gauss_legendre(8)[0] is nodes
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0
