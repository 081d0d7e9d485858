"""backend.profile_sum against a direct dense sum over every (phase, node)
pair, on both sides of the banding size test."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expkant import backend
from expkant.core import SamplingScheme, make_builtin_profile

ATOL = 1e-13


def dense(profile, y, t, coeffs=None, beta=0.0):
    """sum_j L(y_i - t_j) c_j with every pair evaluated."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    v = y[:, None] - np.asarray(t, dtype=float)[None, :]
    vals = profile.log_values(v)
    if coeffs is not None:
        vals = vals * np.asarray(coeffs)[None, :]
    elif beta != 0.0:
        vals = vals * np.abs(v) ** beta
    return vals.sum(axis=1)


def banded(profile, y, t):
    return backend._band(profile.support_radius,
                         np.atleast_1d(np.asarray(y, dtype=float)),
                         np.asarray(t, dtype=float)) is not None


UNIT = SamplingScheme.uniform(1.0)
TAB = SamplingScheme.tabulated((0.0, 0.3, 1.1), 1.7)
RNG = np.random.default_rng(20)

# (scheme, k_lo, k_hi): a few-node window and a long one for each scheme
WINDOWS = [(UNIT, -3, 3), (UNIT, -150, 150), (TAB, -3, 2), (TAB, -240, 240)]


def phases(t, radius):
    """Knots of the spline pieces, nodes themselves, random phases and
    phases beyond either end of the window."""
    lo, hi = float(t[0]), float(t[-1])
    knots = np.concatenate([t[:: max(1, t.size // 7)] + d
                            for d in np.arange(-radius, radius + 0.5, 0.5)])
    outside = np.array([lo - radius - 0.25, lo - 3 * radius - 7.0,
                        hi + radius + 0.25, hi + 40.0])
    return np.concatenate([knots, RNG.uniform(lo - 2, hi + 2, 300), outside])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("window", WINDOWS, ids=["unit-few", "unit-long",
                                                  "tab-few", "tab-long"])
class TestBspline:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
    def test_moment_sums(self, n, window, beta):
        profile = make_builtin_profile("bspline", n)
        t = window[0].nodes(window[1], window[2])
        y = phases(t, profile.support_radius)
        got = backend.profile_sum(profile, y, t, beta=beta)
        np.testing.assert_allclose(got, dense(profile, y, t, beta=beta),
                                   rtol=0, atol=ATOL)
        assert np.all(got[-4:] == 0.0)  # phases outside the window

    def test_coefficient_sums(self, n, window):
        profile = make_builtin_profile("bspline", n)
        t = window[0].nodes(window[1], window[2])
        coeffs = RNG.standard_normal(t.size)
        y = phases(t, profile.support_radius)
        got = backend.profile_sum(profile, y, t, coeffs)
        np.testing.assert_allclose(got, dense(profile, y, t, coeffs),
                                   rtol=0, atol=ATOL)
        assert np.all(got[-4:] == 0.0)


def truncated_powers(v, n):
    """B(v) = (1/n!) sum_i (-1)^i C(n+1, i) ((n+1)/2 + v - i)_+^n for
    |v| < (n+1)/2 and 0 beyond, summed exactly in rationals from the float
    v and rounded once."""
    half = Fraction(n + 1, 2)
    x = Fraction(float(v))
    if abs(x) >= half:
        return 0.0
    total = sum((-1) ** i * math.comb(n + 1, i) * (half + x - i) ** n
                for i in range(n + 2) if half + x - i > 0)
    return float(total / math.factorial(n))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 6),
       v=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40))
def test_bspline_values_match_truncated_powers(n, v):
    # random v, every knot, and the support's ends and 1e-12 either side
    half = 0.5 * (n + 1)
    knots = -half + np.arange(n + 2)
    ends = [e + d for e in (-half, half) for d in (-1e-12, 0.0, 1e-12)]
    v = np.concatenate([v, knots, ends])
    got = backend.bspline_values(v, n)
    ref = np.array([truncated_powers(x, n) for x in v])
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
    assert np.all(got[np.abs(v) >= half] == 0.0)
    assert np.all(got >= 0.0)
    assert backend.bspline_values(v.reshape(-1, 1), n).shape == (v.size, 1)


def test_windows_fall_on_both_sides_of_the_size_test():
    profile = make_builtin_profile("bspline", 2)
    paths = [banded(profile, [0.0], s.nodes(lo, hi)) for s, lo, hi in WINDOWS]
    assert paths == [False, True, False, True]


@pytest.mark.parametrize("window", [(UNIT, -40, 40), (TAB, -15, 15)],
                         ids=["unit", "tab"])
def test_banded_moment_sum_spans_several_blocks(window, monkeypatch):
    # more phases than three _BAND_CHUNK blocks hold: every phase's sum
    # matches the dense sum, and reads the same bits in one block
    profile = make_builtin_profile("bspline", 3)
    t = window[0].nodes(window[1], window[2])
    y = RNG.uniform(t[0] - 2, t[-1] + 2, 20_000)
    _, count = backend._band(profile.support_radius, y, t)
    assert y.size * int(count.max()) > 3 * backend._BAND_CHUNK
    cases = [{"beta": 0.0}, {"beta": 0.5}, {"beta": 0.5, "cut": (0.7, 3.0)}]
    got = [backend.profile_sum(profile, y, t, **kw) for kw in cases]
    for kw, sums in zip(cases, got):
        ref = (cut_reference(profile, y, t, kw["cut"], kw["beta"])
               if "cut" in kw else dense(profile, y, t, beta=kw["beta"]))
        np.testing.assert_allclose(sums, ref, rtol=0, atol=ATOL)
    monkeypatch.setattr(backend, "_BAND_CHUNK", 1 << 30)
    for kw, sums in zip(cases, got):
        assert np.array_equal(backend.profile_sum(profile, y, t, **kw), sums)


FEJER = make_builtin_profile("mellin_fejer")
# Fejer windows: the four above and nodes near |t| = 1e6
FEJER_WINDOWS = WINDOWS + [(SamplingScheme.uniform(1.0, 1e6), -300, 300)]
FEJER_IDS = ["few", "long", "tab-few", "tab-long", "far"]


def fejer_phases(t):
    """Phases exactly on nodes, 1e-12 to 1e-3 to either side of nodes, where
    the separable sine difference cancels, and random phases."""
    on = t[:: max(1, t.size // 11)]
    away = [on + side * d for d in (1e-12, 1e-9, 1e-6, 1e-3)
            for side in (-1.0, 1.0)]
    return np.concatenate([on, *away, RNG.uniform(t[0] - 2, t[-1] + 2, 40)])


@pytest.mark.parametrize("window", FEJER_WINDOWS, ids=FEJER_IDS)
def test_fejer(window):
    t = window[0].nodes(window[1], window[2])
    y = fejer_phases(t)
    assert y.size >= backend._SEPARABLE_MIN_PHASES
    for beta in (0.0, 0.37, 0.5):
        np.testing.assert_allclose(backend.profile_sum(FEJER, y, t, beta=beta),
                                   dense(FEJER, y, t, beta=beta),
                                   rtol=0, atol=ATOL)
    coeffs = RNG.standard_normal(t.size)
    np.testing.assert_allclose(backend.profile_sum(FEJER, y, t, coeffs),
                               dense(FEJER, y, t, coeffs), rtol=0, atol=ATOL)


def test_fejer_blocks_and_single_phases():
    t = UNIT.nodes(-1000, 1000)
    y = fejer_phases(t)
    assert y.size * t.size > 4 * backend._CHUNK  # several blocks per call
    coeffs = RNG.standard_normal(t.size)
    for beta in (0.0, 0.5):
        np.testing.assert_allclose(backend.profile_sum(FEJER, y, t, beta=beta),
                                   dense(FEJER, y, t, beta=beta),
                                   rtol=0, atol=ATOL)
    # one and two phases per call take the direct sine
    for yi in (y[::23], y[1::23]):
        for part in (yi[:1], yi[:2]):
            np.testing.assert_allclose(
                backend.profile_sum(FEJER, part, t, beta=0.5),
                dense(FEJER, part, t, beta=0.5), rtol=0, atol=ATOL)
            np.testing.assert_allclose(
                backend.profile_sum(FEJER, part, t, coeffs),
                dense(FEJER, part, t, coeffs), rtol=0, atol=ATOL)


@pytest.mark.parametrize("profile", [make_builtin_profile("bspline", 3),
                                     make_builtin_profile("mellin_fejer")],
                         ids=lambda p: p.name)
def test_empty_window(profile):
    y = np.linspace(-2.0, 2.0, 5)
    assert np.all(backend.profile_sum(profile, y, np.empty(0)) == 0.0)
    assert np.all(backend.profile_sum(profile, y, np.empty(0),
                                      np.empty(0)) == 0.0)


def test_builtin_sums_go_through_the_kind_functions(monkeypatch):
    # the benchmark's tracer wraps these two module globals
    calls = []
    for name in ("weighted_series_sum", "phase_weighted_sum"):
        orig = getattr(backend, name)
        monkeypatch.setattr(backend, name,
                            lambda *a, _o=orig, _n=name: calls.append(_n) or _o(*a))
    profile = make_builtin_profile("bspline", 2)
    t = UNIT.nodes(-20, 20)
    backend.profile_sum(profile, [0.3], t, np.ones(t.size))
    backend.profile_sum(profile, [0.3], t, beta=1.0)
    assert calls == ["weighted_series_sum", "phase_weighted_sum"]


def test_coeffs_and_beta_are_exclusive():
    t = UNIT.nodes(-3, 3)
    for moment in ({"beta": 1.0}, {"cut": (0.5, 2.0)}):
        with pytest.raises(ValueError):
            backend.profile_sum(make_builtin_profile("bspline", 2), [0.0], t,
                                np.ones(t.size), **moment)


def fejer_terms(y, t, coeffs=None, beta=0.0):
    """Every (phase, node) term of a Fejer sum from fejer_values."""
    v = np.asarray(y, dtype=float)[:, None] - np.asarray(t, dtype=float)
    terms = backend.fejer_values(v)
    if coeffs is not None:
        return terms * np.asarray(coeffs)[None, :]
    return terms * np.abs(v) ** beta


def assert_within_terms(got, terms, rel=1e-14):
    """got matches the row sums of terms to rel of the sum of |terms|."""
    err = np.abs(got - terms.sum(axis=1))
    assert np.all(err <= rel * np.abs(terms).sum(axis=1))


class TestFejerMatrixForm:
    """The Fejer sum on three or more phases, one matrix product per block,
    against fejer_values on every pair."""

    @pytest.mark.parametrize("window", FEJER_WINDOWS, ids=FEJER_IDS)
    def test_against_dense_terms(self, window):
        t = window[0].nodes(window[1], window[2])
        y = fejer_phases(t)  # v = 0 and pairs with |v| <= 1
        assert np.any(y[:, None] == t[None, :])
        for beta in (0.0, 0.43, 0.5):
            assert_within_terms(backend.profile_sum(FEJER, y, t, beta=beta),
                                fejer_terms(y, t, beta=beta))
        coeffs = RNG.standard_normal(t.size)
        assert_within_terms(backend.profile_sum(FEJER, y, t, coeffs),
                            fejer_terms(y, t, coeffs))

    def test_window_wider_than_a_block(self):
        t = UNIT.nodes(-36_000, 36_000)
        assert t.size > backend._CHUNK
        y = np.array([0.0, 17.0, 17.0 + 1e-9, -35_999.5, 0.3, 36_000.0])
        coeffs = RNG.standard_normal(t.size)
        for beta in (0.0, 0.43, 0.5):
            assert_within_terms(backend.profile_sum(FEJER, y, t, beta=beta),
                                fejer_terms(y, t, beta=beta))
        assert_within_terms(backend.profile_sum(FEJER, y, t, coeffs),
                            fejer_terms(y, t, coeffs))


def cut_reference(profile, y, t, cut, beta=0.0):
    """dense() over the pairs with cut[0] < |y - t| <= cut[1] only."""
    v = np.atleast_1d(np.asarray(y, dtype=float))[:, None] - t[None, :]
    keep = (np.abs(v) > cut[0]) & (np.abs(v) <= cut[1])
    return (np.where(keep, profile.log_values(v), 0.0)
            * np.abs(v) ** beta).sum(axis=1)


@pytest.mark.parametrize("profile", [make_builtin_profile("bspline", 3),
                                     make_builtin_profile("mellin_fejer")],
                         ids=lambda p: p.name)
@pytest.mark.parametrize("window", WINDOWS, ids=["unit-few", "unit-long",
                                                  "tab-few", "tab-long"])
def test_cut_keeps_the_annulus(profile, window):
    # the cut edges fall on nodes: |v| = 1 is out of (1, 2] and |v| = 2 in
    t = window[0].nodes(window[1], window[2])
    y = np.concatenate([t[:: max(1, t.size // 9)],
                        RNG.uniform(t[0], t[-1], 30)])
    for cut in ((1.0, 2.0), (0.25, 40.0)):
        for beta in (0.0, 0.5):
            ref = cut_reference(profile, y, t, cut, beta)
            np.testing.assert_allclose(
                backend.profile_sum(profile, y, t, beta=beta, cut=cut),
                ref, rtol=0, atol=ATOL)
            # one phase at a time takes the pair by pair form
            got = [backend.profile_sum(profile, y[i:i + 1], t, beta=beta,
                                       cut=cut)[0]
                   for i in range(0, y.size, 7)]
            np.testing.assert_allclose(got, ref[::7], rtol=0, atol=ATOL)


class TestBsplineLatticeSum:
    """The B-spline series on a unit lattice from the (piece x n+1)
    coefficient table, against the banded pair sum."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 6), offset=st.floats(-50.0, 50.0),
           k0=st.integers(-3000, 3000), size=st.integers(1, 9000),
           gaps=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_banded_sum(self, n, offset, k0, size, gaps, seed):
        rng = np.random.default_rng(seed)
        k = (np.sort(rng.choice(3 * size + 2 * n, size, replace=False))
             if gaps else np.arange(size))
        t = offset + (k0 + k) * 1.0
        g = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3)
        half = 0.5 * (n + 1)
        # random phases, knots of the pieces of some nodes, and phases just
        # past either end of the nodes' reach and far outside it
        pick = t[rng.integers(0, size, 20)]
        knots = (pick[:, None] + np.arange(-half, half + 0.5)[None, :]).ravel()
        y = np.concatenate([
            rng.uniform(t[0] - half - 1.0, t[-1] + half + 1.0, 300), knots,
            [t[0] - half, t[-1] + half, t[0] - half - 0.5, t[-1] + half + 0.5,
             t[0] - 1e4, t[-1] + 1e4]])
        got = backend.bspline_lattice_sum(y, t, g, n)
        ref = backend._sum(lambda v: backend.bspline_values(v, n), half, y, t,
                           g, 0.0)
        # the nodes are the floats nearest offset + k, up to half an ulp
        # of |t| off the lattice that the table assumes
        bound = (4.0 * np.finfo(float).eps * np.abs(g).max()
                 * (1.0 + np.abs(y[:-2] - t[0]).max() + abs(t[0])))
        assert np.abs(got[:-2] - ref[:-2]).max() <= bound
        assert np.all(got[-4:] == 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_constant_reproduction(self, n):
        # sum_k B_n(y - t_k) = 1 for every y inside the nodes' span
        for offset in (0.0, 0.37, -12.6):
            t = UNIT.nodes(-400, 400) + offset
            y = np.concatenate([RNG.uniform(t[0] + n, t[-1] - n, 500),
                                t[n:-n] + 0.5 * (n + 1)])
            for c in (1.0, -3.25):
                got = backend.bspline_lattice_sum(y, t, np.full(t.size, c), n)
                assert np.abs(got - c).max() < 1e-13 * abs(c)

    def test_shapes_and_empty_input(self):
        t = UNIT.nodes(-3, 3)
        assert backend.bspline_lattice_sum([0.2], t, np.ones(7), 3).shape == (1,)
        assert np.all(backend.bspline_lattice_sum([0.2, 1.0], np.empty(0),
                                                  np.empty(0), 3) == 0.0)
