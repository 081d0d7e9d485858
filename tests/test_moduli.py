"""Log-modulus of continuity against closed-form moduli."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expkant import moduli, signals
from expkant.core import Signal, ValidationError


class TestLogModulus:
    def test_log_signal_modulus_is_delta(self):
        # |ln x - ln y| <= delta attains delta for the log signal
        f = signals.clipped_log()
        for delta in (0.01, 0.1, 0.5):
            assert moduli.log_modulus(f, delta) == \
                pytest.approx(delta, rel=1e-6)

    def test_constant_modulus_is_zero(self):
        f = signals.constant(3.0)
        assert moduli.log_modulus(f, 0.25) == 0.0

    def test_holder_bump_exact(self):
        # piecewise (delta/R)^nu modulus by construction
        for nu, radius in ((0.5, 1.0), (0.3, 2.0), (1.0, 1.5)):
            f = signals.holder_bump(nu, radius=radius)
            for delta in (0.05, 0.2):
                want = (delta / radius) ** nu
                got = moduli.log_modulus(f, delta)
                assert got == pytest.approx(want, rel=1e-3)
                assert got <= want + 1e-12  # grid estimate is a lower bound

    def test_monotone_in_delta(self):
        f = signals.random_bump(4)
        vals = [moduli.log_modulus(f, d) for d in (0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            moduli.log_modulus(signals.constant(1.0), 0.0)


def _search_window(f, delta):
    """The window log_modulus sweeps: the support widened by delta, or
    [-8, 8] without a support."""
    if f.log_support_radius is None:
        return (-moduli.UNBOUNDED_LOG_RADIUS, moduli.UNBOUNDED_LOG_RADIUS)
    r = f.log_support_radius + delta
    return (-r, r)


def _log_modulus_by_rows(f, delta, anchors=moduli._ANCHORS,
                         offsets=moduli._OFFSETS):
    """log_modulus as one signal evaluation per offset, the best pair taken
    by the first strictly larger row maximum."""
    window = _search_window(f, delta)
    v = np.linspace(window[0], window[1], anchors)
    h = np.linspace(-delta, delta, offsets)
    fv = f.log_evaluate(v)
    best, bi, bj = 0.0, 0, 0
    for j, hj in enumerate(h):
        diff = np.abs(f.log_evaluate(v + hj) - fv)
        i = int(np.argmax(diff))
        if diff[i] > best:
            best, bi, bj = float(diff[i]), i, j
    dv = (window[1] - window[0]) / (anchors - 1)
    v2 = np.linspace(v[bi] - dv, v[bi] + dv, 41)
    dh = 2.0 * delta / (offsets - 1)
    h2 = np.clip(np.linspace(h[bj] - dh, h[bj] + dh, 21), -delta, delta)
    f2 = f.log_evaluate(v2)
    for hj in h2:
        best = max(best, float(np.abs(f.log_evaluate(v2 + hj) - f2).max()))
    return best


@pytest.mark.parametrize("f", [
    signals.holder_bump(0.5), signals.cc_bump(), signals.random_bump(4),
    signals.clipped_log(), signals.sin_log(), signals.constant(2.0)],
    ids=lambda f: f.name)
def test_two_dimensional_sweep_matches_rows(f):
    # one (offset x anchor) evaluation per pass picks the same pair, so the
    # values are the same floats
    for delta in (0.5, 1.0 / 32.0, 1.0 / 256.0, 0.0123):
        assert moduli.log_modulus(f, delta) == _log_modulus_by_rows(f, delta)


@settings(max_examples=60, deadline=None)
@given(ys=st.lists(st.integers(-3, 3), min_size=13, max_size=13),
       delta=st.sampled_from([0.2, 0.4, 0.5]))
def test_two_dimensional_sweep_breaks_ties_like_rows(ys, delta):
    # a coarse piecewise-linear signal, 0 beyond |v| = 1.2, on small
    # grids: equal row maxima are common, and the refinement around each
    # tied pair reads a different part of the signal
    xs = np.linspace(-1.2, 1.2, 13)
    f = Signal("pl", log_core=lambda v: np.interp(v, xs, np.asarray(ys, float),
                                                  left=0.0, right=0.0),
               support=math.exp(1.2))
    for anchors, offsets in ((9, 5), (5, 3)):
        with mock.patch.multiple(moduli, _ANCHORS=anchors, _OFFSETS=offsets):
            got = moduli.log_modulus(f, delta)
        assert got == _log_modulus_by_rows(f, delta, anchors, offsets)
