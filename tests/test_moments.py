"""Discrete moments and the admissibility-condition audits."""

import logging
import math
import sys
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expkant import backend, moments
from expkant.core import (KernelProfile, NonlinearKernel, SamplingScheme,
                          ValidationError, gauss_panels, make_builtin_profile,
                          make_response)

UNIT = SamplingScheme.uniform()
BSPLINE = make_builtin_profile("bspline", 2)
FEJER = make_builtin_profile("mellin_fejer")


# The decay envelope L(e^v) <= (2/pi) |v|^-2 of the Fejer values: the
# looser reference the closed-form tails are checked against.
def envelope_tail(scheme, radius, beta):
    """Upper bound on the sum over |y - t_k| > radius of L |y - t_k|^beta
    for nodes at least lower_gap apart: 2 (2/pi)/lower_gap
    r0^(beta - 1)/(1 - beta) with r0 = radius - upper_gap."""
    r0 = max(radius - scheme.upper_gap, 1e-6)
    return (2.0 * (2.0 / math.pi) / scheme.lower_gap * r0 ** (beta - 1.0)
            / (1.0 - beta))


def envelope_moment(scheme, beta, probe, half=4096.0):
    """(window sup, envelope value): the sup over probe phases of the sum
    over the nodes within half of the period's centre, and that sup plus
    envelope_tail beyond the window."""
    period = scheme.phase_period
    ys = np.linspace(0.0, period, probe, endpoint=False)
    t = moments._window_nodes(scheme, 0.5 * period, half)
    sup = float(np.max(backend.profile_sum(FEJER, ys, t, beta=beta)))
    return sup, sup + envelope_tail(scheme, half, beta)


def envelope_tail_sum(scheme, y, cut, reach=1e5):
    """The sum over cut < |t_k - y| <= cut + reach of L plus envelope_tail
    beyond: an upper bound of the Fejer tail beyond cut."""
    outer = cut + reach
    t = moments._window_nodes(scheme, y, outer)
    near = float(backend.profile_sum(FEJER, y, t, cut=(cut, outer))[0])
    return near + envelope_tail(scheme, outer, 0.0)


def envelope_tail_mass(threshold):
    """The integral over |v| > threshold of L by 8-point Gauss panels of
    width at most 0.5 up to hi = max(1e4, 100 threshold), plus the envelope
    integral (4/pi)/hi beyond: an upper bound of the Fejer tail mass."""
    hi = max(1e4, 100.0 * threshold)
    edges = np.linspace(threshold, hi,
                        max(8, int(math.ceil((hi - threshold) / 0.5))) + 1)
    v, wts = gauss_panels(edges[:-1], edges[1:], 8)
    return (float(np.sum((FEJER.log_values(v) + FEJER.log_values(-v)) * wts))
            + 4.0 / math.pi / hi)


CUT_SCHEMES = [UNIT, SamplingScheme.uniform(0.8, 0.3),
               SamplingScheme.tabulated((0.0, 0.6, 1.4), 2.1)]
CUT_IDS = ["unit", "step-0.8", "tabulated"]


def per_phase_tails(profile, scheme, y, h, beta):
    """(sum over h < |t_k - y| <= outer, outer) for a compact profile: the
    per-phase, per-side loop check_L3 and tail_sum ran before their cut
    sums."""
    outer = profile.support_radius + scheme.upper_gap
    total = 0.0
    for lo, hi in ((y - outer, y - h), (y + h, y + outer)):
        k_lo, k_hi = scheme.index_range(lo, hi)
        if k_hi < k_lo:
            continue
        t = scheme.nodes(k_lo, k_hi)
        keep = np.abs(t - y) > h
        if keep.any():
            total += float(backend.profile_sum(profile, y, t[keep],
                                               beta=beta)[0])
    return total, outer


def per_phase_L3(profile, scheme, r, gamma, w_list, phase_points=128):
    """The L3 sups and remainders of the per-phase loop for a compact
    profile, whose cut sums are exact (remainder 0)."""
    ys = np.linspace(0.0, scheme.phase_period, phase_points, endpoint=False)
    sups = []
    for w in sorted(w_list):
        h = gamma * w
        if h >= profile.support_radius:
            sups.append(0.0)
            continue
        sups.append(max(per_phase_tails(profile, scheme, y, h, r)[0]
                        for y in ys))
    return sups, [0.0] * len(sups)


class TestDiscreteMoment:
    def test_bspline_zero_moment_is_one(self):
        rep = moments.discrete_moment(BSPLINE, UNIT, 0.0)
        assert rep.value == pytest.approx(1.0, abs=1e-10)
        assert not rep.diverged

    def test_bspline_second_moment_bounded(self):
        rep = moments.discrete_moment(BSPLINE, UNIT, 2.0)
        assert 0.0 < rep.value <= 2.25

    def test_fejer_first_moment_diverges(self):
        rep = moments.discrete_moment(FEJER, UNIT, 1.0)
        assert rep.diverged
        assert math.isinf(moments.moment_value(FEJER, UNIT, 1.0))

    def test_fejer_half_moment_finite(self):
        rep = moments.discrete_moment(FEJER, UNIT, 0.5)
        assert not rep.diverged
        assert math.isfinite(rep.value)

    def test_w_invariance(self):
        # the phase sup takes no w, so every w shares the one value
        rep = moments.discrete_moment(BSPLINE, UNIT, 1.0)
        assert not rep.diverged
        assert rep.value == moments.moment_value(BSPLINE, UNIT, 1.0)

    def test_refinement_stability(self, monkeypatch):
        monkeypatch.setattr(moments, "_PROBE_PHASES", 256)
        coarse = moments.discrete_moment(BSPLINE, UNIT, 0.5).value
        monkeypatch.setattr(moments, "_PROBE_PHASES", 4096)
        fine = moments.discrete_moment(BSPLINE, UNIT, 0.5).value
        assert abs(fine - coarse) <= 0.01 * fine
        assert fine >= coarse - 1e-12  # sup estimates grow under refinement

    def test_step_scheme(self):
        # coarser nodes reduce the partition sum below 1
        s2 = SamplingScheme.uniform(2.0)
        rep = moments.discrete_moment(FEJER, s2, 0.0)
        assert rep.value < 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            moments.discrete_moment(BSPLINE, UNIT, -1.0)

    def test_report_records_window_and_remainder(self, monkeypatch):
        rep = moments.discrete_moment(BSPLINE, UNIT, 1.0).to_dict()
        assert rep["half_width"] == BSPLINE.support_radius + UNIT.upper_gap
        assert rep["remainder"] == 0.0
        rep = moments.discrete_moment(FEJER, UNIT, 1.0).to_dict()
        assert rep["half_width"] is None and rep["remainder"] is None
        # Fejer: lattice tails beyond _lattice_terms nodes per side, no more
        # than the 512 log units summed before summation by parts; the
        # remainder is the tail bound at the phase that attains the sup
        monkeypatch.setattr(moments, "_PROBE_PHASES", 64)
        rep = moments.discrete_moment(FEJER, UNIT, 0.5)
        ys = np.linspace(0.0, 1.0, 64, endpoint=False)
        direct, bound = moments._lattice_tails(FEJER, UNIT, ys, None, 0.5)
        assert rep.half_width == moments._lattice_terms(1.0) <= 512.0
        assert not rep.exact

        def tails(ys):
            direct, bound = moments._lattice_tails(FEJER, UNIT, ys, None, 0.5)
            return direct + bound, direct, bound

        # the sup is symmetric about y = 1/2, where the grid attains it;
        # the refinement may find a phase beside it that rounds one ulp up
        value, direct_at, bound_at = moments._refined_sup(tails, ys, 1 / 64)
        assert rep.value == value == direct_at + bound_at
        assert rep.value >= float(np.max(direct + bound))
        assert rep.remainder == bound_at > 0.0
        # the partition sum is exact up to steps of 2 pi, a sum beyond
        rep = moments.discrete_moment(FEJER, SamplingScheme.uniform(2.0),
                                      0.0).to_dict()
        assert rep["exact"] and rep["value"] == 0.5
        assert rep["remainder"] == 0.0 and rep["half_width"] is None
        rep = moments.discrete_moment(FEJER, SamplingScheme.uniform(7.0),
                                      0.0)
        assert not rep.exact and rep.remainder > 0.0

    @pytest.mark.parametrize("profile", [FEJER], ids=["decay-power"])
    def test_divergence_writes_a_debug_line(self, profile, caplog):
        with caplog.at_level(logging.DEBUG, logger="expkant.moments"):
            rep = moments.discrete_moment(profile, UNIT, 1.0)
        assert rep.diverged
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 1 and "flagged divergent" in lines[0]
        assert profile.name in lines[0]

    @pytest.mark.parametrize("scheme", [
        UNIT, SamplingScheme.uniform(0.7, 0.3),
        SamplingScheme.tabulated((0.0, 0.3, 1.1), 1.7)],
        ids=["unit", "shifted", "tabulated"])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_fejer_moment_covers_the_whole_window(self, scheme, beta,
                                                  monkeypatch):
        # the Fejer closed-form tails: an upper bound above the sup of the
        # whole 4096-wide window's sum (exact m0 for beta = 0), and no
        # looser than that sum plus the decay envelope beyond it
        probe = 64
        monkeypatch.setattr(moments, "_PROBE_PHASES", probe)
        sup, envelope = envelope_moment(scheme, beta, probe)
        fejer = moments.discrete_moment(FEJER, scheme, beta)
        assert sup <= fejer.value * (1.0 + 1e-12)
        assert fejer.value < envelope
        assert fejer.exact == (beta == 0.0)


class TestRefinedSup:
    @pytest.mark.parametrize("peak", ["smooth", "kink"])
    def test_finds_an_off_grid_maximum(self, peak):
        ys = np.linspace(0.0, 1.0, 64, endpoint=False)
        h = ys[1] - ys[0]
        top = 0.40123456789 + 0.3 * h / 7.0  # between two grid phases
        calls = []

        def fun(y):
            calls.append(y.size)
            d = np.abs(y - top)
            return -(d * d if peak == "smooth" else d), y

        value, phase = moments._refined_sup(fun, ys, h)
        assert abs(phase - top) <= 1e-9 * h
        assert calls == [64] + [moments._REFINE_POINTS] * moments._REFINE_CALLS
        assert moments._REFINE_CALLS <= 8
        # the bracket ends no wider than 40 golden-section steps leave
        golden = 2.0 * h * ((math.sqrt(5.0) - 1.0) / 2.0) ** 40
        assert 2.0 * h / 16.0 ** moments._REFINE_CALLS <= golden

    def test_fejer_moment_sup_is_refined(self):
        # 2048 phases read 0.4008654747; a scan of 20001 phases around the
        # argmax reaches 0.4008654854.  The tails summed directly for 512
        # log units read 0.4009385577 refined.
        scheme = SamplingScheme.uniform(4.6, 0.37)
        rep = moments.discrete_moment(FEJER, scheme, 0.5)
        assert rep.value >= 0.4008654854
        assert rep.value <= 0.4008654747 * (1.0 + 1e-7)
        assert rep.value <= 0.4009385577
        assert "refined" in rep.probe_grid
        ys = np.linspace(0.0, 4.6, 2048, endpoint=False)
        direct, bound = moments._lattice_tails(FEJER, scheme, ys, None, 0.5)
        assert rep.value >= float(np.max(direct + bound))
        assert 0.0 < rep.remainder <= float(np.max(bound)) * (1.0 + 1e-6)


class TestHurwitzZeta:
    @pytest.mark.parametrize("s", [1.02, 1.25, 1.5, 1.75, 2.0, 12.0, 30.0])
    def test_matches_scipy_within_bound(self, s):
        # s in (1, 2] is what the lattice tails use; at s = 12 and 30 the
        # Euler-Maclaurin remainder dominates the round-off allowance
        from scipy.special import zeta
        q = np.array([1e-3, 0.3, 1.0, 7.5, 15.99, 16.0, 100.0, 512.3, 1e5])
        value, bound = moments.hurwitz_zeta(s, q)
        ref = zeta(s, q)
        assert np.all(value + bound >= ref)
        assert np.all(value - bound <= ref)
        assert np.all(bound <= 1e-6 * ref)


def direct_tail(scheme, y, cut, betas, per_side=200_000):
    """sum over |t_k - y| > cut (every node when cut is None) of
    L |y - t_k|^beta for each beta, over at least per_side nodes on each
    side: a lower bound of the whole tail."""
    reach = (cut or 0.0) + per_side * scheme.upper_gap
    k_lo, k_hi = scheme.index_range(y - reach, y + reach)
    v = y - scheme.nodes(k_lo, k_hi)
    if cut is not None:
        v = v[np.abs(v) > cut]
    vals = backend.fejer_values(v)
    return [float(np.sum(vals * np.abs(v) ** beta)) for beta in betas]


def beyond_window(scheme, y, cut, beta, per_side=200_000):
    """A lower bound of what direct_tail leaves out on a uniform scheme of
    step P: on each side the nodes past its window lie at u + jP, and their
    terms (1 - cos) (u + jP)^(beta-2)/pi sum to at least
    (1/pi) (Z - u^(beta-2)/|sin(P/2)|), with Z the Hurwitz zeta sum less
    its error bound (Dirichlet's test on the cosines)."""
    reach = (cut or 0.0) + per_side * scheme.upper_gap
    k_lo, k_hi = scheme.index_range(y - reach, y + reach)
    step = scheme.step
    total = 0.0
    for u in (float(scheme.nodes(k_hi + 1, k_hi + 1)[0]) - y,
              y - float(scheme.nodes(k_lo - 1, k_lo - 1)[0])):
        zeta, err = moments.hurwitz_zeta(2.0 - beta, np.array([u / step]))
        z = step ** (beta - 2.0) * float(zeta[0] - err[0])
        cosines = u ** (beta - 2.0) / abs(math.sin(0.5 * step))
        total += max(0.0, z - cosines) / math.pi
    return total


class TestLatticeTails:
    @pytest.mark.parametrize("scheme", [
        UNIT, SamplingScheme.uniform(0.7, 0.3),
        SamplingScheme.tabulated((0.0, 0.3, 1.1), 1.7),
        SamplingScheme.uniform(4.0 * math.pi, 0.2),
        SamplingScheme.uniform(2.0 * math.pi - 1e-3, 0.1)],
        ids=["unit", "shifted", "tabulated", "4pi", "near-2pi"])
    def test_bound_covers_direct_tail(self, scheme):
        # phases on a node (a node exactly at the cut must stay out) and
        # between nodes
        period = scheme.phase_period
        ys = period * np.array([0.0, 0.25, 0.5, 0.8])
        betas = (0.0, 0.5)
        for cut in (None, 4.0, 32.0):
            got = [moments._lattice_tails(FEJER, scheme, ys, cut, beta)
                   for beta in betas]
            for i, y in enumerate(ys):
                sums = direct_tail(scheme, float(y), cut, betas)
                for (direct, bound), ref in zip(got, sums):
                    assert direct[i] <= ref * (1.0 + 1e-12)
                    assert direct[i] + bound[i] >= ref

    @staticmethod
    def reach_512(scheme, ys, cut, beta):
        """direct + bound of the lattice tails summed directly for 512 log
        units past the cut, then bounded by (1/pi) min(2Z, Z + B)."""
        offsets, period = moments._residue_classes(scheme)
        depth = max(1, math.ceil(512.0 / period))
        lattice = -period * np.arange(depth)[::-1]
        sine = abs(math.sin(0.5 * period))
        total = np.zeros(ys.size)
        for b in offsets:
            q = moments._first_beyond(b, period, ys, cut or 0.0)
            right = b + q * period - ys
            if cut is None:
                left = ys - (b + (q - 1.0) * period)
            else:
                q = moments._first_beyond(-b, period, -ys, cut)
                left = -b + q * period + ys
            u = np.concatenate([right, left])
            near = backend.profile_sum(FEJER, u, lattice, beta=beta)
            far = u + depth * period
            zeta, zeta_err = moments.hurwitz_zeta(2.0 - beta, far / period)
            z = period ** (beta - 2.0) * (zeta + zeta_err)
            dirichlet = z + far ** (beta - 2.0) / sine
            tail = np.minimum(2.0 * z, dirichlet) / math.pi
            total += (near + tail)[:ys.size] + (near + tail)[ys.size:]
        return total

    @settings(max_examples=40, deadline=None)
    @given(period=st.one_of(
               st.floats(0.5, 13.0),
               st.sampled_from([2.0 * math.pi * m + d for m in (1, 2)
                                for d in (-1e-3, 1e-3)])),
           beta=st.floats(0.0, 0.95), offset=st.floats(-3.0, 3.0),
           shifts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
           cut=st.sampled_from([None, 4.0, 32.0]))
    def test_summation_by_parts_bound(self, period, beta, offset, shifts, cut):
        # phases on a node and between nodes: the bound lies above the
        # 2e5-node direct tail plus a lower bound of the rest, and at or
        # below the tails summed directly for 512 log units
        scheme = SamplingScheme.uniform(period, offset)
        ys = offset + period * np.array([0.0, *shifts])
        direct, bound = moments._lattice_tails(FEJER, scheme, ys, cut, beta)
        reach = self.reach_512(scheme, ys, cut, beta)
        for i, y in enumerate(ys):
            ref, = direct_tail(scheme, float(y), cut, (beta,))
            assert direct[i] <= ref * (1.0 + 1e-12)
            rest = beyond_window(scheme, float(y), cut, beta)
            assert direct[i] + bound[i] >= ref
            assert direct[i] + bound[i] >= (ref + rest) * (1.0 - 1e-13)
            assert direct[i] + bound[i] <= reach[i] * (1.0 + 1e-12)

    def test_sine_forces_the_2z_bound(self, caplog):
        ys = np.linspace(0.0, 1.0, 4, endpoint=False)
        with caplog.at_level(logging.DEBUG, logger="expkant.moments"):
            moments._lattice_tails(FEJER, UNIT, ys, 4.0, 0.5)
            assert caplog.records == []
            moments._lattice_tails(FEJER, SamplingScheme.uniform(
                2.0 * math.pi - 1e-3), ys, 4.0, 0.5)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 1 and "forces the 2Z" in lines[0]

    def test_moment_tighter_than_parent_envelope(self):
        # M_1/2 at unit step: the 4096-wide window sum plus the envelope
        # reads 1.63524; the closed-form tails read 1.61545 past 512 log
        # units of direct sums and 1.61534 by summation by parts, above the
        # 2e5-node direct sum 1.61249
        fejer = moments.discrete_moment(FEJER, UNIT, 0.5).value
        envelope = envelope_moment(UNIT, 0.5, 2048)[1]
        assert envelope == pytest.approx(1.63524, abs=1e-5)
        assert fejer < envelope
        assert fejer == pytest.approx(1.61534, abs=1e-5)
        assert 1.61249 < fejer < 1.61545

    def test_tail_sum_tighter_than_envelope(self):
        for gamma, w, x in ((1.0, 4.0, 2.0), (0.5, 64.0, 0.3),
                            (2.0, 16.0, 1.0)):
            fejer = moments.tail_sum(FEJER, UNIT, gamma, w, x)
            y, cut = w * math.log(x), gamma * w
            envelope = envelope_tail_sum(UNIT, y, cut)
            assert direct_tail(UNIT, y, cut, (0.0,))[0] <= fejer < envelope


class TestMomentCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(moments, "_MOMENT_CACHE", OrderedDict())

    @staticmethod
    def box(i):
        return KernelProfile(
            name=f"box{i}", log_values=lambda v: (np.abs(v) <= 0.5) * 1.0,
            l1_log_norm=1.0, support_radius=0.5)

    def test_size_stays_within_bound(self, monkeypatch):
        monkeypatch.setattr(moments, "_MOMENT_CACHE_SIZE", 4)
        for i in range(6):
            box = self.box(i)
            for beta in (0.0, 1.0):
                moments.moment_value(box, UNIT, beta)
                assert len(moments._MOMENT_CACHE) <= 4
        assert len(moments._MOMENT_CACHE) == 4
        # the most recent entries are the ones kept
        assert [k[0].name for k in moments._MOMENT_CACHE] == ["box4"] * 2 + ["box5"] * 2

    def test_hit_computes_once_and_eviction_releases(self, monkeypatch):
        monkeypatch.setattr(moments, "_MOMENT_CACHE_SIZE", 1)
        computed = []
        orig = moments.discrete_moment
        monkeypatch.setattr(moments, "discrete_moment",
                            lambda *a: computed.append(a) or orig(*a))
        box = self.box(0)
        assert moments.moment_value(box, UNIT, 1.0) == \
            moments.moment_value(box, UNIT, 1.0)
        assert len(computed) == 1
        ref = weakref.ref(box)
        del box
        computed.clear()
        assert ref() is not None  # the cache holds the profile it keys on
        moments.moment_value(self.box(1), UNIT, 1.0)
        assert ref() is None

    def test_thread_pool_lookups_agree(self, monkeypatch):
        # more workers than keys the cache can hold, switching often
        monkeypatch.setattr(moments, "_MOMENT_CACHE_SIZE", 3)
        betas = [0.0, 0.5, 1.0, 2.0] * 6
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(moments.moment_value,
                                       make_builtin_profile("bspline", 3),
                                       UNIT, b) for b in betas]
                vals = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for beta, val in zip(betas, vals):
            assert val == moments.discrete_moment(
                make_builtin_profile("bspline", 3), UNIT, beta).value
        assert len(moments._MOMENT_CACHE) == 3


class TestTailSum:
    def test_compact_exact_zero(self):
        # gamma * w beyond the support radius kills every term
        assert moments.tail_sum(BSPLINE, UNIT, 1.0, 2.0, 1.5) == 0.0
        assert moments.tail_sum(BSPLINE, UNIT, 100.0, 5.0, 0.3) == 0.0

    def test_moment_tail_bound(self):
        rng = np.random.default_rng(0)
        for profile, beta in ((BSPLINE, 2.0), (FEJER, 0.5)):
            m_beta = moments.moment_value(profile, UNIT, beta)
            for _ in range(25):
                gamma = rng.uniform(0.5, 3.0)
                w = rng.uniform(4.0, 64.0)
                x = math.exp(rng.uniform(-1.5, 1.5))
                tail = moments.tail_sum(profile, UNIT, gamma, w, x)
                assert tail <= m_beta / (gamma * w) ** beta + 1e-12

    def test_decreasing_in_w(self):
        vals = [moments.tail_sum(FEJER, UNIT, 1.0, w, 2.0)
                for w in (4.0, 8.0, 16.0)]
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("scheme", CUT_SCHEMES, ids=CUT_IDS)
    def test_cut_sum_matches_the_per_phase_loop(self, n, scheme):
        profile = make_builtin_profile("bspline", n)
        rng = np.random.default_rng(n)
        for _ in range(20):
            gamma, w = rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0)
            x = math.exp(rng.uniform(-3.0, 3.0))
            h = gamma * w
            ref = per_phase_tails(profile, scheme, w * math.log(x), h, 0.0)[0]
            got = moments.tail_sum(profile, scheme, gamma, w, x)
            assert h < profile.support_radius
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 4), offset=st.floats(-3.0, 3.0),
           y=st.floats(-20.0, 20.0), h=st.floats(0.0, 4.0))
    def test_bspline_partition_of_unity(self, n, offset, y, h):
        # at unit step sum_k B(y - t_k) = 1: the cut sum over h < |v| and
        # the sum over |v| <= h split it (to the round-off of the
        # truncated-power B-spline values)
        profile = make_builtin_profile("bspline", n)
        scheme = SamplingScheme.uniform(1.0, offset)
        outer = profile.support_radius + 1.0
        t = moments._window_nodes(scheme, y, outer)
        tails = backend.profile_sum(profile, y, t, cut=(h, outer))[0]
        near = t[np.abs(y - t) <= h]
        inner = float(np.sum(backend.bspline_values(y - near, n)))
        assert tails + inner == pytest.approx(1.0, abs=1e-13)


class TestPartition:
    def test_bspline_partition_is_flat(self):
        lo, hi = moments.partition_bounds(BSPLINE, UNIT)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_fejer_partition_near_one(self):
        lo, hi = moments.partition_bounds(FEJER, UNIT)
        assert lo == pytest.approx(1.0, abs=1e-3)
        assert hi == pytest.approx(1.0, abs=1e-3)
        assert lo <= hi

    @settings(max_examples=60, deadline=None)
    @given(step=st.floats(0.25, 2.0 * math.pi),
           offset=st.floats(-50.0, 50.0),
           half=st.floats(10.0, 300.0),
           shift=st.floats(0.0, 1.0))
    def test_fejer_window_sums_bracket_poisson_value(self, step, offset,
                                                     half, shift):
        # Mellin-Poisson summation: the Fejer transform is the triangle on
        # [-1, 1], so for step <= 2 pi only the zero frequency survives and
        # m0(y) = 1/step at every phase.  A window sum misses only
        # positive terms, which the decay envelope bounds.
        scheme = SamplingScheme.uniform(step, offset)
        ys = step * (shift + np.arange(5) / 5.0)
        center = 0.5 * step
        t = moments._window_nodes(scheme, center, half)
        sums = backend.profile_sum(FEJER, ys, t)
        rem = envelope_tail(scheme, half - np.max(np.abs(ys - center)), 0.0)
        assert np.all(sums <= (1.0 + 1e-12) / step)
        assert np.all(1.0 / step <= (sums + rem) * (1.0 + 1e-12))
        # the closed form the package returns lies in the same bracket
        m0 = moments.discrete_moment(FEJER, scheme, 0.0).value
        assert moments.partition_bounds(FEJER, scheme) == (m0, m0)
        assert np.all(sums <= m0 * (1.0 + 1e-12))
        assert np.all(m0 <= (sums + rem) * (1.0 + 1e-12))

    @pytest.mark.parametrize("scheme", [
        SamplingScheme.uniform(7.0, 0.3), SamplingScheme.uniform(9.5, 0.1),
        SamplingScheme.uniform(13.0, 0.1),
        SamplingScheme.tabulated((0.0, 2.0, 5.5), 8.0)],
        ids=["7", "9.5", "13", "tabulated"])
    def test_fejer_bounds_beyond_2pi_bracket_a_direct_sum(self, scheme):
        # past P = 2 pi more frequencies than the zero one survive, so m0
        # varies with the phase; at each of 512 phases the nodes summed
        # directly plus the tail's lower bound stay below a +-3e5-node
        # reference sum plus its own omitted tail, (2/pi) per class and
        # side times 1/D^2 + 1/(P D) for the nearest omitted node at D,
        # and adding the closed-form tail bound lifts them above the
        # reference
        period = scheme.phase_period
        ys = np.linspace(0.0, period, 512, endpoint=False)
        ref = backend.profile_sum(FEJER, ys, scheme.nodes(-300_000, 300_000))
        classes = len(scheme.base or (0,))
        ref_tail = sum(classes * 2.0 / math.pi * (1.0 / d ** 2
                                                  + 1.0 / (period * d))
                       for d in (scheme.nodes(300_001, 300_001)[0] - ys,
                                 ys - scheme.nodes(-300_001, -300_001)[0]))
        direct, bound, least = moments._lattice_tails(FEJER, scheme, ys,
                                                      None, 0.0, lower=True)
        assert np.all(direct <= ref * (1.0 + 1e-12))
        assert np.all(direct + least <= ref + ref_tail)
        assert np.all(ref <= direct + bound)
        # the refined sweep reaches past both ends of the sampled phases
        lo, hi = moments.partition_bounds(FEJER, scheme)
        assert lo <= float(np.min(direct + least)) * (1.0 + 1e-12)
        assert float(np.max(direct + bound)) <= hi * (1.0 + 1e-12)
        assert lo <= float((ref + ref_tail).min())
        assert float(ref.max()) <= hi
        # the direct sums alone sat 8.9e-5 to 1.9e-3 below the reference;
        # what is left is the sampling of the phase (up to 7.9e-7 at 9.5)
        assert lo >= float(ref.min()) - 1e-5


    @staticmethod
    def drawn_bspline_schemes():
        """12 seeded (n, scheme) pairs, n = 2..4, uniform and tabulated."""
        for seed in range(12):
            rng = np.random.default_rng(seed)
            if seed % 2:
                period = float(rng.uniform(1.0, 3.0))
                base = np.sort(rng.uniform(0.0, period, 3))
                scheme = SamplingScheme.tabulated(tuple(base.tolist()), period)
            else:
                scheme = SamplingScheme.uniform(float(rng.uniform(0.5, 2.0)),
                                                float(rng.uniform(-1.0, 1.0)))
            yield 2 + seed % 3, scheme

    def test_bspline_bounds_contain_a_dense_scan(self):
        # both ends refined by the beta = 0 sweep: the 512-phase scan the
        # bounds once took missed a 50,001-phase scan on all 12 schemes,
        # by up to 7.3e-6
        for n, scheme in self.drawn_bspline_schemes():
            profile = make_builtin_profile("bspline", n)
            period = scheme.phase_period
            ys = np.linspace(0.0, period, 50_001)
            t = moments._window_nodes(scheme, 0.5 * period,
                                      profile.support_radius + period
                                      + scheme.upper_gap)
            scan = backend.profile_sum(profile, ys, t)
            lo, hi = moments.partition_bounds(profile, scheme)
            assert lo <= float(scan.min()) + 1e-12, (n, scheme)
            assert float(scan.max()) <= hi + 1e-12, (n, scheme)

    @pytest.mark.parametrize("profile, scheme", [
        (BSPLINE, SamplingScheme.tabulated((0.0, 0.37, 1.1), 2.3)),
        (FEJER, SamplingScheme.uniform(7.0, 0.3))], ids=["bspline", "fejer"])
    def test_bounds_read_the_cached_sweep(self, profile, scheme, monkeypatch):
        monkeypatch.setattr(moments, "_MOMENT_CACHE", OrderedDict())
        m0 = moments.moment_value(profile, scheme, 0.0)
        calls = []
        orig = backend.profile_sum
        monkeypatch.setattr(backend, "profile_sum",
                            lambda *a, **k: calls.append(a) or orig(*a, **k))
        lo, hi = moments.partition_bounds(profile, scheme)
        assert calls == [] and lo < hi == m0


class TestChi4:
    def test_identity_exact(self):
        k = NonlinearKernel(BSPLINE, make_response("identity"))
        s, t = moments.check_chi4(k, UNIT, 2, [4, 8, 16, 32])
        assert all(v < 1e-12 for v in s.sup_values)
        assert all(v < 1e-12 for v in t.sup_values)
        assert s.passed and t.passed

    def test_soft_rate(self):
        k = NonlinearKernel(BSPLINE, make_response("soft", alpha=1.0))
        s, t = moments.check_chi4(k, UNIT, 2, [4, 8, 16, 32, 64])
        assert s.passed and t.passed
        assert s.fitted_rate == pytest.approx(-1.0, abs=0.15)
        assert t.fitted_rate == pytest.approx(-1.0, abs=0.15)
        # the small-u bound |tanh u| <= |u| <= 1/2 gives S <= w^-1 for j = 2
        for w, v in zip(s.w_values, s.sup_values):
            assert v <= 1.0 / w + 1e-12

    def test_star_soft_rate(self):
        k = NonlinearKernel(BSPLINE, make_response("soft", alpha=1.0))
        rep = moments.check_chi4_star(k, UNIT, [4, 8, 16, 32, 64])
        assert rep.passed
        assert rep.fitted_rate == pytest.approx(-1.0, abs=0.15)

    def test_star_fails_when_partition_off_one(self):
        # step-2 nodes: the partition sum floor dominates, no decay in w
        s2 = SamplingScheme.uniform(2.0)
        k = NonlinearKernel(FEJER, make_response("soft", alpha=1.0))
        rep = moments.check_chi4_star(k, s2, [4, 8, 16, 32, 64])
        assert not rep.passed
        assert min(rep.sup_values) > 0.1


class TestL3:
    def test_bspline_exact_zero(self):
        rep = moments.check_L3(BSPLINE, UNIT, 0.5, 1.0, [4, 8, 16, 32])
        assert rep.passed
        assert rep.sup_values[-1] == 0.0

    def test_fejer_half_decreasing(self):
        rep = moments.check_L3(FEJER, UNIT, 0.5, 1.0, [4, 8, 16, 32],
                               phase_points=16)
        assert not rep.extra["diverged"]
        vals = np.asarray(rep.sup_values)
        assert np.all(np.diff(vals) < 0)

    def test_report_records_half_width_and_remainder(self):
        rep = moments.check_L3(FEJER, UNIT, 0.5, 1.0, [4, 8, 16, 32],
                               phase_points=16)
        # h + D, with D no more than the 512 nodes summed before
        depth = moments._lattice_terms(1.0)
        assert depth <= 512
        assert rep.extra["half_width"] == [h + depth for h in (4, 8, 16, 32)]
        ys = np.linspace(0.0, 1.0, 16, endpoint=False)
        for w, sup, rem in zip(rep.w_values, rep.sup_values,
                               rep.extra["remainder"]):
            direct, bound = moments._lattice_tails(FEJER, UNIT, ys, w, 0.5)
            i = int(np.argmax(direct + bound))
            assert sup == direct[i] + bound[i] and rem == bound[i]
        rep = moments.check_L3(BSPLINE, UNIT, 0.5, 1.0, [1, 2, 4, 8])
        assert rep.extra["half_width"] == [2.5, None, None, None]
        assert rep.extra["remainder"] == [0.0] * 4

    def test_fejer_order_one_diverges(self):
        rep = moments.check_L3(FEJER, UNIT, 1.0, 1.0, [4, 8, 16, 32],
                               phase_points=8)
        assert rep.extra["diverged"]
        assert not rep.passed

    def test_divergent_tails_take_no_sum(self, monkeypatch):
        def no_sum(*args, **kwargs):
            raise AssertionError("profile_sum called for divergent tails")

        monkeypatch.setattr(backend, "profile_sum", no_sum)
        rep = moments.check_L3(FEJER, UNIT, 1.0, 1.0, [4, 8, 16, 32])
        assert rep.sup_values == (math.inf,) * 4
        assert rep.extra == {"diverged": True, "half_width": [None] * 4,
                             "remainder": [None] * 4}
        assert not rep.passed and rep.fitted_rate is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("scheme", CUT_SCHEMES, ids=CUT_IDS)
    def test_cut_sums_match_the_per_phase_loop(self, n, scheme):
        profile = make_builtin_profile("bspline", n)
        for r, gamma, w_list in ((0.5, 0.5, [0.5, 1.0, 2.0, 4.0]),
                                 (1.0, 0.3, [0.7, 1.9, 3.1, 6.0])):
            rep = moments.check_L3(profile, scheme, r, gamma, w_list)
            sups, rems = per_phase_L3(profile, scheme, r, gamma, w_list)
            assert any(v > 0.0 for v in sups)  # some gamma w < R
            np.testing.assert_allclose(rep.sup_values, sups, rtol=1e-14,
                                       atol=0.0)
            assert rep.extra["remainder"] == rems


class TestE31:
    def test_bspline_exact_zero(self):
        rep = moments.check_e3_1(BSPLINE, 0.5, [4, 8, 16, 32, 64])
        # w^{1-gamma} > 3/2 for every listed w, i.e. w > 2.25
        assert rep.extra["exact_zero"]
        assert math.isinf(rep.extra["gamma0"])
        assert rep.passed

    def test_zero_suffix_passes(self):
        # thresholds w^0.5 = 1, 1.41, 2, 2.83 against the support radius
        # 3/2: the tail mass is positive at w = 1, 2 and exactly 0 beyond
        rep = moments.check_e3_1(BSPLINE, 0.5, [1, 2, 4, 8])
        assert [v > 0.0 for v in rep.sup_values] == [True, True, False, False]
        assert rep.sup_values[2:] == (0.0, 0.0)
        assert rep.fitted_rate is None and rep.passed is True
        assert math.isinf(rep.extra["gamma0"])
        assert rep.extra["zero_from_w"] == 4.0
        assert not rep.extra["exact_zero"] and "M3" not in rep.extra

    def test_zero_suffix_after_a_fitted_prefix_keeps_the_fit(self):
        rep = moments.check_e3_1(BSPLINE, 0.5, [0.5, 1, 2, 4])
        assert rep.sup_values[-1] == 0.0 and rep.fitted_rate is not None
        assert rep.extra["gamma0"] == -rep.fitted_rate
        assert "zero_from_w" not in rep.extra

    @pytest.mark.parametrize("n", [2, 4])
    def test_m3_bound_covers_every_mass(self, n):
        # least squares read mass / (M3 w^-gamma0) = 0.52, 3.68, 0.52 at
        # n = 2 and 0.10, 0.68, 2.14, 0.68 at n = 4 on w = 0.5, 1, 2, 4
        w = np.array([0.5, 1.0, 2.0, 4.0])
        rep = moments.check_e3_1(make_builtin_profile("bspline", n), 0.5, w)
        mass = np.array(rep.sup_values)
        m3, gamma0 = rep.extra["M3"], rep.extra["gamma0"]
        assert gamma0 == -rep.fitted_rate
        ratio = mass / (m3 * w ** -gamma0)
        assert np.all(ratio <= 1.0 + 1e-15)
        assert np.max(ratio) == pytest.approx(1.0, rel=1e-15)

    @staticmethod
    def bspline_tail_mass(n, threshold):
        """The exact integral over |v| > threshold of the degree-n central
        B-spline, from its truncated powers: with s = v + (n+1)/2 and
        a = threshold + (n+1)/2, int_a^(n+1) B ds is
        sum_i (-1)^i C(n+1, i) ((n+1-i)^(n+1) - (a-i)_+^(n+1)) / (n+1)!."""
        a = Fraction(threshold) + Fraction(n + 1, 2)
        if a >= n + 1:
            return Fraction(0)
        one_side = sum((-1) ** i * math.comb(n + 1, i)
                       * ((n + 1 - i) ** (n + 1) - max(a - i, 0) ** (n + 1))
                       for i in range(n + 2)) / math.factorial(n + 1)
        return 2 * one_side

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_compact_tail_mass_is_exact(self, n):
        # thresholds on the knots -R + j/2 and between them
        rng = np.random.default_rng(n)
        thresholds = [j / 8 for j in range(1, 33)] + list(rng.uniform(0, 4, 25))
        profile = make_builtin_profile("bspline", n)
        for threshold in thresholds:
            got = moments._log_tail_integral(profile, threshold)
            exact = self.bspline_tail_mass(n, threshold)
            assert abs(got - float(exact)) <= 1e-15, threshold

    def test_fejer_rate(self):
        rep = moments.check_e3_1(FEJER, 0.5, [4, 8, 16, 32, 64, 128])
        assert rep.passed
        assert rep.extra["gamma0"] == pytest.approx(0.5, abs=0.15)

    def test_gamma_validation(self):
        with pytest.raises(ValidationError):
            moments.check_e3_1(BSPLINE, 1.5, [4, 8, 16, 32])

    @staticmethod
    def fejer_tail_mass(v0):
        """The integral over |v| > v0 of (1 - cos v)/(pi v^2), from
        int (1 - cos v)/v^2 = (1 - cos v0)/v0 + pi/2 - Si(v0)."""
        from scipy.special import sici
        return 2.0 / math.pi * ((1.0 - math.cos(v0)) / v0 + 0.5 * math.pi
                                - float(sici(v0)[0]))

    @pytest.mark.parametrize("v0", [0.5, 3.0, 11.3, 400.0, 1e4])
    def test_fejer_integral_tail_bound(self, v0):
        exact = self.fejer_tail_mass(v0)
        bound = moments.integral_tail(FEJER, v0)
        assert exact <= bound <= exact + 8.0 / math.pi / v0 ** 3

    @pytest.mark.parametrize("threshold", [2.0, 2.83, 5.66, 11.3, 300.0])
    def test_fejer_tail_mass_between_exact_and_envelope(self, threshold):
        got = moments._log_tail_integral(FEJER, threshold)
        exact = self.fejer_tail_mass(threshold)
        assert exact <= got <= exact + 1e-7
        assert got < envelope_tail_mass(threshold)


class TestCompactOuterWindow:
    def test_compact_profile_outer_integral_vanishes(self):
        # for |t_k| <= gamma w, L(e^{w v - t_k}) = 0 once |v| > gamma + R
        gamma, w = 1.0, 6.0
        radius = BSPLINE.support_radius
        m = gamma + radius + 0.01
        v = np.concatenate([np.linspace(m, m + 50, 2000),
                            np.linspace(-m - 50, -m, 2000)])
        for t_k in (-gamma * w, 0.0, gamma * w):
            assert np.all(BSPLINE.log_values(w * v - t_k) == 0.0)
