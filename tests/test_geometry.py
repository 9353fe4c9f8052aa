import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapflow.geometry import (
    DELTA_DEFAULT,
    H_MAX_DEFAULT,
    CutoffPair,
    GapGeometry,
    _radial,
    cutoffs,
    gamma_s,
    smoothstep,
)
from gapflow.quadrature import QuadratureSpec, integrate_surface

TOL_EXACT = 1e-12
TOL_FD = 1e-6


def _cutoffs_at(x, geo):
    """The CutoffPair of the one point x, evaluated as a (1, 3) batch."""
    pair = cutoffs(np.array([x], dtype=float), geo)
    return CutoffPair(*(getattr(pair, name)[0] for name in CutoffPair._fields))


class TestGammaS:
    def test_zero_at_axis(self):
        assert gamma_s(0.0) == 0.0

    def test_one_at_equator(self):
        assert gamma_s(1.0) == 1.0

    def test_exact_at_r06(self):
        # sqrt(1 - 0.36) = 0.8 exactly
        assert gamma_s(0.6) == pytest.approx(0.2, abs=TOL_EXACT)

    def test_small_r_quadratic(self):
        r = 1e-4
        assert gamma_s(r) == pytest.approx(r * r / 2.0, rel=1e-7)

    def test_relative_accuracy_against_mpmath(self):
        # r^2 / (1 + sqrt(1 - r^2)) subtracts nothing, so it keeps a few eps
        # relative down to the axis, where 1 - sqrt(1 - r^2) is off by up to
        # 286 % (at r = 1e-8 it gives 1.11e-16 against 5.0e-17)
        rng = np.random.default_rng(20260814)
        r = np.concatenate([np.geomspace(1e-9, 0.999, 400), rng.uniform(0.0, 1.0, 200)])
        with mpmath.workdps(50):
            worst = max(
                abs(g / (1 - mpmath.sqrt(1 - mpmath.mpf(x) ** 2)) - 1)
                for x, g in zip(r.tolist(), gamma_s(r).tolist())
            )
        assert worst < 3.0 * np.finfo(float).eps

    def test_monotone_and_convex_on_aperture(self):
        r = np.linspace(0.0, 0.2, 401)
        g = gamma_s(r)
        assert np.all(np.diff(g) > 0)
        second = np.diff(g, 2)
        assert np.all(second > 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma_s(-0.1)
        with pytest.raises(ValueError):
            gamma_s(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=1e-8, max_value=0.5))
    def test_gap_positive(self, r, h):
        assert gamma_s(r) + h > 0


class TestRadial:
    # _radial's s is the sphere normal's n_z, so (-r, s) is the normal the
    # drag row and navier_residuals read the sphere with
    def test_south_pole(self):
        s, H = _radial(1e-3, 0.0)
        assert s == 1.0 and H == 1e-3

    def test_exact_at_r06(self):
        s, _ = _radial(1e-3, 0.6)
        assert s == pytest.approx(0.8, abs=TOL_EXACT)

    def test_unit_norm_spot_values(self):
        for r in (0.1, 0.5, 0.9):
            s, _ = _radial(1e-3, r)
            assert abs(np.hypot(-r, s) - 1.0) < TOL_EXACT

    def test_unit_norm_random(self, rng):
        r = rng.uniform(0.0, 1.0 - 1e-9, size=10_000)
        s, _ = _radial(1e-3, r)
        assert np.max(np.abs(np.hypot(-r, s) - 1.0)) < TOL_EXACT

    @pytest.mark.parametrize("h", [1e-12, 1e-4, 0.5])
    def test_gap_height_is_h_plus_gamma_s_bit_for_bit(self, rng, h):
        r = np.concatenate([[0.0], np.geomspace(1e-9, 0.999, 200), rng.uniform(0.0, 1.0, 200)])
        _, H = _radial(h, r)
        assert np.array_equal(H, h + gamma_s(r))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            _radial(1e-3, 1.0)
        with pytest.raises(ValueError):
            _radial(1e-3, -0.1)


class TestSurfaceMeasure:
    """The boundary measures of `quadrature.integrate_surface`: r on the
    plane, r / s on the cap with s from `_radial`."""

    def test_unknown_surface(self):
        def f(r):
            raise AssertionError("the integrand was called")

        with pytest.raises(ValueError):
            integrate_surface(f, "torus", 0.1, QuadratureSpec(1e-10, 1e-13), scale=1.0)

    def test_cap_area_quadrature(self):
        # integral of the cap measure r / s reproduces the spherical cap
        # area 2 pi (1 - sqrt(1 - r^2))
        r_max = 0.6
        r = np.linspace(0.0, r_max, 20_001)
        s, _ = _radial(0.0, r)
        area = 2.0 * np.pi * np.trapezoid(r / s, r)
        assert area == pytest.approx(2.0 * np.pi * (1.0 - 0.8), rel=1e-8)


class TestGapGeometry:
    def test_valid(self):
        assert GapGeometry(h=0.1, delta=DELTA_DEFAULT).delta == 0.2
        assert GapGeometry(h=H_MAX_DEFAULT, delta=DELTA_DEFAULT).h == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(h=0.1, delta=0.25),
            dict(h=0.1, delta=0.0),
            dict(h=0.1, delta=math.nan),
            dict(h=-0.01, delta=DELTA_DEFAULT),
            dict(h=0.6, delta=DELTA_DEFAULT),
            dict(h=H_MAX_DEFAULT * (1.0 + 1e-12), delta=DELTA_DEFAULT),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GapGeometry(**kwargs)


class TestSmoothstep:
    def test_endpoints(self):
        assert smoothstep(0.0)[0] == 0.0
        assert smoothstep(1.0)[0] == 1.0

    def test_midpoint(self):
        val, _, _ = smoothstep(0.5)
        assert val == pytest.approx(0.5, abs=TOL_EXACT)

    def test_derivatives_vanish_at_joins(self):
        for s in (0.0, 1.0, -0.5, 1.5):
            _, d1, d2 = smoothstep(s)
            assert d1 == 0.0 and d2 == 0.0

    def test_derivatives_match_fd(self, rng):
        s = rng.uniform(0.05, 0.95, size=200)
        eps = 1e-6
        val_p = smoothstep(s + eps)[0]
        val_m = smoothstep(s - eps)[0]
        _, d1, d2 = smoothstep(s)
        assert np.max(np.abs((val_p - val_m) / (2 * eps) - d1)) < 1e-5
        eps = 1e-4  # wider step: second differences hit roundoff sooner
        val_p = smoothstep(s + eps)[0]
        val_m = smoothstep(s - eps)[0]
        val_0 = smoothstep(s)[0]
        fd2 = (val_p - 2 * val_0 + val_m) / eps**2
        assert np.max(np.abs(fd2 - d2)) < 1e-5


class TestCutoffs:
    geo = GapGeometry(h=0.1, delta=DELTA_DEFAULT)

    def test_chi_deep_inside(self):
        pair = _cutoffs_at((0.0, 0.0, 0.1 * 0.2), self.geo)
        assert pair.chi == 1.0
        assert np.all(pair.chi_grad == 0.0)
        assert np.all(pair.chi_hess == 0.0)

    def test_chi_outside(self):
        pair = _cutoffs_at((3 * 0.2, 0.0, 0.0), self.geo)
        assert pair.chi == 0.0
        assert np.all(pair.chi_grad == 0.0)

    def test_chi_monotone_on_transition_segment(self):
        xs = np.linspace(0.2, 0.4, 101)
        vals = [_cutoffs_at((x, 0.0, 0.0), self.geo).chi for x in xs]
        assert vals[0] == 1.0 and vals[-1] == 0.0
        assert np.all(np.diff(vals) <= 0)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_phi_bump_plateau_and_support(self):
        # south pole region of the sphere: distance to center ~ 1
        pair = _cutoffs_at((0.0, 0.0, 0.05), self.geo)
        assert pair.phi_bump == 1.0
        # far away
        pair = _cutoffs_at((2.0, 0.0, 0.0), self.geo)
        assert pair.phi_bump == 0.0
        # inside the transition shell: strictly between
        pair = _cutoffs_at((0.0, 0.0, 1.1 + 1.0 + 0.075), self.geo)
        assert 0.0 < pair.phi_bump < 1.0

    def test_values_in_unit_interval(self, rng):
        for _ in range(500):
            x = rng.uniform(-2.5, 2.5, size=3)
            pair = _cutoffs_at(x, self.geo)
            assert 0.0 <= pair.chi <= 1.0
            assert 0.0 <= pair.phi_bump <= 1.0

    def test_gradients_match_fd(self, rng):
        eps = 1e-6
        checked = 0
        while checked < 60:
            x = rng.uniform(-0.45, 0.45, size=3)
            pair = _cutoffs_at(x, self.geo)
            # keep points strictly inside the transition for a clean FD
            if pair.chi in (0.0, 1.0):
                continue
            checked += 1
            for i in range(3):
                xp = x.copy()
                xm = x.copy()
                xp[i] += eps
                xm[i] -= eps
                fd = (_cutoffs_at(xp, self.geo).chi - _cutoffs_at(xm, self.geo).chi) / (2 * eps)
                assert fd == pytest.approx(pair.chi_grad[i], rel=1e-4, abs=1e-6)

    def test_phi_gradient_matches_fd(self, rng):
        eps = 1e-7
        checked = 0
        while checked < 60:
            d = rng.uniform(1.05, 1.1)  # inside the radial transition shell
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            x = np.array([0.0, 0.0, 1.1]) + d * u
            pair = _cutoffs_at(x, self.geo)
            if pair.phi_bump in (0.0, 1.0):
                continue
            checked += 1
            for i in range(3):
                xp = x.copy()
                xm = x.copy()
                xp[i] += eps
                xm[i] -= eps
                fd = (
                    _cutoffs_at(xp, self.geo).phi_bump - _cutoffs_at(xm, self.geo).phi_bump
                ) / (2 * eps)
                assert fd == pytest.approx(pair.phi_grad[i], rel=1e-4, abs=1e-5)

    def test_hessians_symmetric_and_match_fd(self, rng):
        eps = 1e-5
        x = np.array([0.27, 0.05, 0.31])  # chi transition region
        pair = _cutoffs_at(x, self.geo)
        assert np.allclose(pair.chi_hess, pair.chi_hess.T)
        for i in range(3):
            for j in range(3):
                xpp = x.copy(); xpp[i] += eps; xpp[j] += eps
                xpm = x.copy(); xpm[i] += eps; xpm[j] -= eps
                xmp = x.copy(); xmp[i] -= eps; xmp[j] += eps
                xmm = x.copy(); xmm[i] -= eps; xmm[j] -= eps
                fd = (
                    _cutoffs_at(xpp, self.geo).chi
                    - _cutoffs_at(xpm, self.geo).chi
                    - _cutoffs_at(xmp, self.geo).chi
                    + _cutoffs_at(xmm, self.geo).chi
                ) / (4 * eps * eps)
                assert fd == pytest.approx(pair.chi_hess[i, j], rel=1e-3, abs=1e-4)

    def test_chi_complementarity(self, rng):
        # chi * (1 - chi) = 0 outside the transition shell
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0, size=3)
            inside = np.max(np.abs(x)) <= 0.2
            outside = np.max(np.abs(x)) >= 0.4
            pair = _cutoffs_at(x, self.geo)
            if inside:
                assert pair.chi == 1.0
            elif outside:
                assert pair.chi == 0.0

    def test_cutoff_pair_type(self):
        pair = cutoffs(np.zeros((4, 3)), self.geo)
        assert isinstance(pair, CutoffPair)
        assert pair.chi.shape == pair.phi_bump.shape == (4,)
        assert pair.chi_grad.shape == pair.phi_grad.shape == (4, 3)
        assert pair.chi_hess.shape == pair.phi_hess.shape == (4, 3, 3)
