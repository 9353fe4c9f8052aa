import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from gapflow import profile
from gapflow.geometry import gamma_s
from gapflow.profile import (
    ENVELOPE_ROWS,
    ProfileCoefficients,
    RegimeKind,
    SlipRegime,
    coefficients,
    psi_partials,
    weighted_sups,
)

TOL_IDENTITY = 1e-12

SLIP = SlipRegime.slip(1.0, 1.0)
MIXED = SlipRegime.mixed(1.0)


def _phi(c, t):
    """The cubic Phi(t) = p1 t + p2 t^2 + p3 t^3 of coefficients c."""
    return t * (c.p1 + t * (c.p2 + t * c.p3))


def solve_cubic_constraints(regime, h, r):
    """Independent oracle: solve the boundary constraints as a 4x4 system.

    Unknowns are the coefficients (P0, P1, P2, P3) of Phi(t) = sum P_i t^i.
    Rows: Phi(0) = 0; Phi(1) = 1; wall Navier condition at t = 0; sphere
    condition at t = 1 (Navier for slip, no-slip for mixed).
    """
    H = h + 1.0 - math.sqrt(1.0 - r * r)
    alpha_P = H / regime.beta_Omega
    rows = [
        [1.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
        [0.0, -alpha_P, 2.0, 0.0],
    ]
    rhs = [0.0, 1.0, 0.0]
    if regime.kind is RegimeKind.SLIP:
        alpha_S = (1.0 / regime.beta_S + 2.0) * H
        rows.append([0.0, alpha_S, 2.0 * alpha_S + 2.0, 3.0 * alpha_S + 6.0])
    else:
        rows.append([0.0, 1.0, 2.0, 3.0])
    rhs.append(0.0)
    sol = np.linalg.solve(np.array(rows), np.array(rhs))
    return sol[1], sol[2], sol[3]


class TestSlipRegime:
    def test_constructors(self):
        assert SLIP.kind is RegimeKind.SLIP
        assert MIXED.beta_S == 0.0
        assert list(RegimeKind) == [RegimeKind.SLIP, RegimeKind.MIXED]

    @pytest.mark.parametrize(
        "args",
        [
            (RegimeKind.SLIP, 0.0, 1.0),
            (RegimeKind.SLIP, 1.0, 0.0),
            (RegimeKind.MIXED, 0.5, 1.0),
            (RegimeKind.MIXED, 0.0, 0.0),
            (RegimeKind.SLIP, -1.0, 1.0),
            (RegimeKind.SLIP, 1.0, math.nan),
        ],
    )
    def test_invalid(self, args):
        with pytest.raises(ValueError):
            SlipRegime(*args)


class TestCoefficients:
    def test_frozen_slip_values(self):
        # h=0.1, r=0, beta_S=beta_Omega=1: alpha_P=0.1, alpha_S=0.3,
        # denominator 13.63, numerators 13.8, 0.69, -0.86
        c = coefficients(SLIP, 0.1, 0.0)
        assert c.alpha_P == pytest.approx(0.1, abs=1e-15)
        assert c.alpha_S == pytest.approx(0.3, abs=1e-15)
        assert c.p1 == pytest.approx(13.8 / 13.63, abs=1e-15)
        assert c.p2 == pytest.approx(0.69 / 13.63, abs=1e-15)
        assert c.p3 == pytest.approx(-0.86 / 13.63, abs=1e-15)

    def test_against_linear_solve_oracle(self, rng):
        for _ in range(200):
            kind = rng.choice(["slip", "mixed"])
            h = float(10.0 ** rng.uniform(-6, math.log10(0.5)))
            r = float(rng.uniform(0.0, 0.2))
            if kind == "slip":
                regime = SlipRegime.slip(
                    10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)
                )
            else:
                regime = SlipRegime.mixed(10.0 ** rng.uniform(-3, 3))
            c = coefficients(regime, h, r)
            p1, p2, p3 = solve_cubic_constraints(regime, h, r)
            scale = max(1.0, abs(p1), abs(p2), abs(p3))
            assert abs(c.p1 - p1) < 1e-11 * scale
            assert abs(c.p2 - p2) < 1e-11 * scale
            assert abs(c.p3 - p3) < 1e-11 * scale

    def test_h_domain(self):
        with pytest.raises(ValueError):
            coefficients(SLIP, 0.0, 0.0)

    @pytest.mark.parametrize("regime", [SlipRegime.slip(0.03, 20.0), MIXED], ids=["slip", "mixed"])
    def test_array_call_is_the_scalar_calls_bit_for_bit(self, regime):
        rng = np.random.default_rng(13)
        h = rng.uniform(1e-6, 0.45, 300)
        r = rng.uniform(0.0, 0.9, 300)
        r[:3] = 0.0
        c = coefficients(regime, h, r)
        for name in ("alpha_S", "alpha_P", "p1", "p2", "p3"):
            got = getattr(c, name)
            assert isinstance(got, np.ndarray) and got.shape == h.shape
            want = np.array([getattr(coefficients(regime, a, b), name) for a, b in zip(h, r)])
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
        grid = coefficients(regime, h[:5, None], r[None, :7])
        assert grid.p2.shape == grid.alpha_S.shape == (5, 7)
        assert grid.p2[4, 6] == coefficients(regime, h[4], r[6]).p2

    @pytest.mark.parametrize("regime", [SLIP, MIXED], ids=["slip", "mixed"])
    def test_zero_dimensional_call_returns_floats(self, regime):
        c = coefficients(regime, np.array(1e-3), np.float64(0.1))
        assert all(type(x) is float for x in (c.alpha_S, c.alpha_P, c.p1, c.p2, c.p3))

    @pytest.mark.parametrize(
        "h, r",
        [
            ([1e-3, 1e-2], [0.1, 1.0]),
            ([1e-3, 1e-2], [-1e-9, 0.1]),
            ([1e-3, 0.0], [0.1, 0.2]),
            ([1e-3, -1e-3], 0.1),
        ],
    )
    def test_array_domain(self, h, r):
        with pytest.raises(ValueError):
            coefficients(SLIP, np.array(h), np.array(r))

    def test_free_slip_plug_profile(self):
        # H -> 0 of the slip family: P_i -> N_i(0) / Delta(0) = (1, 0, 0)
        t = np.linspace(0, 1, 11)
        for betas in ((1.0, 1.0), (0.3, 7.0), (50.0, 0.02)):
            delta, *nums = profile._family(RegimeKind.SLIP, *betas)
            c = ProfileCoefficients(0.0, 0.0, *(n[0] / delta[0] for n in nums))
            assert (c.p1, c.p2, c.p3) == (1.0, 0.0, 0.0)
            assert np.max(np.abs(_phi(c, t) - t)) < TOL_IDENTITY
            # and the evaluated profile approaches it with the gap
            d = coefficients(SlipRegime.slip(*betas), 1e-13, 0.0)
            assert max(abs(d.p1 - 1.0), abs(d.p2), abs(d.p3)) < 1e-11

    def test_mixed_no_slip_limit(self):
        # H -> inf of the mixed family: the ratio of leading coefficients,
        # 0 for N1, whose degree is lower
        t = np.linspace(0, 1, 11)
        for beta_Omega in (1.0, 0.3, 7.0):
            delta, *nums = profile._family(RegimeKind.MIXED, 0.0, beta_Omega)
            limits = [n[-1] / delta[-1] if n.size == delta.size else 0.0 for n in nums]
            c = ProfileCoefficients(math.inf, math.inf, *limits)
            assert c.p1 == 0.0
            assert c.p2 == pytest.approx(3.0, rel=1e-15)
            assert c.p3 == pytest.approx(-2.0, rel=1e-15)
            assert np.max(np.abs(_phi(c, t) - (3 * t**2 - 2 * t**3))) < TOL_IDENTITY

    def test_mixed_large_alpha_consistency(self):
        # a tiny wall slip length (alpha_P = H / beta_Omega ~ 1e13)
        # approaches the closed no-slip limit
        c = coefficients(SlipRegime.mixed(1e-14), 0.1, 0.05)
        assert c.alpha_P > 1e13
        assert c.p1 == pytest.approx(0.0, abs=1e-12)
        assert c.p2 == pytest.approx(3.0, rel=1e-12)
        assert c.p3 == pytest.approx(-2.0, rel=1e-12)

    @given(
        st.sampled_from(["slip", "mixed"]),
        st.floats(min_value=1e-6, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.2),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_constraint_identities(self, kind, h, r, beta_s, beta_w):
        regime = (
            SlipRegime.slip(beta_s, beta_w)
            if kind == "slip"
            else SlipRegime.mixed(beta_w)
        )
        c = coefficients(regime, h, r)
        assert abs(c.p1 + c.p2 + c.p3 - 1.0) < TOL_IDENTITY
        assert abs(2.0 * c.p2 - c.alpha_P * c.p1) < TOL_IDENTITY * (1.0 + c.alpha_P)
        if kind == "slip":
            lhs = 2.0 * c.p2 + 6.0 * c.p3
            rhs = -c.alpha_S * (c.p1 + 2.0 * c.p2 + 3.0 * c.p3)
            assert abs(lhs - rhs) < TOL_IDENTITY * (1.0 + c.alpha_S)
        else:
            assert abs(c.p1 + 2.0 * c.p2 + 3.0 * c.p3) < TOL_IDENTITY


def _psi(regime, h, r, z):
    return psi_partials(regime, h, r, z).value


def _h_partials(regime, h, r, z):
    return profile._h_partials(profile._Kernel(regime, h, r, z))


class TestPsi:
    @pytest.mark.parametrize("regime", [SLIP, MIXED])
    def test_bottom_value_exact_zero(self, regime, rng):
        r = rng.uniform(0.0, 0.2, size=50)
        assert np.all(_psi(regime, 0.1, r, np.zeros_like(r)) == 0.0)

    @pytest.mark.parametrize("regime", [SLIP, MIXED])
    def test_top_value_one(self, regime, rng):
        r = rng.uniform(0.0, 0.2, size=50)
        H = 0.1 + 1.0 - np.sqrt(1.0 - r * r)
        assert np.max(np.abs(_psi(regime, 0.1, r, H) - 1.0)) < TOL_IDENTITY

    @pytest.mark.parametrize("regime", [SLIP, MIXED])
    def test_matches_rescaled_cubic(self, regime, rng):
        # independent route: coefficients + Phi(z/H)
        for _ in range(50):
            h = float(10.0 ** rng.uniform(-5, math.log10(0.5)))
            r = float(rng.uniform(0.0, 0.2))
            H = h + 1.0 - math.sqrt(1.0 - r * r)
            z = float(rng.uniform(0.0, H))
            c = coefficients(regime, h, r)
            assert _psi(regime, h, r, z) == pytest.approx(
                _phi(c, z / H), rel=1e-12, abs=1e-13
            )

    def test_z_domain_error(self):
        with pytest.raises(ValueError):
            _psi(SLIP, 0.1, 0.0, 0.11)
        with pytest.raises(ValueError):
            _psi(SLIP, 0.1, 0.0, -0.001)

    def test_r_domain_error(self):
        with pytest.raises(ValueError):
            _psi(SLIP, 0.1, 1.0, 0.05)


def _fd_ladder_points(rng, n):
    """Interior points with margins so centered stencils stay in the gap."""
    pts = []
    while len(pts) < n:
        h = float(10.0 ** rng.uniform(-4, math.log10(0.4)))
        r = float(rng.uniform(0.01, 0.19))
        H = h + 1.0 - math.sqrt(1.0 - r * r)
        z = float(rng.uniform(0.15, 0.85)) * H
        pts.append((h, r, z, H))
    return pts


class TestDerivativeLadder:
    """Each derivative order is finite-differenced from the closed form one
    order below, giving an independent consistency chain for the whole
    table (value -> first -> second -> third)."""

    @pytest.mark.parametrize("regime", [SLIP, MIXED])
    def test_first_order(self, regime, rng):
        for h, r, z, H in _fd_ladder_points(rng, 40):
            p = psi_partials(regime, h, r, z)
            er = 1e-5 * H
            fd_r = (_psi(regime, h, r + er, z) - _psi(regime, h, r - er, z)) / (2 * er)
            assert fd_r == pytest.approx(float(p.dr), rel=1e-6, abs=1e-9 / H)
            ez = 1e-5 * H
            fd_z = (_psi(regime, h, r, z + ez) - _psi(regime, h, r, z - ez)) / (2 * ez)
            assert fd_z == pytest.approx(float(p.dz), rel=1e-6, abs=1e-9 / H)

    @pytest.mark.parametrize("regime", [SLIP, MIXED])
    def test_second_order(self, regime, rng):
        for h, r, z, H in _fd_ladder_points(rng, 40):
            p = psi_partials(regime, h, r, z)
            er = 1e-5 * max(H, 1e-3)
            ez = 1e-5 * H

            def part(rr, zz):
                return psi_partials(regime, h, rr, zz)

            fd_rr = (float(part(r + er, z).dr) - float(part(r - er, z).dr)) / (2 * er)
            assert fd_rr == pytest.approx(float(p.drr), rel=1e-6, abs=1e-8 / H)
            fd_rz = (float(part(r, z + ez).dr) - float(part(r, z - ez).dr)) / (2 * ez)
            assert fd_rz == pytest.approx(float(p.drz), rel=1e-6, abs=1e-8 / H)
            fd_zz = (float(part(r, z + ez).dz) - float(part(r, z - ez).dz)) / (2 * ez)
            assert fd_zz == pytest.approx(float(p.dzz), rel=1e-6, abs=1e-8 / H)

    @pytest.mark.parametrize("regime", [SLIP, MIXED])
    def test_third_order(self, regime, rng):
        for h, r, z, H in _fd_ladder_points(rng, 40):
            p = psi_partials(regime, h, r, z)
            er = 1e-5 * max(H, 1e-3)
            ez = 1e-5 * H

            def part(rr, zz):
                return psi_partials(regime, h, rr, zz)

            fd = (float(part(r + er, z).drr) - float(part(r - er, z).drr)) / (2 * er)
            assert fd == pytest.approx(float(p.drrr), rel=1e-5, abs=1e-7 / H)
            fd = (float(part(r + er, z).drz) - float(part(r - er, z).drz)) / (2 * er)
            assert fd == pytest.approx(float(p.drrz), rel=1e-5, abs=1e-7 / H)
            fd = (float(part(r, z + ez).drz) - float(part(r, z - ez).drz)) / (2 * ez)
            assert fd == pytest.approx(float(p.drzz), rel=1e-5, abs=1e-7 / H)
            fd = (float(part(r, z + ez).dzz) - float(part(r, z - ez).dzz)) / (2 * ez)
            assert fd == pytest.approx(float(p.dzzz), rel=1e-5, abs=1e-7 / H)

    @pytest.mark.parametrize("regime", [SLIP, MIXED])
    def test_axis_quotients(self, regime, rng):
        # dr/r and friends: compare the exact quotient against the plain
        # ratio at moderate r, and check finiteness on the axis itself
        for h, r, z, H in _fd_ladder_points(rng, 20):
            p = psi_partials(regime, h, r, z)
            assert float(p.dr_by_r) == pytest.approx(float(p.dr) / r, rel=1e-12)
            assert float(p.drz_by_r) == pytest.approx(float(p.drz) / r, rel=1e-12)
            assert float(p.drzz_by_r) == pytest.approx(float(p.drzz) / r, rel=1e-12)
            rad2 = (float(p.drr) - float(p.dr) / r) / (r * r)
            assert float(p.rad2) == pytest.approx(rad2, rel=1e-6, abs=1e-6 * abs(rad2) + 1e-10 / H)
        p0 = psi_partials(SLIP, 0.1, 0.0, 0.05)
        for field in (p0.dr_by_r, p0.drz_by_r, p0.drzz_by_r, p0.rad2):
            assert np.isfinite(field)


class TestHDerivatives:
    @pytest.mark.parametrize("regime", [SLIP, MIXED])
    def test_dh_at_bottom_is_zero(self, regime):
        q = _h_partials(regime, 0.1, 0.05, 0.0)
        assert float(q.dh) == 0.0

    @pytest.mark.parametrize("regime", [SLIP, MIXED])
    def test_moving_top_boundary_identity(self, regime, rng):
        # Psi(r, H) = 1 for all h, so d_h Psi + d_z Psi = 0 at z = H
        for _ in range(30):
            h = float(10.0 ** rng.uniform(-4, math.log10(0.4)))
            r = float(rng.uniform(0.0, 0.19))
            H = h + 1.0 - math.sqrt(1.0 - r * r)
            q = _h_partials(regime, h, r, H)
            p = psi_partials(regime, h, r, H)
            scale = abs(float(p.dz)) + 1.0 / H
            assert abs(float(q.dh) + float(p.dz)) < 1e-12 * scale

    @pytest.mark.parametrize("regime", [SLIP, MIXED])
    def test_fd_in_h(self, regime, rng):
        for h, r, z, H in _fd_ladder_points(rng, 40):
            eh = 1e-6 * max(h, 1e-2)
            q = _h_partials(regime, h, r, z)

            def at(hh):
                return psi_partials(regime, hh, r, z)

            fd = (_psi(regime, h + eh, r, z) - _psi(regime, h - eh, r, z)) / (2 * eh)
            assert fd == pytest.approx(float(q.dh), rel=1e-6, abs=1e-8 / H)
            fd = (float(at(h + eh).dr) - float(at(h - eh).dr)) / (2 * eh)
            assert fd == pytest.approx(float(q.drh), rel=1e-5, abs=1e-7 / H)
            fd = (float(at(h + eh).dz) - float(at(h - eh).dz)) / (2 * eh)
            assert fd == pytest.approx(float(q.dzh), rel=1e-5, abs=1e-7 / H)
            fd = (float(at(h + eh).drr) - float(at(h - eh).drr)) / (2 * eh)
            assert fd == pytest.approx(float(q.drrh), rel=1e-5, abs=1e-6 / H**2)
            fd = (float(at(h + eh).dzz) - float(at(h - eh).dzz)) / (2 * eh)
            assert fd == pytest.approx(float(q.dzzh), rel=1e-5, abs=1e-6 / H**2)
            fd = (float(at(h + eh).drz) - float(at(h - eh).drz)) / (2 * eh)
            assert fd == pytest.approx(float(q.drzh), rel=1e-5, abs=1e-6 / H**2)


def _polyval_g_derivs(regime, H):
    """G_i and its first three H-derivatives by one npoly.polyval call per
    polynomial of the unpadded tables: [i - 1][order]."""
    delta, *nums = profile._family(regime.kind, regime.beta_S, regime.beta_Omega)
    out = []
    for i, num in enumerate(nums, start=1):
        den = np.concatenate([np.zeros(i), delta])
        n0, n1, n2, n3 = (npoly.polyval(H, npoly.polyder(num, k)) for k in range(4))
        d0, d1, d2, d3 = (npoly.polyval(H, npoly.polyder(den, k)) for k in range(4))
        r0 = n0 / d0
        r1 = (n1 - r0 * d1) / d0
        r2 = (n2 - 2.0 * r1 * d1 - r0 * d2) / d0
        r3 = (n3 - 3.0 * r2 * d1 - 3.0 * r1 * d2 - r0 * d3) / d0
        out.append((r0, r1, r2, r3))
    return out


def _polyval_kernel_f(regime, H, z):
    """The kernel's table f[a, b] = d_H^a d_z^b F, one (a, b) at a time."""
    g = tuple(zip(*_polyval_g_derivs(regime, H)))
    z2 = z * z
    z3 = z2 * z

    def z_poly(g1, g2, g3, b):
        if b == 0:
            return g1 * z + g2 * z2 + g3 * z3
        if b == 1:
            return g1 + 2.0 * g2 * z + 3.0 * g3 * z2
        if b == 2:
            return 2.0 * g2 + 6.0 * g3 * z
        return 6.0 * g3 * np.ones_like(z)

    return {(a, b): z_poly(*g[a], b) for a in range(4) for b in range(4 - a)}


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _gap_points(shape, h, rng):
    """(r, z) in the gap: 0-d, 1-d, r (n, 1) with z (n, k), or r (n,)
    with z (k, n), the layout of `field verify`."""
    if shape == "0-d":
        r, t = np.asarray(0.07), 0.3
    elif shape == "1-d":
        r, t = rng.uniform(0.0, 0.2, size=9), rng.uniform(0.0, 1.0, size=9)
    elif shape == "column":
        r, t = rng.uniform(0.0, 0.2, size=(9, 1)), np.linspace(0.0, 1.0, 4)
    else:
        r, t = rng.uniform(0.0, 0.2, size=50), np.linspace(0.0, 1.0, 4)[:, None]
    return r, t * (h + gamma_s(r))


class TestStackedKernel:
    """The stacked Horner pass and z-order stacks against the per-polynomial
    polyval evaluation they replace, bit for bit."""

    REGIMES = [SLIP, MIXED, SlipRegime.slip(0.37, 2.5), SlipRegime.mixed(0.2)]
    SHAPES = ["0-d", "1-d", "column", "leading-z"]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_g_derivs_bit_identical(self, regime, shape, rng):
        for h in (1e-1, 1e-4, 1e-7):
            r, _ = _gap_points(shape, h, rng)
            H = h + gamma_s(r)
            got, want = profile._g_derivs(regime, H), _polyval_g_derivs(regime, H)
            assert got.shape == (4, 3) + H.shape
            for i in range(3):
                for a in range(4):
                    np.testing.assert_array_equal(_bits(got[a, i]), _bits(want[i][a]))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_kernel_table_bit_identical(self, regime, shape, rng):
        for h in (1e-1, 1e-4, 1e-7):
            r, z = _gap_points(shape, h, rng)
            k = profile._Kernel(regime, h, r, z)
            want = _polyval_kernel_f(regime, k.H, z)
            assert k.f.keys() == want.keys()
            for key, value in want.items():
                assert np.shape(k.f[key]) == np.shape(value)
                np.testing.assert_array_equal(_bits(k.f[key]), _bits(value))


class TestBoundaryConditionsOnPsi:
    def test_wall_condition_slip_and_mixed(self, rng):
        # d_zz Psi - (1/beta_Omega) d_z Psi = 0 at z = 0
        for regime in (SLIP, MIXED, SlipRegime.slip(0.5, 2.0)):
            for _ in range(20):
                h = float(10.0 ** rng.uniform(-5, math.log10(0.4)))
                r = float(rng.uniform(0.0, 0.19))
                p = psi_partials(regime, h, r, 0.0)
                resid = float(p.dzz) - float(p.dz) / regime.beta_Omega
                assert abs(resid) < 1e-10 * (abs(float(p.dzz)) + 1.0)

    def test_sphere_condition_slip(self, rng):
        # d_zz Psi + (1/beta_S + 2) d_z Psi = 0 at z = H
        for regime in (SLIP, SlipRegime.slip(2.0, 0.3)):
            for _ in range(20):
                h = float(10.0 ** rng.uniform(-5, math.log10(0.4)))
                r = float(rng.uniform(0.0, 0.19))
                H = h + gamma_s(r)
                p = psi_partials(regime, h, r, H)
                resid = float(p.dzz) + (1.0 / regime.beta_S + 2.0) * float(p.dz)
                assert abs(resid) < 1e-10 * (abs(float(p.dzz)) + 1.0)

    def test_sphere_no_slip_mixed(self, rng):
        # mixed: Psi = 1 and both tangential derivatives vanish at z = H
        for _ in range(20):
            h = float(10.0 ** rng.uniform(-5, math.log10(0.4)))
            r = float(rng.uniform(0.0, 0.19))
            H = h + gamma_s(r)
            p = psi_partials(MIXED, h, r, H)
            assert abs(float(p.dz)) < 1e-10 / H
            assert abs(float(p.dr)) < 1e-10 / H


class TestEnvelopes:
    def test_rows_cover_both_regimes(self):
        assert len(ENVELOPE_ROWS[RegimeKind.SLIP]) >= 15
        assert len(ENVELOPE_ROWS[RegimeKind.MIXED]) >= 15

    @pytest.mark.parametrize(
        "regime,kind", [(SLIP, RegimeKind.SLIP), (MIXED, RegimeKind.MIXED)]
    )
    def test_weighted_sups_bounded_two_decades(self, regime, kind):
        sup_hi = weighted_sups(regime, 1e-2)
        sup_lo = weighted_sups(regime, 1e-4)
        for label in ENVELOPE_ROWS[kind]:
            hi, lo = sup_hi[label], sup_lo[label]
            ratio = max(hi, lo) / min(hi, lo)
            assert ratio <= 10.0, f"{label}: {hi} vs {lo}"
