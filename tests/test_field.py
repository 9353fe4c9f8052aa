"""Tests for the velocity ansatz, global extension, pressure, residuals."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gapflow import field as fld
from gapflow.drag import energy, surface_drag
from gapflow.geometry import DELTA_DEFAULT, CutoffPair, GapGeometry, cutoffs, gamma_s
from gapflow.profile import RegimeKind, SlipRegime, psi_partials
from gapflow.quadrature import QuadratureSpec, integrate_gap

SLIP = SlipRegime.slip(1.0, 1.0)
SLIP_B = SlipRegime.slip(0.5, 2.0)
MIXED = SlipRegime.mixed(1.0)
REGIMES = [SLIP, SLIP_B, MIXED]
H_SWEEP = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]

# Loose spec for bounded-ratio integrals: the assertions compare orders of
# magnitude, not digits, and the tight default costs real time at h = 1e-6.
SWEEP_SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
# roundoff of the closed-form residual against its two-sided reference,
# relative to |lap u| + |grad q|: lap u cancels some of its own terms, so
# the difference reaches 1e-13 at a few points of the sweep
RESIDUAL_RTOL = 1e-12


def _global_at(regime, h, x):
    """The FieldSample of the one point x, evaluated as a (1, 3) batch."""
    sample = fld.global_velocity(regime, h, np.array([x], dtype=float), DELTA_DEFAULT)
    return fld.FieldSample(sample.velocity[0], sample.grad[0])


def _gap_points(rng, n, h):
    r = rng.uniform(1e-6, 0.9, size=n)
    z = rng.uniform(0.0, 1.0, size=n) * (h + gamma_s(r))
    return r, z


# ---------------------------------------------------------------------------
# divergence and flux identities


@pytest.mark.parametrize("regime", REGIMES, ids=["slip", "slip_b", "mixed"])
def test_divergence_closed_form_vanishes(rng, regime):
    worst = 0.0
    for h in rng.uniform(1e-2, 0.5, size=20):
        r, z = _gap_points(rng, 500, h)
        frame = fld.aperture_frame(regime, h, r, z)
        worst = max(worst, float(np.max(np.abs(frame.div))))
    assert worst < 1e-12


@pytest.mark.parametrize("regime", REGIMES, ids=["slip", "slip_b", "mixed"])
def test_divergence_fd_cross_check(rng, regime):
    eps = 1e-5
    worst = 0.0
    for _ in range(50):
        h = rng.uniform(1e-2, 0.5)
        r = rng.uniform(0.05, 0.5)
        z = rng.uniform(0.3, 0.7) * (h + gamma_s(r))

        def u(rr, zz):
            f = fld.aperture_frame(regime, h, rr, zz)
            return float(f.u_r), float(f.u_z)

        dur_dr = (u(r + eps, z)[0] - u(r - eps, z)[0]) / (2 * eps)
        duz_dz = (u(r, z + eps)[1] - u(r, z - eps)[1]) / (2 * eps)
        div = dur_dr + u(r, z)[0] / r + duz_dz
        worst = max(worst, abs(div))
    assert worst < 1e-6


@pytest.mark.parametrize("regime", REGIMES, ids=["slip", "slip_b", "mixed"])
@pytest.mark.parametrize("h", [0.1, 1e-3])
def test_flux_identity(regime, h):
    # int_0^H u_r dz = -r/2 exactly; Gauss-Legendre resolves the cubic.
    x, w = np.polynomial.legendre.leggauss(24)
    for r in (0.05, 0.1, 0.15):
        H = h + gamma_s(r)
        z = 0.5 * H * (x + 1.0)
        u_r = fld.aperture_frame(regime, h, np.full_like(z, r), z).u_r
        flux = 0.5 * H * float(np.sum(w * u_r))
        assert abs(flux + r / 2.0) < 1e-10
        assert abs(2 * math.pi * r * flux + math.pi * r * r) < 1e-9


# ---------------------------------------------------------------------------
# pointwise boundary identities of the aperture field


@pytest.mark.parametrize("regime", REGIMES, ids=["slip", "slip_b", "mixed"])
def test_wall_impermeability_is_exact(rng, regime):
    for h in (0.3, 1e-2, 1e-5):
        r = rng.uniform(0.0, 0.9, size=64)
        frame = fld.aperture_frame(regime, h, r, np.zeros_like(r))
        assert np.all(frame.u_z == 0.0)
    assert fld.aperture_frame(regime, 0.1, 0.15, 0.0).u_z == 0.0


@pytest.mark.parametrize("regime", REGIMES, ids=["slip", "slip_b", "mixed"])
def test_sphere_normal_velocity_identity(rng, regime):
    for h in (0.3, 1e-2, 1e-4, 1e-6):
        r = rng.uniform(0.0, 0.5, size=64)
        H = h + gamma_s(r)
        frame = fld.aperture_frame(regime, h, r, H)
        mismatch = frame.u_r * (-r) + (frame.u_z - 1.0) * np.sqrt(1 - r * r)
        assert np.max(np.abs(mismatch)) < 1e-12


def test_aperture_frame_gradient_and_divergence():
    h, r, z = 0.08, 0.12, 0.05
    frame = fld.aperture_frame(SLIP, h, r, z)
    assert abs(float(frame.div)) < 1e-12

    # FD check of the derivatives of (u_r, u_z) in r and in z
    eps = 1e-6

    def vel(rr, zz):
        f = fld.aperture_frame(SLIP, h, rr, zz)
        return np.array([float(f.u_r), float(f.u_z)])

    d_dr = (vel(r + eps, z) - vel(r - eps, z)) / (2 * eps)
    d_dz = (vel(r, z + eps) - vel(r, z - eps)) / (2 * eps)
    assert np.allclose([frame.du_r_dr, frame.du_z_dr], d_dr, rtol=1e-5, atol=1e-7)
    assert np.allclose([frame.du_r_dz, frame.du_z_dz], d_dz, rtol=1e-5, atol=1e-7)


def test_aperture_domain_errors():
    with pytest.raises(ValueError):
        fld.aperture_frame(SLIP, -0.1, 0.1, 0.0)
    with pytest.raises(ValueError):
        fld.aperture_frame(SLIP, 0.1, 0.1, 0.5)  # z above the sphere
    with pytest.raises(ValueError):
        fld.aperture_frame(SLIP, 0.1, 1.2, 0.0)


# ---------------------------------------------------------------------------
# global extension


def test_global_matches_aperture_on_chi_plateau():
    h = 0.05
    r, theta, z = 0.15, 0.4, 0.02
    x = (r * math.cos(theta), r * math.sin(theta), z)
    cart = _global_at(SLIP, h, x)
    cyl = fld.aperture_frame(SLIP, h, r, z)
    expected = np.array(
        [cyl.u_r * math.cos(theta), cyl.u_r * math.sin(theta), cyl.u_z]
    )
    assert np.max(np.abs(cart.velocity - expected)) < 1e-13


def test_global_inside_solid_is_unit_vertical():
    h = 0.2
    for x in [(0.0, 0.0, 1.0 + h), (0.3, -0.2, 1.0 + h + 0.4), (0.0, 0.05, h + 0.3)]:
        sample = _global_at(SLIP, h, x)
        assert np.array_equal(sample.velocity, np.array([0.0, 0.0, 1.0]))
        assert np.all(sample.grad == 0.0)


def test_global_vanishes_outside_supports():
    h = 0.1
    for x in [(0.9, 0.9, 0.9), (2.5, 0.0, 0.3), (0.0, 1.4, 2.6)]:
        sample = _global_at(SLIP, h, x)
        assert np.array_equal(sample.velocity, np.zeros(3))
        assert np.all(sample.grad == 0.0)
    with pytest.raises(ValueError):
        _global_at(SLIP, h, (0.1, 0.0, -0.01))


def test_global_batch_matches_single_points():
    h = 0.05
    geo = GapGeometry(h=h, delta=DELTA_DEFAULT)
    x = np.array(
        [
            [0.0, 0.05, h + 0.3],  # solid
            [0.1, 0.05, 0.02],  # chi plateau
            [0.1, 0.0, 0.0],  # chi plateau, on the wall
            [0.3, 0.0, 0.02],  # chi transition
            [0.0, 0.0, 2.0 + h + 0.075],  # bump shell
            [0.35, 0.0, 0.05],  # chi transition inside the bump shell
            [0.9, 0.9, 0.9],  # far field
        ]
    )
    pair = cutoffs(x, geo)
    assert pair.chi[1] == 1.0 and 0.0 < pair.chi[3] < 1.0
    assert 0.0 < pair.phi_bump[4] < 1.0 and 0.0 < pair.phi_bump[5] < 1.0
    assert pair.chi[6] == pair.phi_bump[6] == 0.0
    for k, point in enumerate(x):
        single = cutoffs(point[None], geo)
        for f in dataclasses.fields(CutoffPair):
            assert np.array_equal(getattr(pair, f.name)[k], getattr(single, f.name)[0])
    for regime in (SLIP, MIXED):
        batch = fld.global_velocity(regime, h, x, DELTA_DEFAULT)
        assert np.array_equal(batch.velocity[0], [0.0, 0.0, 1.0])
        for k, point in enumerate(x):
            single = fld.global_velocity(regime, h, point[None], DELTA_DEFAULT)
            assert np.array_equal(batch.velocity[k], single.velocity[0])
            assert np.array_equal(batch.grad[k], single.grad[0])
    with pytest.raises(ValueError):
        fld.global_velocity(SLIP, h, np.vstack([x, [0.1, 0.0, -0.01]]), DELTA_DEFAULT)


def test_global_wall_trace_vanishes_in_aperture(rng):
    # impermeability of the blended field on the chi = 1 part of the wall
    h = 0.05
    for _ in range(20):
        r = rng.uniform(0.0, 0.19)
        theta = rng.uniform(0.0, 2 * math.pi)
        x = (r * math.cos(theta), r * math.sin(theta), 0.0)
        sample = _global_at(SLIP, h, x)
        assert abs(sample.velocity[2]) < 1e-14


def test_global_normal_trace_continuity(rng):
    # velocity . n approaches e3 . n at the solid boundary: sampled jump
    h = 0.05
    center = np.array([0.0, 0.0, 1.0 + h])
    worst = 0.0
    for _ in range(40):
        # lower cap directions (the blend region) plus a few generic ones
        polar = rng.uniform(0.0, math.pi)
        azim = rng.uniform(0.0, 2 * math.pi)
        n = np.array(
            [
                math.sin(polar) * math.cos(azim),
                math.sin(polar) * math.sin(azim),
                -math.cos(polar),
            ]
        )
        x = center + (1.0 + 1e-11) * n
        if x[2] < 1e-9:
            continue
        sample = _global_at(SLIP, h, x)
        worst = max(worst, abs(float(sample.velocity @ n) - n[2]))
    assert worst < 1e-8


@pytest.mark.parametrize("regime", [SLIP, MIXED], ids=["slip", "mixed"])
def test_global_fd_divergence(rng, regime):
    h = 0.05
    eps = 1e-6
    count, worst = 0, 0.0
    while count < 1000:
        x = np.array(
            [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(3e-6, 1.3)]
        )
        y = x - np.array([0.0, 0.0, 1.0 + h])
        rho = float(np.linalg.norm(y))
        if abs(rho - 1.0) < 10 * eps:
            continue  # FD stencil must not straddle the solid boundary
        count += 1

        div = 0.0
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            up = _global_at(regime, h, x + step).velocity[j]
            dn = _global_at(regime, h, x - step).velocity[j]
            div += (up - dn) / (2 * eps)
        worst = max(worst, abs(div))
    assert worst < 1e-6


def test_global_gradient_fd(rng):
    h = 0.05
    eps = 1e-6
    for _ in range(10):
        x = np.array(
            [rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45), rng.uniform(0.01, 0.5)]
        )
        y = x - np.array([0.0, 0.0, 1.0 + h])
        if abs(float(np.linalg.norm(y)) - 1.0) < 1e-3:
            continue
        sample = _global_at(SLIP, h, x)
        fd = np.empty((3, 3))
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            up = _global_at(SLIP, h, x + step).velocity
            dn = _global_at(SLIP, h, x - step).velocity
            fd[:, j] = (up - dn) / (2 * eps)
        assert np.allclose(sample.grad, fd, rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# pressure


def test_pressure_axis_value(rng):
    for h in (0.2, 1e-3):
        for z_frac in (0.0, 0.4, 1.0):
            z = z_frac * h
            p = psi_partials(SLIP, h, 0.0, z)
            q_slip = fld.pressure(SLIP, h, 0.0, z)
            assert q_slip.q == pytest.approx(-float(p.dz), rel=1e-14, abs=1e-300)
            pm = psi_partials(MIXED, h, 0.0, z)
            q_mix = fld.pressure(MIXED, h, 0.0, z)
            assert q_mix.q == pytest.approx(float(pm.dz), rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("regime", REGIMES, ids=["slip", "slip_b", "mixed"])
def test_pressure_gradient_fd(rng, regime, laplacian_and_pressure_gradient):
    # the finite difference of q against the closed-form grad q that the
    # Stokes residual cancels symbolically
    for _ in range(10):
        h = rng.uniform(5e-3, 0.3)
        r = rng.uniform(0.02, 0.25)
        H = h + gamma_s(r)
        z = rng.uniform(0.2, 0.8) * H
        sample = fld.pressure(regime, h, r, z)
        _, dq = laplacian_and_pressure_gradient(regime, psi_partials(regime, h, r, z), r)
        eps_r = 1e-6 * max(r, 0.05)
        eps_z = 1e-6 * H
        fd_r = (
            fld.pressure(regime, h, r + eps_r, z).q
            - fld.pressure(regime, h, r - eps_r, z).q
        ) / (2 * eps_r)
        fd_z = (
            fld.pressure(regime, h, r, z + eps_z).q
            - fld.pressure(regime, h, r, z - eps_z).q
        ) / (2 * eps_z)
        scale = abs(sample.q) / min(H, r) + 1.0
        assert abs(dq[0] - fd_r) < 1e-5 * scale
        assert abs(dq[1] - fd_z) < 1e-5 * scale


def test_pressure_batch_matches_scalar():
    h = 2e-3
    r = np.array([0.01, 0.05, 0.12, 0.19])
    z = np.full_like(r, 0.5 * h)
    batch = fld.pressure(SLIP, h, r, z)
    for k in range(r.size):
        single = fld.pressure(SLIP, h, float(r[k]), float(z[k]))
        assert batch.q[k] == pytest.approx(single.q, rel=1e-11)
    grid = fld.pressure(SLIP, h, r.reshape(2, 2), z.reshape(2, 2))
    assert np.array_equal(grid.q.ravel(), batch.q)


@pytest.mark.parametrize("regime", [SLIP, MIXED], ids=["slip", "mixed"])
def test_pressure_radial_integral_against_quad(regime, rng):
    # recover J from q and compare with an independent adaptive quadrature
    for h in (0.05, 1e-3):
        r = 0.15
        z = 0.3 * h
        p = psi_partials(regime, h, r, z)
        q = fld.pressure(regime, h, r, z).q
        if regime.kind is RegimeKind.SLIP:
            J = -2.0 * q - (float(r * p.drz) + 2.0 * float(p.dz))
        else:
            J = float(r * p.drz) + 2.0 * float(p.dz) - 2.0 * q

        def integrand(s):
            return float(psi_partials(regime, h, s, 0.0).dzzz) * s

        oracle, err = quad(integrand, 0.0, r, points=[math.sqrt(h)], limit=200)
        assert J == pytest.approx(oracle, rel=1e-8, abs=10 * err)


# ---------------------------------------------------------------------------
# Stokes residual


@pytest.mark.parametrize("regime", REGIMES, ids=["slip", "slip_b", "mixed"])
def test_stokes_residual_is_the_laplacian_minus_the_pressure_gradient(
    rng, regime, laplacian_and_pressure_gradient
):
    for h in (1e-2, 1e-4, 1e-6):
        r, z = _gap_points(rng, 200, h)
        f = fld.stokes_residual(regime, h, r, z)
        lap, dq = laplacian_and_pressure_gradient(regime, psi_partials(regime, h, r, z), r)
        for f_i, lap_i, dq_i in zip(f, lap, dq):
            scale = np.abs(lap_i) + np.abs(dq_i)
            assert np.all(np.abs(f_i - (lap_i - dq_i)) <= RESIDUAL_RTOL * scale)
        if regime.kind is RegimeKind.SLIP:
            assert np.all(f[0] == 0.0)


def test_stokes_residual_slip_radial_component_cancels(rng):
    for h in (0.1, 1e-4):
        r = rng.uniform(0.01, 0.3, size=32)
        z = rng.uniform(0.0, 1.0, size=32) * (h + gamma_s(r))
        f_r, _ = fld.stokes_residual(SLIP, h, r, z)
        assert np.all(f_r == 0.0)


@pytest.mark.parametrize("regime", [SLIP, MIXED], ids=["slip", "mixed"])
def test_stokes_residual_fd_oracle(regime, rng):
    h = 0.05
    for _ in range(6):
        r = rng.uniform(0.05, 0.2)
        H = h + gamma_s(r)
        z = rng.uniform(0.3, 0.7) * H
        eps = 1e-3 * H

        def vel(rr, zz):
            f = fld.aperture_frame(regime, h, rr, zz)
            return float(f.u_r), float(f.u_z)

        def lap(component):
            c = lambda rr, zz: vel(rr, zz)[component]
            d2r = (c(r + eps, z) - 2 * c(r, z) + c(r - eps, z)) / eps**2
            d2z = (c(r, z + eps) - 2 * c(r, z) + c(r, z - eps)) / eps**2
            d1r = (c(r + eps, z) - c(r - eps, z)) / (2 * eps)
            out = d2r + d1r / r + d2z
            if component == 0:
                out -= c(r, z) / r**2
            return out

        def dq(i):
            if i == 0:
                lo = fld.pressure(regime, h, r - eps, z).q
                hi = fld.pressure(regime, h, r + eps, z).q
            else:
                lo = fld.pressure(regime, h, r, z - eps).q
                hi = fld.pressure(regime, h, r, z + eps).q
            return (hi - lo) / (2 * eps)

        f_r, f_z = fld.stokes_residual(regime, h, r, z)
        fd_r = lap(0) - dq(0)
        fd_z = lap(1) - dq(1)
        scale = 1.0 / H
        assert abs(f_z - fd_z) < 2e-3 * max(abs(f_z), scale)
        assert abs(f_r - fd_r) < 2e-3 * max(abs(f_r), scale)


def test_stokes_residual_envelopes_across_sweep():
    sup_slip, sup_mix_r, sup_mix_z = [], [], []
    for h in H_SWEEP:
        r = np.geomspace(math.sqrt(h) / 10, 0.2, 48)
        z = np.linspace(0.0, 1.0, 9)[None, :] * (h + gamma_s(r))[:, None]
        rr = np.broadcast_to(r[:, None], z.shape)
        H = h + gamma_s(rr)

        f_r, f_z = fld.stokes_residual(SLIP, h, rr, z)
        sup_slip.append(float(np.max(np.abs(f_z) * H)))

        f_r, f_z = fld.stokes_residual(MIXED, h, rr, z)
        sup_mix_r.append(float(np.max(np.abs(f_r) * H * H / rr)))
        sup_mix_z.append(float(np.max(np.abs(f_z) * H)))
    for sups in (sup_slip, sup_mix_r, sup_mix_z):
        assert max(sups) <= 10.0 * min(sups)


def test_stokes_residual_slip_weighted_radial_bounded(rng):
    # |f_r| (h+gamma_s)^2 / r at 100 random points, all h: identically 0
    for h in (1e-2, 1e-4, 1e-6):
        r = rng.uniform(0.01, 0.2, size=100)
        z = rng.uniform(0.0, 1.0, size=100) * (h + gamma_s(r))
        f_r, _ = fld.stokes_residual(SLIP, h, r, z)
        weighted = np.abs(f_r) * (h + gamma_s(r)) ** 2 / r
        assert np.max(weighted) < 1e-10


# ---------------------------------------------------------------------------
# Navier boundary residuals


@pytest.mark.parametrize("regime", REGIMES, ids=["slip", "slip_b", "mixed"])
def test_wall_residuals(rng, regime):
    for h in (0.3, 1e-2, 1e-3):
        r = rng.uniform(0.0, 0.19, size=100)
        res = fld.navier_residuals(regime, h, r)
        assert np.all(res.wall_impermeability == 0.0)
        assert np.max(np.abs(res.wall_tangential)) < 1e-8


@pytest.mark.parametrize("regime", REGIMES, ids=["slip", "slip_b", "mixed"])
def test_sphere_normal_residual(rng, regime):
    for h in (0.3, 1e-3, 1e-6):
        r = rng.uniform(0.0, 0.19, size=100)
        res = fld.navier_residuals(regime, h, r)
        assert np.max(np.abs(res.sphere_normal)) < 1e-10


def test_mixed_sphere_tangential_residual_vanishes(rng):
    # no-slip at the sphere is exact for the mixed profile
    for h in (1e-2, 1e-4, 1e-6):
        r = rng.uniform(0.0, 0.19, size=50)
        res = fld.navier_residuals(MIXED, h, r)
        assert np.max(np.abs(res.sphere_tangential)) < 1e-8


def test_sphere_slip_l2_bounded_across_sweep():
    norms = [fld.sphere_slip_l2(SLIP, h, 0.2, SWEEP_SPEC) for h in H_SWEEP]
    assert max(norms) <= 10.0 * min(norms)


# ---------------------------------------------------------------------------
# integral estimates


def test_field_l2_norm_bounded():
    def field_sq(regime, h):
        def f(r, z):
            frame = fld.aperture_frame(regime, h, r, z)
            return frame.u_r**2 + frame.u_z**2

        return integrate_gap(f, h, 0.2, SWEEP_SPEC).value

    for regime in (SLIP, MIXED):
        values = [field_sq(regime, h) for h in H_SWEEP]
        assert max(values) <= 10.0 * min(values)


# the squared gradient norms over r < 0.2 are the gradient part of the
# energy and half the dissipation of the surface pairing


def _gradient_sq(regime, h):
    return energy(regime, h, spec=SWEEP_SPEC).gradient


def _sym_gradient_sq(regime, h):
    return surface_drag(regime, h, spec=SWEEP_SPEC).dissipation / 2.0


def test_slip_gradient_norms_log_growth():
    grad = [_gradient_sq(SLIP, h) for h in H_SWEEP]
    sym = [_sym_gradient_sq(SLIP, h) for h in H_SWEEP]
    logs = [abs(math.log(h)) for h in H_SWEEP]
    upper = [g / L for g, L in zip(grad, logs)]
    lower = [s / L for s, L in zip(sym, logs)]
    assert max(upper) <= 10.0 * min(upper)
    assert max(lower) <= 10.0 * min(lower)
    assert min(lower) > 0.0
    # the full gradient dominates the symmetric part pointwise in L2
    assert all(g >= s - 1e-12 for g, s in zip(grad, sym))


def test_mixed_gradient_norm_inverse_growth():
    grad = [_gradient_sq(MIXED, h) for h in H_SWEEP]
    scaled = [g * h for g, h in zip(grad, H_SWEEP)]
    assert max(scaled) <= 10.0 * min(scaled)
    # genuine blow-up: two orders of h buy about two orders of norm
    assert grad[-1] > 100.0 * grad[0]
