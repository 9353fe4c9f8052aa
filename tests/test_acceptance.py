"""Acceptance battery: one test per shipped criterion, run at the stated
tolerances.  Wall time is not gated: it varies with the machine's load.

Each test is self-contained and prints as a single pass/fail line under
``pytest -v``; together they cover the profile constraints, the field
identities, the uniform envelopes, the drag scaling laws, the singular
integral oracle, the contact dichotomy, and CLI determinism.
"""

import json
import math

import numpy as np
import pytest

from gapflow.cli import _limit_rows, run
from gapflow.drag import drag_curve, fit_scaling
from gapflow.dynamics import EventKind, FallParameters, simulate
from gapflow.field import aperture_frame, navier_residuals, sphere_slip_l2
from gapflow.geometry import gamma_s
from gapflow.profile import (
    ScalingModel,
    SlipRegime,
    coefficients,
    weighted_sups,
)
from gapflow.quadrature import (
    Classification,
    QuadratureSpec,
    classify_singular,
    integrate_gap,
    log_case_oracle,
)

SLIP = SlipRegime.slip(1.0, 1.0)
MIXED = SlipRegime.mixed(1.0)

CONSTRAINT_TOL = 1e-12
LIMIT_TOL = 1e-12
DIV_TOL = 1e-12
DIV_FD_TOL = 1e-6
FLUX_TOL = 1e-9
BC_TOL = 1e-8
ENVELOPE_FACTOR = 10.0
RATIO_WINDOW = 1.5
R2_FLOOR = 0.99
ORACLE_RTOL = 1e-8
TSTAR_STABILITY = 1e-6
FREE_FALL_TOL = 1e-8

SCALING_SWEEP = (1e-3, 1e-4, 1e-5, 1e-6)
ENVELOPE_SWEEP = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
SWEEP_SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
CLASSIFY_SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
FD_SCALE = 2e-3  # step relative to the local gap for the 4th-order stencil


@pytest.fixture(scope="module")
def slip_curve():
    return drag_curve(SLIP, SCALING_SWEEP, spec=SWEEP_SPEC)


@pytest.fixture(scope="module")
def mixed_curve():
    return drag_curve(MIXED, SCALING_SWEEP, spec=SWEEP_SPEC)


def _ratio(values):
    return float(np.max(values) / np.min(values))


def test_criterion_1_profile_constraint_suite():
    rng = np.random.default_rng(1)
    worst = [0.0, 0.0, 0.0, 0.0]
    for _ in range(10000):
        mixed = bool(rng.integers(2))
        h = float(10.0 ** rng.uniform(-6.0, math.log10(0.45)))
        r = float(rng.uniform(0.0, 0.9))
        if mixed:
            regime = SlipRegime.mixed(float(10.0 ** rng.uniform(-3.0, 3.0)))
        else:
            regime = SlipRegime.slip(
                float(10.0 ** rng.uniform(-3.0, 3.0)),
                float(10.0 ** rng.uniform(-3.0, 3.0)),
            )
        c = coefficients(regime, h, r)
        # wall value: the cubic has no constant term, identically zero
        worst[0] = max(worst[0], 0.0)
        # sphere value: coefficients sum to one
        worst[1] = max(worst[1], abs(c.p1 + c.p2 + c.p3 - 1.0))
        # wall Navier: 2 p2 = alpha_P p1, scaled by 1 + alpha_P
        worst[2] = max(
            worst[2], abs(2.0 * c.p2 - c.alpha_P * c.p1) / (1.0 + c.alpha_P)
        )
        # sphere condition: Navier for slip, no-slip for mixed
        slope = c.p1 + 2.0 * c.p2 + 3.0 * c.p3
        if mixed:
            res = abs(slope)
        else:
            res = abs(2.0 * c.p2 + 6.0 * c.p3 + c.alpha_S * slope) / (
                1.0 + c.alpha_S
            )
        worst[3] = max(worst[3], res)
    assert max(worst) < CONSTRAINT_TOL


def test_criterion_2_closed_form_limits():
    # free slip (1, 0, 0) and the no-slip cubic (0, 3, -2), as the limit
    # rows read them off the profile's polynomials
    rows = {row["name"]: row for row in _limit_rows()}
    assert sorted(rows) == ["limit_mixed_cubic", "limit_slip_linear"]
    for row in rows.values():
        assert row["measured"] < LIMIT_TOL and row["passed"]


def test_criterion_3_field_exactness():
    rng = np.random.default_rng(3)
    for regime in (SLIP, MIXED):
        # closed-form divergence at 10^4 gap points
        div_worst = 0.0
        for _ in range(20):
            h = float(rng.uniform(1e-2, 0.5))
            r = rng.uniform(1e-6, 0.9, size=500)
            z = rng.uniform(0.0, 1.0, size=500) * (h + gamma_s(r))
            frame = aperture_frame(regime, h, r, z)
            div_worst = max(div_worst, float(np.max(np.abs(frame.div))))
        assert div_worst < DIV_TOL

        # finite-difference divergence at 10^4 points, gap-scaled stencil
        fd_worst = 0.0
        for _ in range(4):
            h = float(rng.uniform(1e-2, 0.5))
            r = rng.uniform(0.05, 0.5, size=2500)
            H = h + gamma_s(r)
            z = rng.uniform(0.3, 0.7, size=2500) * H
            e = FD_SCALE * H

            def u_r(rr):
                return aperture_frame(regime, h, rr, z).u_r

            def u_z(zz):
                return aperture_frame(regime, h, r, zz).u_z

            dur_dr = (
                u_r(r - 2 * e) - 8 * u_r(r - e) + 8 * u_r(r + e) - u_r(r + 2 * e)
            ) / (12 * e)
            duz_dz = (
                u_z(z - 2 * e) - 8 * u_z(z - e) + 8 * u_z(z + e) - u_z(z + 2 * e)
            ) / (12 * e)
            div = dur_dr + u_r(r) / r + duz_dz
            fd_worst = max(fd_worst, float(np.max(np.abs(div))))
        assert fd_worst < DIV_FD_TOL

        # column flux: int_0^H u_r dz = -r/2
        x, w = np.polynomial.legendre.leggauss(24)
        for h in (0.1, 1e-3):
            for r0 in (0.05, 0.1, 0.15):
                H = h + gamma_s(r0)
                z = 0.5 * H * (x + 1.0)
                u = aperture_frame(regime, h, np.full_like(z, r0), z).u_r
                flux = 0.5 * H * float(np.sum(w * u))
                assert abs(flux + r0 / 2.0) < FLUX_TOL

        # pointwise boundary residuals
        for h in (0.1, 1e-2, 1e-4):
            res = navier_residuals(regime, h, rng.uniform(0.0, 0.9, size=256))
            assert float(np.max(np.abs(res.wall_tangential))) < BC_TOL
            assert float(np.max(np.abs(res.sphere_normal))) < BC_TOL


def test_criterion_4_uniform_envelope_sweeps():
    for regime in (SLIP, MIXED):
        sups = [weighted_sups(regime, h) for h in ENVELOPE_SWEEP]
        for label in sups[0]:
            values = np.array([s[label] for s in sups])
            assert _ratio(values) <= ENVELOPE_FACTOR, label

        def field_sq(r, z, h):
            frame = aperture_frame(regime, h, r, z)
            return frame.u_r**2 + frame.u_z**2

        norms = np.sqrt(
            [
                integrate_gap(lambda r, z: field_sq(r, z, h), h, 0.2, SWEEP_SPEC).value
                for h in ENVELOPE_SWEEP
            ]
        )
        assert _ratio(norms) <= ENVELOPE_FACTOR

    # the sphere tangential residual stays uniformly bounded in L2 (slip;
    # the mixed residual is identically zero there)
    slip_l2 = np.array(
        [sphere_slip_l2(SLIP, h, 0.2, SWEEP_SPEC) for h in ENVELOPE_SWEEP]
    )
    assert _ratio(slip_l2) <= ENVELOPE_FACTOR


def test_criterion_5_drag_scaling_slip(slip_curve):
    hs = slip_curve.column("h")
    log_h = np.abs(np.log(hs))
    assert _ratio(slip_curve.column("energy") / log_h) <= RATIO_WINDOW
    assert _ratio(slip_curve.column("surface") / log_h) <= RATIO_WINDOW
    log_fit = fit_scaling(slip_curve, ScalingModel.LOG)
    inv_fit = fit_scaling(slip_curve, ScalingModel.INVERSE)
    assert log_fit.r_squared >= R2_FLOOR
    assert log_fit.r_squared > inv_fit.r_squared


def test_criterion_6_drag_scaling_mixed(mixed_curve):
    hs = mixed_curve.column("h")
    assert _ratio(mixed_curve.column("energy") * hs) <= RATIO_WINDOW
    assert _ratio(mixed_curve.column("surface") * hs) <= RATIO_WINDOW
    inv_fit = fit_scaling(mixed_curve, ScalingModel.INVERSE)
    assert inv_fit.r_squared >= R2_FLOOR


def test_criterion_7_singular_integral_oracle():
    seen = set()
    for p in (0, 1, 2, 3):
        for q in (1, 2):
            case = classify_singular(p, q, 0.2, spec=CLASSIFY_SPEC)
            seen.add(case.classification)
            if p + 1 < 2 * q:
                assert case.classification is Classification.POWER_LAW
                assert case.exponent == (p + 1) / 2 - q
            elif p + 1 == 2 * q:
                assert case.classification is Classification.LOGARITHMIC
            else:
                assert case.classification is Classification.BOUNDED
    assert seen == {
        Classification.POWER_LAW,
        Classification.LOGARITHMIC,
        Classification.BOUNDED,
    }

    case = classify_singular(1, 1, 0.2, spec=CLASSIFY_SPEC)
    for h, value in case.values:
        oracle = log_case_oracle(h, 0.2)
        assert abs(value - oracle) / oracle < ORACLE_RTOL


def test_criterion_8_contact_dichotomy():
    params = FallParameters(rho_S=2.0, rho_F=1.0, g=2.0, kappa=1.0)  # G = 1
    assert params.G == 1.0
    h0 = 0.25

    # slip: finite touchdown, stable under tolerance halving, nonzero speed
    first = simulate(params, SLIP, h0, t_max=10.0, rtol=1e-9, atol=1e-12)
    second = simulate(params, SLIP, h0, t_max=10.0, rtol=5e-10, atol=5e-13)
    assert first.event.kind == EventKind.TOUCHDOWN
    assert abs(first.event.t - second.event.t) < TSTAR_STABILITY
    assert first.event.speed > 1e-3 * math.sqrt(2.0 * params.G * h0)

    # mixed: no contact by t_max = 50 and |ln h(t)| grows at most linearly
    traj = simulate(params, MIXED, h0, t_max=50.0)
    assert traj.event.kind == EventKind.NO_CONTACT
    assert traj.event.h > 0.0
    y = np.abs(np.log(traj.h))
    slope, intercept = np.polyfit(traj.t, y, 1)
    fitted = slope * traj.t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    assert slope > 0.0
    assert 1.0 - ss_res / ss_tot >= R2_FLOOR

    # free-fall oracle: t* = sqrt(2 h0 / G)
    free_params = FallParameters(rho_S=2.0, rho_F=1.0, g=2.0, kappa=0.0)
    free = simulate(free_params, SLIP, h0, t_max=2.0, rtol=1e-12, atol=1e-14)
    assert free.event.kind == EventKind.TOUCHDOWN
    assert abs(free.event.t - math.sqrt(2.0 * h0 / params.G)) < FREE_FALL_TOL


def test_criterion_9_determinism(tmp_path):
    blobs = []
    for k in range(3):
        out = tmp_path / f"run{k}"
        code = run(
            ["verify", "all", "--regime", "slip", "--h", "1e-4", "--out", str(out)]
        )
        assert code == 0
        blobs.append((out / "verify_all.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    report = json.loads(blobs[0])
    assert report["passed"] is True
