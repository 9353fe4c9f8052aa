"""Tests for gap drag: energy, surface pairing, exterior policy, fits."""

import hashlib
import math
import warnings
from collections import Counter, namedtuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gapflow import drag as drg
from gapflow import field as fld
from gapflow import profile, quadrature
from gapflow.drag import (
    R_MAX_DEFAULT,
    DragCurve,
    DragRow,
    drag_curve,
    energy,
    exterior_constant,
    fit_scaling,
    surface_drag,
)
from gapflow.field import aperture_frame, pressure, stokes_residual
from gapflow.geometry import gamma_s
from gapflow.profile import RegimeKind, ScalingModel, SlipRegime, psi_partials
from gapflow.quadrature import (
    DEFAULT_H_LIST,
    MAX_CELLS,
    Z_ORDER,
    IntegralResult,
    QuadratureError,
    QuadratureSpec,
    _adaptive_1d,
    gap_cuts,
    integrate_gap,
    integrate_surface,
)

SLIP = SlipRegime.slip(1.0, 1.0)
SLIP_B = SlipRegime.slip(0.5, 2.0)
MIXED = SlipRegime.mixed(1.0)

H_SWEEP = (1e-3, 1e-4, 1e-5, 1e-6)
SWEEP_SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)

SYNTH_FIT_TOL = 1e-9
WALL_XCHECK_RTOL = 1e-9
SPHERE_XCHECK_RTOL = 1e-10
AGREEMENT_WINDOW = 0.3
ENVELOPE_FACTOR = 10.0
FUSED_RTOL = 1e-12


@pytest.fixture(scope="module")
def slip_curve():
    return drag_curve(SLIP, H_SWEEP, spec=SWEEP_SPEC)


@pytest.fixture(scope="module")
def mixed_curve():
    return drag_curve(MIXED, H_SWEEP, spec=SWEEP_SPEC)


def _row(h, energy=1.0, surface=1.0):
    """A DragRow with a unit gradient part and no sphere or wall part."""
    return DragRow(h, energy, surface, gradient_part=1.0, sphere_part=0.0, wall_part=0.0)


def _synthetic_curve(energy_fn, surface_fn, hs=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6)):
    rows = tuple(
        DragRow(
            h=h,
            energy=energy_fn(h),
            surface=surface_fn(h),
            gradient_part=1.0,
            sphere_part=1.0,
            wall_part=0.0,
        )
        for h in hs
    )
    return DragCurve(regime=SLIP, rows=rows, provenance={})


# ---------------------------------------------------------------- fits


def test_log_fit_recovers_exact_synthetic_law():
    curve = _synthetic_curve(lambda h: 5.0 * abs(math.log(h)) + 2.0, lambda h: 3.0 / h)
    fit = fit_scaling(curve, ScalingModel.LOG, quantity="energy")
    assert abs(fit.a - 5.0) < SYNTH_FIT_TOL
    assert abs(fit.b - 2.0) < SYNTH_FIT_TOL
    assert fit.r_squared > 1.0 - 1e-12


def test_inverse_fit_recovers_exact_synthetic_law():
    curve = _synthetic_curve(lambda h: 5.0 * abs(math.log(h)) + 2.0, lambda h: 3.0 / h)
    fit = fit_scaling(curve, ScalingModel.INVERSE, quantity="surface")
    assert abs(fit.a - 3.0) < SYNTH_FIT_TOL
    assert abs(fit.b) < SYNTH_FIT_TOL
    assert fit.r_squared > 1.0 - 1e-12


def test_fits_discriminate_between_the_two_laws():
    curve = _synthetic_curve(lambda h: 5.0 * abs(math.log(h)) + 2.0, lambda h: 3.0 / h)
    wrong_on_log = fit_scaling(curve, ScalingModel.INVERSE, quantity="energy")
    wrong_on_inv = fit_scaling(curve, ScalingModel.LOG, quantity="surface")
    assert wrong_on_log.r_squared < 0.99
    assert wrong_on_inv.r_squared < 0.99


@given(
    a=st.floats(0.1, 100.0),
    b=st.floats(0.0, 50.0),
    model=st.sampled_from(list(ScalingModel)),
)
def test_fit_recovers_random_synthetic_coefficients(a, b, model):
    if model is ScalingModel.LOG:
        law = lambda h: a * abs(math.log(h)) + b
    else:
        law = lambda h: a / h + b
    curve = _synthetic_curve(law, law)
    fit = fit_scaling(curve, model, quantity="energy")
    scale = a + abs(b)
    assert abs(fit.a - a) < 1e-7 * scale
    assert abs(fit.b - b) < 1e-6 * scale
    assert fit.r_squared > 1.0 - 1e-9


def test_fit_requires_at_least_four_rows():
    rows = tuple(_row(h) for h in (1e-2, 1e-3, 1e-4))
    curve = DragCurve(regime=SLIP, rows=rows, provenance={})
    with pytest.raises(ValueError, match="at least 4"):
        fit_scaling(curve, ScalingModel.LOG, quantity="energy")


def test_fit_rejects_unknown_quantity():
    curve = _synthetic_curve(lambda h: 1.0, lambda h: 1.0)
    with pytest.raises(ValueError, match="quantity"):
        fit_scaling(curve, ScalingModel.LOG, quantity="pressure")


# ---------------------------------------------------------------- curve API


def test_drag_curve_rejects_nonpositive_h():
    row = _row(0.0)
    with pytest.raises(ValueError, match="h > 0"):
        DragCurve(regime=SLIP, rows=(row,), provenance={})


def test_drag_curve_rejects_nondecreasing_h():
    rows = tuple(_row(h) for h in (1e-3, 1e-2))
    with pytest.raises(ValueError, match="decreasing"):
        DragCurve(regime=SLIP, rows=rows, provenance={})
    rows = (_row(1e-3), _row(1e-3))
    with pytest.raises(ValueError, match="decreasing"):
        DragCurve(regime=SLIP, rows=rows, provenance={})


def test_drag_curve_rejects_nonpositive_drag_values():
    bad_energy = _row(1e-3, energy=0.0)
    with pytest.raises(ValueError, match="positive"):
        DragCurve(regime=SLIP, rows=(bad_energy,), provenance={})
    bad_surface = _row(1e-3, surface=-2.0)
    with pytest.raises(ValueError, match="positive"):
        DragCurve(regime=SLIP, rows=(bad_surface,), provenance={})


def test_drag_curve_sorts_and_dedupes_h_list():
    curve = drag_curve(SLIP, (1e-4, 1e-2, 1e-3, 1e-2, 1e-4), spec=SWEEP_SPEC)
    assert [row.h for row in curve.rows] == [1e-2, 1e-3, 1e-4]


def test_drag_curve_provenance_records_the_run(slip_curve):
    prov = slip_curve.provenance
    for key in (
        "r_max",
        "beta_S",
        "beta_Omega",
        "rel_tol",
        "abs_tol",
        "exterior",
        "exterior_constant",
        "exterior_h_ref",
    ):
        assert key in prov
    assert prov["exterior"] == "included"
    assert prov["exterior_constant"] > 0.0


def test_exterior_mode_shifts_totals_by_the_recorded_constant(slip_curve):
    bare = drag_curve(SLIP, H_SWEEP, spec=SWEEP_SPEC, exterior="excluded")
    ring = slip_curve.provenance["exterior_constant"]
    assert bare.provenance["exterior_constant"] == ring
    for with_ring, without in zip(slip_curve.rows, bare.rows):
        assert with_ring.energy - without.energy == pytest.approx(ring, abs=1e-12)
        assert with_ring.surface - without.surface == pytest.approx(ring, abs=1e-12)
        # the labeled parts stay bare aperture pieces in both modes
        assert with_ring.gradient_part == without.gradient_part
        assert with_ring.sphere_part == without.sphere_part
        assert with_ring.wall_part == without.wall_part


def test_exterior_mode_is_validated():
    with pytest.raises(ValueError, match="exterior"):
        drag_curve(SLIP, H_SWEEP, spec=SWEEP_SPEC, exterior="sometimes")


def test_exterior_constant_is_cached_and_positive():
    first = exterior_constant(SLIP)
    second = exterior_constant(SLIP)
    assert first == second
    assert first > 0.0
    assert exterior_constant(MIXED) > 0.0


def test_default_aperture_reuses_the_warm_exterior_entry():
    # warm-up code fills exterior_constant(regime); a default-aperture drag
    # row must hit that entry, not a second key for the same number
    exterior_constant.cache_clear()
    exterior_constant(SLIP)
    misses = exterior_constant.cache_info().misses
    energy(SLIP, 1e-2, spec=SWEEP_SPEC)
    surface_drag(SLIP, 1e-2, spec=SWEEP_SPEC)
    drag_curve(SLIP, (1e-2,), spec=SWEEP_SPEC)
    assert exterior_constant.cache_info().misses == misses


def test_exterior_constant_follows_the_aperture_radius():
    curve = drag_curve(SLIP, (1e-2,), r_max=0.15, spec=SWEEP_SPEC)
    ring = curve.provenance["exterior_constant"]
    assert ring == exterior_constant(SLIP, 0.15)
    assert ring != exterior_constant(SLIP)
    (row,) = curve.rows
    parts = row.gradient_part + row.sphere_part + row.wall_part
    assert row.energy - parts == pytest.approx(ring, rel=1e-12)


@pytest.mark.parametrize(
    "args, pinned",
    [
        ((SLIP,), 20.264644456857926),
        ((MIXED,), 183.92465982335554),
        ((SLIP_B,), 20.006308860684516),
        ((SLIP, 0.15), 20.53678748389863),
    ],
    ids=["slip", "mixed", "slip_b", "slip-r0.15"],
)
def test_exterior_constant_is_pinned(args, pinned):
    # exact: the grid sum adds one point at a time in grid order, so any
    # reordering of its arithmetic shows here
    assert exterior_constant(*args) == pinned


def test_cold_exterior_constant_evaluates_psi_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return psi_partials(*args)

    # the kept grid points go through global_velocity as one array
    monkeypatch.setattr(fld, "psi_partials", counted)
    exterior_constant.cache_clear()
    exterior_constant(SLIP)
    assert len(calls) == 1


def test_column_returns_aligned_arrays(slip_curve):
    hs = slip_curve.column("h")
    es = slip_curve.column("energy")
    assert hs.shape == es.shape == (len(H_SWEEP),)
    assert np.all(np.diff(hs) < 0)


# ---------------------------------------------------------------- breakdowns


def test_energy_breakdown_sums_to_total():
    for regime in (SLIP, SLIP_B, MIXED):
        e = energy(regime, 1e-4, spec=SWEEP_SPEC)
        parts = e.gradient + e.sphere + e.wall + e.exterior
        assert e.total == pytest.approx(parts, rel=1e-14)
        assert e.gradient > 0.0
        assert e.wall > 0.0
        assert e.exterior == exterior_constant(regime)


def test_surface_drag_breakdown_sums_to_total():
    for regime in (SLIP, SLIP_B, MIXED):
        n = surface_drag(regime, 1e-4, spec=SWEEP_SPEC)
        parts = n.volume + n.dissipation + n.wall + n.sphere + n.exterior
        assert n.value == pytest.approx(parts, rel=1e-13)
        assert n.dissipation > 0.0
        assert n.error >= 0.0


def test_mixed_regime_has_no_sphere_terms():
    e = energy(MIXED, 1e-4, spec=SWEEP_SPEC)
    assert e.sphere == 0.0
    n = surface_drag(MIXED, 1e-4, spec=SWEEP_SPEC)
    assert n.sphere == 0.0


def test_wall_traction_term_matches_wall_energy_term():
    # On the wall u_z = 0 and the tangential condition u_r = 2 beta D_rz
    # holds exactly, so the traction integrand 2 D_rz u_r equals the
    # weighted slip-energy integrand u_r^2 / beta.  Two independent code
    # paths, one number.
    for regime in (SLIP, SLIP_B, MIXED):
        for h in (1e-2, 1e-4, 1e-6):
            e = energy(regime, h, spec=SWEEP_SPEC)
            n = surface_drag(regime, h, spec=SWEEP_SPEC)
            assert n.wall == pytest.approx(e.wall, rel=WALL_XCHECK_RTOL)


def test_wall_normal_velocity_is_exactly_zero():
    # Phi carries no constant term, so u_z vanishes bit for bit on the wall
    # and the q u_z part of the wall traction is identically 0
    r = np.linspace(0.0, 0.2, 101)
    for regime in (SLIP, SLIP_B, MIXED):
        for h in (1e-2, 1e-4, 1e-6):
            frame = aperture_frame(regime, h, r, np.zeros_like(r))
            assert np.all(frame.u_z == 0.0)


def _sphere_traction_with_q(regime, h, r):
    """The full integrand (D - qI)n . (e3 - u), pressure value included."""
    H = h + gamma_s(r)
    frame = aperture_frame(regime, h, r, H)
    q = pressure(regime, h, r, H).q
    n_r, n_z = -r, np.sqrt(1.0 - r * r)
    dn_r = frame.du_r_dr * n_r + frame.d_rz * n_z
    dn_z = frame.d_rz * n_r + frame.du_z_dz * n_z
    return (dn_r - q * n_r) * (-frame.u_r) + (dn_z - q * n_z) * (1.0 - frame.u_z)


def test_sphere_traction_matches_the_integrand_with_the_pressure():
    for regime in (SLIP, SLIP_B):
        for h in (1e-2, 1e-4, 1e-6):
            reference = integrate_surface(
                lambda r: _sphere_traction_with_q(regime, h, r),
                "sphere-cap", 0.2, SWEEP_SPEC, scale=math.sqrt(h),
            ).value
            n = surface_drag(regime, h, spec=SWEEP_SPEC)
            assert n.sphere == pytest.approx(reference, rel=SPHERE_XCHECK_RTOL)


def test_surface_drag_never_evaluates_the_pressure_value(monkeypatch):
    def refuse(*args):
        raise AssertionError("surface_drag evaluated the pressure value")

    monkeypatch.setattr(fld, "_g3_tail", refuse)
    for regime in (SLIP, MIXED):
        n = surface_drag(regime, 1e-3, spec=SWEEP_SPEC)
        assert n.value > 0.0


@pytest.mark.parametrize("h", [math.nan, math.inf])
@pytest.mark.parametrize("regime", [SLIP, MIXED], ids=["slip", "mixed"])
def test_a_row_rejects_a_gap_that_is_not_finite_before_any_work(regime, h, monkeypatch):
    def refuse(*args):
        raise AssertionError("the row evaluated Psi")

    monkeypatch.setattr(drg, "psi_partials", refuse)
    for half in (energy, surface_drag):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="h must be finite and > 0"):
                half(regime, h, spec=SWEEP_SPEC)


# ---------------------------------------------------------------- one row


# one adaptive pass of a drag row as _record_passes logs it: integrand
# calls, the Psi evaluations inside them, cells, terms stacked by the
# integrand, and the QuadratureError (None when it converged)
Pass = namedtuple("Pass", "calls psi cells terms error")


def _record_passes(monkeypatch):
    """Patch gapflow.drag's adaptive pass and Psi evaluation to log each
    pass; a QuadratureError is logged and its estimate stands in for the
    result, so the row still finishes."""
    log, psi = [], Counter()

    def counted_psi(*args):
        psi["calls"] += 1
        return psi_partials(*args)

    def recorded(g, cuts, spec, names):
        calls, terms, before = Counter(), [], psi["calls"]

        def counted(r):
            calls["g"] += 1
            out = g(r)
            terms.append(len(out))
            return out

        try:
            res, error = _adaptive_1d(counted, cuts, spec, names), None
            cells = res[0].cells
        except QuadratureError as exc:
            res = tuple(IntegralResult(v, e, exc.cells) for v, e in zip(exc.value, exc.error))
            cells, error = exc.cells, exc
        log.append(Pass(calls["g"], psi["calls"] - before, cells, terms[0], error))
        return res

    monkeypatch.setattr(drg, "psi_partials", counted_psi)
    monkeypatch.setattr(drg, "_adaptive_1d", recorded)
    return log


def test_a_drag_row_is_one_adaptive_pass_per_region(monkeypatch):
    # counted through gapflow.drag's namespace: every region of a row is
    # in its one adaptive pass, the gap's three terms, the wall's two and
    # with slip the sphere's two, and every integrand call costs one Psi
    # evaluation
    log = _record_passes(monkeypatch)
    for regime, terms in ((SLIP, 7), (MIXED, 5)):
        for row in (
            lambda: energy(regime, 1e-4, spec=SWEEP_SPEC),
            lambda: surface_drag(regime, 1e-4, spec=SWEEP_SPEC),
            lambda: drag_curve(regime, (1e-4,), spec=SWEEP_SPEC),
        ):
            log.clear()
            row()
            (one,) = log
            assert one.terms == terms
            assert one.calls > 0
            assert one.psi == one.calls


@pytest.mark.parametrize(
    "name, regime", [("slip", SLIP), ("mixed", MIXED)], ids=["slip", "mixed"]
)
def test_default_drag_rows_are_one_pass_of_one_psi_call(name, regime, monkeypatch):
    # deterministic work counters: the default `drag scan` makes one
    # adaptive pass per row, no row refines, so each pass is one
    # integrand call on its initial cells and one Psi evaluation
    log = _record_passes(monkeypatch)
    hs = [row[0] for row in DEFAULT_SCAN_ROWS[name]]
    drag_curve(regime, hs, spec=SWEEP_SPEC)
    assert [(p.calls, p.psi, p.cells) for p in log] == [
        (1, 1, len(gap_cuts(h, R_MAX_DEFAULT)) - 1) for h in hs
    ]


@pytest.mark.parametrize("regime", [SLIP, MIXED], ids=["slip", "mixed"])
def test_rows_build_one_first_mesh_per_cut_list(regime):
    # deterministic cache counter: gaps that share a gap_cuts list share
    # their first mesh, energy and surface_drag as much as drag_curve
    hs = (1.2e-4, 1.1e-4, 1e-4)
    assert len({tuple(gap_cuts(h, R_MAX_DEFAULT)) for h in hs}) == 1
    quadrature._first_mesh.cache_clear()
    drag_curve(regime, hs, spec=SWEEP_SPEC)
    energy(regime, hs[0], spec=SWEEP_SPEC)
    surface_drag(regime, hs[0], spec=SWEEP_SPEC)
    info = quadrature._first_mesh.cache_info()
    assert (info.misses, info.hits) == (1, len(hs) + 1)
    # the drag-sweep range at the default aperture: one mesh per number of
    # halvings of graded_cuts
    quadrature._first_mesh.cache_clear()
    drag_curve(regime, np.geomspace(1e-2, 1e-6, 43).tolist(), spec=SWEEP_SPEC)
    assert quadrature._first_mesh.cache_info().misses <= 8


# the radial functions a module of the row can look up: the shared
# geometry, and the public functions it stands in for inside the row
RADIAL_FUNCTIONS = ("_radial", "gamma_s")


@pytest.mark.parametrize(
    "regime, h",
    [(SLIP, 1e-4), (MIXED, 1e-4), (SLIP, 1e-10), (MIXED, 1e-10)],
    ids=["slip-1e-4", "mixed-1e-4", "slip-1e-10", "mixed-1e-10"],
)
def test_a_row_integrand_call_evaluates_its_radial_geometry_once(regime, h, monkeypatch):
    # deterministic work counter: r^2, s, gamma_s and H come from one
    # geometry._radial call per integrand call, shared by the z-rule, the
    # Psi kernel, the sphere normal and the cap measure
    geo = Counter()

    def counting(name, fn):
        def counted(*args):
            geo[name] += 1
            return fn(*args)

        return counted

    for module in (drg, fld, profile, quadrature):
        for name in RADIAL_FUNCTIONS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    log = _record_passes(monkeypatch)
    drg._row(regime, h, R_MAX_DEFAULT, SWEEP_SPEC, 0.0)
    (one,) = log
    assert one.calls > 0
    assert geo == Counter(_radial=one.calls)


@pytest.mark.parametrize("h", [1e-2, 1e-6])
@pytest.mark.parametrize("regime", [SLIP, MIXED], ids=["slip", "mixed"])
def test_a_row_integrand_carries_its_radial_nodes_on_the_last_axis(regime, h, monkeypatch):
    # the layout, gated deterministically: every Psi evaluation of a row
    # takes a one-dimensional r and the (Z_ORDER + 2, n) stack of the gap
    # heights, the wall and the sphere, whose z-rule rows are the
    # transposes of the (n, Z_ORDER) rule at each node
    calls = []

    def spied(*args):
        calls.append(args[2:4])
        return psi_partials(*args)

    monkeypatch.setattr(drg, "psi_partials", spied)
    drg._row(regime, h, R_MAX_DEFAULT, SWEEP_SPEC, 0.0)
    assert calls
    zx, zw = np.polynomial.legendre.leggauss(Z_ORDER)
    for r, z in calls:
        assert r.ndim == 1
        assert z.shape == (Z_ORDER + 2, r.size)
        H = z[-1]
        assert np.array_equal(H, h + gamma_s(r))
        assert not z[-2].any()
        Z, W = quadrature.gap_rule(H)
        assert np.array_equal(Z, (0.5 * H[:, None] * (zx + 1.0)).T)
        assert np.array_equal(W, (0.5 * H[:, None] * zw).T)
        assert np.array_equal(z[:-2], Z)


def _per_region_row(regime, h, r_max, spec, ext):
    """The drag row as one adaptive pass per region, one integrate_gap and
    one or two integrate_surface passes: the reference of the fused row."""

    def gap(r, z):
        p = psi_partials(regime, h, r, z)
        frame = fld._frame(p, r)
        f_r, f_z = fld._residual(regime, p, r)
        return np.stack(
            [frame.grad_sq, frame.sym_grad_sq, f_r * frame.u_r + f_z * frame.u_z]
        )

    def wall(r):
        frame = aperture_frame(regime, h, r, np.zeros_like(r))
        return np.stack([frame.u_r**2, 2.0 * frame.d_rz * frame.u_r])

    def sphere(r):
        frame = aperture_frame(regime, h, r, h + gamma_s(r))
        _, (dn_r, dn_z), mismatch = fld._on_sphere(frame, frame.d_rz, r, np.sqrt(1.0 - r * r))
        return np.stack(
            [mismatch**2, dn_r * (-frame.u_r) + dn_z * (1.0 - frame.u_z)]
        )

    grad, sym, vol = integrate_gap(gap, h, r_max, spec)
    slip_sq, wall_t = integrate_surface(wall, "plane", r_max, spec, scale=math.sqrt(h))
    if regime.kind is RegimeKind.SLIP:
        mismatch_sq, sphere_t = integrate_surface(
            sphere, "sphere-cap", r_max, spec, scale=math.sqrt(h)
        )
        e_sphere = (1.0 / regime.beta_S + 1.0) * mismatch_sq.value
    else:
        e_sphere, sphere_t = 0.0, IntegralResult(0.0, 0.0, 0)
    e_wall = (1.0 / regime.beta_Omega) * slip_sq.value
    e = drg.EnergyBreakdown(
        grad.value + e_sphere + e_wall + ext, grad.value, e_sphere, e_wall, ext
    )
    diss, diss_error = 2.0 * sym.value, 2.0 * sym.error
    n = drg.SurfaceDrag(
        value=vol.value + diss + wall_t.value + sphere_t.value + ext,
        volume=vol.value,
        dissipation=diss,
        wall=wall_t.value,
        sphere=sphere_t.value,
        error=vol.error + diss_error + wall_t.error + sphere_t.error,
        exterior=ext,
    )
    return e, n


# the rows of test_deep_gap_rows_meet_the_tolerance_they_ask_for
DEEP_ROWS = [
    (regime, h, rel_tol)
    for regime in (SLIP, MIXED)
    for h in (1e-8, 1e-10, 1e-12)
    for rel_tol in (1e-8, 1e-10, 1e-12)
]


@pytest.mark.parametrize(
    "regime, h, rel_tol, ext",
    [(regime, h, 1e-8, "included") for regime in (SLIP, SLIP_B, MIXED) for h in DEFAULT_H_LIST]
    + [row + ("excluded",) for row in DEEP_ROWS],
)
def test_the_fused_row_equals_the_per_region_row_bit_for_bit(regime, h, rel_tol, ext):
    spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-12)
    shift = exterior_constant(regime) if ext == "included" else 0.0
    fused = drg._row(regime, h, R_MAX_DEFAULT, spec, shift)
    # repr tells every bit of a float apart, the sign of a zero included
    assert repr(fused) == repr(_per_region_row(regime, h, R_MAX_DEFAULT, spec, shift))


# the four drag-sweep regimes of perfbench's seed 1, and gaps on its grid
# of 32 levels per decade below 1e-2
SWEEP_REGIMES = (
    SlipRegime.slip(1.234, 1.378),
    SlipRegime.slip(0.6469, 0.8081),
    SlipRegime.mixed(1.621),
    SlipRegime.mixed(0.5452),
)
SWEEP_LEVELS = (0, 31, 64, 97, 128)

# sha256 of the reprs of drag._row over each grid: a speed change to the
# row, its integrand or the layers below must leave every bit alone
ROW_DIGESTS = {
    "sweep": "b1de49c7714dea46385d3b91584ae5e42b8757e25ce2347a26ed4c8a9ac2e275",
    "deep": "3f025ac17f641e5799b73d7b2375ac89c133116c15f112738e352e703dc065c3",
}


def _row_grid(name):
    """(regime, h, spec, exterior shift) of each row of a pinned grid."""
    if name == "sweep":
        return [
            (regime, 10.0 ** (-2.0 - level / 32), SWEEP_SPEC, exterior_constant(regime))
            for regime in SWEEP_REGIMES
            for level in SWEEP_LEVELS
        ]
    return [
        (regime, h, QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-12), 0.0)
        for regime, h, rel_tol in DEEP_ROWS
    ]


@pytest.mark.parametrize("name", ROW_DIGESTS)
def test_the_drag_rows_keep_their_bits(name):
    text = "\n".join(
        repr(drg._row(regime, h, R_MAX_DEFAULT, spec, ext))
        for regime, h, spec, ext in _row_grid(name)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == ROW_DIGESTS[name]


def test_a_failed_row_names_its_gap_and_terms_and_keeps_every_estimate():
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-12)
    with pytest.raises(
        QuadratureError, match=r"^drag row at h = 0\.01: .* in gradient, dissipation \("
    ) as err:
        drag_curve(MIXED, (1e-2,), spec=spec)
    assert len(err.value.value) == len(err.value.error) == 5
    assert all(math.isfinite(v) for v in err.value.value)


@pytest.mark.parametrize("h", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("regime", [SLIP, MIXED], ids=["slip", "mixed"])
def test_fused_row_matches_the_single_norm_references(regime, h):
    def pairing(r, z):
        frame = aperture_frame(regime, h, r, z)
        f_r, f_z = stokes_residual(regime, h, r, z)
        return f_r * frame.u_r + f_z * frame.u_z

    def gap_integral(f):
        return integrate_gap(f, h, R_MAX_DEFAULT, SWEEP_SPEC).value

    e = energy(regime, h, spec=SWEEP_SPEC)
    n = surface_drag(regime, h, spec=SWEEP_SPEC)
    gradient = gap_integral(lambda r, z: aperture_frame(regime, h, r, z).grad_sq)
    sym = gap_integral(lambda r, z: aperture_frame(regime, h, r, z).sym_grad_sq)
    volume = gap_integral(pairing)
    assert e.gradient == pytest.approx(gradient, rel=FUSED_RTOL)
    assert n.dissipation == pytest.approx(2.0 * sym, rel=FUSED_RTOL)
    assert n.volume == pytest.approx(volume, rel=FUSED_RTOL)


# (h, energy, gradient_part, sphere_part, wall_part, surface) of the default
# `drag scan` rows, computed when every norm was its own adaptive pass and
# re-pinned when gamma_s lost its cancellation: each value moved by less
# than eps/h of its row (at most 3.5e-12 relative, the mixed n at 1e-6)
DEFAULT_SCAN_ROWS = {
    "slip": (
        (0.01, 29.283828657823904, 4.967751090726637, 2.6938155022999237, 1.357617607939415, 33.43091857916077),
        (0.001, 49.923565014218624, 9.943112708624449, 13.167749666783179, 6.548058181953073, 52.69095911791419),
        (0.0001, 77.63970428487434, 16.76860698708276, 27.110647513100147, 13.495805327833502, 77.03401973424775),
        (1e-05, 106.4451956218864, 23.956772336084715, 41.52545322037039, 20.69832560857337, 102.24315256182062),
        (1e-06, 135.3671121742448, 31.185769189636318, 55.98789817876736, 27.9288003489832, 127.54978153766766),
    ),
    "mixed": (
        (0.01, 407.2258826967797, 220.29796620533943, 0.0, 3.0032566680847212, 403.0782059889553),
        (0.001, 4502.046656444045, 4303.486703470321, 0.0, 14.63529315036805, 4461.834017426671),
        (0.0001, 46919.18941195338, 46705.01175373613, 0.0, 30.252998393893684, 46829.04685348701),
        (1e-05, 471066.8014958025, 470836.4208327672, 0.0, 46.456003211933364, 470924.8027442999),
        (1e-06, 4712252.369561981, 4712005.7207191335, 0.0, 62.72418302502717, 4712058.310814953),
    ),
}


@pytest.mark.parametrize(
    "name, regime", [("slip", SLIP), ("mixed", MIXED)], ids=["slip", "mixed"]
)
def test_default_drag_scan_rows_are_pinned(name, regime):
    rows = DEFAULT_SCAN_ROWS[name]
    curve = drag_curve(regime, [row[0] for row in rows], spec=SWEEP_SPEC)
    got = tuple(
        (r.h, r.energy, r.gradient_part, r.sphere_part, r.wall_part, r.surface)
        for r in curve.rows
    )
    assert got == rows


@pytest.mark.parametrize("h", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("regime", [SLIP, MIXED], ids=["slip", "mixed"])
def test_gap_z_rule_matches_the_16_point_rule_per_node(
    monkeypatch, regime, h, laplacian_and_pressure_gradient
):
    """Z_ORDER = 4 is exact for the row's gap terms: at every radial node
    of a default row, each gap term of the row's integrand agrees with the
    same integrand on the 16-point z-rule to 1e-14 of the z-integral of
    the absolute terms it sums.  The mixed pairing sums its closed-form
    terms; the slip f_z cancels its own terms, so its pairing is held to
    the scale |lap u| + |grad q| of the two forms it was derived from."""
    passes, nodes = [], []

    def recording(g, *args):
        def recorded(r):
            nodes.append(r)
            return g(r)

        passes.append(g)
        return _adaptive_1d(recorded, *args)

    monkeypatch.setattr(drg, "_adaptive_1d", recording)
    drag_curve(regime, [h], spec=SWEEP_SPEC)
    (row,), r = passes, np.concatenate(nodes)
    H = h + gamma_s(r)

    def per_node(f, order):
        x, w = np.polynomial.legendre.leggauss(order)
        Z, W = 0.5 * H[:, None] * (x + 1.0), 0.5 * H[:, None] * w
        return np.sum(np.asarray(f(r[:, None], Z)) * W, axis=-1)

    def magnitude(r, z):
        p = psi_partials(regime, h, r, z)
        frame = fld._frame(p, r)
        if regime.kind is RegimeKind.SLIP:
            lap, dq = laplacian_and_pressure_gradient(regime, p, r)
            f_r, f_z = (np.abs(a) + np.abs(b) for a, b in zip(lap, dq))
        else:
            f_r = np.abs(3.0 * p.drz) + np.abs(r * p.drrz)
            f_z = (
                np.abs(2.5 * p.drr)
                + np.abs(0.5 * r * p.drrr)
                + np.abs(1.5 * p.dr_by_r)
            )
        pairing = f_r * np.abs(frame.u_r) + f_z * np.abs(frame.u_z)
        return np.stack([frame.grad_sq, frame.sym_grad_sq, pairing])

    # the row's gap terms, 2 pi r times their z-integrals, on its own
    # Z_ORDER rule and on the 16-point rule
    assert Z_ORDER == 4
    four = row(r)[:3]
    monkeypatch.setattr(quadrature, "Z_ORDER", 16)
    sixteen = row(r)[:3]
    bound = 1e-14 * 2.0 * math.pi * r * per_node(magnitude, 16)
    assert np.all(np.abs(four - sixteen) <= bound)


@pytest.mark.parametrize(
    "name, regime", [("slip", SLIP), ("mixed", MIXED)], ids=["slip", "mixed"]
)
def test_a_default_drag_row_region_makes_at_most_two_integrand_calls(
    name, regime, monkeypatch
):
    # at the `drag scan` defaults no cell refines past its first bisection,
    # so each row's one pass, every region's terms in it, is the initial
    # call plus at most one refinement round
    log = _record_passes(monkeypatch)
    rows = DEFAULT_SCAN_ROWS[name]
    drag_curve(regime, [row[0] for row in rows], spec=SWEEP_SPEC)
    assert len(log) == len(rows)
    assert all(p.error is None and p.calls <= 2 for p in log)


DEEP_CALLS = 100  # integrand calls per row pass; a few dozen at most here


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
@pytest.mark.parametrize("h", [1e-8, 1e-10])
@pytest.mark.parametrize("regime", [SLIP, MIXED], ids=["slip", "mixed"])
def test_deep_gap_integrals_finish_or_raise_within_the_cell_budget(
    regime, h, rel_tol, monkeypatch
):
    # below the validated sweep a row's one pass, with every region's
    # integrals in it, ends in bounded work: it converges or raises
    # QuadratureError, within MAX_CELLS cells
    log = _record_passes(monkeypatch)
    energy(regime, h, spec=QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-12))
    (one,) = log
    assert 1 <= one.calls <= DEEP_CALLS
    assert one.psi == one.calls
    assert one.cells <= MAX_CELLS


@pytest.mark.parametrize("h", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("regime", [SLIP, MIXED], ids=["slip", "mixed"])
def test_deep_gap_rows_meet_the_tolerance_they_ask_for(regime, h):
    # with a cancellation-free gap height every deep row converges, and
    # each agrees with its rel_tol 1e-12 row within the rel_tol it asked for
    def row(rel_tol):
        spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-12)
        return drag_curve(regime, (h,), spec=spec, exterior="excluded").rows[0]

    reference = row(1e-12)
    for rel_tol in (1e-8, 1e-10):
        got = row(rel_tol)
        assert got.energy == pytest.approx(reference.energy, rel=rel_tol)
        assert got.surface == pytest.approx(reference.surface, rel=rel_tol)


# ---------------------------------------------------------------- scaling


def test_drag_blows_up_monotonically_as_the_gap_closes(slip_curve, mixed_curve):
    for curve in (slip_curve, mixed_curve):
        es = curve.column("energy")
        ns = curve.column("surface")
        assert np.all(np.diff(es) > 0.0)
        assert np.all(np.diff(ns) > 0.0)


def test_surface_pairing_agrees_with_energy(slip_curve, mixed_curve):
    for curve in (slip_curve, mixed_curve):
        ratio = curve.column("surface") / curve.column("energy")
        assert np.all(np.abs(ratio - 1.0) <= AGREEMENT_WINDOW)


def test_slip_energy_tracks_log_envelope(slip_curve):
    scaled = slip_curve.column("energy") / np.abs(np.log(slip_curve.column("h")))
    assert scaled.min() > 0.0
    assert scaled.max() / scaled.min() <= ENVELOPE_FACTOR


def test_mixed_energy_tracks_inverse_envelope(mixed_curve):
    scaled = mixed_curve.column("energy") * mixed_curve.column("h")
    assert scaled.min() > 0.0
    assert scaled.max() / scaled.min() <= ENVELOPE_FACTOR


def test_regimes_separate_as_the_gap_closes(slip_curve, mixed_curve):
    slip_e = slip_curve.column("energy")
    mixed_e = mixed_curve.column("energy")
    wide = mixed_e[0] / slip_e[0]  # h = 1e-3
    tight = mixed_e[-1] / slip_e[-1]  # h = 1e-6
    assert tight >= 10.0 * wide


def test_slip_curve_prefers_the_log_law(slip_curve):
    log_fit = fit_scaling(slip_curve, ScalingModel.LOG, quantity="energy")
    inv_fit = fit_scaling(slip_curve, ScalingModel.INVERSE, quantity="energy")
    assert log_fit.r_squared >= 0.99
    assert log_fit.r_squared > inv_fit.r_squared
    assert log_fit.a > 0.0


def test_mixed_curve_prefers_the_inverse_law(mixed_curve):
    inv_fit = fit_scaling(mixed_curve, ScalingModel.INVERSE, quantity="energy")
    log_fit = fit_scaling(mixed_curve, ScalingModel.LOG, quantity="energy")
    assert inv_fit.r_squared >= 0.99
    assert inv_fit.r_squared > log_fit.r_squared
    assert inv_fit.a > 0.0


def test_surface_quantity_fits_like_energy(slip_curve, mixed_curve):
    slip_fit = fit_scaling(slip_curve, ScalingModel.LOG, quantity="surface")
    assert slip_fit.r_squared >= 0.99
    mixed_fit = fit_scaling(mixed_curve, ScalingModel.INVERSE, quantity="surface")
    assert mixed_fit.r_squared >= 0.99
