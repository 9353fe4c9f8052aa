"""Tests for the reduced contact dynamics: drag laws, events, scans."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import scipy.integrate

from gapflow import dynamics
from gapflow.dynamics import (
    RTOL_DEFAULT,
    SWITCH_H,
    TOUCHDOWN_H,
    DragLaw,
    EventKind,
    FallParameters,
    StiffnessError,
    Trajectory,
    TerminalEvent,
    drag_law,
    simulate,
    touchdown_scan,
)
from gapflow.profile import RegimeKind, ScalingModel, SlipRegime
from gapflow.quadrature import _ols

SLIP = SlipRegime.slip(1.0, 1.0)
MIXED = SlipRegime.mixed(1.0)

FREE_FALL_TOL = 1e-8
TSTAR_STABILITY = 1e-6
LAW_NODE_RTOL = 1e-13


def _params(G=1.0, kappa=1.0):
    # G = (rho_S - rho_F) g / rho_S = g / 2 at rho_S = 2, rho_F = 1
    return FallParameters(rho_S=2.0, rho_F=1.0, g=2.0 * G, kappa=kappa)


# ---------------------------------------------------------------- drag laws


LAW_GAPS = np.geomspace(1e-10, 0.5, 7)
PRIMITIVE_FD_RTOL = 1e-6


def _primitive_slope(law, h):
    # central difference of P at a relative step whose truncation and
    # roundoff both stay below PRIMITIVE_FD_RTOL
    model, a = law.deep
    P, step = model.primitive(a), 1e-5 * h
    return (P(h + step) - P(h - step)) / (2.0 * step)


def test_analytic_slip_law_is_kappa_log():
    law = drag_law(SLIP, "analytic", 1.0)
    assert law(math.exp(-2.0)) == pytest.approx(2.0, rel=1e-14)
    assert law.kind == "analytic"
    assert law.deep == (ScalingModel.LOG, 1.0)


def test_analytic_mixed_law_is_kappa_over_h():
    law = drag_law(MIXED, "analytic", 3.0)
    assert law(0.01) == pytest.approx(300.0, rel=1e-14)
    assert law.deep == (ScalingModel.INVERSE, 3.0)


@pytest.mark.parametrize("kappa", [0.37, 1.7])
@pytest.mark.parametrize(
    "regime, closed_form",
    [(SLIP, lambda kappa, h: kappa * abs(math.log(h))), (MIXED, lambda kappa, h: kappa / h)],
    ids=["slip", "mixed"],
)
def test_each_law_is_its_closed_form_and_the_slope_of_its_primitive(
    regime, closed_form, kappa
):
    law = drag_law(regime, "analytic", kappa)
    for h in LAW_GAPS.tolist():
        assert float(law(h)) == closed_form(kappa, h)  # bit for bit
        assert _primitive_slope(law, h) == pytest.approx(law(h), rel=PRIMITIVE_FD_RTOL)


def test_laws_are_positive_on_the_working_range():
    hs = np.geomspace(1e-12, 0.5, 200)
    assert np.all(drag_law(SLIP, "analytic", 1.0)(hs) > 0.0)
    assert np.all(drag_law(MIXED, "analytic", 1.0)(hs) > 0.0)


def test_drag_law_validates_source_and_kappa():
    with pytest.raises(ValueError, match="source"):
        drag_law(SLIP, "tabular", 1.0)
    with pytest.raises(ValueError, match="kappa"):
        drag_law(SLIP, "analytic", -1.0)


# ---------------------------------------------------------------- parameters


def test_default_parameters_give_unit_effective_gravity():
    # the densities and gravity a run defaults to (cli.RunConfig)
    assert FallParameters(rho_S=2.0, rho_F=1.0, g=2.0, kappa=1.0).G == 1.0


def test_parameter_validation():
    base = _params()._asdict()
    with pytest.raises(ValueError):
        FallParameters(**{**base, "rho_S": 0.0})
    with pytest.raises(ValueError):
        FallParameters(**{**base, "rho_F": -0.5})
    with pytest.raises(ValueError):
        FallParameters(**{**base, "g": 0.0})
    with pytest.raises(ValueError):
        FallParameters(**{**base, "kappa": -0.1})


@given(
    rho_S=st.floats(0.1, 10.0),
    rho_F=st.floats(0.0, 10.0),
    g=st.floats(0.1, 10.0),
)
def test_effective_gravity_sign_tracks_the_density_contrast(rho_S, rho_F, g):
    params = FallParameters(rho_S=rho_S, rho_F=rho_F, g=g, kappa=1.0)
    assert (params.G > 0.0) == (rho_S > rho_F)


# ---------------------------------------------------------------- free fall


def test_free_fall_from_quarter_gap():
    traj = simulate(_params(kappa=0.0), SLIP, h0=0.25, t_max=10.0)
    assert traj.event.kind == EventKind.TOUCHDOWN
    assert traj.event.t == pytest.approx(math.sqrt(0.5), abs=FREE_FALL_TOL)
    assert traj.event.speed == pytest.approx(math.sqrt(0.5), abs=FREE_FALL_TOL)


def test_free_fall_from_half_gap():
    traj = simulate(_params(kappa=0.0), SLIP, h0=0.5, h_max=1.0, t_max=10.0)
    assert traj.event.kind == EventKind.TOUCHDOWN
    assert traj.event.t == pytest.approx(1.0, abs=FREE_FALL_TOL)
    assert traj.event.speed == pytest.approx(1.0, abs=FREE_FALL_TOL)


def test_trajectory_rows_are_ordered_and_positive():
    traj = simulate(_params(), SLIP, h0=0.25, t_max=10.0)
    assert len(traj) > 2
    assert np.all(np.diff(traj.t) > 0.0)
    assert np.all(traj.h > 0.0)
    assert traj.t[0] == 0.0 and traj.h[0] == 0.25


def test_trajectory_validation():
    event = TerminalEvent(EventKind.NO_CONTACT, 1.0, 0.1, 0.0)
    with pytest.raises(ValueError, match="Trajectory times must be strictly increasing"):
        Trajectory(times=(0.0, 0.0), gaps=(0.1, 0.1), speeds=(0.0, 0.0), event=event)
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(times=(0.0, 2.0, 1.0), gaps=(0.1,) * 3, speeds=(0.0,) * 3, event=event)
    with pytest.raises(ValueError, match="positive"):
        Trajectory(times=(0.0, 1.0), gaps=(0.1, -0.1), speeds=(0.0, 0.0), event=event)
    with pytest.raises(ValueError, match="positive"):
        Trajectory(times=(0.0, 1.0), gaps=(0.1, 0.0), speeds=(0.0, 0.0), event=event)
    with pytest.raises(ValueError, match="aligned"):
        Trajectory(times=(0.0, 1.0), gaps=(0.1,), speeds=(0.0, 0.0), event=event)
    with pytest.raises(ValueError, match="aligned"):
        Trajectory(times=(), gaps=(), speeds=(), event=event)


def test_a_trajectory_reads_its_columns_as_arrays():
    traj = simulate(_params(), SLIP, h0=0.25, t_max=10.0)
    assert isinstance(traj.t, np.ndarray) and isinstance(traj.h, np.ndarray)
    assert traj.t.tolist() == list(traj.times) and traj.h.tolist() == list(traj.gaps)
    assert traj.h is traj.h  # built once, on the first read
    assert float(traj.h.min()) == min(traj.gaps)


# ---------------------------------------------------------------- slip falls


def test_slip_touchdown_is_finite_and_tolerance_stable():
    traj = simulate(_params(), SLIP, h0=0.25, t_max=10.0)
    assert traj.event.kind == EventKind.TOUCHDOWN
    tighter = simulate(_params(), SLIP, h0=0.25, rtol=0.5e-9, atol=0.5e-12, t_max=10.0)
    assert abs(traj.event.t - tighter.event.t) < TSTAR_STABILITY


def test_slip_impact_speed_is_positive_with_margin():
    traj = simulate(_params(), SLIP, h0=0.25, t_max=10.0)
    assert traj.event.speed > 1e-3 * math.sqrt(2.0 * 1.0 * 0.25)


def test_touchdown_time_decreases_with_stronger_gravity():
    slow = simulate(_params(G=1.0), SLIP, h0=0.25, t_max=10.0)
    fast = simulate(_params(G=2.0), SLIP, h0=0.25, t_max=10.0)
    assert fast.event.t < slow.event.t


def test_damped_fall_dissipates_mechanical_energy():
    traj = simulate(_params(), SLIP, h0=0.25, t_max=10.0)
    total = 0.5 * np.array(traj.speeds) ** 2 + 1.0 * traj.h
    assert np.all(np.diff(total) <= 1e-9)


def test_escape_event_fires_on_upward_launch():
    traj = simulate(_params(kappa=0.1), SLIP, h0=0.25, v0=1.0, t_max=10.0)
    assert traj.event.kind == EventKind.ESCAPED
    assert traj.event.h == pytest.approx(0.5, abs=1e-9)
    assert traj.event.t > 0.0


# ---------------------------------------------------------------- mixed falls


def test_mixed_fall_never_touches_down():
    traj = simulate(_params(), MIXED, h0=0.25, t_max=50.0)
    assert traj.event.kind == EventKind.NO_CONTACT
    assert traj.event.t == pytest.approx(50.0)
    assert float(traj.h.min()) > 0.0


def test_mixed_log_gap_grows_linearly_in_time():
    traj = simulate(_params(), MIXED, h0=0.25, t_max=50.0)
    slope, _, r2 = _ols(traj.t, np.abs(np.log(traj.h)))
    assert slope > 0.0
    assert r2 >= 0.99


def test_mixed_fall_crosses_into_the_log_phase():
    traj = simulate(_params(), MIXED, h0=0.25, t_max=50.0)
    assert float(traj.h[-1]) < 1e-20  # far below the switch gap, no underflow
    assert np.all(np.diff(traj.t) > 0.0)  # the tail row keeps t ordered


def test_mixed_fall_reports_the_representable_floor():
    traj = simulate(_params(), MIXED, h0=0.25, t_max=800.0)
    assert traj.event.kind == EventKind.NO_CONTACT
    assert traj.event.t < 800.0
    assert "no contact" in traj.event.note
    assert float(traj.h[-1]) > 0.0


def _slaved_gap(h0, v0, kappa, G, t):
    """The gap of D = kappa / h at time t on the slaved tail, from the
    momentum integral: the fixed point h = h0 e^{(v0 - G t)/kappa} e^{G h/kappa^2}."""
    scale, h = h0 * math.exp((v0 - G * t) / kappa), 0.0
    for _ in range(4):
        h = scale * math.exp(G * h / kappa**2)
    return h


# end times and gaps of the mixed fall (kappa = G = 1, h0 = 0.25) from the
# momentum integral: the slaved gap at t_max, or the floor ln h = -700,
# reached at t = (v0 + kappa (ln h0 + 700)) / G = 698.61370563888...
@pytest.mark.parametrize("t_max", [13.0, 50.0, 800.0])
def test_mixed_tail_keeps_the_end_of_the_fall(t_max):
    t_floor = math.log(0.25) + 700.0
    if t_max < t_floor:
        t_end, h_end = t_max, _slaved_gap(0.25, 0.0, 1.0, 1.0, t_max)
    else:
        t_end, h_end = t_floor, math.exp(-700.0)
    traj = simulate(_params(), MIXED, h0=0.25, t_max=t_max)
    assert traj.event.t == pytest.approx(t_end, abs=0.0, rel=1e-11)
    assert traj.event.h == pytest.approx(h_end, abs=0.0, rel=1e-11)
    assert (traj.t[-1], traj.h[-1]) == (traj.event.t, traj.event.h)


@pytest.mark.parametrize("kappa", [1e-4, 1e-2])
def test_weak_mixed_drag_reaches_the_floor(kappa):
    traj = simulate(_params(kappa=kappa), MIXED, h0=0.25, t_max=50.0)
    assert traj.event.kind == EventKind.NO_CONTACT
    assert "ln h = -700" in traj.event.note and "no contact" in traj.event.note
    row = touchdown_scan(MIXED, (kappa,), (1.0,), (0.25,), t_max=50.0)[0]
    assert row.outcome == "NoContact"


def test_a_fast_entry_coasts_through_the_floor_at_the_entry_time():
    # kappa = 1e-4: a (ln h_s + 700) is far below the entry speed, so the
    # closed-form floor time lies before the entry, which waits until the
    # rest of the coast is too short to resolve in t; the event stays there
    traj = simulate(_params(kappa=1e-4), MIXED, h0=0.25, t_max=50.0)
    ev = traj.event
    assert (ev.t, ev.h, ev.speed) == (traj.times[-1], traj.gaps[-1], traj.speeds[-1])
    assert ev.h < SWITCH_H and ev.speed < 0.0
    resolution = np.finfo(float).eps * ev.t / RTOL_DEFAULT
    assert ev.h / abs(ev.speed) == pytest.approx(resolution, rel=1e-6)
    assert f"within h/|h'| = {ev.h / abs(ev.speed):.3g}" in ev.note


def test_a_fast_mixed_entry_is_not_slaved():
    # kappa = 1e-2: the fall passes SWITCH_H some 5.9e3 times faster than
    # the slaved h' = -G h / kappa: the closed-form tail would put it at
    # h ~ 1e-32 at once, while the fall coasts on for about h / |h'| = 1.7e-6
    kappa, G, h0 = 1e-2, 1.0, 0.25
    law = drag_law(MIXED, "analytic", kappa)

    def fall(t_end, events=None):
        return scipy.integrate.solve_ivp(
            lambda t, y: (y[1], -law(y[0]) * y[1] - G), (0.0, t_end), (h0, 0.0),
            method="Radau", rtol=1e-12, atol=1e-20, events=events,
        )

    switch = lambda t, y: y[0] - SWITCH_H
    switch.terminal = True
    entry = fall(1.0, switch)
    t_s, v_s = entry.t_events[0][0], entry.y_events[0][0][1]
    assert v_s < -1e3 * G * SWITCH_H / kappa
    h_ref = fall(t_s + 1e-7).y[0, -1]
    traj = simulate(_params(G=G, kappa=kappa), MIXED, h0=h0, t_max=t_s + 1e-7)
    # the BDF fall is about 1 % off at entry: its timing error is about
    # 2e-8 at |h'| = 0.59
    assert traj.event.h == pytest.approx(h_ref, rel=0.05)


def test_upward_launch_below_the_switch_gap_escapes():
    traj = simulate(_params(), MIXED, h0=1e-7, v0=20.0, t_max=50.0)
    assert traj.event.kind == EventKind.ESCAPED
    assert traj.event.h == pytest.approx(0.5, abs=1e-9)


def test_apex_below_the_switch_gap_enters_the_tail():
    # the apex, about h0 e^{v0 / kappa} = 2.7e-7, stays below SWITCH_H
    traj = simulate(_params(), MIXED, h0=1e-7, v0=1.0, t_max=50.0)
    assert float(traj.h.max()) == pytest.approx(1e-7 * math.e, rel=1e-4)
    h_end = _slaved_gap(1e-7, 1.0, 1.0, 1.0, 50.0)
    assert traj.event.h == pytest.approx(h_end, abs=0.0, rel=1e-11)


# a fall makes at most one integrator run, with a bounded evaluation count
# (deterministic work counters on the trajectory)
@pytest.mark.parametrize(
    "regime, G, h0, v0, t_max, solves, max_nfev",
    [(SLIP, 1.0, 0.25, 0.0, 10.0, 1, 600), (MIXED, 1.0, 0.25, 0.0, 800.0, 1, 1000),
     (MIXED, 1.0, 1e-7, 0.0, 50.0, 0, 0), (MIXED, 1.0, SWITCH_H, -2e-6, 50.0, 0, 0),
     (MIXED, 1.0, SWITCH_H, -0.1, 50.0, 1, 500),
     (MIXED, 1.0, 0.25, 0.0, 50.0, 1, 1000), (MIXED, 1e-3, 1e-5, 0.0, 50.0, 1, 500)],
    ids=["slip", "mixed-to-floor", "mixed-deep-at-rest", "mixed-deep-falling",
         "mixed-deep-fast", "mixed-default", "mixed-slow-gravity"],
)
def test_a_fall_is_at_most_one_solve(regime, G, h0, v0, t_max, solves, max_nfev):
    traj = simulate(_params(G=G), regime, h0=h0, v0=v0, t_max=t_max)
    assert (traj.steps > 0) == (solves == 1)
    assert traj.nfev <= max_nfev
    if solves == 0:
        assert (traj.steps, traj.nfev, traj.njev, traj.nlu) == (0, 0, 0, 0)
        assert len(traj) == 2  # the start and the closed-form tail's row
    elif regime is SLIP:
        assert (traj.njev, traj.nlu) == (0, 0)
    else:
        assert traj.njev >= 1 and traj.nlu >= 1


def test_a_nan_drag_model_stalls_with_stiffness_error():
    # a nan right-hand side makes the first step size nan: scipy's RK45
    # kept retrying it for ever, the port fails the step
    law = DragLaw("analytic", RegimeKind.SLIP, (ScalingModel.LOG, math.nan), lambda h: math.nan)
    with pytest.raises(StiffnessError, match="step size") as info:
        simulate(_params(), SLIP, h0=0.25, law=law, t_max=10.0)
    assert all(f"{name}=" in str(info.value) for name in ("t", "h", "h'"))


def _never_called(h):
    raise AssertionError("the fall called the drag law")


def test_a_drag_law_from_four_fields_falls_the_same():
    # the fall reads only law.deep: a law whose callable raises falls bit
    # for bit as drag_law's own, counters included
    for regime, t_max in ((SLIP, 10.0), (MIXED, 50.0)):
        law = drag_law(regime, "analytic", 1.0)
        rebuilt = DragLaw(law.kind, law.regime_kind, law.deep, _never_called)
        a = simulate(_params(), regime, h0=0.25, t_max=t_max, law=law)
        b = simulate(_params(), regime, h0=0.25, t_max=t_max, law=rebuilt)
        assert a.event == b.event
        assert (a.steps, a.nfev, a.njev, a.nlu) == (b.steps, b.nfev, b.njev, b.nlu)
        assert (a.times, a.gaps, a.speeds) == (b.times, b.gaps, b.speeds)


# ------------------------------------------------------ momentum integral
# With Phi(h) = int_h^h0 D, every fall keeps h' - Phi(h) + G t = v0.

INVARIANT_TOL = 1e-6


def _phi_slip(kappa, h0, h):
    antiderivative = lambda s: s - s * np.log(s)  # of |ln s| for s < 1
    return kappa * (antiderivative(h0) - antiderivative(h))


@pytest.mark.parametrize(
    "regime, t_max", [(SLIP, 10.0), (MIXED, 13.0), (MIXED, 50.0), (MIXED, 800.0)]
)
def test_every_row_keeps_the_momentum_integral(regime, t_max):
    kappa, G, h0, v0 = 1.0, 1.0, 0.25, 0.0
    traj = simulate(_params(G=G, kappa=kappa), regime, h0=h0, v0=v0, t_max=t_max)
    if regime is SLIP:
        assert traj.event.kind == EventKind.TOUCHDOWN
        phi = _phi_slip(kappa, h0, traj.h)
    else:
        phi = kappa * np.log(h0 / traj.h)
    invariant = np.array(traj.speeds) - phi + G * traj.t
    assert np.max(np.abs(invariant - v0)) <= INVARIANT_TOL


def _touchdown_reference(law, G, h0):
    """t* and impact speed of the (h, h') fall from rest under law, by
    DOP853 at rtol 1e-13."""
    touchdown = lambda t, y: y[0] - TOUCHDOWN_H
    touchdown.terminal, touchdown.direction = True, -1.0
    ref = scipy.integrate.solve_ivp(
        lambda t, y: (y[1], -law(max(y[0], 1e-300)) * y[1] - G), (0.0, 20.0),
        (h0, 0.0), method="DOP853", rtol=1e-13, atol=1e-16, events=touchdown,
    )
    return ref.t_events[0][0], abs(ref.y_events[0][0][1])


@pytest.mark.parametrize(
    "kappa, G, h0", [(1.0, 1.0, 0.25), (0.5, 2.0, 0.2), (2.0, 0.5, 0.3), (1.7, 0.6, 0.22)]
)
def test_slip_touchdown_matches_a_dop853_reference(kappa, G, h0):
    traj = simulate(_params(G=G, kappa=kappa), SLIP, h0=h0, t_max=10.0)
    t_star, speed = _touchdown_reference(drag_law(SLIP, "analytic", kappa), G, h0)
    assert traj.event.kind == EventKind.TOUCHDOWN
    assert traj.event.t == pytest.approx(t_star, abs=0.0, rel=2e-8)
    assert traj.event.speed == pytest.approx(speed, abs=0.0, rel=2e-8)


@pytest.mark.parametrize(
    "kappa, G", [(1.0, 1.0), (0.5, 2.0)], ids=["kappa=G=1", "kappa=0.5,G=2"]
)
def test_every_h_phase_row_matches_a_radau_reference(kappa, G):
    law = drag_law(MIXED, "analytic", kappa)
    traj = simulate(_params(G=G, kappa=kappa), MIXED, h0=0.25, t_max=50.0, law=law)
    _assert_rows_match_radau(traj, law, G, 0.25)


def _assert_rows_match_radau(traj, law, G, h0):
    """Every h-phase row of a fall from rest against a Radau rtol 1e-12
    dense output under law: h within 1e-7 relative, h' within 1e-7."""
    rows = len(traj) - 1  # the last row is the closed-form tail's
    assert traj.h[-1] < SWITCH_H
    ref = scipy.integrate.solve_ivp(
        lambda t, y: (y[1], -law(y[0]) * y[1] - G), (0.0, traj.t[rows - 1]),
        (h0, 0.0), method="Radau", rtol=1e-12, atol=1e-20, dense_output=True,
    )
    h, v = ref.sol(traj.t[:rows])
    assert np.max(np.abs(traj.h[:rows] / h - 1.0)) <= 1e-7
    assert np.max(np.abs(np.array(traj.speeds[:rows]) - v)) <= 1e-7


# ---------------------------------------------------------------- validation


def test_simulate_validates_inputs():
    with pytest.raises(ValueError, match="h0"):
        simulate(_params(), SLIP, h0=0.6, t_max=10.0)
    with pytest.raises(ValueError, match="h0"):
        simulate(_params(), SLIP, h0=0.0, t_max=10.0)
    with pytest.raises(ValueError, match="h0"):
        simulate(_params(), SLIP, h0=1e-13, t_max=10.0)
    with pytest.raises(ValueError, match="t_max"):
        simulate(_params(), SLIP, h0=0.25, t_max=0.0)
    with pytest.raises(ValueError, match="v0"):
        simulate(_params(), SLIP, h0=0.25, v0=math.inf, t_max=10.0)
    # an input error, not the StiffnessError a ValueError mid-solve becomes
    with pytest.raises(ValueError, match="^atol must be nonnegative$"):
        simulate(_params(), SLIP, h0=0.25, t_max=10.0, atol=-1.0)
    with pytest.raises(ValueError, match="leading coefficient"):
        simulate(_params(kappa=0.0), MIXED, h0=0.25, t_max=10.0)


def test_simulate_takes_only_a_drag_law():
    with pytest.raises(TypeError, match="DragLaw"):
        simulate(_params(), SLIP, h0=0.25, law=lambda h: 1.0, t_max=10.0)


# ---------------------------------------------------------------- scans


def test_touchdown_scan_slip_every_cell_touches():
    rows = touchdown_scan(SLIP, (0.5, 1.0), (1.0, 2.0), (0.1, 0.25), t_max=10.0)
    assert len(rows) == 8
    for row in rows:
        assert row.outcome == EventKind.TOUCHDOWN
        assert math.isfinite(row.t_star) and row.t_star > 0.0
        assert row.impact_speed > 0.0


def test_touchdown_scan_mixed_every_cell_avoids_contact():
    rows = touchdown_scan(MIXED, (1.0,), (1.0, 2.0), (0.1, 0.25), t_max=20.0)
    assert len(rows) == 4
    for row in rows:
        assert row.outcome == "NoContact"
        assert row.min_h > 0.0


def test_touchdown_scan_keeps_going_past_bad_cells():
    # h0 = 0.9 is out of range; at G = 1.7e308 a step carries h to 0 or
    # below, where the slip law's log(h) raises a math domain error
    rows = touchdown_scan(SLIP, (1.0,), (1.0, 1.7e308), (0.9, 0.25), t_max=10.0)
    assert [row.outcome for row in rows] == ["Error", EventKind.TOUCHDOWN, "Error", "Error"]
    assert "h0" in rows[0].error
    assert rows[3].error == (
        "float arithmetic failed from h0=0.25, v0=0.0: ValueError: math domain error"
    )


def test_touchdown_scan_turns_float_overflow_into_an_error_row():
    # at G = 5e-11 and an endless horizon the mixed rhs overflows mid-solve
    rows = touchdown_scan(MIXED, (1.0,), (5e-11, 1.0), (0.25,), t_max=1e300)
    assert rows[0].outcome == "Error"
    assert "OverflowError" in rows[0].error and "h0=0.25" in rows[0].error
    assert rows[1].outcome == "NoContact"



@pytest.mark.parametrize("regime", [SLIP, MIXED], ids=["slip", "mixed"])
def test_every_scan_cell_runs_at_exactly_its_G(regime, monkeypatch):
    # G = 1e308 overflowed a gravity built as g = 2 G; 5e-324 is subnormal
    seen = []

    def spied(params, *args, **kwargs):
        seen.append(params.G)
        return simulate(params, *args, **kwargs)

    monkeypatch.setattr(dynamics, "simulate", spied)
    Gs = (1e308, 5e-324, 1.0)
    rows = touchdown_scan(regime, (1.0,), Gs, (0.25,), t_max=10.0)
    assert seen == list(Gs)
    assert not any("nan" in row.error for row in rows)
