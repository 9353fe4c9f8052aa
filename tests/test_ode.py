"""The float steppers against scipy, which serves here only as an oracle.

``gapflow.ode`` ports scipy's RK45, BDF, event location and brentq to one
float state.  On the fall's own right-hand side, Jacobian and events,
solve_ivp must take the same accepted steps and evaluations (within 5 %)
and end at the same terminal event.
"""

import hashlib
import math
import random
import struct

import pytest
import scipy.integrate
import scipy.optimize

from gapflow.dynamics import (
    ATOL_DEFAULT,
    RTOL_DEFAULT,
    SWITCH_H,
    _equation,
    drag_law,
    simulate,
    FallParameters,
    StiffnessError,
)
from gapflow.geometry import H_MAX_DEFAULT
from gapflow import ode
from gapflow.ode import BDF, EPS, RK45, _brentq, solve
from gapflow.profile import SlipRegime

SLIP = SlipRegime.slip(1.0, 1.0)
MIXED = SlipRegime.mixed(1.0)

WORK_RTOL = 0.05
EVENT_RTOL = 1e-8
TOUCHDOWN_ATOL = 1e-16


def _equation_of(regime, kappa, G, h0, v0):
    model, a = drag_law(regime, "analytic", kappa).deep
    P = model.primitive(a)
    return _equation(model, a, P, G, v0 + P(h0), H_MAX_DEFAULT, RTOL_DEFAULT)


def _scipy(regime, kappa, G, h0, v0, t_max):
    rhs, jac, events, _ = _equation_of(regime, kappa, G, h0, v0)
    wrapped = []
    for g, direction in events:
        event = lambda t, y, g=g: g(t, y[0])
        event.terminal, event.direction = True, direction
        wrapped.append(event)
    options = dict(rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT, events=wrapped)
    if jac is None:
        y0, method = h0, "RK45"
    else:
        y0, method = math.log(h0), "BDF"
        options["jac"] = lambda t, y: ((jac(t, y[0]),),)
    return scipy.integrate.solve_ivp(
        lambda t, y: (rhs(t, y[0]),), (0.0, t_max), (y0,), method=method, **options
    )


def _ported(regime, kappa, G, h0, v0, t_max):
    rhs, jac, events, _ = _equation_of(regime, kappa, G, h0, v0)
    if jac is None:
        stepper = RK45(rhs, 0.0, h0, t_max, RTOL_DEFAULT, ATOL_DEFAULT)
    else:
        stepper = BDF(rhs, jac, 0.0, math.log(h0), t_max, RTOL_DEFAULT, ATOL_DEFAULT)
    return solve(stepper, events)


# (regime, kappa, G, h0, v0, t_max): slip touchdowns and an escape; mixed
# falls to the tail entry from rest, fast below SWITCH_H (mixed-deep-fast),
# under weak gravity (mixed-slow-gravity, which reaches t_max), at kappa =
# 1e-2 (the fast entry) and 1e-4 (the coast), and an escape from below it
CASES = {
    "slip": (SLIP, 1.0, 1.0, 0.25, 0.0, 10.0),
    "slip-weak-drag": (SLIP, 0.5, 2.0, 0.2, 0.0, 10.0),
    "slip-strong-drag": (SLIP, 2.0, 0.5, 0.3, 0.0, 20.0),
    "slip-escape": (SLIP, 0.1, 1.0, 0.25, 1.0, 10.0),
    "mixed-default": (MIXED, 1.0, 1.0, 0.25, 0.0, 50.0),
    "mixed-heavy": (MIXED, 0.5, 2.0, 0.25, 0.0, 50.0),
    "mixed-deep-fast": (MIXED, 1.0, 1.0, SWITCH_H, -0.1, 50.0),
    "mixed-slow-gravity": (MIXED, 1.0, 1e-3, 1e-5, 0.0, 50.0),
    "mixed-fast-entry": (MIXED, 1e-2, 1.0, 0.25, 0.0, 50.0),
    "mixed-coast": (MIXED, 1e-4, 1.0, 0.25, 0.0, 50.0),
    "mixed-escape": (MIXED, 1.0, 1.0, 1e-7, 20.0, 50.0),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_the_ported_steppers_follow_solve_ivp(case):
    ref, sol = _scipy(*case), _ported(*case)
    assert ref.status >= 0 and sol.status >= 0
    assert sol.steps == pytest.approx(len(ref.t) - 1, rel=WORK_RTOL)
    assert sol.nfev == pytest.approx(ref.nfev, rel=WORK_RTOL)
    if sol.nlu:
        assert sol.njev == pytest.approx(ref.njev, rel=WORK_RTOL)
        assert sol.nlu == pytest.approx(ref.nlu, rel=WORK_RTOL)
    fired = [i for i, t in enumerate(ref.t_events) if t.size]
    assert fired == ([] if sol.event is None else [sol.event])
    assert sol.t[-1] == pytest.approx(ref.t[-1], abs=0.0, rel=EVENT_RTOL)
    h, h_ref = sol.y[-1], ref.y[0, -1]
    if case[0] is MIXED:
        h, h_ref = math.exp(h), math.exp(h_ref)
    # a touchdown gap is TOUCHDOWN_H up to |h'| times the root's tolerance
    # in t (4 eps t), some 1e-16 against 1e-12: agreement in h is absolute
    touchdown = case[0] is SLIP and sol.event == 0
    assert h == pytest.approx(h_ref, abs=TOUCHDOWN_ATOL if touchdown else 0.0, rel=EVENT_RTOL)


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_a_trajectory_carries_its_solver_counters(case):
    regime, kappa, G, h0, v0, t_max = case
    params = FallParameters(rho_S=2.0, rho_F=1.0, g=2.0 * G, kappa=kappa)
    traj = simulate(params, regime, h0, v0=v0, t_max=t_max)
    sol = _ported(*case)
    assert (traj.steps, traj.nfev, traj.njev, traj.nlu) == (
        sol.steps, sol.nfev, sol.njev, sol.nlu
    )
    assert list(traj.t[: sol.steps + 1]) == sol.t


def test_the_tableau_and_ndf_constants_are_scipys():
    rk = scipy.integrate.RK45
    assert ode._C == tuple(rk.C)
    assert ode._A[1:] == tuple(tuple(row[:s]) for s, row in enumerate(rk.A) if s)
    assert (ode._B, ode._E) == (tuple(rk.B), tuple(rk.E))
    assert ode._P == tuple(map(tuple, rk.P))
    bdf = scipy.integrate.BDF(lambda t, y: -y, 0.0, [1.0], 1.0)
    assert ode._GAMMA == tuple(bdf.gamma)
    assert ode._ALPHA == tuple(bdf.alpha)
    assert ode._ERROR_CONST == tuple(bdf.error_const)
    for order in range(ode.MAX_ORDER + 1):
        for factor in (0.5, 1.0, 1.7):
            R = scipy.integrate._ivp.bdf.compute_R(order, factor)
            assert ode._compute_R(order, factor) == R.tolist()


def _change_D_reference(D, order, factor):
    """scipy's D <- (R U)^T D as a triple loop over R, U and D, each sum
    from 0.0 and left to right: the form ode._change_D must match bit for
    bit."""
    R, U = ode._compute_R(order, factor), ode._U[order]
    n = order + 1
    new = [0.0] * n
    for i in range(n):
        for j in range(n):
            RU = 0.0
            for k in range(j + 1):
                RU += R[i][k] * U[k][j]
            new[j] += RU * D[i]
    D[:n] = new


def _bits(values):
    return struct.unpack(f"<{len(values)}q", struct.pack(f"<{len(values)}d", *values))


def test_change_D_keeps_the_bits_of_the_triple_loop():
    rng = random.Random(20261017)
    fixed = (0.5, 1.0, 10.0, ode.MIN_FACTOR, ode.MAX_FACTOR)
    factors = fixed + tuple(rng.uniform(0.2, 10.0) for _ in range(20))
    for order in range(1, ode.MAX_ORDER + 1):
        for factor in factors:
            for _ in range(20):
                # +-0.0 or +-10^x, x uniform in [-20, 3]
                D = [rng.choice((0.0, -0.0, rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-20, 3)))
                     for _ in range(ode.MAX_ORDER + 3)]
                ours, ref = list(D), list(D)
                ode._change_D(ours, order, factor)
                _change_D_reference(ref, order, factor)
                assert _bits(ours) == _bits(ref), (order, factor, D)
    # an inf or nan spreads to the same entries; a nan's sign bit may
    # follow the interpreter's operand order, so these compare by repr
    for order in range(1, ode.MAX_ORDER + 1):
        for _ in range(50):
            D = [rng.choice((math.inf, -math.inf, math.nan, rng.uniform(-1.0, 1.0)))
                 for _ in range(ode.MAX_ORDER + 3)]
            ours, ref, factor = list(D), list(D), rng.choice(factors)
            ode._change_D(ours, order, factor)
            _change_D_reference(ref, order, factor)
            assert list(map(repr, ours)) == list(map(repr, ref)), (order, D)


@pytest.mark.parametrize(
    "f, a, b",
    [(lambda x: x * x - 2.0, 0.0, 2.0), (math.cos, 0.0, 3.0),
     (lambda x: math.exp(x) - 1e-3, -20.0, 1.0), (lambda x: x**3 - 0.1, -1.0, 0.5),
     (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0)],
)
def test_brent_roots_match_scipy_brentq(f, a, b):
    assert _brentq(f, a, b) == scipy.optimize.brentq(f, a, b, xtol=4 * EPS, rtol=4 * EPS)


def test_brent_reports_a_missing_sign_change():
    assert _brentq(lambda x: x * x + 1.0, -1.0, 1.0) is None


def _fixed_steps(stepper, dt):
    """The stepper's final state after steps of size dt to t_bound: its
    error is never rejected at rtol = atol = 1e10, so each step is dt."""
    while stepper.t < stepper.t_bound:
        stepper.h_abs = dt
        assert stepper.step()
    return stepper.t, stepper.y


def test_convergence_order_at_least_four_on_constant_drag():
    # h'' = -c h' - G from rest, through its first integral h' = c (h0 - h) - G t
    c, G, h0, T = 2.0, 1.0, 0.25, 0.3
    h_exact = h0 + ((G / c) / c) * (1.0 - math.exp(-c * T)) - (G / c) * T
    v_exact = (G / c) * math.exp(-c * T) - G / c

    def speed(t, h):
        return c * h0 - c * h - G * t

    errors = []
    for n in (8, 16, 32):
        dt = T / n
        t, h = _fixed_steps(RK45(speed, 0.0, h0, T, 1e10, 1e10), dt)
        errors.append(abs(h - h_exact) + abs(speed(t, h) - v_exact))
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(order >= 4.0 for order in orders)


def test_free_fall_is_exact_for_the_embedded_pair():
    # h' = -t has a polynomial solution: integrated to roundoff regardless
    # of step size
    _, h = _fixed_steps(RK45(lambda t, h: -t, 0.0, 0.25, 0.5, 1e10, 1e10), 0.1)
    assert h == pytest.approx(0.25 - 0.5 * 0.5**2, abs=1e-12)


def test_a_nan_jacobian_fails_the_step():
    # the Newton matrix 1 - c J is nan at the first step
    stepper = BDF(lambda t, y: -y, lambda t, y: math.nan, 0.0, 1.0, 1.0, 1e-6, 1e-9)
    sol = solve(stepper, ())
    assert (sol.status, sol.steps, sol.nlu) == (-1, 0, 1)
    assert "Newton matrix" in sol.message and sol.t == [0.0]


# ----------------------------------------------------------- step budget


@pytest.mark.parametrize("case", ["slip", "mixed-default"])
def test_the_step_budget_ends_a_solve(case, monkeypatch):
    full = _ported(*CASES[case])
    monkeypatch.setattr(ode, "MAX_STEPS", full.steps // 2)
    sol = _ported(*CASES[case])
    assert (sol.status, sol.event, sol.steps) == (-1, None, full.steps // 2)
    assert f"MAX_STEPS = {full.steps // 2}" in sol.message
    assert sol.t == full.t[: sol.steps + 1]


def test_a_solve_may_end_on_its_last_budgeted_step(monkeypatch):
    full = _ported(*CASES["slip"])
    monkeypatch.setattr(ode, "MAX_STEPS", full.steps)
    sol = _ported(*CASES["slip"])
    assert (sol.status, sol.event, sol.t) == (full.status, full.event, full.t)


def test_a_fall_over_its_step_budget_raises_stiffness_error(monkeypatch):
    monkeypatch.setattr(ode, "MAX_STEPS", 10)
    params = FallParameters(rho_S=2.0, rho_F=1.0, g=2.0, kappa=1.0)
    with pytest.raises(StiffnessError, match="MAX_STEPS = 10") as info:
        simulate(params, SLIP, 0.25, t_max=10.0)
    assert all(f"{name}=" in str(info.value) for name in ("t", "h", "h'"))


# ------------------------------------------------------------ bit pin


def _fall_bits(regime, kappa, G, h0, v0, t_max):
    params = FallParameters(rho_S=2.0, rho_F=1.0, g=2.0 * G, kappa=kappa)
    traj = simulate(params, regime, h0, v0=v0, t_max=t_max)
    return repr((traj.times, traj.gaps, traj.speeds, traj.event,
                 traj.steps, traj.nfev, traj.njev, traj.nlu))


def _pin_grid():
    """40 falls over the span of perfbench's fall-scan: kappa and G / kappa
    log-uniform in [0.5, 2], h0 in [0.2, 0.3], both regimes, t_max 50 and
    1e4 (where a mixed fall reaches the ln h = -700 floor)."""
    rng = random.Random(20261017)
    cells = []
    for i in range(40):
        kappa = 0.5 * 4.0 ** rng.random()
        G = kappa * 0.5 * 4.0 ** rng.random()
        h0 = 0.2 + 0.1 * rng.random()
        cells.append((MIXED if i % 2 else SLIP, kappa, G, h0, 0.0, (50.0, 1e4)[i // 2 % 2]))
    return cells


# sha256 of the repr of each fall's rows, event and counters: a speed
# change to ode or dynamics must leave every bit of a fall alone
FALL_DIGESTS = {
    "cases": "ecd496b923ecb2eb3a0c64250e65f9e9b5c03e244e30f9e379851fba769ca972",
    "grid": "05f122c02f4755c07d2ae976a3d553cc04955db94d2f1729ca24d7fe356a21a5",
}


@pytest.mark.parametrize("name", FALL_DIGESTS)
def test_the_falls_keep_their_bits(name):
    cells = CASES.values() if name == "cases" else _pin_grid()
    text = "\n".join(_fall_bits(*cell) for cell in cells)
    assert hashlib.sha256(text.encode()).hexdigest() == FALL_DIGESTS[name]
