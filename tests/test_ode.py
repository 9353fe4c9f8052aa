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
# a stop event that never falls through 0 and an escape that never rises
NO_EVENTS = (lambda t, y: 1.0, lambda t, y: -1.0)


def _equation_of(regime, kappa, G, h0, v0):
    model, a = drag_law(regime, "analytic", kappa).deep
    P = model.primitive(a)
    return _equation(model, a, P, G, v0 + P(h0), H_MAX_DEFAULT, RTOL_DEFAULT)


def _scipy(regime, kappa, G, h0, v0, t_max):
    rhs, jac, stop, escape, _ = _equation_of(regime, kappa, G, h0, v0)
    wrapped = []
    for g, direction in ((stop, -1.0), (escape, 1.0)):
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


def _stepper(regime, kappa, G, h0, v0, t_max):
    """The fall's stepper at its initial state, with its two events."""
    rhs, jac, stop, escape, _ = _equation_of(regime, kappa, G, h0, v0)
    if jac is None:
        stepper = RK45(rhs, 0.0, h0, t_max, RTOL_DEFAULT, ATOL_DEFAULT)
    else:
        stepper = BDF(rhs, jac, 0.0, math.log(h0), t_max, RTOL_DEFAULT, ATOL_DEFAULT)
    return stepper, stop, escape


def _ported(*case):
    return solve(*_stepper(*case))


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
    # BDF.step also passes factors outside [MIN_FACTOR, MAX_FACTOR]: the
    # t_bound clip |t_new - t| / h_abs, down to nearly 0, and the raise to
    # the minimum step h_abs / self.h_abs, up to any size
    for order in range(1, ode.MAX_ORDER + 1):
        for factor in (1e-9, 1e-3, 1e3, 1e6):
            for _ in range(20):
                D = [rng.choice((0.0, -0.0, rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-20, 3)))
                     for _ in range(ode.MAX_ORDER + 3)]
                ours, ref = list(D), list(D)
                ode._change_D(ours, order, factor)
                _change_D_reference(ref, order, factor)
                assert all(map(math.isfinite, ours)), (order, factor, D)
                assert _bits(ours) == _bits(ref), (order, factor, D)


def _predict_reference(D, order):
    """BDF.step's predictor as its loop over D and gamma, each sum from 0.0
    and left to right: the form ode._PREDICT must match bit for bit."""
    y_predict, psi = 0.0 + D[0], 0.0
    for Di, gamma_i in zip(D[1 : order + 1], ode._GAMMA[1:]):
        y_predict += Di
        psi += Di * gamma_i
    return [y_predict, psi]


def _update_reference(D, order, d):
    """BDF.step's update of the differences as its loop: the form
    ode._UPDATE must match bit for bit."""
    D[order + 2] = d - D[order + 1]
    D[order + 1] = d
    for i in range(order, -1, -1):
        D[i] += D[i + 1]


def test_the_predictor_and_update_keep_the_bits_of_their_loops():
    rng = random.Random(20261019)
    special = (0.0, -0.0, math.inf, -math.inf, math.nan)
    for order in range(1, ode.MAX_ORDER + 1):
        for trial in range(300):
            # +-0.0 or +-10^x, x uniform in [-20, 3]; every other trial may
            # also draw +-inf and nan, and compares by repr: an inf or nan
            # spreads to the same entries, but a nan's sign bit may follow
            # the interpreter's operand order
            finite = trial % 2 == 0
            draws = [rng.choice((*special[: 2 if finite else 5],
                                 rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-20, 3)))
                     for _ in range(ode.MAX_ORDER + 4)]
            D, d = draws[:-1], draws[-1]
            same = _bits if finite else lambda values: list(map(repr, values))
            assert same(ode._PREDICT[order - 1](D)) == same(_predict_reference(D, order)), D
            ours, ref = list(D), list(D)
            ode._UPDATE[order - 1](ours, d)
            _update_reference(ref, order, d)
            assert same(ours) == same(ref), (order, D, d)


@pytest.mark.parametrize(
    "functions, arguments",
    [(ode._RESCALE, ("D", "factor")), (ode._PREDICT, ("D",)), (ode._UPDATE, ("D", "d"))],
    ids=["rescale", "predict", "update"],
)
def test_the_straight_line_code_reads_only_its_arguments_and_literals(functions, arguments):
    # no global, builtin or attribute; the int constants index D
    for order, function in enumerate(functions, 1):
        code = function.__code__
        assert code.co_names == () and code.co_varnames[: code.co_argcount] == arguments, order
        assert {type(c) for c in code.co_consts} <= {float, int, type(None)}, order


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
    sol = solve(stepper, *NO_EVENTS)
    assert (sol.status, sol.steps, sol.nlu) == (-1, 0, 1)
    assert "Newton matrix" in sol.message and sol.t == [0.0]


# ------------------------------------------------- named events of solve


class _Walk:
    """A stepper for solve: y = t in unit steps from 0 to t_bound, with
    the dense output ``sol`` over every step."""

    def __init__(self, t_bound, sol=lambda s: s):
        self.t = self.y = 0.0
        self.t_old, self.t_bound, self.sol = None, t_bound, sol
        self.message, self.nfev, self.njev, self.nlu = "", 0, 0, 0

    def step(self):
        self.t_old, self.t = self.t, self.t + 1.0
        self.y = self.t
        return True

    def dense_output(self):
        return self.sol


@pytest.mark.parametrize(
    "stop_at, escape_at, fired",
    [(0.25, 0.75, 0), (0.75, 0.25, 1), (0.5, 0.5, 0)],
    ids=["stop-first", "escape-first", "tie"],
)
def test_two_events_over_one_step_end_at_the_earlier_root(stop_at, escape_at, fired):
    # both change sign over the first step; the earlier root ends the run,
    # stop's on a tie, as min over (root, index)
    stop, escape = (lambda t, y: stop_at - y), (lambda t, y: y - escape_at)
    roots = (_brentq(lambda s: stop(s, s), 0.0, 1.0), _brentq(lambda s: escape(s, s), 0.0, 1.0))
    assert roots == (stop_at, escape_at)
    sol = solve(_Walk(10.0), stop, escape)
    assert (sol.status, sol.event, sol.steps, sol.message) == (1, fired, 1, "")
    assert sol.t == sol.y == [0.0, min(roots)]


@pytest.mark.parametrize("event", ["stop", "escape"])
def test_a_sign_change_off_the_dense_output_fails_the_run(event):
    # y crosses 0.5 over the first step, but the dense output stays at 0
    stop, escape = NO_EVENTS
    if event == "stop":
        stop = lambda t, y: 0.5 - y
    else:
        escape = lambda t, y: y - 0.5
    sol = solve(_Walk(10.0, sol=lambda s: 0.0), stop, escape)
    assert (sol.status, sol.event, sol.steps, sol.t) == (-1, None, 1, [0.0])
    assert sol.message == "an event changed sign over the step, not on its dense output"


# (steps, nfev, njev, nlu) of two falls that FALL_DIGESTS pins
FALL_WORK = {"mixed-default": (228, 702, 64, 104), "slip": (51, 476, 0, 0)}


@pytest.mark.parametrize("case", FALL_WORK)
def test_solve_evaluates_each_event_once_a_step(case, monkeypatch):
    # a deterministic work gate: outside the root search, stop and escape
    # run once at the start and once per accepted step
    calls = {"stop": 0, "escape": 0}
    searching = []

    def counted(name, g):
        def event(t, y):
            if not searching:
                calls[name] += 1
            return g(t, y)
        return event

    def brentq(*args):
        searching.append(True)
        try:
            return _brentq(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(ode, "_brentq", brentq)
    stepper, stop, escape = _stepper(*CASES[case])
    sol = solve(stepper, counted("stop", stop), counted("escape", escape))
    assert (sol.status, sol.event) == (1, 0)
    assert calls == {"stop": sol.steps + 1, "escape": sol.steps + 1}
    assert (sol.steps, sol.nfev, sol.njev, sol.nlu) == FALL_WORK[case]


# ------------------------------------------- BDF's written-out Newton


class _LoopNewtonBDF(BDF):
    """BDF with its step as it was before its Newton iterations were
    written out: one loop over k = 0..NEWTON_MAXITER - 1.  It records in
    ``exits`` each way a Newton solve ended."""

    def __init__(self, *args):
        self.exits = set()
        super().__init__(*args)

    def step(self):
        t, D, order = self.t, self.D, self.order
        fun, isfinite, nfev, tol = self.fun, math.isfinite, self.nfev, self.newton_tol
        # the step size to try first, raised to 10 float spacings at t
        min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        if h_abs != self.h_abs:
            ode._change_D(D, order, h_abs / self.h_abs)
            self.n_equal_steps = 0
        rtol, atol = self.rtol, self.atol
        J, LU, current_jac = self.J, self.LU, False
        alpha, predict = ode._ALPHA[order], ode._PREDICT[order - 1]
        while True:
            if not h_abs >= min_step:  # also ends a nan step size
                self.nfev = nfev
                return self._fail("required step size is less than spacing between numbers")
            t_new = t + h_abs
            if t_new > self.t_bound:
                t_new = self.t_bound
                ode._change_D(D, order, abs(t_new - t) / h_abs)
                self.n_equal_steps = 0
                LU = None
            h = t_new - t
            h_abs = abs(h)
            y_predict, psi = predict(D)
            scale = atol + rtol * abs(y_predict)
            psi /= alpha
            c = h / alpha
            while True:
                if LU is None:
                    LU = 1.0 - c * J
                    self.nlu += 1
                    if not (LU and isfinite(LU)):
                        self.nfev = nfev
                        message = f"Newton matrix 1 - c J = {LU!r} is not invertible (J = {J!r})"
                        return self._fail(message)
                # simplified Newton iterations on the NDF equation, in k + 1
                # iterations; d = y_new - y_predict; each exit is recorded
                d, y_new, converged = 0.0, y_predict, False
                for k in range(ode.NEWTON_MAXITER):
                    f = fun(t_new, y_new)
                    nfev += 1
                    if not isfinite(f):
                        self.exits.add("non-finite f at k = 0" if k == 0 else "non-finite f")
                        break
                    dy = (c * f - psi - d) / LU
                    dy_norm = abs(dy / scale)
                    if k:
                        rate = dy_norm / dy_norm_old
                        if rate >= 1.0 or (
                            rate ** (ode.NEWTON_MAXITER - k) / (1.0 - rate) * dy_norm > tol
                        ):
                            self.exits.add(("rate >= 1" if rate >= 1.0 else "slow rate", k))
                            break
                    y_new += dy
                    d += dy
                    if dy_norm == 0.0 or k and rate / (1.0 - rate) * dy_norm < tol:
                        converged = True
                        self.exits.add(("converged", k))
                        break
                    dy_norm_old = dy_norm
                if converged or current_jac:
                    break
                J = self.jac(t_new, y_predict)
                self.njev += 1
                LU, current_jac = None, True
            if not converged:
                self.exits.add("halved")
                h_abs *= 0.5
                ode._change_D(D, order, 0.5)
                self.n_equal_steps = 0
                LU = None
                continue
            safety = ode._SAFETY[k]
            scale = atol + rtol * abs(y_new)
            error_norm = abs(ode._ERROR_CONST[order] * d / scale)
            if not error_norm > 1.0:
                break
            factor = max(ode.MIN_FACTOR, safety * error_norm ** (-1 / (order + 1)))
            h_abs *= factor
            ode._change_D(D, order, factor)
            self.n_equal_steps = 0

        self.nfev = nfev
        self.n_equal_steps += 1
        self.t_old, self.t, self.y = t, t_new, y_new
        self.h_abs, self.J, self.LU = h_abs, J, LU
        # D^{j+1} y_n = D^j y_n - D^j y_{n-1}, with d = D^{order+1} y_n
        ode._UPDATE[order - 1](D, d)
        if self.n_equal_steps < order + 1:
            return True

        # the order among order - 1, order, order + 1 that allows the
        # largest next step, the first of equals; an error norm of 0
        # allows any step, an order outside 1..MAX_ORDER none
        best, change = 0.0, -1  # at order 1, inf ** -1.0
        if order > 1:
            norm = abs(ode._ERROR_CONST[order - 1] * D[order] / scale)
            best = norm ** (-1 / order) if norm else math.inf
        factor = error_norm ** (-1 / (order + 1)) if error_norm else math.inf
        if factor > best:
            best, change = factor, 0
        if order < ode.MAX_ORDER:
            norm = abs(ode._ERROR_CONST[order + 1] * D[order + 2] / scale)
            factor = norm ** (-1 / (order + 2)) if norm else math.inf
            if factor > best:
                best, change = factor, 1
        self.order = order = order + change
        factor = min(ode.MAX_FACTOR, safety * best)
        self.h_abs *= factor
        ode._change_D(D, order, factor)
        self.n_equal_steps = 0
        self.LU = None
        return True


# (fun, jac, y0, t_bound) of stiff scalar ODEs, at rtol 1e-6 and atol 1e-9;
# between them their Newton solves end in every way the loop has
NEWTON_CASES = {
    # f = -0.0: dy is +-0.0 in iteration 0, where d = 0.0 + dy is +0.0
    # as the loop's d += dy makes it, and D shows the sign of d
    "constant": (lambda t, y: -0.0, lambda t, y: 0.0, 1.0, 1.0),
    # a ripple of slope 1e5 beside a Jacobian of -1e3: the rate of each
    # iteration varies, and Newton converges slowly or not at all
    "rough": (lambda t, y: -1e3 * (y - math.cos(t)) + math.sin(1e5 * y),
              lambda t, y: -1e3, 1.0, 0.1),
    # f is nan below y = 0, where a long step's iterates overshoot
    "decay-to-a-wall": (lambda t, y: -100.0 * y if y > 0.0 else math.nan,
                        lambda t, y: -10.0, 1.0, 1.0),
}
NEWTON_EXITS = {
    *(("converged", k) for k in range(ode.NEWTON_MAXITER)),
    *(("slow rate", k) for k in range(1, ode.NEWTON_MAXITER)),
    ("rate >= 1", 1), ("rate >= 1", 2), "non-finite f", "halved",
}


def test_the_written_out_newton_keeps_the_bits_of_its_loop():
    exits = set()
    for name, (fun, jac, y0, t_bound) in NEWTON_CASES.items():
        loop = _LoopNewtonBDF(fun, jac, 0.0, y0, t_bound, 1e-6, 1e-9)
        ours = BDF(fun, jac, 0.0, y0, t_bound, 1e-6, 1e-9)
        ref, sol = solve(loop, *NO_EVENTS), solve(ours, *NO_EVENTS)
        assert ref.status == 0, name
        assert _bits(sol.t) == _bits(ref.t) and _bits(sol.y) == _bits(ref.y), name
        assert (sol.steps, sol.nfev, sol.njev, sol.nlu) == (ref.steps, ref.nfev, ref.njev, ref.nlu)
        assert _bits(ours.D) == _bits(loop.D) and ours.order == loop.order, name
        exits |= loop.exits
    assert exits >= NEWTON_EXITS


def test_the_last_newton_iteration_fails_at_a_rate_of_one_or_more():
    # a faint ripple of slope 1e5 beside a Jacobian of -10: some solves
    # reach iteration 3 with a rate >= 1, which only its convergence test
    # now rejects
    def fun(t, y):
        return -10.0 * (y - math.cos(t)) + 0.01 * math.sin(1e7 * y)

    loop = _LoopNewtonBDF(fun, lambda t, y: -10.0, 0.0, 1.0, 1e-3, 1e-6, 1e-9)
    ours = BDF(fun, lambda t, y: -10.0, 0.0, 1.0, 1e-3, 1e-6, 1e-9)
    ref, sol = solve(loop, *NO_EVENTS), solve(ours, *NO_EVENTS)
    assert ("rate >= 1", 3) in loop.exits
    assert ref.status == 0
    assert _bits(sol.t) == _bits(ref.t) and _bits(sol.y) == _bits(ref.y)
    assert (sol.steps, sol.nfev, sol.njev, sol.nlu) == (ref.steps, ref.nfev, ref.njev, ref.nlu)
    assert _bits(ours.D) == _bits(loop.D) and ours.order == loop.order


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
