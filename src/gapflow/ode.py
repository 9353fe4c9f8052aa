"""Initial-value integration of one real state, in Python floats.

For a single state, scipy's ``solve_ivp`` spends nearly all of its time in
per-step array and LAPACK overhead on 1 x 1 systems.  This module ports
the two methods the fall uses to plain floats and the ``math`` module:

* ``RK45``: the Dormand-Prince 5(4) pair with Shampine's quartic dense
  output (scipy.integrate.RK45);
* ``BDF``: variable-order (1-5) NDF with a quasi-constant step size,
  Shampine & Reichelt (1997), "The MATLAB ODE Suite" (scipy.integrate.BDF),
  with a user Jacobian.

Both keep scipy 1.17's tableau, NDF constants, Newton tolerance, step-size
factors, order selection and first step, with no bound on the step size,
and the meaning of ``rtol`` and ``atol``: a step is accepted when its
error estimate is below atol + rtol |y|.  On the same problem they take the
same steps as scipy, up to the rounding of BLAS sums.  Where scipy would
loop forever or raise from inside LAPACK or brentq, the run fails with a
message instead: on a nan step size (scipy's RK45 retries it forever), on
a Newton matrix 1 - c J that is zero or not finite, and on an event whose
sign change over a step is not one on the step's dense output.

``solve`` drives either stepper as ``solve_ivp`` does with terminal
events: one row per accepted step, and where an event function changes
sign in its direction over a step, the root on the step's dense output by
Brent's method (xtol = rtol = 4 eps, as ``scipy.optimize.brentq``) ends
the run there.  Unlike ``solve_ivp`` it takes at most MAX_STEPS steps,
so a run too stiff for its stepper fails instead of running for ever.

The per-step loops are written for the interpreter: ``BDF.step`` inlines
its Newton iterations and its sums, ``_change_D`` skips R's zero column
and reads row 0 of R U from a table, and ``solve`` reads its events from
lists built once.  Every float operation and its order are scipy's, so
rows, events and counters keep their bits; float sums run from 0.0 left
to right (``_sum``), never through ``sum`` or ``math.fsum``.
"""

import math
import sys
from operator import mul
from typing import NamedTuple

EPS = sys.float_info.epsilon
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# accepted steps one solve may take: about 12 s of a fall on a 2-core machine
MAX_STEPS = 1_000_000


class Solution(NamedTuple):
    """Rows of an integration and how it ended.

    ``status`` is 0 at t_bound, 1 at the terminal event ``event`` (its
    index), -1 when a step failed, with ``message`` saying why.  ``steps``
    counts accepted steps; ``nfev``, ``njev`` and ``nlu`` count right-hand
    side and Jacobian evaluations and Newton matrix factorizations.
    """

    t: list
    y: list
    status: int
    event: int | None
    message: str
    steps: int
    nfev: int
    njev: int
    nlu: int


class _Stepper:
    """State, counters and first step shared by the two methods."""

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        if atol < 0.0:
            raise ValueError("atol must be nonnegative")
        self.fun, self.t_bound = fun, t_bound
        self.rtol, self.atol = max(rtol, 100.0 * EPS), atol
        self.t, self.y, self.t_old = t0, y0, None
        self.f = fun(t0, y0)
        self.nfev, self.njev, self.nlu = 1, 0, 0
        self.message = ""
        self.h_abs = self._initial_step()

    def _initial_step(self):
        """Hairer, Norsett & Wanner's empirical first step (Sec. II.4)."""
        t0, y0, f0 = self.t, self.y, self.f
        interval = abs(self.t_bound - t0)
        scale = self.atol + abs(y0) * self.rtol
        d0, d1 = abs(y0 / scale), abs(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = self.fun(t0 + h0, y0 + h0 * f0)
        self.nfev += 1
        d2 = abs((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1.0 / (self.error_order + 1))
        return min(100.0 * h0, h1, interval)

    def _fail(self, message):
        self.message = message
        return False


# Dormand-Prince 5(4): nodes, stages, weights, error weights and the
# dense-output matrix of scipy's RK45 (columns of P are powers 1..4 of x)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
SAFETY = 0.9


class RK45(_Stepper):
    """Explicit Runge-Kutta 5(4) of Dormand and Prince, local extrapolation."""

    error_order = 4

    def step(self):
        fun, t, y, f = self.fun, self.t, self.y, self.f
        rtol, atol = self.rtol, self.atol
        (a10,), (a20, a21), (a30, a31, a32) = _A[1:4]
        (a40, a41, a42, a43), (a50, a51, a52, a53, a54) = _A[4:]
        # the step size to try first, raised to 10 float spacings at t
        min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(self.h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # also ends a nan step size
                return self._fail("required step size is less than spacing between numbers")
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)
            k2 = fun(t + _C[1] * h, y + (f * a10) * h)
            k3 = fun(t + _C[2] * h, y + (f * a20 + k2 * a21) * h)
            k4 = fun(t + _C[3] * h, y + (f * a30 + k2 * a31 + k3 * a32) * h)
            k5 = fun(t + _C[4] * h, y + (f * a40 + k2 * a41 + k3 * a42 + k4 * a43) * h)
            k6 = fun(t + h, y + (f * a50 + k2 * a51 + k3 * a52 + k4 * a53 + k5 * a54) * h)
            y_new = y + h * (f * _B[0] + k3 * _B[2] + k4 * _B[3] + k5 * _B[4] + k6 * _B[5])
            f_new = fun(t + h, y_new)
            self.nfev += 6
            scale = atol + max(abs(y), abs(y_new)) * rtol
            error = (f * _E[0] + k3 * _E[2] + k4 * _E[3] + k5 * _E[4] + k6 * _E[5]
                     + f_new * _E[6]) * h
            error_norm = abs(error / scale)
            if error_norm < 1.0:
                factor = MAX_FACTOR
                if error_norm != 0.0:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** -0.2)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** -0.2)
            rejected = True
        self.k = (f, k2, k3, k4, k5, k6, f_new)
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        return True

    def dense_output(self):
        """y(s) on the last step, by the quartic in x = (s - t_old) / h."""
        q = [_sum(k * row[j] for k, row in zip(self.k, _P)) for j in range(4)]
        t_old, y_old, h = self.t_old, self.y_old, self.t - self.t_old

        def sol(s):
            x = (s - t_old) / h
            p1 = x
            p2 = p1 * x
            p3 = p2 * x
            p4 = p3 * x
            return y_old + h * (q[0] * p1 + q[1] * p2 + q[2] * p3 + q[3] * p4)

        return sol


def _sum(terms):
    """Left-to-right float sum from 0.0, as numpy's dot and sum for a few terms."""
    total = 0.0
    for x in terms:
        total += x
    return total


# NDF constants of scipy's BDF: kappa, gamma_k = sum_{j<=k} 1/j, alpha and
# the error constants, orders 0..5
MAX_ORDER = 5
NEWTON_MAXITER = 4
_KAPPA = (0.0, -0.1850, -1 / 9, -0.0823, -0.0415, 0.0)
_GAMMA = (0.0, *(_sum(1 / j for j in range(1, k + 1)) for k in range(1, MAX_ORDER + 1)))
_ALPHA = tuple((1.0 - k) * g for k, g in zip(_KAPPA, _GAMMA))
_ERROR_CONST = tuple(k * g + 1 / (i + 1) for i, (k, g) in enumerate(zip(_KAPPA, _GAMMA)))


def _compute_R(order, factor):
    """The matrix that rescales the differences array by factor (scipy's
    compute_R): R[i][j] = prod_{m=1..i} (m - 1 - factor j) / m."""
    R = [[1.0] * (order + 1)]
    for m in range(1, order + 1):
        R.append([0.0] + [R[-1][j] * ((m - 1 - factor * j) / m) for j in range(1, order + 1)])
    return R


# R at factor 1, upper triangular, per order; row 0 of R is all ones, so
# row 0 of R U is U's column sums, and columns 1..order of U below row 0
_U = tuple(_compute_R(order, 1) for order in range(MAX_ORDER + 1))
_RU0 = tuple(tuple(_sum(U[k][j] for k in range(j + 1)) for j in range(len(U))) for U in _U)
_U_COLUMNS = tuple(
    tuple(tuple(U[k][j] for k in range(1, j + 1)) for j in range(1, len(U))) for U in _U
)


def _change_D(D, order, factor):
    """Rescale the differences D[0..order] in place to a step size times
    factor: D <- (R U)^T D, with R U formed first as scipy does (the
    rounding of that product steers the step-size controller).

    R is built a row at a time; each entry of R U and of the result is
    the sum, from 0.0 and left to right, of scipy's products, less the
    products R[i][0] U[0][j] = +0.0 of the rows i >= 1."""
    D0, columns = D[0], _U_COLUMNS[order]
    new = [0.0 + RU * D0 for RU in _RU0[order]]
    R = [1.0] * order  # R[i][1..order]
    for i in range(1, order + 1):
        R = [r * ((i - 1 - factor * j) / i) for j, r in enumerate(R, 1)]
        Di = D[i]
        new[0] += 0.0 * Di
        for j, column in enumerate(columns, 1):
            RU = 0.0
            for product in map(mul, R, column):
                RU += product
            new[j] += RU * Di
    D[: order + 1] = new


class BDF(_Stepper):
    """Variable-order NDF with quasi-constant step size and a user Jacobian
    jac(t, y) = d fun / d y."""

    error_order = 1

    def __init__(self, fun, jac, t0, y0, t_bound, rtol, atol):
        super().__init__(fun, t0, y0, t_bound, rtol, atol)
        self.newton_tol = max(10.0 * EPS / rtol, min(0.03, rtol**0.5))
        self.jac, self.J = jac, jac(t0, y0)
        self.njev = 1
        self.D = [0.0] * (MAX_ORDER + 3)
        self.D[0], self.D[1] = y0, self.f * self.h_abs
        self.order, self.n_equal_steps, self.LU = 1, 0, None

    def step(self):
        t, D, order = self.t, self.D, self.order
        fun, isfinite, nfev, tol = self.fun, math.isfinite, self.nfev, self.newton_tol
        # the step size to try first, raised to 10 float spacings at t
        min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        if h_abs != self.h_abs:
            _change_D(D, order, h_abs / self.h_abs)
            self.n_equal_steps = 0
        rtol, atol = self.rtol, self.atol
        J, LU, current_jac = self.J, self.LU, False
        alpha, gamma = _ALPHA[order], _GAMMA[1:]
        while True:
            if not h_abs >= min_step:  # also ends a nan step size
                self.nfev = nfev
                return self._fail("required step size is less than spacing between numbers")
            t_new = t + h_abs
            if t_new > self.t_bound:
                t_new = self.t_bound
                _change_D(D, order, abs(t_new - t) / h_abs)
                self.n_equal_steps = 0
                LU = None
            h = t_new - t
            h_abs = abs(h)
            # y_predict = D[0] + ... + D[order] and psi, each summed from 0.0
            y_predict, psi = 0.0 + D[0], 0.0
            for Di, gamma_i in zip(D[1 : order + 1], gamma):
                y_predict += Di
                psi += Di * gamma_i
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
                # iterations; d = y_new - y_predict
                d, y_new, converged = 0.0, y_predict, False
                for k in range(NEWTON_MAXITER):
                    f = fun(t_new, y_new)
                    nfev += 1
                    if not isfinite(f):
                        break
                    dy = (c * f - psi - d) / LU
                    dy_norm = abs(dy / scale)
                    if k:
                        rate = dy_norm / dy_norm_old
                        if rate >= 1.0 or rate ** (NEWTON_MAXITER - k) / (1.0 - rate) * dy_norm > tol:
                            break
                    y_new += dy
                    d += dy
                    if dy_norm == 0.0 or k and rate / (1.0 - rate) * dy_norm < tol:
                        converged = True
                        break
                    dy_norm_old = dy_norm
                if converged or current_jac:
                    break
                J = self.jac(t_new, y_predict)
                self.njev += 1
                LU, current_jac = None, True
            if not converged:
                h_abs *= 0.5
                _change_D(D, order, 0.5)
                self.n_equal_steps = 0
                LU = None
                continue
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + k + 1)
            scale = atol + rtol * abs(y_new)
            error_norm = abs(_ERROR_CONST[order] * d / scale)
            if not error_norm > 1.0:
                break
            factor = max(MIN_FACTOR, safety * error_norm ** (-1 / (order + 1)))
            h_abs *= factor
            _change_D(D, order, factor)
            self.n_equal_steps = 0

        self.nfev = nfev
        self.n_equal_steps += 1
        self.t_old, self.t, self.y = t, t_new, y_new
        self.h_abs, self.J, self.LU = h_abs, J, LU
        # D^{j+1} y_n = D^j y_n - D^j y_{n-1}, with d = D^{order+1} y_n
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in range(order, -1, -1):
            D[i] += D[i + 1]
        if self.n_equal_steps < order + 1:
            return True

        # the order among order - 1, order, order + 1 that allows the
        # largest next step, the first of equals; an error norm of 0
        # allows any step, an order outside 1..MAX_ORDER none
        best, change = 0.0, -1  # at order 1, inf ** -1.0
        if order > 1:
            norm = abs(_ERROR_CONST[order - 1] * D[order] / scale)
            best = norm ** (-1 / order) if norm else math.inf
        factor = error_norm ** (-1 / (order + 1)) if error_norm else math.inf
        if factor > best:
            best, change = factor, 0
        if order < MAX_ORDER:
            norm = abs(_ERROR_CONST[order + 1] * D[order + 2] / scale)
            factor = norm ** (-1 / (order + 2)) if norm else math.inf
            if factor > best:
                best, change = factor, 1
        self.order = order = order + change
        factor = min(MAX_FACTOR, safety * best)
        self.h_abs *= factor
        _change_D(D, order, factor)
        self.n_equal_steps = 0
        self.LU = None
        return True

    def dense_output(self):
        """y(s) on the last step, from the interpolating polynomial of the
        differences at the step size to come."""
        t, h, order = self.t, self.h_abs, self.order
        D = self.D[: order + 1]

        def sol(s):
            p, total = 1.0, 0.0
            for i in range(order):
                p *= (s - (t - h * i)) / (h * (1 + i))
                total += D[i + 1] * p
            return total + D[0]

        return sol


def _brentq(f, a, b):
    """A root of f in [a, b] by Brent's method, as scipy.optimize.brentq at
    xtol = rtol = 4 eps; None when f(a) and f(b) have the same sign."""
    xtol = rtol = 4 * EPS
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        return None
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur


def solve(stepper, events):
    """Step from the stepper's state to t_bound or the first terminal event.

    Parameters
    ----------
    stepper : RK45 or BDF
    events : sequence of (g, direction)
        Event functions g(t, y), all terminal; direction -1 fires where g
        falls through 0, +1 where it rises through 0.

    Returns
    -------
    Solution
        Status -1 also when MAX_STEPS steps end short of t_bound and of
        every event.
    """
    t, y = stepper.t, stepper.y
    ts, ys = [t], [y]
    functions = [event for event, _ in events]
    falls = [direction < 0 for _, direction in events]
    g = [event(t, y) for event in functions]
    step, t_bound = stepper.step, stepper.t_bound
    status, fired, steps = None, None, 0
    while status is None:
        if steps == MAX_STEPS:
            stepper.message = f"the step budget MAX_STEPS = {MAX_STEPS} ran out"
            status = -1
            break
        if not step():
            status = -1
            break
        steps += 1
        t_old, t, y = stepper.t_old, stepper.t, stepper.y
        if t >= t_bound:
            status = 0
        g_new = [event(t, y) for event in functions]
        active = []
        for i in range(len(g)):
            old, new = g[i], g_new[i]
            if (old >= 0.0 >= new) if falls[i] else (old <= 0.0 <= new):
                active.append(i)
        if active:
            sol = stepper.dense_output()
            roots = []
            for i in active:
                event = events[i][0]
                root = _brentq(lambda s: event(s, sol(s)), t_old, t)
                if root is None:
                    stepper.message = "an event changed sign over the step, not on its dense output"
                    status = -1
                    break
                roots.append((root, i))
            else:
                t, fired = min(roots)
                y = sol(t)
                status = 1
        g = g_new
        if status != -1:
            ts.append(t)
            ys.append(y)
    return Solution(
        ts, ys, status, fired, stepper.message,
        steps, stepper.nfev, stepper.njev, stepper.nlu,
    )
