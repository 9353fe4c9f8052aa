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

``solve`` drives either stepper as ``solve_ivp`` does with the fall's
two terminal events, ``stop`` falling through 0 and ``escape`` rising
through 0: one row per accepted step, and where an event changes sign in
its direction over a step, the root on the step's dense output by
Brent's method (xtol = rtol = 4 eps, as ``scipy.optimize.brentq``) ends
the run there.  Unlike ``solve_ivp`` it takes at most MAX_STEPS steps,
so a run too stiff for its stepper fails instead of running for ever.

The per-step code is written for the interpreter, with no loop where a
step runs it.  ``solve`` evaluates its two named events once a step and
tests each sign change by one chained comparison.  ``BDF.step`` writes
its simplified Newton iterations k = 0..3 out one after the other.  BDF's
three loops over its differences D are no loops at all: at
each order 1-5 a straight-line function does their work, because the
interpreter spends several times as much per float operation on a loop
over D as on the same operations written out.  ``_rescale_<k>``, the
rescale of ``_change_D``, is written from the U table at import
(``_rescale_source``), every order's in one text, and built by one
``compile`` call; ``_predict_<k>`` (the predictor and the psi sum) and
``_update_<k>`` (the differences after an accepted step) are short
enough to be written out in this module, whose bytecode cache holds
them.  Every float operation and its order are scipy's, so rows,
events and counters keep their bits; float sums run from 0.0 left to
right (``_sum``, or written out), never through ``sum`` or ``math.fsum``.
"""

import math
import sys
from typing import NamedTuple

EPS = sys.float_info.epsilon
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# accepted steps one solve may take: 10 to 13 s of an RK45 fall (`fall simulate
# --kappa 1e6`, which runs out of it) on a 2-core machine
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
# the step-size safety factor after a Newton solve that ended in iteration k
_SAFETY = tuple(
    0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + k + 1) for k in range(NEWTON_MAXITER)
)


def _compute_R(order, factor):
    """The matrix that rescales the differences array by factor (scipy's
    compute_R): R[i][j] = prod_{m=1..i} (m - 1 - factor j) / m."""
    R = [[1.0] * (order + 1)]
    for m in range(1, order + 1):
        R.append([0.0] + [R[-1][j] * ((m - 1 - factor * j) / m) for j in range(1, order + 1)])
    return R


# R at factor 1, upper triangular, per order; row 0 of R is all ones, so
# row 0 of R U is U's column sums
_U = tuple(_compute_R(order, 1) for order in range(MAX_ORDER + 1))
_RU0 = tuple(tuple(_sum(U[k][j] for k in range(j + 1)) for j in range(len(U))) for U in _U)


def _rescale_source(order):
    """Source of ``_rescale_<order>(D, factor)``, the body of ``_change_D``
    at one order written out as straight-line code.

    Each entry of R (row i from row i - 1, as scipy's cumprod), of R U and
    of the result is one expression of scipy's operands in scipy's order,
    every sum from 0.0 and left to right, with U's entries and row 0 of
    R U as repr literals.  Each entry of R U is read once, so it is
    written in parentheses where the result reads it: a statement fewer
    to compile at import.  R's
    column 0 is dropped: for rows i >= 1 its products R[i][0] U[0][j] are
    +0.0, and adding them to 0.0 changes no bit.  At order 2 it reads, in
    part,

        D0, D1, D2 = D[:3]
        f1 = factor * 1.0
        ...
        R2_1 = R1_1 * ((1.0 - f1) / 2.0)
        ...
        D[2] = 0.0 + 0.0 * D0 + (0.0 + R1_1 * -2.0 + R1_2 * 1.0) * D1 + ...
    """
    U, RU0, n = _U[order], _RU0[order], range(1, order + 1)
    lines = [
        f"def _rescale_{order}(D, factor):",
        f"    {', '.join(f'D{i}' for i in range(order + 1))} = D[:{order + 1}]",
        *(f"    f{j} = factor * {j}.0" for j in n),
    ]
    for i in n:
        lines += (
            f"    R{i}_{j} = {f'R{i - 1}_{j}' if i > 1 else '1.0'} * (({i - 1}.0 - f{j}) / {i}.0)"
            for j in n
        )
    lines.append(f"    D[0] = 0.0 + {RU0[0]!r} * D0" + "".join(f" + 0.0 * D{i}" for i in n))
    for j in n:
        RU = "(0.0" + "".join(f" + R{{0}}_{k} * {U[k][j]!r}" for k in range(1, j + 1)) + ")"
        lines.append(
            f"    D[{j}] = 0.0 + {RU0[j]!r} * D0" + "".join(f" + {RU.format(i)} * D{i}" for i in n)
        )
    return "\n".join(lines) + "\n"


def _compile_rescale():
    """The functions ``_rescale_source`` defines for orders 1..MAX_ORDER,
    compiled from one text by one ``compile`` call."""
    namespace = {}
    source = "".join(map(_rescale_source, range(1, MAX_ORDER + 1)))
    exec(compile(source, "<gapflow.ode rescale>", "exec"), namespace)
    return tuple(namespace[f"_rescale_{order}"] for order in range(1, MAX_ORDER + 1))


# _rescale_<order> for orders 1..MAX_ORDER, built once
_RESCALE = _compile_rescale()


def _change_D(D, order, factor):
    """Rescale the differences D[0..order] in place to a step size times
    factor: D <- (R U)^T D, with R U formed first as scipy does (the
    rounding of that product steers the step-size controller).

    Each order runs its own straight-line function, built at import from
    the U table by ``_rescale_source``: in the interpreter, a loop over R,
    U and D over the same float operations takes about 5 times as long
    (order 5: 16.0 against 3.2 us a call, order 1: 1.7 against 0.3 us, on
    a 2-core machine).  Every entry of R U and of the result is the sum,
    from 0.0 and left to right, of scipy's products, so the result keeps
    scipy's bits."""
    _RESCALE[order - 1](D, factor)


# BDF.step's predictor and its update of the differences at each order
# k = 1..MAX_ORDER, written out.  _predict_<k>(D) is (y_predict, psi):
# y_predict = D[0] + ... + D[k] and psi = gamma_1 D[1] + ... + gamma_k D[k],
# gamma_i = _GAMMA[i] as repr literals, each summed from 0.0 and left to
# right.  _update_<k>(D, d), after an accepted step with d = D^{k+1} y_n,
# sets D[k + 2] = d - D[k + 1] and D[k + 1] = d, then D[i] += D[i + 1] for
# i from k down to 0, each new D[i] also held in a local for the next.
# The loops they replace took 2.2 to 3.6 times as long a call.  They are
# not generated at import as the rescale is, because the bytecode cache
# holds them here: generated, a cold `import gapflow.ode` took 5.1 ms
# instead of 4.1 ms (medians of 40, 2-core machine).


def _predict_1(D):
    return 0.0 + D[0] + D[1], 0.0 + D[1] * 1.0


def _predict_2(D):
    return 0.0 + D[0] + D[1] + D[2], 0.0 + D[1] * 1.0 + D[2] * 1.5


def _predict_3(D):
    return (
        0.0 + D[0] + D[1] + D[2] + D[3],
        0.0 + D[1] * 1.0 + D[2] * 1.5 + D[3] * 1.8333333333333333,
    )


def _predict_4(D):
    return (
        0.0 + D[0] + D[1] + D[2] + D[3] + D[4],
        0.0 + D[1] * 1.0 + D[2] * 1.5 + D[3] * 1.8333333333333333 + D[4] * 2.083333333333333,
    )


def _predict_5(D):
    return (
        0.0 + D[0] + D[1] + D[2] + D[3] + D[4] + D[5],
        0.0 + D[1] * 1.0 + D[2] * 1.5 + D[3] * 1.8333333333333333 + D[4] * 2.083333333333333
        + D[5] * 2.283333333333333,
    )


def _update_1(D, d):
    D[3] = d - D[2]
    D[2] = d
    D[1] = D1 = D[1] + d
    D[0] += D1


def _update_2(D, d):
    D[4] = d - D[3]
    D[3] = d
    D[2] = D2 = D[2] + d
    D[1] = D1 = D[1] + D2
    D[0] += D1


def _update_3(D, d):
    D[5] = d - D[4]
    D[4] = d
    D[3] = D3 = D[3] + d
    D[2] = D2 = D[2] + D3
    D[1] = D1 = D[1] + D2
    D[0] += D1


def _update_4(D, d):
    D[6] = d - D[5]
    D[5] = d
    D[4] = D4 = D[4] + d
    D[3] = D3 = D[3] + D4
    D[2] = D2 = D[2] + D3
    D[1] = D1 = D[1] + D2
    D[0] += D1


def _update_5(D, d):
    D[7] = d - D[6]
    D[6] = d
    D[5] = D5 = D[5] + d
    D[4] = D4 = D[4] + D5
    D[3] = D3 = D[3] + D4
    D[2] = D2 = D[2] + D3
    D[1] = D1 = D[1] + D2
    D[0] += D1


# indexed by order - 1, as _RESCALE
_PREDICT = (_predict_1, _predict_2, _predict_3, _predict_4, _predict_5)
_UPDATE = (_update_1, _update_2, _update_3, _update_4, _update_5)


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
        alpha, predict = _ALPHA[order], _PREDICT[order - 1]
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
                # simplified Newton iterations k = 0..NEWTON_MAXITER - 1 on
                # the NDF equation, written out; d = y_new - y_predict.  Each
                # break ends the solve, in iteration k.  Iteration 0 starts
                # from d = 0.0, so its c f - psi - d is c f - psi and its d
                # is 0.0 + dy; iterations 1 and 2 test the rate, with
                # rate ** (NEWTON_MAXITER - k) as a literal power.  Iteration
                # 3 needs no rate test: its convergence test fails wherever
                # that would break, and a failed solve reads no y_new or d
                converged = False
                while True:
                    k = 0
                    f = fun(t_new, y_predict)
                    nfev += 1
                    if not isfinite(f):
                        break
                    dy = (c * f - psi) / LU
                    dy_norm = abs(dy / scale)
                    y_new = y_predict + dy
                    d = 0.0 + dy
                    if dy_norm == 0.0:
                        converged = True
                        break
                    dy_norm_old = dy_norm

                    k = 1
                    f = fun(t_new, y_new)
                    nfev += 1
                    if not isfinite(f):
                        break
                    dy = (c * f - psi - d) / LU
                    dy_norm = abs(dy / scale)
                    rate = dy_norm / dy_norm_old
                    if rate >= 1.0 or rate**3 / (1.0 - rate) * dy_norm > tol:
                        break
                    y_new += dy
                    d += dy
                    if dy_norm == 0.0 or rate / (1.0 - rate) * dy_norm < tol:
                        converged = True
                        break
                    dy_norm_old = dy_norm

                    k = 2
                    f = fun(t_new, y_new)
                    nfev += 1
                    if not isfinite(f):
                        break
                    dy = (c * f - psi - d) / LU
                    dy_norm = abs(dy / scale)
                    rate = dy_norm / dy_norm_old
                    if rate >= 1.0 or rate**2 / (1.0 - rate) * dy_norm > tol:
                        break
                    y_new += dy
                    d += dy
                    if dy_norm == 0.0 or rate / (1.0 - rate) * dy_norm < tol:
                        converged = True
                        break
                    dy_norm_old = dy_norm

                    k = 3
                    f = fun(t_new, y_new)
                    nfev += 1
                    if not isfinite(f):
                        break
                    dy = (c * f - psi - d) / LU
                    dy_norm = abs(dy / scale)
                    rate = dy_norm / dy_norm_old
                    y_new += dy
                    d += dy
                    converged = rate < 1.0 and (
                        dy_norm == 0.0 or rate / (1.0 - rate) * dy_norm < tol)
                    break
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
            safety = _SAFETY[k]
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
        _UPDATE[order - 1](D, d)
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


def _first_root(sol, t_old, t, stop, escape, falls, rises):
    """The earlier root on the step's dense output sol of the events that
    changed sign over [t_old, t], as (root, 0) for stop and (root, 1) for
    escape, stop's on a tie, as min over (root, index) takes it; None when
    one of them changes sign over the step but not on sol.  stop's root is
    searched first, escape's only when stop's is found."""
    first = None
    if falls:
        root = _brentq(lambda s: stop(s, sol(s)), t_old, t)
        if root is None:
            return None
        first = (root, 0)
    if rises:
        root = _brentq(lambda s: escape(s, sol(s)), t_old, t)
        if root is None:
            return None
        if first is None or root < first[0]:
            first = (root, 1)
    return first


def solve(stepper, stop, escape):
    """Step from the stepper's state to t_bound or the first terminal event.

    Parameters
    ----------
    stepper : RK45 or BDF
    stop, escape : callable
        The two terminal event functions g(t, y), each evaluated once per
        accepted step: ``stop`` (event 0) fires where it falls through 0,
        ``escape`` (event 1) where it rises through 0.  When both fire
        over one step, the earlier root ends the run, ``stop`` on a tie.

    Returns
    -------
    Solution
        Status -1 also when MAX_STEPS steps end short of t_bound and of
        both events.
    """
    t, y = stepper.t, stepper.y
    ts, ys = [t], [y]
    g_stop, g_escape = stop(t, y), escape(t, y)
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
        t, y = stepper.t, stepper.y
        if t >= t_bound:
            status = 0
        new_stop, new_escape = stop(t, y), escape(t, y)
        if g_stop >= 0.0 >= new_stop or g_escape <= 0.0 <= new_escape:
            sol = stepper.dense_output()
            first = _first_root(
                sol, stepper.t_old, t, stop, escape,
                g_stop >= 0.0 >= new_stop, g_escape <= 0.0 <= new_escape,
            )
            if first is None:
                stepper.message = "an event changed sign over the step, not on its dense output"
                status = -1
            else:
                t, fired = first
                y = sol(t)
                status = 1
        g_stop, g_escape = new_stop, new_escape
        if status != -1:
            ts.append(t)
            ys.append(y)
    return Solution(
        ts, ys, status, fired, stepper.message,
        steps, stepper.nfev, stepper.njev, stepper.nlu,
    )
