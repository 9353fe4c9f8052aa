"""Reduced contact dynamics: h'' = -D(h) h' - G down to touchdown.

The gap width h(t) of a heavy sphere settling onto a wall obeys a damped
fall with gap-dependent drag.  Since D(h) h' = -d/dt Phi(h) with
Phi(h) = int_h^h0 D(s) ds, the fall from (h0, v0) has the first integral

    h' = v0 + Phi(h) - G t,

so contact in finite time needs Phi(0) < inf.  The two drag laws produced
by the gap analysis fall on either side:

* slip: D(h) = kappa |ln h|, Phi(0) finite; the sphere reaches the wall
  in finite time with impact speed G t* - v0 - Phi(0) > 0.
* mixed: D(h) = kappa / h, Phi(0) = inf; ln h falls linearly in t and
  contact never happens.

``drag_law`` builds D from a regime's ``profile.ScalingModel``, which
also gives P with P' = D in closed form, so Phi(h) = P(h0) - P(h).  The
fall reads only the law's (model, a), never its callable D: ``simulate``
integrates the first integral, one scalar ODE, never (h, h'), with the
float steppers of ``ode``.  The log law D = a |ln h| runs it in h by
the embedded 4(5) Runge-Kutta pair, with events for touchdown
(h = 1e-12) and escape (h = h_max).  The inverse law D = a/h
runs it in u = ln h, u' = (v0 + Phi(h) - G t) / h, by variable-order BDF
with the analytic Jacobian, which it leaves at the first state with
h <= SWITCH_H and h' <= 0 where h' is slaved to gravity: within a factor
4 of -G h / a, or so fast that the rest of its coast, h / |h'|, is
shorter than the integrator resolves in t (eps t / rtol).  It starts
there when (h0, v0) is such a state.  From that entry gap h_s, h' stays
<= 0 (at h' = 0, h'' = -G), and the first integral fixes

    a ln h + h' + G t = v0 + a ln h0.

With h' slaved to gravity, h' = -G h / a, ln h is affine in t and
reaches the floor ln h = -700 when G t is that constant plus 700 a: a
NoContact run, not an error.  An entry so fast that this time precedes
it coasts through the floor within h / |h'| of the entry.
"""

import math
from functools import cached_property
from typing import NamedTuple

from .model import (
    ATOL_DEFAULT,
    H_MAX_DEFAULT,
    RTOL_DEFAULT,
    TOUCHDOWN_H,
    FallParameters,
    RegimeKind,
    ScalingModel,
    StiffnessError,
)
from .ode import BDF, EPS, RK45, solve

SWITCH_H = 1e-6
U_FLOOR = -700.0


class EventKind:
    TOUCHDOWN = "Touchdown"
    NO_CONTACT = "NoContact"
    ESCAPED = "Escaped"


class TerminalEvent(NamedTuple):
    """How a trajectory ended: kind, time, gap, and speed at that moment."""

    kind: str
    t: float
    h: float
    speed: float
    note: str = ""


class _Trajectory(NamedTuple):
    times: tuple
    gaps: tuple
    speeds: tuple
    event: TerminalEvent
    steps: int = 0
    nfev: int = 0
    njev: int = 0
    nlu: int = 0


class Trajectory(_Trajectory):
    """Rows (t, h, h') of the integrator and of the tail, held as the
    float columns ``times``, ``gaps`` and ``speeds``, the terminal event,
    and the integrator's counters: accepted steps, right-hand side and
    Jacobian evaluations, and Newton matrix factorizations (all 0 for a
    fall that starts in the closed-form tail).

    ``t`` and ``h`` are the first two columns as numpy arrays, built (and
    numpy imported) when first read: the fall itself runs without numpy.
    Unlike the other records it keeps a ``__dict__``, where the two
    arrays are cached, and its ``len`` is its row count.
    """

    def __new__(cls, times, gaps, speeds, event, steps=0, nfev=0, njev=0, nlu=0):
        if not (len(times) == len(gaps) == len(speeds)) or len(times) == 0:
            raise ValueError("Trajectory arrays must be nonempty and aligned")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("Trajectory times must be strictly increasing")
        if any(x <= 0.0 for x in gaps):
            raise ValueError("Trajectory gaps must stay positive")
        return super().__new__(cls, times, gaps, speeds, event, steps, nfev, njev, nlu)

    def __len__(self):
        return len(self.times)

    @cached_property
    def t(self):
        import numpy as np

        return np.array(self.times)

    @cached_property
    def h(self):
        import numpy as np

        return np.array(self.gaps)


class DragLaw(NamedTuple):
    """Callable drag law h -> D(h) with its deep-gap asymptotic model.

    ``deep`` is (model, a): the ScalingModel D follows as h -> 0 and its
    coefficient, a |ln h| or a / h; the inverse law sends simulate into
    its BDF solve in ln h and the closed-form tail.  simulate reads only
    ``deep``; the callable does not enter the fall.
    """

    kind: str  # "analytic"
    regime_kind: RegimeKind
    deep: tuple
    fn: callable

    def __call__(self, h):
        return self.fn(h)


def drag_law(regime, source, kappa):
    """Build the analytic drag law D(h) for a regime.

    Parameters
    ----------
    regime : SlipRegime
        Slip gives kappa |ln h|, mixed kappa / h.
    source : "analytic"
        The only source.
    kappa : float
        Prefactor of the law.

    Returns
    -------
    DragLaw
    """
    if source != "analytic":
        raise ValueError("source must be 'analytic'")
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")

    model = ScalingModel.of(regime.kind)
    return DragLaw("analytic", regime.kind, (model, kappa), lambda h: model.drag(kappa, h))


def _tail(t_s, h_s, v_s, conserved, a, G, t_max):
    """The terminal event of an inverse-law fall, in closed form from its
    entry state and the conserved a ln h + h' + G t; its
    (t, h, speed) is the one row the tail adds."""
    # without gravity h' tends to 0 and h to rest above the floor
    t_floor = (conserved - a * U_FLOOR) / G if G else math.inf
    floor = f"gap fell below the representable range (ln h = {U_FLOOR:g})"
    if t_floor <= t_s:
        # a coast too short to resolve in t passes the floor at about h'_s;
        # at rest (h'_s = 0), a (ln h_s + 700) / G, the time left to the
        # floor, is below the spacing of floats at t_s
        coast = f"within h/|h'| = {h_s / abs(v_s):.3g} after t" if v_s else "at t"
        note = f"{floor} {coast}; no contact"
        return TerminalEvent(EventKind.NO_CONTACT, t_s, h_s, v_s, note)
    if t_floor < t_max:
        t_end, h, note = t_floor, math.exp(U_FLOOR), f"{floor}; no contact"
    else:
        t_end, h, note = t_max, h_s, ""
        # fixed point in h; each pass shrinks the error by about G h / a^2
        for _ in range(2):
            v = -G * h / a
            h = math.exp((conserved - v - G * t_max) / a)
    v = -G * h / a if G else 0.0
    return TerminalEvent(EventKind.NO_CONTACT, t_end, h, v, note)


def _equation(model, a, P, G, top, h_max, rtol):
    """The fall's scalar ODE as (rhs, jac, stop, escape, speed).

    ``P`` is ``model.primitive(a)``, ``top`` is h' + P(h) + G t, constant
    along the fall, and speed(t, h) the h' it gives.  A log law integrates
    y = h and has no jac; an inverse law integrates y = u = ln h with the
    analytic Jacobian.  ``stop`` and ``escape`` are the two terminal events
    of ``ode.solve``: ``stop`` falls through 0 at touchdown (log) or at the
    tail entry (inverse), ``escape`` rises through 0 at h = h_max.
    """

    # rhs, jac and tail spell speed(t, h) out: one call fewer per evaluation
    if model is ScalingModel.LOG:
        speed = lambda t, h: top - P(h) - G * t
        # trial stages of the step that brackets touchdown may probe h <= 0
        rhs = lambda t, y: top - P(max(y, TOUCHDOWN_H)) - G * t
        touchdown = lambda t, y: y - TOUCHDOWN_H
        escape = lambda t, y: y - h_max
        return rhs, None, touchdown, escape, speed

    # and the inverse law's P(h) = a ln h too, with P's operations
    exp, log = math.exp, math.log
    speed = lambda t, h: top - a * log(h) - G * t

    def rhs(t, u):
        h = exp(u)
        return (top - a * log(h) - G * t) / h

    def jac(t, u):
        # d/du of u' = speed / h is -u' - D(h), D(h) = a / h
        h = exp(u)
        return -((top - a * log(h) - G * t) / h) - a / h

    # a coast shorter than eps t / rtol is below what BDF resolves at t
    resolution = EPS / rtol
    u_switch, u_max = math.log(SWITCH_H), math.log(h_max)

    def tail(t, u):
        # <= 0 where the tail may start: h <= SWITCH_H, h' <= 0 and h'
        # slaved to gravity, or its coast too short to resolve in t
        h = exp(u)
        v = top - a * log(h) - G * t
        slaved = -v - 4.0 * G * h / a
        unresolved = h + resolution * t * v
        return max(u - u_switch, v, min(slaved, unresolved))

    escape = lambda t, u: u - u_max
    return rhs, jac, tail, escape, speed


def simulate(
    params,
    regime,
    h0,
    v0=0.0,
    *,
    t_max,
    law=None,
    rtol=RTOL_DEFAULT,
    atol=ATOL_DEFAULT,
    h_max=H_MAX_DEFAULT,
):
    """Integrate the damped fall from (h0, v0) until an event or t_max.

    Parameters
    ----------
    params : FallParameters
    regime : SlipRegime
        Selects the analytic drag law when ``law`` is None.
    h0, v0 : float
        Initial gap (must lie in (touchdown, h_max)) and velocity.
    t_max : float
    law : DragLaw, optional
        Custom drag, of which the fall reads only ``law.deep``; anything
        else raises TypeError.
    rtol, atol
        Tolerances of the integrator, which integrates h (log law) or
        u = ln h (inverse law, so rtol and atol bound the relative error of
        h).  Every h' row, and the impact speed, comes from
        h' = v0 + Phi(h) - G t, off by D(h) times the error of h: about
        1e-8 for kappa / h at the defaults.

    Returns
    -------
    Trajectory
        Terminal event Touchdown (with impact speed), Escaped, or
        NoContact (t_max reached, or the ln h = U_FLOOR floor), and the
        integrator's counters.  Inverse-law runs end in the closed-form
        tail once h <= SWITCH_H with h' <= 0 and slaved to gravity: it adds
        one row, at t_max or at the floor, and reports NoContact, never
        Touchdown.

    Raises
    ------
    StiffnessError
        When a step fails: its size falls below the spacing of floats at
        t, or the Newton matrix is singular or not finite; when the solve
        takes ode.MAX_STEPS steps; also when float arithmetic divides by
        zero, overflows or leaves a math function's domain inside the
        integrator or the closed-form tail.
    """
    if not (TOUCHDOWN_H < h0 < h_max):
        raise ValueError(f"h0 must lie in ({TOUCHDOWN_H}, {h_max})")
    if not math.isfinite(v0):
        raise ValueError("v0 must be finite")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if atol < 0.0:
        raise ValueError("atol must be nonnegative")
    if law is None:
        law = drag_law(regime, "analytic", params.kappa)
    if not isinstance(law, DragLaw):
        raise TypeError(f"law must be a DragLaw, not {type(law).__name__}")
    model, a = law.deep
    if model is ScalingModel.INVERSE and a <= 0.0:
        raise ValueError("inverse drag law needs a positive leading coefficient")
    G = params.G
    P = model.primitive(a)
    top = v0 + P(h0)
    rhs, jac, stop, escape, speed = _equation(model, a, P, G, top, h_max, rtol)
    stiff = jac is not None
    y0 = math.log(h0) if stiff else h0

    event, counts = None, {}
    try:
        if stiff and stop(0.0, y0) <= 0.0:
            t, h, v = [0.0], [h0], [v0]
        else:
            if stiff:
                stepper = BDF(rhs, jac, 0.0, y0, t_max, rtol, atol)
            else:
                stepper = RK45(rhs, 0.0, y0, t_max, rtol, atol)
            sol = solve(stepper, stop, escape)
            counts = dict(steps=sol.steps, nfev=sol.nfev, njev=sol.njev, nlu=sol.nlu)
            t, h = sol.t, list(map(math.exp, sol.y)) if stiff else sol.y
            v = list(map(speed, t, h))
            t_end, h_end, v_end = t[-1], h[-1], v[-1]
            if sol.status == -1:
                raise StiffnessError(
                    f"integrator stalled at t={t_end:.6g} (h={h_end:.3e}, "
                    f"h'={v_end:.3e}): {sol.message}"
                )
            if sol.event == 0 and not stiff:
                event = TerminalEvent(EventKind.TOUCHDOWN, t_end, h_end, abs(v_end))
            elif sol.event == 1:
                event = TerminalEvent(EventKind.ESCAPED, t_end, h_end, v_end)
            elif sol.status == 0:
                event = TerminalEvent(EventKind.NO_CONTACT, t_end, h_end, v_end)
        if event is None:
            event = _tail(t[-1], h[-1], v[-1], top, a, G, t_max)
    except (ArithmeticError, ValueError) as exc:
        raise StiffnessError(
            f"float arithmetic failed from h0={h0!r}, v0={v0!r}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if event.t > t[-1]:  # the tail's row; a solver event ends on the last row
        t, h, v = t + [event.t], h + [event.h], v + [event.speed]
    return Trajectory(tuple(t), tuple(h), tuple(v), event, **counts)


class ScanRow(NamedTuple):
    """One touchdown_scan cell: inputs, outcome, and diagnostics."""

    kappa: float
    G: float
    h0: float
    outcome: str  # "Touchdown" | "NoContact" | "Escaped" | "Error"
    t_star: float = math.nan
    impact_speed: float = math.nan
    min_h: float = math.nan
    error: str = ""


def _scan_cell(regime, kappa, G, h0, t_max, rtol, atol, h_max):
    try:
        params = FallParameters(rho_S=1.0, rho_F=0.0, g=G, kappa=kappa)
        traj = simulate(
            params, regime, h0, t_max=t_max, rtol=rtol, atol=atol, h_max=h_max
        )
    except (ValueError, StiffnessError) as exc:
        return ScanRow(kappa=kappa, G=G, h0=h0, outcome="Error", error=str(exc))
    ev = traj.event
    if ev.kind == EventKind.TOUCHDOWN:
        return ScanRow(
            kappa=kappa, G=G, h0=h0, outcome=EventKind.TOUCHDOWN,
            t_star=ev.t, impact_speed=ev.speed, min_h=min(traj.gaps),
        )
    return ScanRow(kappa=kappa, G=G, h0=h0, outcome=ev.kind, min_h=min(traj.gaps))


def touchdown_scan(
    regime,
    kappas,
    Gs,
    h0s,
    t_max,
    rtol=RTOL_DEFAULT,
    atol=ATOL_DEFAULT,
    h_max=H_MAX_DEFAULT,
):
    """Simulate every (kappa, G, h0) cell and tabulate the outcomes.

    Effective gravity G is realized as g = G at rho_S = 1, rho_F = 0,
    exact for every finite G; h_max is simulate's escape height.  Cells
    run one after another in the input grid order; failures become Error
    rows and the scan continues.
    """
    return tuple(
        _scan_cell(regime, k, G, h0, t_max, rtol, atol, h_max)
        for k in kappas
        for G in Gs
        for h0 in h0s
    )
