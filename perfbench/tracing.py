"""Spans around the benchmark's calls into gapflow's layers, and probes.

The traced run records a span around every call the benchmark makes into
a layer's public functions.  Below `drag`, `quadrature` reaches `field`
only through internal calls, so the traced run replays each drag row
itself: it calls integrate_gap and integrate_surface with the integrands
that energy and surface_drag evaluate, built from the public `field`
functions, with a span around each integrand call and each field call.
The replayed values must match energy and surface_drag.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory and are aggregated when the run ends.
"""

import math
import statistics
import time
from collections import Counter

import numpy as np

from gapflow.cli import ENVELOPE_SWEEP
from gapflow.drag import R_MAX_DEFAULT, energy, exterior_constant, surface_drag
from gapflow.dynamics import (
    SWITCH_H,
    DragLaw,
    FallParameters,
    drag_law,
    simulate,
    touchdown_scan,
)
from gapflow.field import aperture_frame, pressure, stokes_residual
from gapflow.geometry import gamma_s
from gapflow.profile import RegimeKind, SlipRegime, coefficients, psi_partials, weighted_sups
from gapflow.quadrature import (
    QuadratureError,
    classify_singular,
    integrate_gap,
    integrate_surface,
)

from common import OUTPUT_RTOL, rel_close
from inproc import FALL_REGIMES, SPEC, check_fall

perf = time.perf_counter


class Tracer:
    """In-memory spans (name, parent index, start, end) plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absorbed = {}  # span totals from traced child processes
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, self._stack[-1] if self._stack else -1, perf(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[3] = perf()

    def absorb(self, aggregate, counts):
        """Add the span totals and counters of a traced child process."""
        for name, values in aggregate.items():
            agg = self.absorbed.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                agg[i] += value
        self.counts.update(counts)

    def aggregate(self):
        """name -> [calls, total seconds, self seconds]."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: list(values) for name, values in self.absorbed.items()}
        for i, (name, parent, start, end) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - covered[i]
        return out


def guarded(tr, fn, *args):
    """(fn(*args), None), or (None, the error) if it raised; a
    QuadratureError is counted as one of the layer's errors."""
    try:
        return fn(*args), None
    except Exception as exc:  # the operation failed; the run goes on
        if isinstance(exc, QuadratureError):
            tr.counts["quadrature.errors"] += 1
        return None, f"raised {type(exc).__name__}: {exc}"


# ------------------------------------------------------------ drag replay


def _field(tr, name, fn):
    def traced(regime, h, r, z):
        tr.counts[f"{name}.points"] += np.broadcast(r, z).size
        return tr.call(name, fn, regime, h, r, z)

    return traced


def _integrate(tr, kind, integrand, *args, **kwargs):
    name = f"quadrature.{kind}"
    quad = integrate_gap if kind == "integrate_gap" else integrate_surface

    def f(*xs):
        tr.counts[f"{name}.evals"] += 1
        tr.counts[f"{name}.points"] += np.broadcast(*xs).size
        return tr.call("quadrature.integrand", integrand, *xs)

    res = tr.call(name, quad, f, *args, **kwargs)
    tr.counts[f"{name}.cells"] += res.cells
    return res


def replay_drag(tr, regime, h, spec, r_max=R_MAX_DEFAULT):
    """energy(...).total and surface_drag(...).value, integral by integral."""
    frame = _field(tr, "field.aperture_frame", aperture_frame)
    q_at = _field(tr, "field.pressure", pressure)
    residual = _field(tr, "field.stokes_residual", stokes_residual)
    slip = regime.kind is RegimeKind.SLIP
    scale = math.sqrt(h)
    ext = exterior_constant(regime)

    def gap(integrand):
        return _integrate(tr, "integrate_gap", integrand, h, r_max, spec)

    def surface(integrand, where):
        return _integrate(tr, "integrate_surface", integrand, where, r_max, spec, scale=scale)

    def on_sphere(r):
        r = np.asarray(r, dtype=float)
        return r, h + gamma_s(r), -r, np.sqrt(1.0 - r * r)

    def mismatch_sq(r):
        r, H, n_r, n_z = on_sphere(r)
        fr = frame(regime, h, r, H)
        return ((fr.u_z - 1.0) * n_r - fr.u_r * n_z) ** 2

    def wall_slip_sq(r):
        r = np.asarray(r, dtype=float)
        return frame(regime, h, r, np.zeros_like(r)).u_r ** 2

    grad = gap(lambda r, z: frame(regime, h, r, z).grad_sq).value
    sphere = (1.0 / regime.beta_S + 1.0) * surface(mismatch_sq, "sphere-cap").value if slip else 0.0
    wall = (1.0 / regime.beta_Omega) * surface(wall_slip_sq, "plane").value
    e_total = grad + sphere + wall + ext

    def volume_pair(r, z):
        fr = frame(regime, h, r, z)
        f_r, f_z = residual(regime, h, r, z)
        return f_r * fr.u_r + f_z * fr.u_z

    def wall_traction(r):
        r = np.asarray(r, dtype=float)
        z = np.zeros_like(r)
        fr, q = frame(regime, h, r, z), q_at(regime, h, r, z).q
        return 2.0 * fr.d_rz * fr.u_r + (2.0 * fr.du_z_dz - q) * fr.u_z

    def sphere_traction(r):
        r, H, n_r, n_z = on_sphere(r)
        fr, q = frame(regime, h, r, H), q_at(regime, h, r, H).q
        dn_r = fr.du_r_dr * n_r + fr.d_rz * n_z
        dn_z = fr.d_rz * n_r + fr.du_z_dz * n_z
        return (dn_r - q * n_r) * (-fr.u_r) + (dn_z - q * n_z) * (1.0 - fr.u_z)

    vol = gap(volume_pair).value
    diss = 2.0 * gap(lambda r, z: frame(regime, h, r, z).sym_grad_sq).value
    wall_t = surface(wall_traction, "plane").value
    sphere_t = surface(sphere_traction, "sphere-cap").value if slip else 0.0
    return e_total, vol + diss + wall_t + sphere_t + ext


def traced_drag(tr, regime, h, spec=SPEC):
    """A drag row under spans, then its replay; returns times and a check.

    The row itself is the untraced reference for the tracing overhead: the
    replay evaluates the same integrals with spans inside them.
    """
    t0 = perf()
    e = tr.call("drag.energy", energy, regime, h, spec=spec).total
    n = tr.call("drag.surface_drag", surface_drag, regime, h, spec=spec).value
    untraced = perf() - t0
    t0 = perf()
    e_r, n_r = replay_drag(tr, regime, h, spec)
    traced = perf() - t0
    tr.counts["trace.drag_rows"] += 1
    error = None
    if not (rel_close(e, e_r) and rel_close(n, n_r)):
        error = f"replay gave ({e_r!r}, {n_r!r}) for ({e!r}, {n!r}), beyond {OUTPUT_RTOL}"
    return {"values": (e, n), "untraced_s": untraced, "traced_s": traced, "error": error}


# ------------------------------------------------------------- fall cells


def traced_fall(tr, op):
    """A touchdown_scan cell, then the same fall under a counting DragLaw;
    returns the cell's row, times and a check of the counted fall."""
    kind, t_max, kappa, G, h0 = op
    regime = FALL_REGIMES[kind]
    t0 = perf()
    row = touchdown_scan(regime, [kappa], [G], [h0], t_max=t_max)[0]
    untraced = perf() - t0

    base = drag_law(regime, "analytic", kappa)
    law = DragLaw(base.kind, base.regime_kind, base.deep, lambda h: tr.call("dynamics.law", base, h))
    params = FallParameters(rho_S=2.0, rho_F=1.0, g=2.0 * G, kappa=kappa)
    t0 = perf()
    traj = tr.call(f"dynamics.simulate.{kind}", simulate, params, regime, h0, t_max=t_max, law=law)
    traced = perf() - t0
    deep = int(np.count_nonzero(traj.h < SWITCH_H))
    tr.counts["dynamics.steps.h_phase"] += len(traj) - deep
    tr.counts["dynamics.steps.log_phase"] += deep
    tr.counts["trace.fall_cells"] += 1

    ev = traj.event
    outcome = {"Touchdown": "Touchdown", "TimeLimit": "NoContact"}.get(ev.kind, ev.kind)
    error = check_fall(op, outcome, ev.speed if outcome == "Touchdown" else math.nan, float(traj.h.min()))
    if error is None and (outcome != row.outcome or float(traj.h.min()) != row.min_h):
        error = f"counting law changed the fall: {outcome} at min h {traj.h.min()!r}, untraced {row.outcome} at {row.min_h!r}"
    return {"row": row, "untraced_s": untraced, "traced_s": traced, "error": error}


# ----------------------------------------------------------------- probes


def _rate(fn, points, calls, batches=5):
    """Mpts/s of fn over the median of `batches` batches of `calls` calls."""
    times = []
    for _ in range(batches):
        t0 = perf()
        for _ in range(calls):
            fn()
        times.append(perf() - t0)
    return points * calls / statistics.median(times) / 1e6


def _median_time(fn, repeat=3):
    times = []
    for _ in range(repeat):
        t0 = perf()
        fn()
        times.append(perf() - t0)
    return statistics.median(times)


def probes(drag_regimes):
    """Micro-measurements of single layers at fixed inputs."""
    regime, h = SlipRegime.slip(1.0, 1.0), 1e-4
    # 16 radii x 12 heights: the points of one integrate_gap rule call
    r = np.geomspace(1e-3, R_MAX_DEFAULT, 16)[:, None]
    z = (h + gamma_s(r)) * np.linspace(0.02, 0.98, 12)[None, :]
    r192, z192 = np.broadcast_arrays(r, z)
    r192, z192 = r192.ravel(), z192.ravel()
    # 192 distinct radii on the wall: the per-point cost of the pressure tail
    r_wall = np.geomspace(1e-3, R_MAX_DEFAULT, 192)
    z_wall = np.zeros_like(r_wall)
    rng = np.random.default_rng(0)
    r1m = rng.uniform(0.0, R_MAX_DEFAULT, 10**6)
    z1m = rng.uniform(0.0, 1.0, 10**6) * (h + gamma_s(r1m))
    draws = [
        (SlipRegime.slip(*(10.0 ** rng.uniform(-3, 3, 2))), 10.0 ** rng.uniform(-6, -0.35), rng.uniform(0, 0.9))
        for _ in range(2000)
    ]

    def coefficient_draws():
        for reg, hh, rr in draws:
            coefficients(reg, hh, rr)

    def cold_exterior(reg):
        exterior_constant.cache_clear()
        t0 = perf()
        exterior_constant(reg)
        return perf() - t0

    metrics = {
        "profile.psi_partials.rate_192": _rate(lambda: psi_partials(regime, h, r192, z192), 192, 200),
        "profile.psi_partials.rate_1m": _rate(lambda: psi_partials(regime, h, r1m, z1m), 10**6, 1, 3),
        "field.pressure.rate_192": _rate(lambda: pressure(regime, h, r_wall, z_wall), 192, 5, 3),
        "profile.weighted_sups.busy_s": _median_time(
            lambda: [weighted_sups(regime, hh) for hh in ENVELOPE_SWEEP]
        ),
        "profile.coefficients.calls_per_s": len(draws) / _median_time(coefficient_draws),
        "quadrature.classify_singular.busy_s": _median_time(
            lambda: classify_singular(1.0, 1.0, R_MAX_DEFAULT, spec=SPEC)
        ),
        "drag.exterior_constant.cold_s": statistics.median(cold_exterior(reg) for reg in drag_regimes),
    }
    for reg in drag_regimes:  # leave the cache as set-up left it
        exterior_constant(reg)
    return metrics
