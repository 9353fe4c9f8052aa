"""The in-process workloads, drag-sweep and fall-scan, and their checks."""

import math
import time

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import solve_ivp

from gapflow.cli import AGREEMENT_WINDOW
from gapflow.drag import energy, exterior_constant, surface_drag
from gapflow.dynamics import touchdown_scan
from gapflow.profile import SlipRegime
from gapflow.quadrature import QuadratureSpec

from common import (
    ABS_TOL,
    FALL_RTOL,
    FLOOR_T_MAX,
    REFERENCE_S,
    REL_TOL,
    TOUCHDOWN_RTOL,
    drag_key,
    drag_regimes,
    drag_round,
    fall_key,
    fall_round,
    level_h,
    rel_close,
)

SPEC = QuadratureSpec(rel_tol=REL_TOL, abs_tol=ABS_TOL)
# a fall that reached gapflow.dynamics.U_FLOOR = -700 ends below this gap
FLOOR_H = math.exp(-699.0)


def make_regime(spec):
    kind, beta_S, beta_Omega = spec
    if kind == "slip":
        return SlipRegime.slip(beta_S, beta_Omega)
    return SlipRegime.mixed(beta_Omega)


FALL_REGIMES = {"slip": make_regime(("slip", 1.0, 1.0)), "mixed": make_regime(("mixed", 0.0, 1.0))}

_CAL_X = np.linspace(0.01, 0.2, 192)
_CAL_C = np.arange(1.0, 8.0)


class InProcess:
    """Shared by the in-process workloads: the host-speed calibration."""

    reference_s = REFERENCE_S["in_process"]

    def calibrate(self):
        """Seconds of a fixed kernel with gapflow's mix of small numpy
        arrays and interpreter overhead; it touches no gapflow code."""
        t0 = time.perf_counter()
        for _ in range(450):
            y = npoly.polyval(_CAL_X, _CAL_C) / (1.0 + _CAL_X * _CAL_X)
            float(np.sum(y * np.sqrt(1.0 - _CAL_X * _CAL_X) ** -3.0))
        return time.perf_counter() - t0


class DragSweep(InProcess):
    """One drag row per operation: energy plus surface_drag at (regime, h)."""

    name = "drag-sweep"

    def __init__(self, seed, reference=None):
        self.seed = seed
        self.regimes = {spec: make_regime(spec) for spec in drag_regimes(seed)}
        # drag_key -> (energy, surface_drag) pinned for this seed, if any
        self.reference = reference or {}
        self.seen = {}

    def setup(self):
        for regime in self.regimes.values():
            exterior_constant(regime)

    def round(self, k):
        return drag_round(self.seed, k)

    def run(self, op):
        spec, level = op
        regime, h = self.regimes[spec], level_h(level)
        return (
            energy(regime, h, spec=SPEC).total,
            surface_drag(regime, h, spec=SPEC).value,
        )

    def check(self, op, out):
        e, n = out
        if not (e > 0.0 and abs(n / e - 1.0) <= AGREEMENT_WINDOW):
            return f"surface_drag {n!r} and energy {e!r} disagree beyond {AGREEMENT_WINDOW}"
        key = drag_key(op)
        ref = self.reference.get(key)
        if ref is not None and not (rel_close(e, ref[0]) and rel_close(n, ref[1])):
            return f"({e!r}, {n!r}) differs from the pinned {tuple(ref)}"
        if self.seen.setdefault(key, out) != out:
            return f"repeated input gave {out}, earlier {self.seen[key]}"
        return None

    def final_check(self, done):
        """Ops whose energy does not rise as h falls within their regime."""
        by_regime = {}
        for (spec, level), out in done:
            by_regime.setdefault(spec, {})[level] = out[0]
        bad = {}
        for spec, energies in by_regime.items():
            levels = sorted(energies)  # ascending level is falling h
            for a, b in zip(levels, levels[1:]):
                if not energies[b] > energies[a]:
                    for level in (a, b):
                        bad[(spec, level)] = (
                            f"energy does not rise from h={level_h(a)!r} to h={level_h(b)!r}"
                        )
        return bad


def _cal_rhs(t, y):
    return (y[1], -30.0 * y[1] - 2.0 * y[0] - 1.0)


class FallScan(InProcess):
    """One touchdown_scan cell per operation."""

    name = "fall-scan"
    reference_s = REFERENCE_S["fall_scan"]

    def __init__(self, seed, reference=None):
        self.seed = seed
        # fall_key -> fall_values pinned for this seed, if any
        self.reference = reference or {}
        self.seen = {}

    def setup(self):
        pass

    def calibrate(self):
        """Seconds of a fixed stiff solve with a Python right-hand side, the
        mix of a fall; the numpy kernel tracks a fall's speed poorly."""
        t0 = time.perf_counter()
        solve_ivp(_cal_rhs, (0.0, 20.0), (1.0, 0.0), method="Radau", rtol=1e-9, atol=1e-12)
        return time.perf_counter() - t0

    def round(self, k):
        return fall_round(self.seed, k)

    def run(self, op):
        kind, t_max, kappa, G, h0 = op
        return touchdown_scan(FALL_REGIMES[kind], [kappa], [G], [h0], t_max=t_max)[0]

    def check(self, op, row):
        error = check_fall(op, row.outcome, row.impact_speed, row.min_h)
        if error:
            return error
        values, key = fall_values(row), fall_key(op)
        ref = self.reference.get(key)
        if ref is not None and not same_fall(values, ref):
            return f"{values} differs from the pinned {tuple(ref)}"
        if self.seen.setdefault(key, values) != values:
            return f"repeated input gave {values}, earlier {self.seen[key]}"
        return None

    def final_check(self, done):
        return {}


def fall_values(row):
    """(outcome, t_star, impact_speed, min_h), None for an undefined value."""
    numbers = (row.t_star, row.impact_speed, row.min_h)
    return (row.outcome, *(None if math.isnan(x) else x for x in numbers))


def same_fall(values, ref):
    if values[0] != ref[0]:
        return False
    for i, (a, b) in enumerate(zip(values[1:], ref[1:])):
        rtol = TOUCHDOWN_RTOL if i == 2 and values[0] == "Touchdown" else FALL_RTOL
        if (a is None) != (b is None) or (a is not None and not rel_close(a, b, rtol)):
            return False
    return True


def check_fall(op, outcome, impact_speed, min_h):
    kind, t_max = op[0], op[1]
    if kind == "slip":
        if outcome != "Touchdown" or not impact_speed > 0.0:
            return f"slip cell ended {outcome} with impact speed {impact_speed!r}"
        return None
    if outcome != "NoContact":
        return f"mixed cell ended {outcome}"
    if t_max == FLOOR_T_MAX and not min_h <= FLOOR_H:
        return f"mixed cell stopped at h={min_h!r}, above the ln h = -700 floor"
    return None
