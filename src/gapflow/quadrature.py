"""Adaptive quadrature over the gap and its boundary surfaces.

A composite Gauss-Legendre rule drives a global adaptive bisection in the
radial variable (batched rounds, bounded by a roundoff floor and a cell
budget); the axial direction uses a fixed-order rule per cell because every
integrand of interest is polynomial in z up to smooth factors.  Initial
cells are graded geometrically toward r = 0, where the integrands peak on
the lubrication scale sqrt(h).

An integrand may stack several components along a leading axis; they
share one mesh, and each is held to its own tolerance.  Cell
contributions are accumulated with math.fsum, so results do not depend on
evaluation or summation order.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .geometry import PLANE, SPHERE_CAP, gamma_s, surface_measure
from .profile import ScalingModel

# Gauss-Legendre orders: per adaptive cell, and across the gap height.
# Psi is cubic in z, so the drag row's gap integrands (squared gradients
# and the residual pairing) have z-degree <= 6, which 4 points integrate
# exactly; a test checks every radial node against the 16-point rule.
RULE_ORDER = 16
Z_ORDER = 4
# Refinement bounds of _adaptive_1d: bisections per cell, cells, batch
# selection, roundoff
MAX_DEPTH = 28
MAX_CELLS = 2000
BATCH_FACTOR = 8.0
ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps

# a fit counts at R^2 >= FIT_R2_FLOOR; classify_singular takes gaps down
# to CLASSIFY_H_MIN
FIT_R2_FLOOR = 0.99
CLASSIFY_H_MIN = 1e-8


class QuadratureError(RuntimeError):
    """Tolerance not reached; carries the best estimate and its error bound."""

    def __init__(self, message, value, error, cells):
        super().__init__(message)
        self.value = value
        self.error = error
        self.cells = cells


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float
    abs_tol: float

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    cells: int


@lru_cache(maxsize=None)
def _gl_rule(order):
    return np.polynomial.legendre.leggauss(order)


def graded_cuts(r_max, scale):
    """Breakpoints [0, ..., r_max/4, r_max/2, r_max] geometric toward 0.

    Refinement stops once cells reach `scale`, the length below which the
    integrand is expected to be resolved (typically sqrt(h)).
    """
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    scale = max(scale, r_max * 2.0 ** -48)
    cuts = [r_max]
    while cuts[-1] > scale:
        cuts.append(cuts[-1] / 2.0)
    cuts.append(0.0)
    return list(reversed(cuts))


def _adaptive_1d(g, cuts, spec):
    """Global adaptive composite Gauss-Legendre integration of a vectorized g.

    g maps an ndarray of n abscissas to n integrand values (measure and
    angular factor included), or to a (k, n) stack of k components on one
    mesh, each held to rel_tol times its own magnitude (abs_tol floor).  A
    leaf cell's error is its coarse estimate less its two halves'; each
    round bisects, with one g call, every leaf below MAX_DEPTH within
    BATCH_FACTOR of the worst error/tolerance ratio, until each component's
    fsum of cell errors meets its tolerance.  Returns an IntegralResult, or
    a tuple of k for a stacked g.  QuadratureError names the failing
    components and the reason: a non-finite estimate, a tolerance below
    ROUNDOFF_FLOOR times sum |cell values|, MAX_DEPTH, or MAX_CELLS cells.
    """
    x, w = _gl_rule(RULE_ORDER)

    def rule(lo, hi, parts):
        # the rule on every cell [lo_i, hi_i] from one g call: (k, parts, n)
        half = 0.5 * (hi - lo)
        vals = np.asarray(g((lo[:, None] + half[:, None] * (x + 1.0)).ravel()))
        est = half * np.sum(w * vals.reshape(-1, lo.size, x.size), axis=-1)
        return est.reshape(len(est), parts, -1), vals.ndim == 2

    a, b = np.array(cuts[:-1], dtype=float), np.array(cuts[1:], dtype=float)
    m = 0.5 * (a + b)
    # coarse, left and right estimates of every initial cell
    est, stacked = rule(np.concatenate((a, a, m)), np.concatenate((b, m, b)), 3)
    depth = np.ones(a.size, dtype=int)
    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(np.sum(est[:, 0], axis=-1)))

    while True:
        value, err = est[:, 1] + est[:, 2], np.abs(est[:, 0] - est[:, 1] - est[:, 2])
        bad, reason = ~np.isfinite(np.sum(np.abs(est), axis=(1, 2))), "non-finite estimate"
        if not bad.any():
            bad = tol < ROUNDOFF_FLOOR * np.sum(np.abs(value), axis=-1)
            reason = "tolerance below the roundoff floor"
        if bad.any():
            break
        error = [math.fsum(e) for e in err]
        bad = np.array(error) > tol
        if not bad.any():
            results = tuple(IntegralResult(math.fsum(v), e, a.size) for v, e in zip(value, error))
            return results if stacked else results[0]
        ratio = np.where(depth < MAX_DEPTH, np.max(err[bad] / tol[bad, None], axis=0), -1.0)
        if ratio.max() <= 0.0:
            reason = f"max_depth {MAX_DEPTH} reached"
            break
        sel = ratio >= ratio.max() / BATCH_FACTOR
        if a.size + np.count_nonzero(sel) > MAX_CELLS:
            reason = f"cell budget {MAX_CELLS} reached"
            break
        # bisect the selected leaves; their halves are the children's coarse
        # estimates, and one g call gives the children's own halves
        m = 0.5 * (a[sel] + b[sel])
        lo, hi = np.concatenate((a[sel], m)), np.concatenate((m, b[sel]))
        mid = 0.5 * (lo + hi)
        halves, _ = rule(np.concatenate((lo, mid)), np.concatenate((mid, hi)), 2)
        kids = np.concatenate([est[:, 1:, sel].reshape(len(est), 1, -1), halves], axis=1)
        est = np.concatenate([est[:, :, ~sel], kids], axis=2)
        a, b = np.concatenate((a[~sel], lo)), np.concatenate((b[~sel], hi))
        depth = np.concatenate((depth[~sel], depth[sel] + 1, depth[sel] + 1))

    where = f" in component {', '.join(map(str, np.flatnonzero(bad)))}" if stacked else ""
    value, error, j = np.sum(value, axis=-1).tolist(), np.sum(err, axis=-1).tolist(), np.argmax(bad)
    raise QuadratureError(
        f"quadrature did not converge{where} ({reason}): error {error[j]:.3e} "
        f"against tol {tol[j]:.3e} on {a.size} cells",
        value=tuple(value) if stacked else value[0],
        error=tuple(error) if stacked else error[0],
        cells=a.size,
    )


def integrate_gap(f, h, r_max, spec):
    """Integral of f over the gap region: int 2 pi r int_0^{h+gamma_s} f dz dr.

    Parameters
    ----------
    f : callable
        Vectorized integrand f(r, z); receives broadcastable arrays.  It
        may return k stacked components along a leading axis.
    h : float
        Gap width, > 0.
    r_max : float
        Radial extent of the aperture.
    spec : QuadratureSpec

    Returns
    -------
    IntegralResult, or a tuple of k of them for a stacked f
    """
    if h <= 0.0:
        raise ValueError("integrate_gap requires h > 0")
    zx, zw = _gl_rule(Z_ORDER)

    def g(r):
        H = h + gamma_s(r)
        Z = 0.5 * H[:, None] * (zx[None, :] + 1.0)
        W = 0.5 * H[:, None] * zw[None, :]
        inner = np.sum(np.asarray(f(r[:, None], Z)) * W, axis=-1)
        return 2.0 * math.pi * r * inner

    cuts = graded_cuts(r_max, math.sqrt(h))
    return _adaptive_1d(g, cuts, spec)


def integrate_surface(f, surface, r_max, spec, *, scale):
    """Surface integral int 2 pi f(r) measure(r) dr over a boundary piece.

    `surface` is "plane" or "sphere-cap"; the measure is r on the plane and
    r / sqrt(1 - r^2) on the cap.  `scale` is the grading length of the
    initial cells (graded_cuts), sqrt(h) for the drag rows.  f may stack
    components, as in integrate_gap.
    """
    if surface not in (PLANE, SPHERE_CAP):
        raise ValueError(f"unknown surface {surface!r}")

    def g(r):
        return 2.0 * math.pi * np.asarray(f(r)) * surface_measure(surface, r)

    cuts = graded_cuts(r_max, scale)
    return _adaptive_1d(g, cuts, spec)


class Classification(Enum):
    POWER_LAW = "power-law"
    LOGARITHMIC = "logarithmic"
    BOUNDED = "bounded"


class ClassificationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelFit:
    name: str
    a: float
    b: float
    r_squared: float


@dataclass(frozen=True)
class SingularIntegralCase:
    """Small-gap behavior of I(h) = int_0^delta r^p / (h + r^2)^q dr.

    The classification is decided by the arithmetic invariant: power law
    with exponent (p+1)/2 - q when p + 1 < 2q, logarithmic when equal,
    bounded when p + 1 > 2q.  Least-squares fits against each candidate
    behavior validate the call on the computed values.
    """

    p: float
    q: float
    delta: float
    classification: Classification
    exponent: float
    values: tuple
    fits: dict = field(compare=False)
    selected: ModelFit

    def __post_init__(self):
        expected, exponent, _ = _classify(self.p, self.q)
        if self.classification is not expected:
            raise ValueError("classification inconsistent with (p, q)")
        if self.classification is Classification.POWER_LAW and self.exponent != exponent:
            raise ValueError("power-law exponent must be (p+1)/2 - q")


def _classify(p, q):
    """(classification, exponent, fit key) of I(h) by the invariant p + 1
    against 2q; the exponent (p+1)/2 - q is that of the power law, 0.0
    otherwise."""
    if p + 1.0 < 2.0 * q:
        return Classification.POWER_LAW, (p + 1.0) / 2.0 - q, "power"
    if p + 1.0 == 2.0 * q:
        return Classification.LOGARITHMIC, 0.0, "log"
    return Classification.BOUNDED, 0.0, "bounded"


DEFAULT_H_LIST = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def log_case_oracle(h, delta):
    """Closed form of the (p, q) = (1, 1) integral: (1/2) ln((h + d^2)/h)."""
    return 0.5 * math.log((h + delta * delta) / h)


def _ols(x, y):
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res < 1e-28 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def classify_singular(p, q, delta, h_list=None, *, spec):
    """Classify and fit the small-gap singular integral.

    Parameters
    ----------
    p, q : float
        Exponents; p >= 0, q > 0.
    delta : float
        Upper integration limit.
    h_list : sequence, optional
        Log-spaced gap values, min >= CLASSIFY_H_MIN.
    spec : QuadratureSpec

    Returns
    -------
    SingularIntegralCase

    Raises
    ------
    ClassificationError
        If no candidate model reaches R^2 >= 0.99 on the computed values.
    """
    if p < 0.0 or q <= 0.0:
        raise ValueError("classify_singular requires p >= 0 and q > 0")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    h_list = tuple(h_list) if h_list is not None else DEFAULT_H_LIST
    if min(h_list) < CLASSIFY_H_MIN:
        raise ValueError("h_list entries must be >= 1e-8")

    values = []
    for h in h_list:
        def g(r):
            return r**p / (h + r * r) ** q

        values.append(_adaptive_1d(g, graded_cuts(delta, math.sqrt(h)), spec).value)

    hs = np.asarray(h_list, dtype=float)
    ys = np.asarray(values)
    s = (p + 1.0) / 2.0 - q

    fits = {}
    if s < 0.0:
        fits["power"] = ModelFit("power", *_ols(hs**s, ys))
    log_reg = ScalingModel.LOG.regressor(hs)
    fits["log"] = ModelFit("log", *_ols(log_reg, ys))
    if s < 1.0:
        bounded_reg = hs ** max(s, 0.0) if s > 0.0 else hs
    elif s == 1.0:
        bounded_reg = hs * log_reg
    else:
        bounded_reg = hs
    fits["bounded"] = ModelFit("bounded", *_ols(bounded_reg, ys))

    classification, exponent, key = _classify(p, q)
    if all(f.r_squared < FIT_R2_FLOOR for f in fits.values()):
        raise ClassificationError(
            f"no candidate model fits I(h) for (p, q) = ({p}, {q}); "
            f"best R^2 = {max(f.r_squared for f in fits.values()):.4f}"
        )

    return SingularIntegralCase(
        p=p,
        q=q,
        delta=delta,
        classification=classification,
        exponent=exponent,
        values=tuple(zip(h_list, values)),
        fits=fits,
        selected=fits[key],
    )
