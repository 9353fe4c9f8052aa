"""Adaptive quadrature over the gap and its boundary surfaces.

A composite Gauss-Legendre rule drives a depth-first adaptive bisection in
the radial variable; the axial direction uses a fixed-order rule per cell
because every integrand of interest is polynomial in z up to smooth
factors.  Initial cells are graded geometrically toward r = 0, where the
integrands peak on the lubrication scale sqrt(h).

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

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-13
DEFAULT_MAX_DEPTH = 28
# Gauss-Legendre orders: per adaptive cell, and across the gap height
RULE_ORDER = 16
Z_ORDER = 12

FIT_R2_FLOOR = 0.99


class QuadratureError(RuntimeError):
    """Tolerance not reached; carries the best estimate and its error bound."""

    def __init__(self, message, value=math.nan, error=math.inf, cells=0):
        super().__init__(message)
        self.value = value
        self.error = error
        self.cells = cells


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    cells: int

    def __float__(self):
        return self.value


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
    """Adaptive composite Gauss-Legendre integration of a vectorized g.

    g maps an ndarray of n abscissas to n integrand values (any measure and
    angular factor already included), or to a (k, n) array of k stacked
    components integrated on one shared mesh.  Each component keeps its
    own tolerance, rel_tol times its own magnitude with the abs_tol floor,
    and a cell is accepted only once every component meets its share.
    `cuts` are initial breakpoints in ascending order.  Returns an
    IntegralResult, or for a stacked g a tuple of k of them (one cell count
    for all); raises QuadratureError if some cell cannot meet its share of
    the tolerance at max depth.
    """
    x, w = _gl_rule(RULE_ORDER)

    def rule(a, b):
        half = 0.5 * (b - a)
        pts = a + half * (x + 1.0)
        return half * np.sum(w * g(pts), axis=-1)

    total_width = cuts[-1] - cuts[0]
    coarse = [rule(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    stacked = coarse[0].ndim == 1
    coarse = [np.atleast_1d(c) for c in coarse]
    scale = np.array(
        [max(abs(math.fsum(col)), spec.abs_tol / spec.rel_tol) for col in zip(*coarse)]
    )
    tol_global = np.maximum(spec.abs_tol, spec.rel_tol * scale)

    values = []
    errors = []
    failures = []

    def recurse(a, b, parent, tol, depth):
        m = 0.5 * (a + b)
        left = np.atleast_1d(rule(a, m))
        right = np.atleast_1d(rule(m, b))
        err = np.abs(parent - left - right)
        if np.all(err <= tol) or depth >= spec.max_depth:
            values.append(left + right)
            errors.append(err)
            if np.any(err > tol):
                failures.append((a, b, err, tol))
            return
        recurse(a, m, left, 0.5 * tol, depth + 1)
        recurse(m, b, right, 0.5 * tol, depth + 1)

    for (a, b), parent in zip(zip(cuts[:-1], cuts[1:]), coarse):
        recurse(a, b, parent, tol_global * (b - a) / total_width, 1)

    value = [math.fsum(col) for col in zip(*values)]
    error = [math.fsum(col) for col in zip(*errors)]
    cells = len(values)
    if failures:
        a, b, err, tol = failures[0]
        j = int(np.argmax(err > tol))
        bad = np.flatnonzero(np.any([e > t for *_, e, t in failures], axis=0))
        where = f" in component {', '.join(map(str, bad))}" if stacked else ""
        raise QuadratureError(
            f"quadrature did not converge on {len(failures)} cells{where} "
            f"(first: [{a:.3e}, {b:.3e}] err {err[j]:.3e} > tol {tol[j]:.3e})",
            value=tuple(value) if stacked else value[0],
            error=tuple(error) if stacked else error[0],
            cells=cells,
        )
    results = tuple(IntegralResult(v, e, cells) for v, e in zip(value, error))
    return results if stacked else results[0]


def integrate_gap(f, h, r_max, spec=None):
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
    spec : QuadratureSpec, optional

    Returns
    -------
    IntegralResult, or a tuple of k of them for a stacked f
    """
    if h <= 0.0:
        raise ValueError("integrate_gap requires h > 0")
    spec = spec or QuadratureSpec()
    zx, zw = _gl_rule(Z_ORDER)

    def g(r):
        H = h + gamma_s(r)
        Z = 0.5 * H[:, None] * (zx[None, :] + 1.0)
        W = 0.5 * H[:, None] * zw[None, :]
        inner = np.sum(np.asarray(f(r[:, None], Z)) * W, axis=-1)
        return 2.0 * math.pi * r * inner

    cuts = graded_cuts(r_max, math.sqrt(h))
    return _adaptive_1d(g, cuts, spec)


def integrate_surface(f, surface, r_max, spec=None, scale=None):
    """Surface integral int 2 pi f(r) measure(r) dr over a boundary piece.

    `surface` is "plane" or "sphere-cap"; the measure is r on the plane and
    r / sqrt(1 - r^2) on the cap.  `scale` optionally sets the grading
    length of the initial cells (defaults to r_max / 2^16).  f may stack
    components, as in integrate_gap.
    """
    if surface not in (PLANE, SPHERE_CAP):
        raise ValueError(f"unknown surface {surface!r}")
    spec = spec or QuadratureSpec()

    def g(r):
        return 2.0 * math.pi * np.asarray(f(r)) * surface_measure(surface, r)

    cuts = graded_cuts(r_max, scale if scale is not None else r_max * 2.0 ** -16)
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
    selected: ModelFit = None

    def __post_init__(self):
        s = (self.p + 1.0) / 2.0 - self.q
        expected = (
            Classification.POWER_LAW
            if self.p + 1.0 < 2.0 * self.q
            else Classification.LOGARITHMIC
            if self.p + 1.0 == 2.0 * self.q
            else Classification.BOUNDED
        )
        if self.classification is not expected:
            raise ValueError("classification inconsistent with (p, q)")
        if self.classification is Classification.POWER_LAW and self.exponent != s:
            raise ValueError("power-law exponent must be (p+1)/2 - q")


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


def classify_singular(p, q, delta, h_list=None, spec=None):
    """Classify and fit the small-gap singular integral.

    Parameters
    ----------
    p, q : float
        Exponents; p >= 0, q > 0.
    delta : float
        Upper integration limit.
    h_list : sequence, optional
        Log-spaced gap values, min >= 1e-8.
    spec : QuadratureSpec, optional

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
    if min(h_list) < 1e-8:
        raise ValueError("h_list entries must be >= 1e-8")
    spec = spec or QuadratureSpec()

    values = []
    for h in h_list:
        def g(r):
            return r**p / (h + r * r) ** q

        cuts = graded_cuts(delta, math.sqrt(h))
        values.append(_adaptive_1d(g, cuts, spec).value)

    hs = np.asarray(h_list, dtype=float)
    ys = np.asarray(values)
    s = (p + 1.0) / 2.0 - q

    fits = {}
    if s < 0.0:
        fits["power"] = ModelFit("power", *_ols(hs**s, ys))
    fits["log"] = ModelFit("log", *_ols(np.abs(np.log(hs)), ys))
    if s < 1.0:
        bounded_reg = hs ** max(s, 0.0) if s > 0.0 else hs
    elif s == 1.0:
        bounded_reg = hs * np.abs(np.log(hs))
    else:
        bounded_reg = hs
    fits["bounded"] = ModelFit("bounded", *_ols(bounded_reg, ys))

    if p + 1.0 < 2.0 * q:
        classification, key, exponent = Classification.POWER_LAW, "power", s
    elif p + 1.0 == 2.0 * q:
        classification, key, exponent = Classification.LOGARITHMIC, "log", 0.0
    else:
        classification, key, exponent = Classification.BOUNDED, "bounded", 0.0

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
