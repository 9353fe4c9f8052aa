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
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import gamma_s, radial_factors
from .model import (
    DEFAULT_H_LIST,
    QuadratureError,
    QuadratureSpec,
    ScalingModel,
)

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


class IntegralResult(NamedTuple):
    value: float
    error: float
    cells: int


@lru_cache(maxsize=None)
def _gl_rule(order):
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=None)
def _z_rule(order):
    """The `order`-point rule's nodes plus 1 and its weights, as read-only
    (order, 1) columns: the z-rule of `gap_rule` on [0, 2]."""
    zx, zw = _gl_rule(order)
    columns = (zx + 1.0)[:, None], zw[:, None]
    for c in columns:
        c.flags.writeable = False
    return columns


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


# first meshes cached by _first_mesh, one per cut list: 21 kB at most (49
# cells), and drag._first_factors keeps as many meshes' radial factors,
# 151 kB more at 49 cells (3.5 kB an array at drag-sweep's 432 nodes)
FIRST_MESHES = 24


@lru_cache(maxsize=FIRST_MESHES)
def _first_mesh(cuts):
    """The first round of _adaptive_1d on the initial cells of the tuple
    `cuts`: the cells' ends a and b, and the half-widths and nodes of the
    rules on their coarse, left and right halves (`_nodes`), as read-only
    arrays that every pass over the same cuts shares.  A graded_cuts list
    depends on the gap only through its number of halvings, so a sweep
    over h builds a few meshes and reuses them."""
    a, b = np.array(cuts[:-1], dtype=float), np.array(cuts[1:], dtype=float)
    m = 0.5 * (a + b)
    half, nodes = _nodes(np.concatenate((a, a, m)), np.concatenate((b, m, b)))
    for arr in (a, b, half, nodes):
        arr.flags.writeable = False
    return a, b, half, nodes


def _nodes(lo, hi):
    """The half-widths of the cells [lo_i, hi_i] and the RULE_ORDER nodes
    of the rule on each, as one flat array."""
    x, _ = _gl_rule(RULE_ORDER)
    half = 0.5 * (hi - lo)
    return half, (lo[:, None] + half[:, None] * (x + 1.0)).ravel()


def _estimates(vals, half, parts):
    """The rule's estimates on the cells of `half` from g's values at their
    `_nodes`: a (k, parts, cells / parts) array, k = 1 for an unstacked g."""
    _, w = _gl_rule(RULE_ORDER)
    est = half * np.add.reduce(w * vals.reshape(-1, half.size, w.size), axis=-1)
    return est.reshape(len(est), parts, -1)


def _adaptive_1d(g, cuts, spec, names=None):
    """Global adaptive composite Gauss-Legendre integration of a vectorized g.

    g maps an ndarray of n abscissas to n integrand values (measure and
    angular factor included), or to a (k, n) stack of k components on one
    mesh, each held to rel_tol times its own magnitude (abs_tol floor).  A
    leaf cell's error is its coarse estimate less its two halves'; the
    first round evaluates g once on the cached `_first_mesh` of the cuts,
    and each later round bisects, with one g call, every leaf below
    MAX_DEPTH within BATCH_FACTOR of the worst error/tolerance ratio, until
    each component's fsum of cell errors meets its tolerance.  The checks
    of a round compare the components' sums as floats.  Returns an
    IntegralResult, or a tuple of k for a stacked g.  QuadratureError names
    the failing components (by their `names` if given, else by index) and
    the reason: a non-finite estimate, a tolerance below ROUNDOFF_FLOOR
    times sum |cell values|, MAX_DEPTH, or MAX_CELLS cells.
    """
    a, b, half, nodes = _first_mesh(tuple(cuts))
    vals = np.asarray(g(nodes))
    # coarse, left and right estimates of every initial cell
    est, stacked = _estimates(vals, half, 3), vals.ndim == 2
    depth = np.ones(a.size, dtype=int)
    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(np.add.reduce(est[:, 0], axis=-1)))
    tols = tol.tolist()

    while True:
        value, err = est[:, 1] + est[:, 2], np.abs(est[:, 0] - est[:, 1] - est[:, 2])
        mag = np.add.reduce(np.abs(est), axis=(1, 2)).tolist()
        bad, reason = [not math.isfinite(x) for x in mag], "non-finite estimate"
        if not any(bad):
            mag = np.add.reduce(np.abs(value), axis=-1).tolist()
            bad = [t < ROUNDOFF_FLOOR * x for t, x in zip(tols, mag)]
            reason = "tolerance below the roundoff floor"
        if any(bad):
            break
        # fsum over float lists: the same sums, without a numpy scalar per term
        error = [math.fsum(e) for e in err.tolist()]
        bad = [e > t for e, t in zip(error, tols)]
        if not any(bad):
            value = [math.fsum(v) for v in value.tolist()]
            results = tuple(IntegralResult(v, e, a.size) for v, e in zip(value, error))
            return results if stacked else results[0]
        bad = np.array(bad)
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
        half, nodes = _nodes(np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        halves = _estimates(np.asarray(g(nodes)), half, 2)
        kids = np.concatenate([est[:, 1:, sel].reshape(len(est), 1, -1), halves], axis=1)
        est = np.concatenate([est[:, :, ~sel], kids], axis=2)
        a, b = np.concatenate((a[~sel], lo)), np.concatenate((b[~sel], hi))
        depth = np.concatenate((depth[~sel], depth[sel] + 1, depth[sel] + 1))

    failing = np.flatnonzero(bad).tolist()
    names = names or [f"component {i}" for i in range(len(bad))]
    where = f" in {', '.join(names[i] for i in failing)}" if stacked else ""
    value, error, j = np.sum(value, axis=-1).tolist(), np.sum(err, axis=-1).tolist(), failing[0]
    raise QuadratureError(
        f"quadrature did not converge{where} ({reason}): estimate {value[j]:.6e}, "
        f"error {error[j]:.3e} against tol {tol[j]:.3e} on {a.size} cells",
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

    def g(r):
        Z, W = gap_rule(h + gamma_s(r))
        inner = np.sum(np.asarray(f(r[:, None], Z.T)) * W.T, axis=-1)
        return 2.0 * math.pi * r * inner

    return _adaptive_1d(g, gap_cuts(h, r_max), spec)


def gap_cuts(h, r_max):
    """Initial cells of a gap pass: graded_cuts on the lubrication scale
    sqrt(h), for finite h > 0."""
    if not 0.0 < h < math.inf:  # a NaN fails both
        raise ValueError("h must be finite and > 0")
    return graded_cuts(r_max, math.sqrt(h))


def gap_rule(H, ends=False):
    """The z-rule across the gap at the n heights H = h + gamma_s(r): the
    Z_ORDER Gauss-Legendre heights Z and weights W on [0, H], as
    (Z_ORDER, n) rows, so that the drag row's arrays keep the radial
    nodes on their last axis and each operation is one contiguous loop.
    With `ends`, Z has two more rows, the wall's 0 and the sphere's H, the
    heights at which a drag row evaluates Psi, built in one array."""
    x1, w = _z_rule(Z_ORDER)
    half = 0.5 * H
    Z = np.empty((Z_ORDER + 2 * ends,) + np.shape(H))
    np.multiply(half, x1, out=Z[:Z_ORDER])
    if ends:
        Z[-2], Z[-1] = 0.0, H
    return Z, half * w


def integrate_surface(f, surface, r_max, spec, *, scale):
    """Surface integral int 2 pi f(r) measure(r) dr over a boundary piece.

    The measure is r on the "plane" and r / s on the "sphere-cap", the h1
    of `geometry.radial_factors` as in a drag row.  Any other surface, or a
    cap with r_max >= 1 (the factors' domain check), raises ValueError
    before f is called.  `scale` grades the initial cells (graded_cuts), sqrt(h) for
    the drag rows.  f may stack components, as in integrate_gap.
    """
    cap = surface == "sphere-cap"
    if cap:
        radial_factors(r_max)
    elif surface != "plane":
        raise ValueError(f"unknown surface {surface!r}")

    def g(r):
        # the measure after f, so that f's peak memory does not hold it
        return 2.0 * math.pi * np.asarray(f(r)) * (radial_factors(r).h1 if cap else r)

    return _adaptive_1d(g, graded_cuts(r_max, scale), spec)


class Classification(Enum):
    POWER_LAW = "power-law"
    LOGARITHMIC = "logarithmic"
    BOUNDED = "bounded"


class ModelFit(NamedTuple):
    name: str
    a: float
    b: float
    r_squared: float


class SingularIntegralCase(NamedTuple):
    """Small-gap behavior of I(h) = int_0^delta r^p / (h + r^2)^q dr: the
    computed (h, I(h)) pairs and the least-squares fits, one per candidate
    behavior, whose R^2 the report checks.  The classification, exponent and
    selected fit are read from (p, q) by `_classify`: power law with
    exponent (p+1)/2 - q when p + 1 < 2q, logarithmic when equal, bounded
    when p + 1 > 2q."""

    p: float
    q: float
    delta: float
    values: tuple
    fits: dict

    @property
    def classification(self):
        return _classify(self.p, self.q)[0]

    @property
    def exponent(self):
        return _classify(self.p, self.q)[1]

    @property
    def selected(self):
        return self.fits[_classify(self.p, self.q)[2]]


def _classify(p, q):
    """(classification, exponent, fit key) of I(h) by the invariant p + 1
    against 2q; the exponent (p+1)/2 - q is that of the power law, 0.0
    otherwise."""
    if p + 1.0 < 2.0 * q:
        return Classification.POWER_LAW, (p + 1.0) / 2.0 - q, "power"
    if p + 1.0 == 2.0 * q:
        return Classification.LOGARITHMIC, 0.0, "log"
    return Classification.BOUNDED, 0.0, "bounded"


def log_case_oracle(h, delta):
    """Closed form of the (p, q) = (1, 1) integral: (1/2) ln((h + d^2)/h),
    through log1p, so it stays positive while d^2 is below eps h."""
    return 0.5 * math.log1p(delta * delta / h)


def _ols(x, y):
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # a constant y (one gap, or one gap repeated) has an exact fit of
    # slope 0, whatever residual lstsq's roundoff leaves
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
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
    """
    if p < 0.0 or q <= 0.0:
        raise ValueError("classify_singular requires p >= 0 and q > 0")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    h_list = tuple(h_list) if h_list is not None else DEFAULT_H_LIST
    if min(h_list) < CLASSIFY_H_MIN:
        raise ValueError(f"h_list entries must be >= {CLASSIFY_H_MIN:g}")

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
    return SingularIntegralCase(p, q, delta, tuple(zip(h_list, values)), fits)
