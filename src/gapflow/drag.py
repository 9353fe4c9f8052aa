"""Gap-dependent drag: the energy functional, the surface pairing, and fits.

Two drag measures are computed for the test field at each gap width h:

* ``energy``: the slip energy functional
  E_h = int |grad u|^2 + (1/beta_S + 1) int_{sphere} |(u - e3) x n|^2
        + (1/beta_Omega) int_{wall} |u x n|^2,
  with the sphere term omitted in the mixed regime (no-slip trace there).
* ``surface_drag``: the surface pairing
  n(h) = int_gap (lap u - grad q) . u + 2 int_gap |D(u)|^2
       - int_wall (2D - qI)n . u + int_sphere (D - qI)n . (e3 - u),
  whose sphere term carries a single D (not 2D), exactly as derived.
  The boundary conditions null the factor of q in both surface terms:
  on the wall u_z = 0 exactly (Phi has no constant term), on the sphere
  n . (e3 - u) = 0 (normal trace n . u = sqrt(1 - r^2)).

Both blow up as h -> 0: like |ln h| with slip, like 1/h in the mixed
regime.  fit_scaling discriminates the two laws, each stated once as a
``profile.ScalingModel``, by least squares.

``energy`` and ``surface_drag`` are the two halves of one drag row: one
adaptive pass over one radial mesh whose stacked integrand holds every
term of the row, the gap's three, the wall's two and with slip the
sphere's two, from one Psi evaluation per call.  The terms that depend on
r alone, ``geometry.radial_factors``, are built once per node set: once
per first mesh, shared by every gap and row on it, and once per
refinement round.  The integrand's arrays carry the radial nodes on their
last axis, so each numpy operation is one loop over the nodes, not one
short loop per node.

Totals are aperture integrals (r < r_max) plus an h-independent O(1)
exterior correction: the cutoff-transition ring outside the aperture does
not see the gap, so its contribution is estimated once per regime and
aperture radius on a coarse grid at a reference gap and reused across the
sweep.  ``drag_curve(..., exterior="excluded")`` (the ``exterior`` config
key) gives the bare aperture numbers; ``energy`` and ``surface_drag`` always
carry the constant at the default aperture R_MAX_DEFAULT.  See
exterior_constant for the estimator's region.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import D_DELTA_DEFAULT, DELTA_DEFAULT, gamma_s, radial_factors
from .field import _frame, _on_sphere, _residual, global_velocity
from .profile import RegimeKind, SlipRegime, psi_partials
from .quadrature import (
    FIRST_MESHES, IntegralResult, ModelFit, QuadratureError, _adaptive_1d, _ols, gap_cuts,
    gap_rule,
)

EXTERIOR_H_REF = 1e-3
EXTERIOR_GRID_N = 16
R_MAX_DEFAULT = DELTA_DEFAULT


class EnergyBreakdown(NamedTuple):
    """Energy functional value and its parts (already weighted).

    total = gradient + sphere + wall + exterior; ``exterior`` is 0.0 when
    the constant was excluded.
    """

    total: float
    gradient: float
    sphere: float
    wall: float
    exterior: float


class SurfaceDrag(NamedTuple):
    """Surface pairing n(h) with its constituents.

    ``volume`` is the pairing of the momentum residual with the field,
    ``dissipation`` is 2 int |D|^2, ``wall`` and ``sphere`` the traction
    integrals, ``exterior`` the cutoff-ring constant (0.0 when excluded).
    ``error`` sums the quadrature error bounds.
    """

    value: float
    volume: float
    dissipation: float
    wall: float
    sphere: float
    error: float
    exterior: float


# a drag row's stacked terms in integrand order; a mixed row has the first five
ROW_TERMS = (
    "gradient", "dissipation", "volume", "wall slip", "wall traction",
    "sphere mismatch", "sphere traction",
)
# the gap rows of a row's (Z_ORDER + 2, n) heights, ahead of the wall and the sphere
_GAP = slice(-2)

# the radial factors of first meshes by cut tuple, oldest first, for as
# many meshes as quadrature._first_mesh keeps
_FIRST_FACTORS = {}


def _first_factors(cuts, nodes):
    """`radial_factors(nodes)` for `nodes`, the first mesh of the cut tuple
    `cuts`, as read-only arrays shared by every row over `cuts` while
    `quadrature._first_mesh` keeps those nodes; a rebuilt mesh has its
    factors rebuilt, and the oldest entry goes past FIRST_MESHES."""
    factors = _FIRST_FACTORS.get(cuts)
    if factors is None or factors.r is not nodes:
        factors = radial_factors(nodes)
        for a in factors[1:]:  # r is the nodes themselves
            a.flags.writeable = False
        _FIRST_FACTORS.pop(cuts, None)
        _FIRST_FACTORS[cuts] = factors
        if len(_FIRST_FACTORS) > FIRST_MESHES:
            del _FIRST_FACTORS[next(iter(_FIRST_FACTORS))]
    return factors


def _row(regime, h, r_max, spec, ext):
    """(EnergyBreakdown, SurfaceDrag) of one drag row whose totals carry
    the exterior shift ext.

    One adaptive pass over gap_cuts(h, r_max) integrates ROW_TERMS as one
    stack: the gap's |grad u|^2, |D u|^2 and residual pairing through the
    Z_ORDER z-rule, the wall's slip^2 and traction at z = 0, and with slip
    the sphere's mismatch^2 and traction at z = H.  The factors that depend
    on r alone (`geometry.radial_factors`: s, gamma_s, the chain factors,
    r / 2 and the measures) come from `_first_factors` on the first call,
    which is on the first mesh of the cuts, and are built afresh for each
    refinement round; each integrand call adds h to their gamma for H and
    evaluates Psi once, at the gap heights, 0 and H of every node.  r, H
    and the factors have shape (n,) and z is the (Z_ORDER + 2, n) array of
    gap_rule's rows, 0 and H, built in place, so each numpy operation is
    one contiguous loop over the radial nodes.  Every row of the stack
    reads Psi's partials up to second order, the frame they give and its
    d_rz, computed once; the Z_ORDER gap rows alone read the third order
    partials and dr_by_r (through `PsiPartials.at`), the residual, |grad
    u|^2 and |D u|^2 (sharing their common squares) and the pairing, which
    with slip is f_z u_z alone since f_r = 0 (`field._residual` gives no
    f_r then); the wall reads u_r and d_rz, and the sphere its frame.
    Each term is written into one row of the call's one (k, n) output; the
    z-sum adds left to right as integrate_gap's does.  It scales each term
    by its measure (2 pi r, r, or r / s on the cap) as integrate_gap and
    integrate_surface do, so a term equals its own per-region pass bit for
    bit while neither refines.
    None does at rel_tol 1e-8 to 1e-13 (abs_tol 1e-12) and h from 1e-2 to
    1e-12: every row converges on its first call, on the first mesh that
    _adaptive_1d caches for its gap_cuts list and shares with every gap of
    the same number of halvings.  A row that did refine would refine all
    of its terms on the shared cells.  A QuadratureError names h and the
    failing terms.
    """
    slip = regime.kind is RegimeKind.SLIP
    k = len(ROW_TERMS) if slip else 5
    two_pi = 2.0 * math.pi
    cuts = tuple(gap_cuts(h, r_max))
    first = True

    def g(r):
        nonlocal first
        rf = _first_factors(cuts, r) if first else radial_factors(r)
        first = False
        H = h + rf.gamma
        z, W = gap_rule(H, ends=True)
        p = psi_partials(regime, h, r, z, (rf, H))
        frame = _frame(p)
        d_rz = frame.d_rz
        out = np.empty((k, r.size))
        gap = frame.at(_GAP)
        f_r, f_z = _residual(regime, p.at(_GAP))
        grad_sq, sym_grad_sq = gap.square_norms(d_rz[_GAP])
        # f_r = 0 with slip, and a sum's two terms may swap
        pairing = f_z * gap.u_z
        if not slip:
            pairing += f_r * gap.u_r
        for row, term in zip(out, (grad_sq, sym_grad_sq, pairing)):
            np.add.reduce(term * W, axis=0, out=row)
        out[:3] *= rf.two_pi_r
        # u_r^2 = |u x n|^2, and 2 D_rz u_r = -(2D - qI)n . u with n = -e3
        # and u_z = 0 on the wall
        wall_u_r = frame.u_r[-2]
        out[3] = wall_u_r**2
        out[4] = 2.0 * d_rz[-2] * wall_u_r
        if slip:
            # |(u - e3) x n|^2 is the theta component squared, and
            # (D - qI)n . (e3 - u) loses q since n . (e3 - u) = 0
            top = frame.at(-1)
            _, (dn_r, dn_z), mismatch = _on_sphere(top, d_rz[-1], r, rf.s)
            out[5] = mismatch**2
            out[6] = dn_r * (-top.u_r) + dn_z * (1.0 - top.u_z)
            out[5:] *= two_pi
            out[5:] *= rf.h1  # the cap's measure r / s
        out[3:5] *= two_pi
        out[3:5] *= r  # the plane's measure
        return out

    try:
        parts = _adaptive_1d(g, cuts, spec, ROW_TERMS)
    except QuadratureError as exc:
        raise QuadratureError(
            f"drag row at h = {h!r}: {exc}", exc.value, exc.error, exc.cells
        ) from None
    grad, sym, vol, slip_sq, wall_t = parts[:5]
    if slip:
        mismatch_sq, sphere_t = parts[5:]
        e_sphere = (1.0 / regime.beta_S + 1.0) * mismatch_sq.value
    else:
        # mixed: e3 - u = 0 on the sphere (no-slip trace), both terms drop
        e_sphere, sphere_t = 0.0, IntegralResult(0.0, 0.0, 0)

    e_wall = (1.0 / regime.beta_Omega) * slip_sq.value
    e = EnergyBreakdown(
        grad.value + e_sphere + e_wall + ext, grad.value, e_sphere, e_wall, ext
    )
    diss, diss_error = 2.0 * sym.value, 2.0 * sym.error
    n = SurfaceDrag(
        value=vol.value + diss + wall_t.value + sphere_t.value + ext,
        volume=vol.value,
        dissipation=diss,
        wall=wall_t.value,
        sphere=sphere_t.value,
        error=vol.error + diss_error + wall_t.error + sphere_t.error,
        exterior=ext,
    )
    return e, n


def energy(regime, h, spec):
    """Energy functional of the test field: the first half of a drag row.

    Runs the whole row (one pass over the gap, wall and sphere terms) and
    keeps this half; a caller that needs both halves should use
    `drag_curve`, which runs each row once.

    The aperture is r < R_MAX_DEFAULT and its integrals are exact to
    quadrature tolerance; the region outside it adds the h-independent
    exterior_constant(regime).  `drag_curve` sets another aperture or
    excludes the constant.

    Returns
    -------
    EnergyBreakdown
        total = gradient + sphere + wall + exterior; the sphere term
        carries its (1/beta_S + 1) weight and is absent (0.0) in the
        mixed regime.
    """
    return _row(regime, h, R_MAX_DEFAULT, spec, exterior_constant(regime))[0]


def surface_drag(regime, h, spec):
    """Surface pairing n(h) over the aperture: the second half of a row.

    n(h) = int_gap (lap u - grad q) . u
         + 2 int_gap |D(u)|^2
         - int_wall (2D - qI)n . u
         + int_sphere (D - qI)n . (e3 - u)        [slip only]

    with n the outward-from-fluid normal on each surface, over the aperture
    r < R_MAX_DEFAULT, plus the h-independent exterior_constant(regime).
    q is never evaluated: on the wall it multiplies u_z = 0 exactly,
    on the sphere n . (e3 - u) = 0 by the normal trace identity.

    Runs the whole row (one pass over the gap, wall and sphere terms) and
    keeps this half; a caller that needs both halves should use
    `drag_curve`, which runs each row once.
    """
    return _row(regime, h, R_MAX_DEFAULT, spec, exterior_constant(regime))[1]


@lru_cache(maxsize=8)
def exterior_constant(regime, delta=DELTA_DEFAULT):
    """Coarse one-off estimate of the cutoff-ring gradient energy.

    Midpoint rule over the blend-cutoff box (-2 delta, 2 delta)^2 x
    (0, 2 delta) minus the aperture (already in the totals), the solid,
    and the bump-transition shell (far-field material whose size is set
    by the default cutoff width, not by the gap), delta being the aperture
    radius.  Evaluated at the reference gap EXTERIOR_H_REF: the remaining
    region does not see the gap, so a single h-independent constant
    serves the whole sweep.  The grid is one array of points: the three
    exclusions are masks, and global_velocity evaluates every kept point
    in one call.  Deterministic by construction.
    """
    h = EXTERIOR_H_REF
    n = EXTERIOR_GRID_N
    lo, hi = -2.0 * delta, 2.0 * delta
    xs = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    zs = 2.0 * delta * (np.arange(n) + 0.5) / n
    cell = ((hi - lo) / n) ** 2 * (2.0 * delta / n)
    x = np.stack(np.meshgrid(xs, xs, zs, indexing="ij"), axis=-1).reshape(-1, 3)
    r = np.hypot(x[:, 0], x[:, 1])
    y = np.sqrt(r * r + (x[:, 2] - 1.0 - h) ** 2)
    aperture = (r < delta) & (x[:, 2] <= h + gamma_s(r))  # already in the totals
    solid = y < 1.0
    # bump-transition shell: its size is set by the cutoff width, not by
    # the gap, so it belongs to the far field and stays out of drag totals
    shell = (1.0 + 0.5 * D_DELTA_DEFAULT < y) & (y < 1.0 + D_DELTA_DEFAULT)
    # a radius so small that the grid underflows gives a non-finite
    # constant, which drag_curve reports in one line: numpy stays quiet
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sample = global_velocity(regime, h, x[~(aperture | solid | shell)], delta=delta)
        g_sq = np.sum(sample.grad**2, axis=(1, 2)).tolist()
    total = 0.0
    # one point at a time in grid order, the order the constant is pinned in
    for value in g_sq:
        total += value * cell
    return total


class DragRow(NamedTuple):
    h: float
    energy: float
    surface: float
    gradient_part: float
    sphere_part: float
    wall_part: float


class _DragCurve(NamedTuple):
    regime: SlipRegime
    rows: tuple
    provenance: dict


class DragCurve(_DragCurve):
    """Computed drag rows (h strictly decreasing) with provenance."""

    __slots__ = ()

    def __new__(cls, regime, rows, provenance):
        hs = [row.h for row in rows]
        if any(x <= 0.0 for x in hs):
            raise ValueError("DragCurve requires h > 0 in every row")
        if any(a <= b for a, b in zip(hs, hs[1:])):
            raise ValueError("DragCurve rows must have strictly decreasing h")
        for row in rows:
            if row.energy <= 0.0 or row.surface <= 0.0:
                raise ValueError("DragCurve requires positive drag values")
        return super().__new__(cls, regime, rows, provenance)

    def column(self, name):
        return np.array([getattr(row, name) for row in self.rows])


def drag_curve(regime, h_list, r_max=R_MAX_DEFAULT, *, spec, exterior="included"):
    """Drag rows for a decreasing h sweep.

    Parameters
    ----------
    regime : SlipRegime
    h_list : sequence of float
        Gap widths; accepted in any order, stored strictly decreasing.
        Rows are computed one after another in that order.
    spec : QuadratureSpec
        Tolerances of every integral, recorded in the provenance.
    exterior : "included" | "excluded"
        Whether totals carry the cutoff-ring constant; it is recorded in
        the provenance either way.  gradient_part, sphere_part and
        wall_part are always the bare aperture pieces.

    Raises
    ------
    ValueError
        If the exterior constant at the aperture radius r_max is not
        finite, as for radii so small that its grid underflows.
    """
    if exterior not in ("included", "excluded"):
        raise ValueError("exterior must be 'included' or 'excluded'")
    hs = sorted(set(float(x) for x in h_list), reverse=True)
    # the default aperture reads the (regime,) entry that warm-up code fills
    if r_max == DELTA_DEFAULT:
        ring = exterior_constant(regime)
    else:
        ring = exterior_constant(regime, r_max)
    if not math.isfinite(ring):
        raise ValueError(
            f"the exterior constant is not finite ({ring!r}) at aperture "
            f"radius delta = {r_max!r}"
        )
    ext = ring if exterior == "included" else 0.0

    rows = []
    for h in hs:
        e, n = _row(regime, h, r_max, spec, ext)
        rows.append(DragRow(h, e.total, n.value, e.gradient, e.sphere, e.wall))

    provenance = {
        "r_max": r_max,
        "beta_S": regime.beta_S,
        "beta_Omega": regime.beta_Omega,
        "rel_tol": spec.rel_tol,
        "abs_tol": spec.abs_tol,
        "exterior": exterior,
        "exterior_constant": ring,
        "exterior_h_ref": EXTERIOR_H_REF,
    }
    return DragCurve(regime=regime, rows=tuple(rows), provenance=provenance)


def fit_scaling(curve, model, quantity):
    """Least-squares fit of a drag column against the model's regressor.

    Parameters
    ----------
    curve : DragCurve
    model : ScalingModel
        LOG fits a|ln h| + b, INVERSE fits a/h + b.
    quantity : "energy" | "surface"

    Returns
    -------
    ModelFit
        Named by model.value.
    """
    if quantity not in ("energy", "surface"):
        raise ValueError("quantity must be 'energy' or 'surface'")
    if len(curve.rows) < 4:
        raise ValueError("fit_scaling needs at least 4 rows")
    x = model.regressor(curve.column("h"))
    if float(np.ptp(x)) == 0.0:
        raise ValueError("degenerate regressor: all h identical")
    return ModelFit(model.value, *_ols(x, curve.column(quantity)))
