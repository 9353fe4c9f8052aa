"""Divergence-free velocity ansatz, its global extension, and residuals.

In the aperture the field is the axisymmetric stream construction

    u_r = -(r/2) d_z Psi,      u_z = Psi + (r/2) d_r Psi,

which is exactly divergence free and carries unit vertical velocity on the
sphere surface.  Outside the aperture the same construction is applied to a
cutoff blend of Psi with a bump supported near the solid, so the global
field equals e3 on the solid and vanishes far away.

The residual of the Stokes momentum equation, lap u - grad q, is one
closed form per regime, with the cancelling terms of lap u and grad q
removed symbolically, so grad q is stated there and nowhere else.  The
companion pressure's value needs one radial integral, computed by
composite Gauss-Legendre in an octave-graded substitution.

Everything here is pure and broadcasts over numpy arrays: the gap
functions take arrays of (r, z) and return cylindrical components as
arrays (numpy floats for scalar input), and global_velocity takes an
(n, 3) array of cartesian points.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import GapGeometry, cutoffs, gamma_s, sphere_normal
from .profile import RegimeKind, _engine, psi_partials
from .quadrature import _gl_rule, integrate_surface

_J_SEGMENT_ORDER = 12
_E3 = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class FieldSample:
    """Velocity (n, 3) and gradient (n, 3, 3) of the global test field at
    n cartesian points: components (u_1, u_2, u_3) and the matrices
    (grad u)_{ij} = d_j u_i.
    """

    velocity: np.ndarray
    grad: np.ndarray


@dataclass(frozen=True)
class PressureSample:
    """Pressure q at the sampled points."""

    q: object


@dataclass(frozen=True)
class ApertureFrame:
    """Vectorized velocity components and first derivatives in the gap."""

    u_r: object
    u_z: object
    du_r_dr: object
    u_r_by_r: object
    du_r_dz: object
    du_z_dr: object
    du_z_dz: object

    @property
    def d_rz(self):
        return 0.5 * (self.du_r_dz + self.du_z_dr)

    @property
    def grad_sq(self):
        return (
            self.du_r_dr**2
            + self.u_r_by_r**2
            + self.du_r_dz**2
            + self.du_z_dr**2
            + self.du_z_dz**2
        )

    @property
    def sym_grad_sq(self):
        return (
            self.du_r_dr**2
            + self.u_r_by_r**2
            + self.du_z_dz**2
            + 2.0 * self.d_rz**2
        )

    @property
    def div(self):
        return self.du_r_dr + self.u_r_by_r + self.du_z_dz


def aperture_frame(regime, h, r, z):
    """Velocity components and first derivatives at (r, z), vectorized."""
    return _frame(psi_partials(regime, h, r, z), r)


def _frame(p, r):
    """The ApertureFrame of the Psi partials p taken at radius r."""
    r = np.asarray(r, dtype=float)
    return ApertureFrame(
        u_r=-0.5 * r * p.dz,
        u_z=p.value + 0.5 * r * p.dr,
        du_r_dr=-0.5 * (p.dz + r * p.drz),
        u_r_by_r=-0.5 * p.dz,
        du_r_dz=-0.5 * r * p.dzz,
        du_z_dr=1.5 * p.dr + 0.5 * r * p.drr,
        du_z_dz=p.dz + 0.5 * r * p.drz,
    )


def _blended_field(regime, h, x, geometry):
    """Velocity (m, 3) and gradient (m, 3, 3) at fluid points x (m, 3).

    The stream construction applied to g = phi_bump + chi (Psi - phi_bump).
    """
    x1, x2 = x[:, 0:1], x[:, 1:2]
    pair = cutoffs(x, geometry)

    # the blend needs Psi only where chi is active, and every fluid point
    # there lies under the sphere
    m = len(x)
    val, g_psi, h_psi = np.zeros(m), np.zeros((m, 3)), np.zeros((m, 3, 3))
    at = (pair.chi != 0.0) | np.any(pair.chi_grad != 0.0, axis=-1)
    if np.any(at):
        # Psi(r, x3) with r = |xh|, xh the horizontal part of x: its
        # cartesian gradient and Hessian
        xh = x[at] * (1.0, 1.0, 0.0)
        p = psi_partials(regime, h, np.hypot(xh[:, 0], xh[:, 1]), x[at, 2])
        xe = xh[:, :, None] * _E3
        val[at] = p.value
        g_psi[at] = p.dr_by_r[:, None] * xh + p.dz[:, None] * _E3
        h_psi[at] = (
            p.rad2[:, None, None] * xh[:, :, None] * xh[:, None, :]
            + p.dr_by_r[:, None, None] * np.diag((1.0, 1.0, 0.0))
            + p.drz_by_r[:, None, None] * (xe + xe.transpose(0, 2, 1))
            + p.dzz[:, None, None] * np.outer(_E3, _E3)
        )

    chi = pair.chi[:, None]
    diff = (val - pair.phi_bump)[:, None]
    diff_g = g_psi - pair.phi_grad
    g_val = pair.phi_bump[:, None] + chi * diff
    g_grad = pair.phi_grad + pair.chi_grad * diff + chi * diff_g
    gz = g_grad[:, 2:3]
    u = np.concatenate(
        [-0.5 * x1 * gz, -0.5 * x2 * gz, g_val + 0.5 * (x1 * g_grad[:, 0:1] + x2 * g_grad[:, 1:2])],
        axis=1,
    )
    g_hess = (
        pair.phi_hess
        + pair.chi_hess * diff[:, :, None]
        + pair.chi_grad[:, :, None] * diff_g[:, None, :]
        + diff_g[:, :, None] * pair.chi_grad[:, None, :]
        + chi[:, :, None] * (h_psi - pair.phi_hess)
    )
    e1, e2 = np.eye(3)[:2]
    grad = np.stack(
        [
            -0.5 * (e1 * gz + x1 * g_hess[:, 2]),
            -0.5 * (e2 * gz + x2 * g_hess[:, 2]),
            g_grad
            + 0.5 * (e1 * g_grad[:, 0:1] + x1 * g_hess[:, 0])
            + 0.5 * (e2 * g_grad[:, 1:2] + x2 * g_hess[:, 1]),
        ],
        axis=1,
    )
    return u, grad


def global_velocity(regime, h, x, delta):
    """Globally extended test field at cartesian points.

    Equals e3 on the solid sphere, blends the aperture construction into a
    bump field near the solid, and vanishes outside both cutoff supports.
    The cutoffs are those of GapGeometry(h=h, delta=delta), so they sit at
    the same gap as Psi.

    Parameters
    ----------
    regime : SlipRegime
    h : float
    x : array_like, shape (n, 3)
        Points with x3 >= 0 (the wall is {x3 = 0}).
    delta : float
        Aperture half-width of the blend cutoff, in (0, 1/4).

    Returns
    -------
    FieldSample
    """
    pts = np.asarray(x, dtype=float)
    if np.any(pts[:, 2] < 0.0):
        raise ValueError("global field is defined on the half space x3 >= 0")
    geo = GapGeometry(h=h, delta=delta)

    y = pts - np.array([0.0, 0.0, 1.0 + h])
    fluid = ~(np.vecdot(y, y) < 1.0)  # not solid: a NaN point stays NaN
    u, grad = np.zeros(pts.shape), np.zeros(pts.shape + (3,))
    u[:, 2] = 1.0  # e3 on the solid, with a zero gradient
    if np.any(fluid):
        u[fluid], grad[fluid] = _blended_field(regime, h, pts[fluid], geo)
    return FieldSample(velocity=u, grad=grad)


def _g3_tail(regime, h, H_values):
    """Prefix integrals J(H) = int_h^H 6 G3(u) (1 + h - u) du.

    The substitution u = h + gamma_s(s) turns the radial pressure integral
    int_0^r d_zzz Psi s ds into this form.  Segments between consecutive
    requested H values are subdivided into octaves of u (the integrand
    behaves like a negative power of u near u = h) and integrated by fixed
    Gauss-Legendre rules; prefix sums are accumulated with fsum.
    """
    table = _engine(regime)[2]
    num, den = table[0], table[4]  # N_3 and Delta H^3

    def integrand(u):
        g3 = npoly.polyval(u, num) / npoly.polyval(u, den)
        return 6.0 * g3 * (1.0 + h - u)

    xs, ws = _gl_rule(_J_SEGMENT_ORDER)
    order = np.argsort(H_values)
    sorted_H = np.asarray(H_values, dtype=float)[order]
    out_sorted = np.empty_like(sorted_H)
    parts = []
    lo = h
    for k, hi in enumerate(sorted_H):
        if hi > lo:
            n_sub = max(1, int(math.ceil(math.log2(hi / lo))))
            edges = np.geomspace(lo, hi, n_sub + 1)
            for a, b in zip(edges[:-1], edges[1:]):
                half = 0.5 * (b - a)
                pts = a + half * (xs + 1.0)
                parts.append(half * float(np.sum(ws * integrand(pts))))
        out_sorted[k] = math.fsum(parts)
        lo = hi
    out = np.empty_like(out_sorted)
    out[order] = out_sorted
    return out


def pressure(regime, h, r, z):
    """Companion pressure at radii r and heights z that broadcast to r's
    shape.

    The value integrates d_zzz Psi radially (sign convention depends on the
    regime) with a fixed octave rule that resolves it below 1e-10 relative;
    q has r's shape.  Its gradient enters only the Stokes residual, where
    `_residual` states lap u - grad q as one closed form.
    """
    r = np.asarray(r, dtype=float)
    p = psi_partials(regime, h, r, np.broadcast_to(np.asarray(z, dtype=float), r.shape))
    J = _g3_tail(regime, h, np.ravel(h + gamma_s(r))).reshape(r.shape)
    if regime.kind is RegimeKind.SLIP:
        return PressureSample(q=-0.5 * (r * p.drz + 2.0 * p.dz + J))
    return PressureSample(q=0.5 * (r * p.drz + 2.0 * p.dz - J))


def stokes_residual(regime, h, r, z):
    """Residual f = (vector Laplacian of the field) - grad q, cylindrical.

    Returned in closed form: the Laplacian's axisymmetric components
    (lap u)_r = lap_s u_r - u_r / r^2, (lap u)_z = lap_s u_z and the
    regime's pressure gradient are subtracted symbolically, so the terms
    that cancel never reach floating point and f stays finite on the axis.

    Returns
    -------
    (f_r, f_z)
    """
    return _residual(regime, psi_partials(regime, h, r, z), np.asarray(r, dtype=float))


def _residual(regime, p, r):
    """(f_r, f_z) of stokes_residual from the Psi partials p at radius r."""
    f_z = 2.5 * p.drr + 0.5 * r * p.drrr + 1.5 * p.dr_by_r
    if regime.kind is RegimeKind.SLIP:
        # the pressure balances lap_r exactly and doubles the z-derivatives;
        # [()] keeps a numpy float for scalar input
        return np.zeros_like(f_z)[()], f_z + 2.0 * p.dzz + r * p.drzz
    # the pressure cancels the d_zz terms of lap_z and the d_zzz term of lap_r
    return -(3.0 * p.drz + r * p.drrz), f_z


@dataclass(frozen=True)
class NavierResiduals:
    """Boundary-condition residuals at radius r (vectorized).

    wall_impermeability : u_z at z = 0 (0 by construction)
    wall_tangential     : u_r - 2 beta_Omega D_rz at z = 0 (0 analytically)
    sphere_normal       : (u - e3) . n on the sphere (0 analytically)
    sphere_tangential   : theta component of
                          2 beta_S (D n) x n + (u - e3) x n on the sphere;
                          its surface L2 norm stays bounded as h -> 0
    """

    wall_impermeability: object
    wall_tangential: object
    sphere_normal: object
    sphere_tangential: object


def _on_sphere(regime, h, r):
    """The frame on the sphere at radii r, its normal (n_r, n_z), the
    traction D n as (r, z) components, and (u - e3) x n, whose one
    component is theta."""
    frame = aperture_frame(regime, h, r, h + gamma_s(r))
    n_r, n_z = sphere_normal(r)
    dn = (
        frame.du_r_dr * n_r + frame.d_rz * n_z,
        frame.d_rz * n_r + frame.du_z_dz * n_z,
    )
    return frame, (n_r, n_z), dn, (frame.u_z - 1.0) * n_r - frame.u_r * n_z


def _sphere_residuals(regime, h, r):
    """(sphere_normal, sphere_tangential) of NavierResiduals at radii r."""
    top, (n_r, n_z), (dn_r, dn_z), mismatch = _on_sphere(regime, h, r)
    return (
        top.u_r * n_r + (top.u_z - 1.0) * n_z,
        2.0 * regime.beta_S * (dn_z * n_r - dn_r * n_z) + mismatch,
    )


def navier_residuals(regime, h, r):
    wall = aperture_frame(regime, h, r, np.zeros_like(r))
    return NavierResiduals(
        wall.u_z,
        wall.u_r - 2.0 * regime.beta_Omega * wall.d_rz,
        *_sphere_residuals(regime, h, r),
    )


def sphere_slip_l2(regime, h, r_max, spec):
    """L2 norm over the sphere cap of the tangential Navier residual."""

    def f(r):
        return _sphere_residuals(regime, h, r)[1] ** 2

    return math.sqrt(
        max(0.0, integrate_surface(f, "sphere-cap", r_max, spec, scale=math.sqrt(h)).value)
    )
