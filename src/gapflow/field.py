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
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import GapGeometry, _radial, cutoffs, gamma_s
from .profile import _DELTA_H, _N, RegimeKind, _engine, psi_partials
from .quadrature import _gl_rule, integrate_surface

_J_SEGMENT_ORDER = 12
_E3 = np.array([0.0, 0.0, 1.0])


class FieldSample(NamedTuple):
    """Velocity (n, 3) and gradient (n, 3, 3) of the global test field at
    n cartesian points: components (u_1, u_2, u_3) and the matrices
    (grad u)_{ij} = d_j u_i.
    """

    velocity: np.ndarray
    grad: np.ndarray


class PressureSample(NamedTuple):
    """Pressure q at the sampled points."""

    q: object


class ApertureFrame(NamedTuple):
    """Vectorized velocity components and first derivatives in the gap."""

    u_r: object
    u_z: object
    du_r_dr: object
    u_r_by_r: object
    du_r_dz: object
    du_z_dr: object
    du_z_dz: object

    def at(self, index):
        """The frame's components at one index of their arrays, as views."""
        return ApertureFrame(*(c[index] for c in self))

    @property
    def d_rz(self):
        return 0.5 * (self.du_r_dz + self.du_z_dr)

    def square_norms(self, d_rz):
        """(|grad u|^2, |D u|^2), which share the squares of du_r_dr,
        u_r_by_r and du_z_dz; d_rz is the frame's `d_rz`, from a caller
        that reads it elsewhere too."""
        head = self.du_r_dr**2 + self.u_r_by_r**2
        zz = self.du_z_dz**2
        grad_sq = head + self.du_r_dz**2
        grad_sq += self.du_z_dr**2
        grad_sq += zz
        sym_grad_sq = head + zz
        sym_grad_sq += 2.0 * d_rz**2
        return grad_sq, sym_grad_sq

    @property
    def grad_sq(self):
        return self.square_norms(self.d_rz)[0]

    @property
    def sym_grad_sq(self):
        return self.square_norms(self.d_rz)[1]

    @property
    def div(self):
        return self.du_r_dr + self.u_r_by_r + self.du_z_dz


def aperture_frame(regime, h, r, z):
    """Velocity components and first derivatives at (r, z), vectorized."""
    return _frame(psi_partials(regime, h, r, z))


def _frame(p):
    """The ApertureFrame of the Psi partials p, at the radii r of their
    radial factors, whose r / 2 it reads (-r / 2 is its negation, exact)."""
    r, half_r = p.radial.r, p.radial.half_r
    return ApertureFrame(
        u_r=-half_r * p.dz,
        u_z=p.value + half_r * p.dr,
        du_r_dr=-0.5 * (p.dz + r * p.drz),
        u_r_by_r=-0.5 * p.dz,
        du_r_dz=-half_r * p.dzz,
        du_z_dr=1.5 * p.dr + half_r * p.drr,
        du_z_dz=p.dz + half_r * p.drz,
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
        dr_by_r = p.dr_by_r
        val[at] = p.value
        g_psi[at] = dr_by_r[:, None] * xh + p.dz[:, None] * _E3
        h_psi[at] = (
            p.rad2[:, None, None] * xh[:, :, None] * xh[:, None, :]
            + dr_by_r[:, None, None] * np.diag((1.0, 1.0, 0.0))
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
    table, _, _ = _engine(regime)
    # N_3 and Delta H^3 by their rows in the table, N_3 zero-padded to the
    # length of Delta H^3: by the argument in profile._g_derivs, the zeros
    # leave polyval's bits alone
    num, den = table[_N, 2], table[_DELTA_H, 2]

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
    f_r, f_z = _residual(regime, psi_partials(regime, h, r, z))
    # [()] keeps a numpy float for scalar input
    return (np.zeros_like(f_z)[()] if f_r is None else f_r), f_z


def _residual(regime, p):
    """(f_r, f_z) of stokes_residual from the Psi partials p, at the radii
    of their radial factors; f_r is None with slip, where it vanishes."""
    r = p.radial.r
    f_z = 2.5 * p.drr + p.radial.half_r * p.drrr + 1.5 * p.dr_by_r
    if regime.kind is RegimeKind.SLIP:
        # the pressure balances lap_r exactly and doubles the z-derivatives
        return None, f_z + 2.0 * p.dzz + r * p.drzz
    # the pressure cancels the d_zz terms of lap_z and the d_zzz term of lap_r
    return -(3.0 * p.drz + r * p.drrz), f_z


class NavierResiduals(NamedTuple):
    """Boundary-condition residuals at radius r (vectorized), read from one
    Psi evaluation at the wall z = 0 and the sphere z = H.

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


def _on_sphere(frame, d_rz, r, s):
    """Given the frame on the sphere with its `d_rz`, at radii r and s =
    sqrt(1 - r^2) from `geometry.radial_factors`: the outward normal
    (n_r, n_z) = (-r, s), the traction D n as (r, z) components, and
    (u - e3) x n, whose one component is theta."""
    n_r, n_z = -r, s
    dn = (
        frame.du_r_dr * n_r + d_rz * n_z,
        d_rz * n_r + frame.du_z_dz * n_z,
    )
    return (n_r, n_z), dn, (frame.u_z - 1.0) * n_r - frame.u_r * n_z


def navier_residuals(regime, h, r):
    """NavierResiduals at radii 0 <= r < 1.  The wall and the sphere are
    rows -2 and -1 of one Psi evaluation at the heights (0, H), with the
    radial factors and H from one `geometry._radial` call, as a drag row
    reads them."""
    rf, H = _radial(h, r)
    frame = _frame(psi_partials(regime, h, r, np.stack((np.zeros_like(H), H)), (rf, H)))
    d_rz = frame.d_rz
    wall, top = frame.at(-2), frame.at(-1)
    (n_r, n_z), (dn_r, dn_z), mismatch = _on_sphere(top, d_rz[-1], rf.r, rf.s)
    return NavierResiduals(
        wall.u_z,
        wall.u_r - 2.0 * regime.beta_Omega * d_rz[-2],
        top.u_r * n_r + (top.u_z - 1.0) * n_z,
        2.0 * regime.beta_S * (dn_z * n_r - dn_r * n_z) + mismatch,
    )


def sphere_slip_l2(regime, h, r_max, spec):
    """L2 norm over the sphere cap of the tangential Navier residual."""

    def f(r):
        return navier_residuals(regime, h, r).sphere_tangential ** 2

    return math.sqrt(
        max(0.0, integrate_surface(f, "sphere-cap", r_max, spec, scale=math.sqrt(h)).value)
    )
