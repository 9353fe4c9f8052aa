"""Divergence-free velocity ansatz, its global extension, and residuals.

In the aperture the field is the axisymmetric stream construction

    u_r = -(r/2) d_z Psi,      u_z = Psi + (r/2) d_r Psi,

which is exactly divergence free and carries unit vertical velocity on the
sphere surface.  Outside the aperture the same construction is applied to a
cutoff blend of Psi with a bump supported near the solid, so the global
field equals e3 on the solid and vanishes far away.

The companion pressure and the residual of the Stokes momentum equation
are evaluated in closed form, except for the radial integral in the
pressure value itself, which is computed by composite Gauss-Legendre in an
octave-graded substitution.

Everything here is pure and broadcasts over numpy arrays.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import GapGeometry, cutoffs, gamma_s, sphere_normal
from .profile import (
    RegimeKind,
    _engine,
    psi_h_column,
    psi_partials,
)
from .quadrature import _gl_rule, integrate_gap, integrate_surface

CYLINDRICAL = "cylindrical"
CARTESIAN = "cartesian"

_J_SEGMENT_ORDER = 12


@dataclass(frozen=True)
class FieldSample:
    """Velocity (and optional gradient) of the test field at one point.

    For cylindrical samples the velocity components are (u_r, u_theta,
    u_z) with u_theta identically 0; for cartesian samples they are
    (u_1, u_2, u_3).  The gradient, when present, is the 3 x 3 matrix
    (grad u)_{ij} = d_j u_i in the matching frame, with the cylindrical
    frame ordered (e_r, e_theta, e_z).
    """

    position: tuple
    frame: str
    velocity: np.ndarray
    grad: np.ndarray = None
    pressure: float = None

    def divergence(self):
        if self.grad is None:
            raise ValueError("sample carries no gradient")
        return float(np.trace(self.grad))


@dataclass(frozen=True)
class PressureSample:
    position: tuple
    q: float
    grad: np.ndarray


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
    p = psi_partials(regime, h, r, z)
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


def aperture_velocity(regime, h, r, z, with_gradient=False):
    """Test-field sample inside the aperture, cylindrical frame.

    Parameters
    ----------
    regime : SlipRegime
    h : float
    r, z : float
        Point in the gap: 0 <= r < 1, 0 <= z <= h + gamma_s(r).
    with_gradient : bool
        Attach the 3 x 3 velocity gradient.

    Returns
    -------
    FieldSample
    """
    f = aperture_frame(regime, h, r, z)
    velocity = np.array([float(f.u_r), 0.0, float(f.u_z)])
    grad = None
    if with_gradient:
        grad = np.array(
            [
                [float(f.du_r_dr), 0.0, float(f.du_r_dz)],
                [0.0, float(f.u_r_by_r), 0.0],
                [float(f.du_z_dr), 0.0, float(f.du_z_dz)],
            ]
        )
    return FieldSample(position=(r, z), frame=CYLINDRICAL, velocity=velocity, grad=grad)


def _psi_cartesian(regime, h, x1, x2, x3):
    """Value, gradient, and Hessian of Psi as a function of cartesian x."""
    r = math.hypot(x1, x2)
    p = psi_partials(regime, h, r, x3)
    val = float(p.value)
    g = np.array(
        [float(p.dr_by_r) * x1, float(p.dr_by_r) * x2, float(p.dz)]
    )
    rad2 = float(p.rad2)
    hess = np.array(
        [
            [rad2 * x1 * x1 + float(p.dr_by_r), rad2 * x1 * x2, float(p.drz_by_r) * x1],
            [rad2 * x1 * x2, rad2 * x2 * x2 + float(p.dr_by_r), float(p.drz_by_r) * x2],
            [float(p.drz_by_r) * x1, float(p.drz_by_r) * x2, float(p.dzz)],
        ]
    )
    return val, g, hess


def global_velocity(regime, h, x, with_gradient=False, geometry=None):
    """Globally extended test field at a cartesian point.

    Equals e3 on the solid sphere, blends the aperture construction into a
    bump field near the solid, and vanishes outside both cutoff supports.

    Parameters
    ----------
    regime : SlipRegime
    h : float
    x : sequence of 3 floats
        Point with x3 >= 0 (the wall is {x3 = 0}).
    with_gradient : bool
    geometry : GapGeometry, optional

    Returns
    -------
    FieldSample (cartesian frame)
    """
    x = np.asarray(x, dtype=float)
    if x[2] < 0.0:
        raise ValueError("global field is defined on the half space x3 >= 0")
    geo = geometry if geometry is not None else GapGeometry(h=h)

    y = x - np.array([0.0, 0.0, 1.0 + h])
    if float(y @ y) < 1.0:
        velocity = np.array([0.0, 0.0, 1.0])
        grad = np.zeros((3, 3)) if with_gradient else None
        return FieldSample(position=tuple(x), frame=CARTESIAN, velocity=velocity, grad=grad)

    pair = cutoffs(x, geo)
    # g = phi_bump + chi * (Psi - phi_bump); the blend needs Psi only where
    # chi is active, and every fluid point there lies under the sphere
    if pair.chi != 0.0 or np.any(pair.chi_grad != 0.0):
        val, g_psi, h_psi = _psi_cartesian(regime, h, x[0], x[1], x[2])
    else:
        val, g_psi, h_psi = 0.0, np.zeros(3), np.zeros((3, 3))

    diff = val - pair.phi_bump
    diff_g = g_psi - pair.phi_grad
    g_val = pair.phi_bump + pair.chi * diff
    g_grad = pair.phi_grad + pair.chi_grad * diff + pair.chi * diff_g

    u = np.array(
        [
            -0.5 * x[0] * g_grad[2],
            -0.5 * x[1] * g_grad[2],
            g_val + 0.5 * (x[0] * g_grad[0] + x[1] * g_grad[1]),
        ]
    )
    grad = None
    if with_gradient:
        diff_h = h_psi - pair.phi_hess
        g_hess = (
            pair.phi_hess
            + pair.chi_hess * diff
            + np.outer(pair.chi_grad, diff_g)
            + np.outer(diff_g, pair.chi_grad)
            + pair.chi * diff_h
        )
        grad = np.empty((3, 3))
        for j in range(3):
            grad[0, j] = -0.5 * ((1.0 if j == 0 else 0.0) * g_grad[2] + x[0] * g_hess[2, j])
            grad[1, j] = -0.5 * ((1.0 if j == 1 else 0.0) * g_grad[2] + x[1] * g_hess[2, j])
            grad[2, j] = (
                g_grad[j]
                + 0.5 * ((1.0 if j == 0 else 0.0) * g_grad[0] + x[0] * g_hess[0, j])
                + 0.5 * ((1.0 if j == 1 else 0.0) * g_grad[1] + x[1] * g_hess[1, j])
            )
    return FieldSample(position=tuple(x), frame=CARTESIAN, velocity=u, grad=grad)


def _g3_tail(regime, h, H_values):
    """Prefix integrals J(H) = int_h^H 6 G3(u) (1 + h - u) du.

    The substitution u = h + gamma_s(s) turns the radial pressure integral
    int_0^r d_zzz Psi s ds into this form.  Segments between consecutive
    requested H values are subdivided into octaves of u (the integrand
    behaves like a negative power of u near u = h) and integrated by fixed
    Gauss-Legendre rules; prefix sums are accumulated with fsum.
    """
    (num_d, den_d) = _engine(regime)[2]
    num, den = num_d[0], den_d[0]

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


def _pressure_gradient(regime, p, r):
    """(d_r q, d_z q) in closed form from the Psi partials p at radius r."""
    if regime.kind is RegimeKind.SLIP:
        dq_r = -0.5 * (3.0 * p.drz + r * p.drrz + r * p.dzzz)
        dq_z = -0.5 * (r * p.drzz + 2.0 * p.dzz)
    else:
        dq_r = 0.5 * (3.0 * p.drz + r * p.drrz - r * p.dzzz)
        dq_z = 0.5 * (r * p.drzz + 2.0 * p.dzz)
    return dq_r, dq_z


def pressure(regime, h, r, z):
    """Companion pressure sample(s) with closed-form gradient.

    The value integrates d_zzz Psi radially (sign convention depends on the
    regime) with a fixed octave rule that resolves it below 1e-10 relative;
    the gradient needs no quadrature at all.  Scalars in, scalar sample
    out; arrays in, array-valued sample out.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    z_arr = np.broadcast_to(np.asarray(z, dtype=float), r_arr.shape)
    p = psi_partials(regime, h, r_arr, z_arr)
    J = _g3_tail(regime, h, h + gamma_s(r_arr))

    if regime.kind is RegimeKind.SLIP:
        q = -0.5 * (r_arr * p.drz + 2.0 * p.dz + J)
    else:
        q = 0.5 * (r_arr * p.drz + 2.0 * p.dz - J)
    dq_r, dq_z = _pressure_gradient(regime, p, r_arr)

    if np.ndim(r) == 0 and np.ndim(z) == 0:
        return PressureSample(
            position=(float(r), float(z)),
            q=float(q[0]),
            grad=np.array([float(dq_r[0]), float(dq_z[0])]),
        )
    return PressureSample(position=(r, z), q=q, grad=np.stack([dq_r, dq_z]))


def stokes_residual(regime, h, r, z):
    """Residual f = (vector Laplacian of the field) - grad q, cylindrical.

    The Laplacian uses the axisymmetric component form
    (lap u)_r = lap_s u_r - u_r / r^2, (lap u)_z = lap_s u_z, assembled in
    the exactly cancelled form that stays finite on the axis.  The regime's
    pressure gradient is subtracted in closed form.

    Returns
    -------
    (f_r, f_z) : floats or ndarrays
    """
    r_arr = np.asarray(r, dtype=float)
    p = psi_partials(regime, h, r_arr, z)

    lap_r = -0.5 * (3.0 * p.drz + r_arr * p.drrz + r_arr * p.dzzz)
    lap_z = (
        2.5 * p.drr
        + 0.5 * r_arr * p.drrr
        + 1.5 * p.dr_by_r
        + p.dzz
        + 0.5 * r_arr * p.drzz
    )
    dq_r, dq_z = _pressure_gradient(regime, p, r_arr)
    f_r = lap_r - dq_r
    f_z = lap_z - dq_z
    if np.ndim(r) == 0 and np.ndim(z) == 0:
        return float(f_r), float(f_z)
    return f_r, f_z


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


def navier_residuals(regime, h, r):
    r_arr = np.asarray(r, dtype=float)
    zeros = np.zeros_like(r_arr)

    wall = aperture_frame(regime, h, r_arr, zeros)
    wall_imp = wall.u_z
    wall_tan = wall.u_r - 2.0 * regime.beta_Omega * wall.d_rz

    H = h + gamma_s(r_arr)
    top = aperture_frame(regime, h, r_arr, H)
    n_r, n_z = sphere_normal(r_arr)
    sphere_norm = top.u_r * n_r + (top.u_z - 1.0) * n_z

    dn_r = top.du_r_dr * n_r + top.d_rz * n_z
    dn_z = top.d_rz * n_r + top.du_z_dz * n_z
    stress_tan = dn_z * n_r - dn_r * n_z
    slip_tan = (top.u_z - 1.0) * n_r - top.u_r * n_z
    sphere_tan = 2.0 * regime.beta_S * stress_tan + slip_tan

    if np.ndim(r) == 0:
        return NavierResiduals(
            float(wall_imp), float(wall_tan), float(sphere_norm), float(sphere_tan)
        )
    return NavierResiduals(wall_imp, wall_tan, sphere_norm, sphere_tan)


# ---------------------------------------------------------------------------
# Aperture norms feeding the estimate checks and the drag assembly.

def l2_field_sq(regime, h, r_max, spec=None):
    """Squared L2 norm of the aperture field (bounded uniformly in h)."""

    def f(r, z):
        fr = aperture_frame(regime, h, r, z)
        return fr.u_r**2 + fr.u_z**2

    return integrate_gap(f, h, r_max, spec)


def l2_gradient_sq(regime, h, r_max, spec=None):
    """Squared L2 norm of the full velocity gradient (grows like |ln h|)."""

    def f(r, z):
        return aperture_frame(regime, h, r, z).grad_sq

    return integrate_gap(f, h, r_max, spec)


def l2_sym_gradient_sq(regime, h, r_max, spec=None):
    """Squared L2 norm of the symmetric gradient."""

    def f(r, z):
        return aperture_frame(regime, h, r, z).sym_grad_sq

    return integrate_gap(f, h, r_max, spec)


def l2_d2phi2_sq(regime, h, r_max, spec=None):
    """Squared L2 norm of the x2-derivative of the second velocity
    component, the single entry whose growth already forces the |ln h|
    lower bound.  The theta integral is done in closed form:
    the entry is -(1/2)(A + B sin^2 theta) with A = d_z Psi, B = r d_rz Psi.
    """

    def f(r, z):
        p = psi_partials(regime, h, r, z)
        A = p.dz
        B = r * p.drz
        return 0.25 * (A * A + A * B + 0.375 * B * B)

    return integrate_gap(f, h, r_max, spec)


def sphere_slip_l2(regime, h, r_max, spec=None):
    """L2 norm over the sphere cap of the tangential Navier residual."""

    def f(r):
        return navier_residuals(regime, h, r).sphere_tangential ** 2

    return math.sqrt(
        max(0.0, integrate_surface(f, "sphere-cap", r_max, spec, scale=math.sqrt(h)).value)
    )


def dhpsi_norms(regime, h, r_max, spec=None):
    """Norms of the column integrals of the h-derivative of the field.

    Returns
    -------
    (wall_sq, gap_sq) : tuple of dicts
        Component-wise squared norms: `wall_sq[i]` is the squared L2(wall
        disc) norm of int_0^H d_h u^i ds and `gap_sq[i]` the squared
        L2(aperture) norm of int_z^H d_h u^i ds, for cartesian components
        i in {"x1", "x3"} (x2 matches x1 by symmetry).  The wall norms grow
        at most like |ln h|; the gap norms stay bounded.  In the mixed
        regime the wall x1 norm is pure roundoff: the no-slip sphere gives
        F_H(H, H) = 0, so its exact value is 0.
    """

    def horizontal_sq(r, z):
        col_zh, _, _ = psi_h_column(regime, h, r, z)
        # |-(x1/2) col|^2 averaged over theta: (pi/4) r^2 col^2 against
        # r dr dz, folded into the 2 pi r measure of integrate_gap
        return r * r * col_zh**2 / 8.0

    def vertical_sq(r, z):
        col_zh, col_h, col_rh = psi_h_column(regime, h, r, z)
        m = col_h + 0.5 * r * col_rh
        return m * m

    gap_sq = {
        "x1": integrate_gap(horizontal_sq, h, r_max, spec).value,
        "x3": integrate_gap(vertical_sq, h, r_max, spec).value,
    }
    wall_sq = {
        "x1": integrate_surface(
            lambda r: horizontal_sq(r, np.zeros_like(r)), "plane", r_max, spec,
            scale=math.sqrt(h),
        ).value,
        "x3": integrate_surface(
            lambda r: vertical_sq(r, np.zeros_like(r)), "plane", r_max, spec,
            scale=math.sqrt(h),
        ).value,
    }
    return wall_sq, gap_sq
