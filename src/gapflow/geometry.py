"""Sphere-plane gap geometry.

The solid is a unit sphere whose south pole sits at height ``h`` above the
plane wall ``{x3 = 0}``.  This module provides the gap profile ``gamma_s``,
the radial geometry ``_radial`` (s = sqrt(1 - r**2), so the sphere's
outward normal is (-r, s) and its cap measure is r / s, and the gap height
H), and the smooth cutoff functions used to extend the aperture ansatz to
the whole domain.

All functions are pure and broadcast over numpy arrays, with no branch
for scalars: a scalar in gives a numpy float or 0-d array out.
``cutoffs`` takes an (n, 3) array of points.
"""

from typing import NamedTuple

import numpy as np

from .model import D_DELTA_DEFAULT, DELTA_DEFAULT, H_MAX_DEFAULT


class _GapGeometry(NamedTuple):
    h: float
    delta: float


class GapGeometry(_GapGeometry):
    """Geometric configuration: gap width plus the aperture half-width.

    Parameters
    ----------
    h : float
        Gap width between the sphere's south pole and the wall, in
        ``[0, H_MAX_DEFAULT]``.  ``h = 0`` means contact.
    delta : float
        Aperture half-width, restricted to ``(0, 1/4)``.

    The far cutoff shell around the sphere is ``D_DELTA_DEFAULT`` thick.
    """

    __slots__ = ()

    def __new__(cls, h, delta):
        if not 0.0 < delta < 0.25:
            raise ValueError(f"delta must lie in (0, 1/4), got {delta}")
        if not 0.0 <= h <= H_MAX_DEFAULT:
            raise ValueError(f"h must lie in [0, {H_MAX_DEFAULT}], got {h}")
        return super().__new__(cls, h, delta)


def gamma_s(r):
    """Height of the lower sphere surface above its south pole.

    Parameters
    ----------
    r : float or ndarray
        Cylindrical radius, ``0 <= r <= 1``.

    Returns
    -------
    float or ndarray
        ``1 - sqrt(1 - r**2)``, increasing from 0 at the axis to 1 at the
        equator; behaves like ``r**2 / 2`` for small r.  It is evaluated
        as ``r**2 / (1 + sqrt(1 - r**2))``, which subtracts nothing and so
        keeps its relative accuracy (a few eps) near the axis, where the
        gap height h + gamma_s must resolve gaps far below eps.
    """
    r = np.asarray(r, dtype=float)
    # one ndarray.any() call; the profile takes its H from _radial
    if ((r < 0.0) | (r > 1.0)).any():
        raise ValueError("gamma_s requires 0 <= r <= 1")
    r2 = r * r
    return r2 / (1.0 + np.sqrt(1.0 - r2))


def _radial(h, r):
    """(s, H) at radii 0 <= r < 1, with one domain check: s = sqrt(1 - r**2)
    and the gap height H = h + gamma_s(r), bit for bit as `gamma_s` gives
    it.  A drag integrand call shares them between the z-rule, the profile's
    chain factors, the sphere normal (-r, s) and the cap measure r / s, which
    `quadrature.integrate_surface` also takes from s; `field.navier_residuals`
    reads its boundaries with them the same way."""
    r = np.asarray(r, dtype=float)
    if ((r < 0.0) | (r >= 1.0)).any():
        raise ValueError("the radial geometry requires 0 <= r < 1")
    r2 = r * r
    s = np.sqrt(1.0 - r2)
    return s, h + r2 / (1.0 + s)


def smoothstep(s):
    """C2 quintic step: 0 for s <= 0, 1 for s >= 1, 6s^5-15s^4+10s^3 between.

    Returns
    -------
    (value, first derivative, second derivative)
    """
    s = np.asarray(s, dtype=float)
    t = np.clip(s, 0.0, 1.0)
    val = t * t * t * (t * (6.0 * t - 15.0) + 10.0)
    d1 = 30.0 * t * t * (t - 1.0) * (t - 1.0)
    d2 = 60.0 * t * (2.0 * t - 1.0) * (t - 1.0)
    inside = (s > 0.0) & (s < 1.0)
    d1 = np.where(inside, d1, 0.0)
    d2 = np.where(inside, d2, 0.0)
    return val, d1, d2


def _coordinate_window(t, delta):
    """1D window w(|t|): 1 on [0, delta], 0 beyond 2 delta, quintic between.

    Returns value and first/second derivatives with respect to t.
    """
    val, d1, d2 = smoothstep((2.0 * delta - np.abs(t)) / delta)
    # d/dt = d/ds * ds/dt with ds/dt = -sign(t)/delta
    return val, np.where(t >= 0.0, -d1, d1) / delta, d2 / (delta * delta)


def _radial_bump(rho):
    """Radial profile of the far cutoff: 1 inside 1 + d/2, 0 outside 1 + d,
    quintic in between, with d = D_DELTA_DEFAULT.  Returns value, f', f''
    in rho.
    """
    half = 0.5 * D_DELTA_DEFAULT
    val, d1, d2 = smoothstep((1.0 + D_DELTA_DEFAULT - rho) / half)
    return val, -d1 / half, d2 / (half * half)


class CutoffPair(NamedTuple):
    """Values and derivatives of the two cutoffs at n points.

    ``chi`` is the tensor-product window equal to 1 on the cube
    ``(-delta, delta)^3`` and 0 outside ``(-2 delta, 2 delta)^3``.
    ``phi_bump`` is the radial window equal to 1 on a ``D_DELTA_DEFAULT/2``
    neighborhood of the solid sphere and 0 outside a ``D_DELTA_DEFAULT``
    neighborhood; it is evaluated at ``x - (1 + h) e3``, i.e. relative to
    the current sphere center.

    Gradients and Hessians are with respect to the cartesian point x: the
    values have shape (n,), the gradients (n, 3) and the Hessians (n, 3, 3).
    """

    chi: np.ndarray
    phi_bump: np.ndarray
    chi_grad: np.ndarray
    phi_grad: np.ndarray
    chi_hess: np.ndarray
    phi_hess: np.ndarray


# Derivative order of the window factor w_k in each product of chi's
# derivatives, indexed [k] for chi, [i, k] for d_i chi, [i, j, k] for
# d_i d_j chi: one order per differentiation in the factor's coordinate.
_EYE = np.eye(3, dtype=int)
_CHI_ORDERS = (np.zeros(3, dtype=int), _EYE, _EYE[:, None, :] + _EYE[None, :, :])


def cutoffs(x, geometry):
    """Evaluate both cutoffs with first and second derivatives.

    Parameters
    ----------
    x : array_like, shape (n, 3)
        Cartesian points.
    geometry : GapGeometry

    Returns
    -------
    CutoffPair
    """
    pts = np.asarray(x, dtype=float)

    w, dw, ddw = _coordinate_window(pts, geometry.delta)
    table = np.stack([w, dw, ddw], axis=-1)  # [point, coordinate k, order]
    k = np.arange(3)
    chi, chi_grad, chi_hess = (
        np.prod(table[:, k, order], axis=-1) for order in _CHI_ORDERS
    )

    y = pts - np.array([0.0, 0.0, 1.0 + geometry.h])
    rho = np.sqrt(np.vecdot(y, y))
    f, f1, f2 = _radial_bump(rho)
    # f varies only in the shell rho > 1, so the clamp changes nothing
    # there and keeps the unit vector finite at the sphere center
    rho = np.maximum(rho, 1.0)[:, None]
    e = y / rho
    ee = e[:, :, None] * e[:, None, :]
    phi_grad = f1[:, None] * e
    phi_hess = f2[:, None, None] * ee + (f1[:, None] / rho)[:, :, None] * (np.eye(3) - ee)
    return CutoffPair(chi, f, chi_grad, phi_grad, chi_hess, phi_hess)
