"""Cubic cross-gap profile and its rescaled derivatives.

The cross-gap velocity shape is the cubic ``Phi(r, t) = P1 t + P2 t^2 +
P3 t^3`` in the rescaled coordinate ``t = z / H(r)`` with ``H(r) = h +
gamma_s(r)``.  The coefficients are fixed by impermeability at the wall,
unit normal velocity at the sphere, and the tangential (Navier) conditions
of the active regime.  The rescaled profile is ``Psi(r, z) = Phi(r, z/H)``.

Writing ``Psi = sum_i G_i(H) z^i`` with ``G_i(H) = N_i(H) / (Delta(H) H^i)``
for explicit polynomials ``N_i``, ``Delta`` turns every partial derivative
in (r, z, h) into polynomial quotient algebra plus the chain rule through
``H(r)``; that is what this module implements, in closed form, up to total
order three.  All evaluation functions broadcast over numpy arrays.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import DELTA_DEFAULT, gamma_s

__all__ = [
    "RegimeKind",
    "ScalingModel",
    "SlipRegime",
    "ProfileCoefficients",
    "coefficients",
    "psi_partials",
    "weighted_sups",
    "ENVELOPE_ROWS",
]


class RegimeKind(Enum):
    SLIP = "slip"
    MIXED = "mixed"


class ScalingModel(Enum):
    """The two drag laws, each stated once: a |ln h| with slip, whose
    primitive is finite at h = 0, and a / h in the mixed regime, whose
    primitive a ln h diverges there."""

    LOG = "log"  # drag = a |ln h|
    INVERSE = "inverse"  # drag = a / h

    @classmethod
    def of(cls, kind):
        """The law a regime kind's drag follows: LOG with slip, INVERSE
        in the mixed regime."""
        return cls.LOG if kind is RegimeKind.SLIP else cls.INVERSE

    def drag(self, a, h):
        """a |ln h| or a / h at the gaps h."""
        h = np.asarray(h, dtype=float)
        return a * np.abs(np.log(h)) if self is ScalingModel.LOG else a / h

    def regressor(self, h):
        """|ln h| or 1/h at the gaps h, the law's growth in h."""
        return self.drag(1.0, h)

    def primitive(self, a):
        """P with P' = drag(a, h) as a function of a float h; the log
        law's is continuous at h = 1."""
        log = math.log
        if self is ScalingModel.INVERSE:
            return lambda h: a * log(h)

        def P(h):
            x = log(h)
            return a * (h * (1.0 - x) if x < 0.0 else h * x - h + 2.0)

        return P


@dataclass(frozen=True)
class SlipRegime:
    """Boundary-condition regime with its slip lengths.

    Slip requires both slip lengths positive; Mixed means no-slip at the
    sphere (beta_S = 0) and slip at the wall.  No-slip on both the sphere
    and the wall is not a regime: it is the H -> inf (alpha_P -> inf) limit
    of the mixed family in `_family`, which `verify all` checks.
    """

    kind: RegimeKind
    beta_S: float
    beta_Omega: float

    def __post_init__(self):
        if self.beta_S < 0.0 or self.beta_Omega < 0.0:
            raise ValueError("slip lengths must be nonnegative")
        if self.kind is RegimeKind.SLIP and not (
            self.beta_S > 0.0 and self.beta_Omega > 0.0
        ):
            raise ValueError("Slip regime requires beta_S > 0 and beta_Omega > 0")
        if self.kind is RegimeKind.MIXED and not (
            self.beta_S == 0.0 and self.beta_Omega > 0.0
        ):
            raise ValueError("Mixed regime requires beta_S = 0 and beta_Omega > 0")

    @classmethod
    def slip(cls, beta_S, beta_Omega):
        return cls(RegimeKind.SLIP, float(beta_S), float(beta_Omega))

    @classmethod
    def mixed(cls, beta_Omega):
        return cls(RegimeKind.MIXED, 0.0, float(beta_Omega))


@dataclass(frozen=True)
class ProfileCoefficients:
    """Cubic coefficients and the dimensionless groups at (h, r).

    alpha_S = (1/beta_S + 2) H and alpha_P = H / beta_Omega with
    H = h + gamma_s(r); alpha_S is +inf in the mixed regime.  Fields are
    floats at one point and arrays over an array of points.
    """

    alpha_S: float
    alpha_P: float
    p1: float
    p2: float
    p3: float


def _radius(r):
    """r as an array, checked against the profile's domain 0 <= r < 1."""
    r = np.asarray(r, dtype=float)
    if ((r < 0.0) | (r >= 1.0)).any():
        raise ValueError("profile evaluation requires 0 <= r < 1")
    return r


def _poly(*coefs):
    """Stack polynomial coefficients, floats or broadcasting arrays, along
    a new first axis, as polyval(..., tensor=False) reads them."""
    if any(isinstance(c, np.ndarray) for c in coefs):
        coefs = np.broadcast_arrays(*coefs)
    return np.array(coefs)


def _family(kind, beta_S, beta_Omega):
    """Polynomial families (Delta, N1, N2, N3) in H, low-to-high coefficients.

    Psi's z-monomial coefficients are G_i = N_i(H) / (Delta(H) H^i) and the
    cubic coefficients are P_i = N_i(H) / Delta(H).  The slip lengths may
    be broadcasting arrays; the coefficients then carry their shape.

    These polynomials are the one statement of the profile, its limits
    included: H -> 0 of the slip family is the free-slip plug Phi(t) = t,
    and H -> inf of the mixed family the no-slip cubic 3 t^2 - 2 t^3,
    which `verify all` reads off them.
    """
    if kind is RegimeKind.SLIP:
        a = 1.0 / beta_S + 2.0
        b = 1.0 / beta_Omega
        delta = _poly(12.0, 4.0 * (a + b), a * b)
        n1 = _poly(12.0, 6.0 * a)
        n2 = _poly(0.0, 6.0 * b, 3.0 * a * b)
        n3 = _poly(0.0, -2.0 * (a + b), -2.0 * a * b)
    else:
        b = 1.0 / beta_Omega
        delta = _poly(4.0, b)
        n1 = _poly(6.0)
        n2 = _poly(0.0, 3.0 * b)
        n3 = _poly(-2.0, -2.0 * b)
    return delta, n1, n2, n3


def coefficients(regime, h, r):
    """Cubic profile coefficients at gap h and radius r.

    Parameters
    ----------
    regime : SlipRegime
    h : array_like
        Gap widths, > 0.
    r : array_like
        Radii, 0 <= r < 1; broadcasts with h.

    Returns
    -------
    ProfileCoefficients
        Floats for scalar h and r; arrays of their broadcast shape if
        either is an array.
    """
    return _coefficients(regime.kind, regime.beta_S, regime.beta_Omega, h, r)


def _coefficients(kind, beta_S, beta_Omega, h, r):
    """`coefficients` with slip lengths that broadcast with h and r: one
    call covers many regimes of one kind."""
    h = np.asarray(h, dtype=float)
    if (h <= 0.0).any():
        raise ValueError("coefficients require h > 0")
    H = h + gamma_s(_radius(r))
    delta, n1, n2, n3 = _family(kind, beta_S, beta_Omega)
    den = npoly.polyval(H, delta, tensor=False)
    p1, p2, p3 = (npoly.polyval(H, n, tensor=False) / den for n in (n1, n2, n3))
    if kind is RegimeKind.MIXED:
        alpha_S = np.full(np.shape(p1), math.inf)
    else:
        alpha_S = (1.0 / beta_S + 2.0) * H
    fields = (alpha_S, H / beta_Omega, p1, p2, p3)
    return ProfileCoefficients(*(map(float, fields) if np.ndim(p1) == 0 else fields))


@lru_cache(maxsize=32)
def _engine(regime):
    """Per-regime polynomial tables, one for each i = 1, 2, 3: an (8, L)
    array whose rows are N_i and its first three derivatives, then
    Delta * H^i and its first three, low-to-high coefficients zero-padded
    to the length L of Delta * H^i."""
    delta, n1, n2, n3 = _family(regime.kind, regime.beta_S, regime.beta_Omega)
    tables = []
    for i, num in ((1, n1), (2, n2), (3, n3)):
        den = np.concatenate([np.zeros(i), delta])  # Delta(H) * H^i
        rows = [npoly.polyder(c, k) for c in (num, den) for k in range(4)]
        table = np.zeros((8, den.size))
        for row, c in zip(table, rows):
            row[: c.size] = c
        tables.append(table)
    return tuple(tables)


def _g_derivs(regime, H):
    """G_i, G_i', G_i'', G_i''' for i = 1, 2, 3 at the given H values, as
    an array of shape (4, 3) + H.shape indexed [order, i - 1].

    One Horner pass, in place on 8 rows, evaluates each table of `_engine`;
    the zeros above a row's degree leave every bit as polyval gives it.
    G_i = N_i / (Delta H^i) is differentiated by the quotient-rule
    recursion R' = (n' - R d') / d and its higher-order analogues.
    """
    H = np.asarray(H)
    g = np.empty((4, 3) + H.shape)
    v = np.empty((8,) + H.shape)
    for i, table in enumerate(_engine(regime)):
        table = table.reshape((8,) + (1,) * H.ndim + (-1,))
        v[...] = table[..., -1]
        for k in range(table.shape[-1] - 2, -1, -1):
            v *= H
            v += table[..., k]
        # the N_i rows become R_k = G_i^(k) in place, as views (also for a
        # 0-d H): R_k = (n_k - sum_j C(k, j) R_(k-j) d_j) / d_0, j = 1..k
        r0, r1, r2, r3, d0, d1, d2, d3 = (v[k, ...] for k in range(8))
        r0 /= d0
        r1 -= r0 * d1
        r1 /= d0
        r2 -= 2.0 * r1 * d1
        r2 -= r0 * d2
        r2 /= d0
        r3 -= 3.0 * r2 * d1
        r3 -= 3.0 * r1 * d2
        r3 -= r0 * d3
        r3 /= d0
        g[:, i] = v[:4]
    return g


@dataclass(frozen=True)
class PsiPartials:
    """All partials of Psi in (r, z) up to total order three.

    The fields `dr_by_r`, `drz_by_r`, `drzz_by_r` hold the exact quotients
    (d_r Psi)/r etc., which stay finite on the axis, and `rad2` holds
    (d_rr Psi - d_r Psi / r) / r^2, the combination entering cartesian
    Hessians.  Fields broadcast with the evaluation arrays.
    """

    value: object
    dr: object
    dz: object
    drr: object
    drz: object
    dzz: object
    drrr: object
    drrz: object
    drzz: object
    dzzz: object
    dr_by_r: object
    drz_by_r: object
    drzz_by_r: object
    rad2: object
    H: object


def _check_gap_point(h, r, z):
    if h <= 0.0:
        raise ValueError("profile evaluation requires h > 0")
    r = _radius(r)
    z = np.asarray(z, dtype=float)
    H = h + gamma_s(r)
    if ((z < 0.0) | (z > H * (1.0 + 1e-12) + 1e-300)).any():
        raise ValueError("z outside the gap [0, h + gamma_s(r)]")
    return r, z, H


class _Kernel:
    """Psi(r, z) = F(H(r), z) at checked gap points, the one derivative engine.

    ``f[a, b]`` holds the partial d_H^a d_z^b F for a + b <= 3, built from
    the a-th H-derivatives of (G1, G2, G3).  Every r-derivative follows
    from the chain rule through H(r) = h + gamma_s(r), whose derivatives
    are h1 = r/s, h2 = s^-3 and h3 = 3 r s^-5 with s = sqrt(1 - r^2); the
    h-derivative at fixed (r, z) is d_H, one step up the same table.

    The table is stacked by z-order: one evaluation of
    d_z^b (G1 z + G2 z^2 + G3 z^3) per b covers every a <= 3 - b, reading
    rows a of the (4, 3) array from `_g_derivs` with its [a, i] axes put
    ahead of every axis of z, also those z has beyond H's.  Each row does
    the operations of its own (a, b) formula on the same operands (a sum
    taken in place may swap its two terms, which leaves the bits), so
    ``f[a, b]``, row a of the b-th stack as a view, keeps every bit.
    """

    __slots__ = ("H", "s", "h1", "h2", "h3", "f")

    def __init__(self, regime, h, r, z):
        r, z, self.H = _check_gap_point(h, r, z)
        s = np.sqrt(1.0 - r * r)
        self.s = s
        self.h1 = r / s
        self.h2 = s ** -3.0
        self.h3 = 3.0 * r * s ** -5.0
        g = _g_derivs(regime, self.H)
        g = g.reshape((4, 3) + (1,) * (z.ndim - self.H.ndim) + self.H.shape)
        g1, g2, g3 = g[:, 0], g[:, 1], g[:, 2]
        z2 = z * z
        f0 = g1 * z  # g1 z + g2 z^2 + g3 z^3
        f0 += g2 * z2
        f0 += g3 * (z2 * z)
        f1 = 2.0 * g2[:3] * z  # g1 + 2 g2 z + 3 g3 z^2
        f1 += g1[:3]
        f1 += 3.0 * g3[:3] * z2
        f2 = 6.0 * g3[:2] * z  # 2 g2 + 6 g3 z
        f2 += 2.0 * g2[:2]
        f3 = 6.0 * g3[:1] * np.ones_like(z)
        self.f = {(a, b): fb[a] for b, fb in enumerate((f0, f1, f2, f3)) for a in range(4 - b)}

    def d_r(self, f1, f2=None, f3=None):
        """First, second or third r-derivative of a function of H(r), given
        its H-derivatives f1, f2, f3 up to that order."""
        if f2 is None:
            return f1 * self.h1
        if f3 is None:
            return f2 * self.h1 * self.h1 + f1 * self.h2
        return f3 * self.h1 ** 3 + 3.0 * f2 * self.h1 * self.h2 + f1 * self.h3

    def d_r_by_r(self, f1):
        """(d_r of a function of H(r)) / r, finite on the axis."""
        return f1 / self.s


def _partials(k):
    f = k.f
    return PsiPartials(
        value=f[0, 0],
        dr=k.d_r(f[1, 0]),
        dz=f[0, 1],
        drr=k.d_r(f[1, 0], f[2, 0]),
        drz=k.d_r(f[1, 1]),
        dzz=f[0, 2],
        drrr=k.d_r(f[1, 0], f[2, 0], f[3, 0]),
        drrz=k.d_r(f[1, 1], f[2, 1]),
        drzz=k.d_r(f[1, 2]),
        dzzz=f[0, 3],
        dr_by_r=k.d_r_by_r(f[1, 0]),
        drz_by_r=k.d_r_by_r(f[1, 1]),
        drzz_by_r=k.d_r_by_r(f[1, 2]),
        rad2=f[2, 0] / (k.s * k.s) + f[1, 0] / (k.s ** 3.0),
        H=k.H,
    )


def _h_partials(k):
    f = k.f
    return PsiHPartials(
        dh=f[1, 0],
        drh=k.d_r(f[2, 0]),
        dzh=f[1, 1],
        drrh=k.d_r(f[2, 0], f[3, 0]),
        dzzh=f[1, 2],
        drzh=k.d_r(f[2, 1]),
        drh_by_r=k.d_r_by_r(f[2, 0]),
    )


def psi_partials(regime, h, r, z):
    """Closed-form partial derivatives of Psi(r, z) up to total order three.

    Parameters
    ----------
    regime : SlipRegime
    h : float
    r, z : float or ndarray
        Broadcastable; 0 <= r < 1 and 0 <= z <= h + gamma_s(r).

    Returns
    -------
    PsiPartials
    """
    return _partials(_Kernel(regime, h, r, z))


@dataclass(frozen=True)
class PsiHPartials:
    """h-derivative of Psi and its mixed partials with r and z."""

    dh: object
    drh: object
    dzh: object
    drrh: object
    dzzh: object
    drzh: object
    drh_by_r: object


# Envelope rows: label -> (extractor, inverse-scale weight).  The weighted
# sup of each row should stay O(1) uniformly in h; the test harness asserts
# a bounded ratio across an h sweep.  Rows follow the regime's derivative
# bound table; weights are the reciprocals of the claimed envelopes.
ENVELOPE_ROWS = {
    RegimeKind.SLIP: {
        "psi": (lambda p, q: np.abs(p.value), lambda r, H: 1.0),
        "dz*H": (lambda p, q: np.abs(p.dz), lambda r, H: H),
        "dr*H/r": (lambda p, q: np.abs(p.dr_by_r), lambda r, H: H),
        "drr*H": (lambda p, q: np.abs(p.drr), lambda r, H: H),
        "dzz*H": (lambda p, q: np.abs(p.dzz), lambda r, H: H),
        "dzzz*H^2": (lambda p, q: np.abs(p.dzzz), lambda r, H: H * H),
        "drrz*H^2": (lambda p, q: np.abs(p.drrz), lambda r, H: H * H),
        "drzz*H^2/r": (lambda p, q: np.abs(p.drzz_by_r), lambda r, H: H * H),
        "drrr/(r/H^2+1/H)": (
            lambda p, q: np.abs(p.drrr),
            lambda r, H: 1.0 / (r / (H * H) + 1.0 / H),
        ),
        "drz_cancel*H/r": (
            lambda p, q: np.abs(p.drz_by_r + p.dz / p.H),
            lambda r, H: H,
        ),
        "dh*H": (lambda p, q: np.abs(q.dh), lambda r, H: H),
        "drh/(1/H+r/H^2)": (
            lambda p, q: np.abs(q.drh),
            lambda r, H: 1.0 / (1.0 / H + r / (H * H)),
        ),
        "dzh*H^2": (lambda p, q: np.abs(q.dzh), lambda r, H: H * H),
        "dzzh*H^2": (lambda p, q: np.abs(q.dzzh), lambda r, H: H * H),
        "drrh*H^2": (lambda p, q: np.abs(q.drrh), lambda r, H: H * H),
        "drzh/(1/H^2+r/H^3)": (
            lambda p, q: np.abs(q.drzh),
            lambda r, H: 1.0 / (1.0 / (H * H) + r / H ** 3),
        ),
    },
    RegimeKind.MIXED: {
        "psi": (lambda p, q: np.abs(p.value), lambda r, H: 1.0),
        "dz*H": (lambda p, q: np.abs(p.dz), lambda r, H: H),
        "dr*H/r": (lambda p, q: np.abs(p.dr_by_r), lambda r, H: H),
        "drr*H": (lambda p, q: np.abs(p.drr), lambda r, H: H),
        "dzz*H^2": (lambda p, q: np.abs(p.dzz), lambda r, H: H * H),
        "drz*H^2/r": (lambda p, q: np.abs(p.drz_by_r), lambda r, H: H * H),
        "dzzz*H^3": (lambda p, q: np.abs(p.dzzz), lambda r, H: H ** 3),
        "drrz*H^2": (lambda p, q: np.abs(p.drrz), lambda r, H: H * H),
        "drzz*H^3/r": (lambda p, q: np.abs(p.drzz_by_r), lambda r, H: H ** 3),
        "drrr*H^2/r": (
            lambda p, q: np.abs(p.drrr),
            lambda r, H: H * H / r,
        ),
        "dh*H": (lambda p, q: np.abs(q.dh), lambda r, H: H),
        "drh*H^2/r": (lambda p, q: np.abs(q.drh_by_r), lambda r, H: H * H),
        "drrh*H^2": (lambda p, q: np.abs(q.drrh), lambda r, H: H * H),
        "dzh*H^2": (lambda p, q: np.abs(q.dzh), lambda r, H: H * H),
        "dzzh*H^3": (lambda p, q: np.abs(q.dzzh), lambda r, H: H ** 3),
        "drzh/(r/H^3+1/H^2)": (
            lambda p, q: np.abs(q.drzh),
            lambda r, H: 1.0 / (r / H ** 3 + 1.0 / (H * H)),
        ),
    },
}


SUP_GRID_N = 64


def weighted_sups(regime, h, delta=DELTA_DEFAULT):
    """Weighted derivative sups over the aperture for the envelope table.

    Samples a square SUP_GRID_N grid with r log-spaced down to below the
    lubrication scale sqrt(h) and z proportional to the local gap height,
    and returns, for each envelope row of the regime, the sup of
    |derivative| * weight(r, H).  Uniform boundedness of these sups across
    an h sweep is the numerical surrogate for the "<=" statements of the
    derivative bound tables.
    """
    rows = ENVELOPE_ROWS[regime.kind]
    r_lo = max(1e-8, math.sqrt(h) / 100.0)
    r = np.geomspace(r_lo, delta, SUP_GRID_N)[:, None]
    t = np.linspace(1.0 / SUP_GRID_N, 1.0, SUP_GRID_N)[None, :]
    H = h + gamma_s(r)
    z = t * H
    k = _Kernel(regime, h, r, z)
    p, q = _partials(k), _h_partials(k)
    out = {}
    for label, (extract, weight) in rows.items():
        out[label] = float(np.max(extract(p, q) * weight(r, H)))
    return out
