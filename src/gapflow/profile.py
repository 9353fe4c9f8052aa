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
``RegimeKind``, ``SlipRegime`` and ``ScalingModel`` live in the numpy-free
``gapflow.model`` and are re-exported here.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import _radial
from .model import DELTA_DEFAULT, RegimeKind, ScalingModel, SlipRegime

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


class ProfileCoefficients(NamedTuple):
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
        Gap widths, finite and > 0.
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
    if not ((0.0 < h) & (h < math.inf)).all():  # a NaN fails both
        raise ValueError("h must be finite and > 0")
    _, H = _radial(h, r)
    delta, n1, n2, n3 = _family(kind, beta_S, beta_Omega)
    den = npoly.polyval(H, delta, tensor=False)
    p1, p2, p3 = (npoly.polyval(H, n, tensor=False) / den for n in (n1, n2, n3))
    if kind is RegimeKind.MIXED:
        alpha_S = np.full(np.shape(p1), math.inf)
    else:
        alpha_S = (1.0 / beta_S + 2.0) * H
    fields = (alpha_S, H / beta_Omega, p1, p2, p3)
    return ProfileCoefficients(*(map(float, fields) if np.ndim(p1) == 0 else fields))


# the first rows of Delta * H^i and of N_i in the table of `_engine`
_DELTA_H, _N = 0, 4


@lru_cache(maxsize=32)
def _engine(regime):
    """The regime's polynomial table and its Horner plan: (table, lead, steps).

    table is an (8, 3, L) array whose [:, i - 1] rows are Delta * H^i and
    its first three derivatives (from row _DELTA_H), then N_i and its first
    three (from row _N), low-to-high coefficients zero-padded to the length
    L of Delta * H^3, the longest.  A row kind's degree is the largest over
    i, and in this order the degrees never increase: 5 4 3 2 2 1 0 0 with
    slip and 4 3 2 1 1 0 0 0 mixed (a derivative that vanishes counts as
    degree 0).  lead (8, 3) holds each kind's coefficient at its degree,
    and steps the coefficients of the Horner steps from degree L - 2 down
    to 0, each over the leading kinds whose degree is above the step's.
    """
    delta, *nums = _family(regime.kind, regime.beta_S, regime.beta_Omega)
    L = delta.size + 3
    table = np.zeros((8, 3, L))
    degree = [0] * 8
    for i, num in enumerate(nums, start=1):
        den = np.concatenate([np.zeros(i), delta])  # Delta(H) * H^i
        rows = [npoly.polyder(c, k) for c in (den, num) for k in range(4)]
        for j, (row, c) in enumerate(zip(table[:, i - 1], rows)):
            row[: c.size] = c
            degree[j] = max(degree[j], c.size - 1)
    lead = table[range(8), :, degree]
    # a kind of degree below L - 1 meets its lead in a pass over the whole
    # padded table as 0 * H + c, which is c but for a -0.0
    lead[[d < L - 1 for d in degree]] += 0.0
    # each step shaped (kinds, 3, 1), to broadcast over the flat nodes
    steps = tuple(
        table[: sum(d > k for d in degree), :, k, None] for k in range(L - 2, -1, -1)
    )
    for a in (table, lead, *steps):
        a.flags.writeable = False  # every caller shares the cached arrays
    return table, lead, steps


def _g_derivs(regime, H):
    """G_i, G_i', G_i'', G_i''' for i = 1, 2, 3 at the given H values, as
    an array of shape (4, 3) + H.shape indexed [order, i - 1].

    One Horner pass, in place on the 8 x 3 rows, evaluates the table of
    `_engine`: each row kind starts at its lead, and each step updates only
    the leading kinds whose degree it has not yet passed, 51 row-updates a
    point with slip and 33 mixed.  Every bit is polyval's: a kind started
    late starts where a pass over the whole padded table stands when it
    reaches the kind's lead (while v is 0, v * H + 0 stays 0, and 0 + c is
    c), and the zeros above a row's own degree within its kind leave its
    bits alone the same way.  One quotient-rule recursion, R' = (n' - R d')
    / d and its higher-order analogues, differentiates G_i = N_i / (Delta
    H^i) for all three i in place, so the result is a view of the N rows.
    The pass runs over H flattened, so that the steps keep the one shape
    `_engine` gives them.
    """
    H = np.asarray(H)
    _, lead, steps = _engine(regime)
    flat = H.reshape(-1)
    v = np.empty(lead.shape + flat.shape)
    v[...] = lead[..., None]
    for c in steps:
        w = v[: len(c)]
        w *= flat
        w += c
    # the N_i rows become R_k = G_i^(k) in place, as views:
    # R_k = (n_k - sum_j C(k, j) R_(k-j) d_j) / d_0, j = 1..k
    d0, d1, d2, d3, r0, r1, r2, r3 = v
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
    return v[_N:].reshape((4, 3) + H.shape)


class PsiPartials:
    """Psi(r, z) = F(H(r), z) and its partials in (r, z, h) up to total
    order three at checked gap points, the one derivative engine.

    The attributes hold Psi and its partials up to second order.  The third
    order partials are properties, and so are `dr_by_r`, `drz_by_r` and
    `drzz_by_r`, the exact quotients (d_r Psi)/r etc., which stay finite on
    the axis, `rad2`, (d_rr Psi - d_r Psi / r) / r^2, the combination
    entering cartesian Hessians, and the h-derivative `dh` with its mixed
    partials `drh`, `dzh`, `drrh`, `dzzh`, `drzh` and `drh_by_r`.  A
    property is computed from the table each time it is read, so a caller
    pays only for what it reads: the boundary traces read none of them, and
    a drag row reads its few on the gap rows only, through `at`.  Every
    member broadcasts with the evaluation arrays.

    ``f[a, b]`` holds the partial d_H^a d_z^b F for a + b <= 3, built from
    the a-th H-derivatives of (G1, G2, G3).  Every r-derivative follows
    from the chain rule through H(r) = h + gamma_s(r), whose derivatives
    are h1 = r/s, h2 = s^-3 and h3 = 3 r s^-5 with s = sqrt(1 - r^2); the
    h-derivative at fixed (r, z) is d_H, one step up the same table.  These
    factors, with h1^3, are the `geometry.RadialFactors` in ``radial``,
    computed by `geometry.radial_factors` and nowhere here: from one
    `geometry._radial` call, or the caller's factors and H when it passes
    its own (as a drag row's integrand passes those of its mesh).  The
    z-range check runs on every evaluation.

    The table is stacked by z-order: one evaluation of
    d_z^b (G1 z + G2 z^2 + G3 z^3) per b covers every a <= 3 - b, reading
    rows a of the (4, 3) array from `_g_derivs` with its [a, i] axes put
    ahead of every axis of z, also those z has beyond H's.  Each row does
    the operations of its own (a, b) formula on the same operands (a sum
    taken in place may swap its two terms, which leaves the bits), so
    ``f[a, b]``, row a of the b-th stack as a view, keeps every bit.  The
    stacks leave out d_z^3 F = 6 G3: ``f3`` holds 6 G3 at H, and `dzzz`
    spreads it over z when it is read.
    """

    __slots__ = (
        "value", "dr", "dz", "drr", "drz", "dzz", "H", "radial", "z", "f", "f3",
    )

    def __init__(self, regime, h, r, z, radial):
        if not 0.0 < h < math.inf:  # a NaN fails both
            raise ValueError("h must be finite and > 0")
        # a caller that passes its own radial geometry has checked r with it
        rf, H = _radial(h, r) if radial is None else radial
        z = np.asarray(z, dtype=float)
        if ((z < 0.0) | (z > H * (1.0 + 1e-12) + 1e-300)).any():
            raise ValueError("z outside the gap [0, h + gamma_s(r)]")
        self.H, self.z, self.radial = H, z, rf
        h1 = rf.h1
        g_H = _g_derivs(regime, H)
        g = g_H.reshape((4, 3) + (1,) * (z.ndim - H.ndim) + H.shape)
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
        self.f = f = {(a, b): fb[a] for b, fb in enumerate((f0, f1, f2)) for a in range(4 - b)}
        # f3 after the stacks, and the second-order partials after the
        # H-derivatives are dropped, so that neither adds to the peak
        self.f3 = 6.0 * g_H[0, 2]
        del g_H, g, g1, g2, g3, z2
        self.value, self.dz, self.dzz = f[0, 0], f[0, 1], f[0, 2]
        self.dr = f[1, 0] * h1
        self.drr = f[2, 0] * h1 * h1 + f[1, 0] * rf.h2
        self.drz = f[1, 1] * h1

    def at(self, index):
        """The partials at one index of the axes z has ahead of H's, as a
        drag row's gap rows are of its (Z_ORDER + 2, n) heights: the
        attributes, z and f indexed, as views; H, the radial factors and
        f3 shared."""
        p = PsiPartials.__new__(PsiPartials)
        p.value, p.dr, p.dz = self.value[index], self.dr[index], self.dz[index]
        p.drr, p.drz, p.dzz = self.drr[index], self.drz[index], self.dzz[index]
        p.H, p.radial, p.f3 = self.H, self.radial, self.f3
        p.z = self.z[index]
        p.f = {key: v[index] for key, v in self.f.items()}
        return p

    @property
    def drrr(self):
        f, rf = self.f, self.radial
        return f[3, 0] * rf.h1_cubed + 3.0 * f[2, 0] * rf.h1 * rf.h2 + f[1, 0] * rf.h3

    @property
    def drrz(self):
        h1 = self.radial.h1
        return self.f[2, 1] * h1 * h1 + self.f[1, 1] * self.radial.h2

    @property
    def drzz(self):
        return self.f[1, 2] * self.radial.h1

    @property
    def dzzz(self):
        return self.f3 * np.ones_like(self.z)

    @property
    def dr_by_r(self):
        return self.f[1, 0] / self.radial.s

    @property
    def drz_by_r(self):
        return self.f[1, 1] / self.radial.s

    @property
    def drzz_by_r(self):
        return self.f[1, 2] / self.radial.s

    @property
    def rad2(self):
        s = self.radial.s
        return self.f[2, 0] / (s * s) + self.f[1, 0] / (s ** 3.0)

    @property
    def dh(self):
        return self.f[1, 0]

    @property
    def drh(self):
        return self.f[2, 0] * self.radial.h1

    @property
    def dzh(self):
        return self.f[1, 1]

    @property
    def drrh(self):
        h1 = self.radial.h1
        return self.f[3, 0] * h1 * h1 + self.f[2, 0] * self.radial.h2

    @property
    def dzzh(self):
        return self.f[1, 2]

    @property
    def drzh(self):
        return self.f[2, 1] * self.radial.h1

    @property
    def drh_by_r(self):
        return self.f[2, 0] / self.radial.s


def psi_partials(regime, h, r, z, radial=None):
    """Closed-form partial derivatives of Psi(r, z) up to total order three.

    Parameters
    ----------
    regime : SlipRegime
    h : float
        Gap width, finite and > 0.
    r, z : float or ndarray
        Broadcastable; 0 <= r < 1 and 0 <= z <= h + gamma_s(r).
    radial : (RadialFactors, H), optional
        `geometry._radial(h, r)`, or the factors of r with h added to their
        gamma, from a caller that shares them with its other radial terms;
        computed here when absent.

    Returns
    -------
    PsiPartials
    """
    return PsiPartials(regime, h, r, z, radial)


# Envelope rows: label -> (extractor, inverse-scale weight).  The weighted
# sup of each row should stay O(1) uniformly in h; the test harness asserts
# a bounded ratio across an h sweep.  Rows follow the regime's derivative
# bound table; weights are the reciprocals of the claimed envelopes.
ENVELOPE_ROWS = {
    RegimeKind.SLIP: {
        "psi": (lambda p: np.abs(p.value), lambda r, H: 1.0),
        "dz*H": (lambda p: np.abs(p.dz), lambda r, H: H),
        "dr*H/r": (lambda p: np.abs(p.dr_by_r), lambda r, H: H),
        "drr*H": (lambda p: np.abs(p.drr), lambda r, H: H),
        "dzz*H": (lambda p: np.abs(p.dzz), lambda r, H: H),
        "dzzz*H^2": (lambda p: np.abs(p.dzzz), lambda r, H: H * H),
        "drrz*H^2": (lambda p: np.abs(p.drrz), lambda r, H: H * H),
        "drzz*H^2/r": (lambda p: np.abs(p.drzz_by_r), lambda r, H: H * H),
        "drrr/(r/H^2+1/H)": (
            lambda p: np.abs(p.drrr),
            lambda r, H: 1.0 / (r / (H * H) + 1.0 / H),
        ),
        "drz_cancel*H/r": (
            lambda p: np.abs(p.drz_by_r + p.dz / p.H),
            lambda r, H: H,
        ),
        "dh*H": (lambda p: np.abs(p.dh), lambda r, H: H),
        "drh/(1/H+r/H^2)": (
            lambda p: np.abs(p.drh),
            lambda r, H: 1.0 / (1.0 / H + r / (H * H)),
        ),
        "dzh*H^2": (lambda p: np.abs(p.dzh), lambda r, H: H * H),
        "dzzh*H^2": (lambda p: np.abs(p.dzzh), lambda r, H: H * H),
        "drrh*H^2": (lambda p: np.abs(p.drrh), lambda r, H: H * H),
        "drzh/(1/H^2+r/H^3)": (
            lambda p: np.abs(p.drzh),
            lambda r, H: 1.0 / (1.0 / (H * H) + r / H ** 3),
        ),
    },
    RegimeKind.MIXED: {
        "psi": (lambda p: np.abs(p.value), lambda r, H: 1.0),
        "dz*H": (lambda p: np.abs(p.dz), lambda r, H: H),
        "dr*H/r": (lambda p: np.abs(p.dr_by_r), lambda r, H: H),
        "drr*H": (lambda p: np.abs(p.drr), lambda r, H: H),
        "dzz*H^2": (lambda p: np.abs(p.dzz), lambda r, H: H * H),
        "drz*H^2/r": (lambda p: np.abs(p.drz_by_r), lambda r, H: H * H),
        "dzzz*H^3": (lambda p: np.abs(p.dzzz), lambda r, H: H ** 3),
        "drrz*H^2": (lambda p: np.abs(p.drrz), lambda r, H: H * H),
        "drzz*H^3/r": (lambda p: np.abs(p.drzz_by_r), lambda r, H: H ** 3),
        "drrr*H^2/r": (
            lambda p: np.abs(p.drrr),
            lambda r, H: H * H / r,
        ),
        "dh*H": (lambda p: np.abs(p.dh), lambda r, H: H),
        "drh*H^2/r": (lambda p: np.abs(p.drh_by_r), lambda r, H: H * H),
        "drrh*H^2": (lambda p: np.abs(p.drrh), lambda r, H: H * H),
        "dzh*H^2": (lambda p: np.abs(p.dzh), lambda r, H: H * H),
        "dzzh*H^3": (lambda p: np.abs(p.dzzh), lambda r, H: H ** 3),
        "drzh/(r/H^3+1/H^2)": (
            lambda p: np.abs(p.drzh),
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
    rf, H = _radial(h, r)
    p = psi_partials(regime, h, r, t * H, (rf, H))
    out = {}
    for label, (extract, weight) in rows.items():
        out[label] = float(np.max(extract(p) * weight(r, H)))
    return out
