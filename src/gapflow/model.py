"""The numpy-free core: regimes, drag laws, run parameters, errors and
defaults.

Each layer imports these names from here and re-exports them, so a name
keeps its old home (``gapflow.profile.SlipRegime``,
``gapflow.quadrature.QuadratureSpec``, ``gapflow.dynamics.TOUCHDOWN_H``).
This module imports the standard library alone: the CLI validates a run
config on it, and the fall (``dynamics`` on ``ode``) runs on it, without
numpy.  Only the array forms of ``ScalingModel`` import numpy, inside the
method.

The package's records are NamedTuples, whose classes a fresh process
builds without generating code.  A record that checks its fields is a
subclass of its NamedTuple whose ``__new__`` runs the checks; ``_replace``
and ``_make`` skip ``__new__``, so no code builds such a record through
them.
"""

import math
from enum import Enum
from typing import NamedTuple

# aperture half-width, the far cutoff shell around the sphere, and the
# largest gap: the geometry's defaults
DELTA_DEFAULT = 0.2
D_DELTA_DEFAULT = 0.1
H_MAX_DEFAULT = 0.5
# the gap sweep of drag scan, drag fit and integral classify
DEFAULT_H_LIST = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
# the fall: touchdown gap and the integrator's tolerances
TOUCHDOWN_H = 1e-12
RTOL_DEFAULT = 1e-9
ATOL_DEFAULT = 1e-12


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
        """a |ln h| or a / h at the gaps h, as a numpy array."""
        import numpy as np

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


class _SlipRegime(NamedTuple):
    kind: RegimeKind
    beta_S: float
    beta_Omega: float


class SlipRegime(_SlipRegime):
    """Boundary-condition regime with its slip lengths.

    The slip lengths are finite.  Slip requires both positive; Mixed means
    no-slip at the sphere (beta_S = 0) and slip at the wall.  No-slip on both the sphere
    and the wall is not a regime: it is the H -> inf (alpha_P -> inf) limit
    of the mixed family in `profile._family`, which `verify all` checks.
    """

    __slots__ = ()

    def __new__(cls, kind, beta_S, beta_Omega):
        if kind is RegimeKind.SLIP and not (beta_S > 0.0 and beta_Omega > 0.0):
            raise ValueError("Slip regime requires beta_S > 0 and beta_Omega > 0")
        if kind is RegimeKind.MIXED and not (beta_S == 0.0 and beta_Omega > 0.0):
            raise ValueError("Mixed regime requires beta_S = 0 and beta_Omega > 0")
        if not (math.isfinite(beta_S) and math.isfinite(beta_Omega)):
            raise ValueError("slip lengths must be finite")
        return super().__new__(cls, kind, beta_S, beta_Omega)

    @classmethod
    def slip(cls, beta_S, beta_Omega):
        return cls(RegimeKind.SLIP, float(beta_S), float(beta_Omega))

    @classmethod
    def mixed(cls, beta_Omega):
        return cls(RegimeKind.MIXED, 0.0, float(beta_Omega))


class _FallParameters(NamedTuple):
    rho_S: float
    rho_F: float
    g: float
    kappa: float


class FallParameters(_FallParameters):
    """Densities, gravity, and the drag prefactor of the reduced fall.

    The viscosity enters only through the drag prefactor kappa.  The
    effective gravity G = (rho_S - rho_F) g / rho_S is positive exactly
    when the sphere is heavier than the fluid.
    """

    __slots__ = ()

    def __new__(cls, rho_S, rho_F, g, kappa):
        if rho_S <= 0.0:
            raise ValueError("rho_S must be positive")
        if rho_F < 0.0:
            raise ValueError("rho_F must be nonnegative")
        if g <= 0.0:
            raise ValueError("g must be positive")
        if kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        return super().__new__(cls, rho_S, rho_F, g, kappa)

    @property
    def G(self):
        return (self.rho_S - self.rho_F) * self.g / self.rho_S


class _QuadratureSpec(NamedTuple):
    rel_tol: float
    abs_tol: float


class QuadratureSpec(_QuadratureSpec):
    __slots__ = ()

    def __new__(cls, rel_tol, abs_tol):
        if not (0.0 < rel_tol < math.inf and 0.0 < abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        return super().__new__(cls, rel_tol, abs_tol)


class QuadratureError(RuntimeError):
    """Tolerance not reached; carries the best estimate and its error bound."""

    def __init__(self, message, value, error, cells):
        super().__init__(message)
        self.value = value
        self.error = error
        self.cells = cells


class StiffnessError(RuntimeError):
    """The step controller stalled without bracketing a terminal event."""
