import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gapflow.profile import RegimeKind

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def _laplacian_and_pressure_gradient(regime, p, r):
    """((lap u)_r, (lap u)_z) and (d_r q, d_z q) from the Psi partials p at
    radius r, each in its own closed form: the two sides whose difference
    stokes_residual returns simplified, kept here as its reference."""
    lap_r = -0.5 * (3.0 * p.drz + r * p.drrz + r * p.dzzz)
    lap_z = (
        2.5 * p.drr
        + 0.5 * r * p.drrr
        + 1.5 * p.dr_by_r
        + p.dzz
        + 0.5 * r * p.drzz
    )
    if regime.kind is RegimeKind.SLIP:
        dq_r = -0.5 * (3.0 * p.drz + r * p.drrz + r * p.dzzz)
        dq_z = -0.5 * (r * p.drzz + 2.0 * p.dzz)
    else:
        dq_r = 0.5 * (3.0 * p.drz + r * p.drrz - r * p.dzzz)
        dq_z = 0.5 * (r * p.drzz + 2.0 * p.dzz)
    return (lap_r, lap_z), (dq_r, dq_z)


@pytest.fixture
def laplacian_and_pressure_gradient():
    """The two-sided reference for field.stokes_residual, shared by the
    field and drag tests."""
    return _laplacian_and_pressure_gradient
