import math

import mpmath
import numpy as np
import pytest

from gapflow import quadrature
from gapflow.quadrature import (
    DEFAULT_H_LIST,
    FIT_R2_FLOOR,
    MAX_CELLS,
    Classification,
    IntegralResult,
    ModelFit,
    QuadratureError,
    QuadratureSpec,
    SingularIntegralCase,
    classify_singular,
    graded_cuts,
    integrate_gap,
    integrate_surface,
    log_case_oracle,
)

TOL_CLOSED_FORM = 1e-10
SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)


def _respec(**kwargs):
    """SPEC with kwargs replaced, built through the class, which checks them."""
    return QuadratureSpec(**{**SPEC._asdict(), **kwargs})


def gap_volume(h, r_max):
    # closed form of int 2 pi r (h + gamma_s) dr
    return 2.0 * math.pi * (
        h * r_max**2 / 2.0
        + r_max**2 / 2.0
        - (1.0 - (1.0 - r_max**2) ** 1.5) / 3.0
    )


class TestSpec:
    def test_defaults_valid(self):
        # the tolerances a run defaults to (cli.RunConfig)
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
        assert spec.rel_tol > 0 and spec.abs_tol > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rel_tol=0.0),
            dict(abs_tol=-1.0),
            dict(rel_tol=math.nan),
            dict(abs_tol=math.nan),
            dict(rel_tol=math.inf),
            dict(abs_tol=math.inf),
            dict(abs_tol=0.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            _respec(**kwargs)


class TestGradedCuts:
    def test_shape(self):
        cuts = graded_cuts(0.2, 0.01)
        assert cuts[0] == 0.0 and cuts[-1] == 0.2
        assert all(b > a for a, b in zip(cuts, cuts[1:]))
        # geometric toward zero with ratio 2
        interior = cuts[1:]
        for a, b in zip(interior, interior[1:]):
            assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            graded_cuts(0.0, 0.01)


class TestIntegrateGap:
    def test_unit_integrand_volume(self):
        res = integrate_gap(lambda r, z: np.ones_like(z), 0.1, 0.2, SPEC)
        exact = gap_volume(0.1, 0.2)
        assert abs(res.value - exact) / exact < TOL_CLOSED_FORM
        assert isinstance(res, IntegralResult)
        assert res.cells >= 1

    def test_zero_integrand(self):
        res = integrate_gap(lambda r, z: np.zeros_like(z), 0.1, 0.2, SPEC)
        assert res.value == 0.0

    def test_polynomial_z_moment(self):
        # int_0^H z dz = H^2/2, so the integral has closed form
        h, r_max = 0.05, 0.2

        def f(r, z):
            return z

        res = integrate_gap(f, h, r_max, SPEC)
        r = np.linspace(0, r_max, 400_001)
        H = h + 1.0 - np.sqrt(1.0 - r * r)
        exact = 2.0 * math.pi * np.trapezoid(r * H * H / 2.0, r)
        assert res.value == pytest.approx(float(exact), rel=1e-8)

    def test_singular_scale_integrand(self):
        # z-independent f = r/(h + gamma_s)^2, the classifier's model
        # shape: compare against the 1D oracle with the exact gap profile
        h, r_max = 1e-4, 0.2

        def f(r, z):
            H = h + 1.0 - np.sqrt(1.0 - r * r)
            return r / H**2 * np.ones_like(z)

        res = integrate_gap(f, h, r_max, SPEC)
        # reduce analytically over z: integrand becomes 2 pi r * r/H
        r = np.geomspace(1e-9, r_max, 2_000_001)
        H = h + 1.0 - np.sqrt(1.0 - r * r)
        exact = 2.0 * math.pi * np.trapezoid(r * r / H, r)
        assert res.value == pytest.approx(float(exact), rel=1e-6)

    def test_refinement_convergence_suite(self):
        # halving the tolerance moves the result by less than the reported
        # error bound, across a suite of 20 integrands
        h, r_max = 1e-3, 0.2
        integrands = []
        for i in range(4):
            for j in range(5):
                def f(r, z, i=i, j=j):
                    H = h + 1.0 - np.sqrt(1.0 - r * r)
                    return r**i * (z / H) ** j / (h + r * r)
                integrands.append(f)
        assert len(integrands) == 20
        for f in integrands:
            loose = integrate_gap(f, h, r_max, _respec(rel_tol=1e-8))
            tight = integrate_gap(f, h, r_max, _respec(rel_tol=5e-9))
            assert abs(loose.value - tight.value) <= max(loose.error, 1e-13 * abs(loose.value) + 1e-15)

    def test_z_reflection_symmetry(self):
        # the measure is invariant under z -> H - z, so both orientations of
        # any profile integrate identically; exercised with the plug profile
        # u_r shape (linear Phi), where the reflection is also pointwise even
        h, r_max = 1e-3, 0.2

        def f(r, z):
            H = h + 1.0 - np.sqrt(1.0 - r * r)
            return (r * z / H) ** 2 + r

        def f_reflected(r, z):
            H = h + 1.0 - np.sqrt(1.0 - r * r)
            return (r * (H - z) / H) ** 2 + r

        a = integrate_gap(f, h, r_max, SPEC)
        b = integrate_gap(f_reflected, h, r_max, SPEC)
        assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_nonconvergent_raises_with_estimate(self, monkeypatch):
        def nasty(r, z):
            return np.abs(np.sin(1.0 / (r + 1e-12)))  # unresolvable oscillation

        monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
        with pytest.raises(QuadratureError) as err:
            integrate_gap(nasty, 0.1, 0.2, _respec(rel_tol=1e-12))
        assert math.isfinite(err.value.value)
        assert err.value.error > 0

    def test_h_domain(self):
        with pytest.raises(ValueError):
            integrate_gap(lambda r, z: z, 0.0, 0.2, SPEC)

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1e-3])
    def test_gap_cuts_reject_a_gap_that_is_not_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            quadrature.gap_cuts(h, 0.2)


def _never_called(r):
    raise AssertionError("the integrand was called")


class TestIntegrateSurface:
    def test_disk_area(self):
        res = integrate_surface(lambda r: np.ones_like(r), "plane", 0.4, SPEC, scale=0.4 * 2.0**-16)
        assert res.value == pytest.approx(math.pi * 0.4**2, rel=TOL_CLOSED_FORM)

    def test_cap_area(self):
        res = integrate_surface(
            lambda r: np.ones_like(r), "sphere-cap", 0.6, SPEC, scale=0.6 * 2.0**-16
        )
        assert res.value == pytest.approx(2.0 * math.pi * (1.0 - 0.8), rel=TOL_CLOSED_FORM)

    def test_unknown_surface(self):
        # named before the integrand is called
        with pytest.raises(ValueError, match="unknown surface 'cone'"):
            integrate_surface(_never_called, "cone", 0.2, SPEC, scale=1.0)

    @pytest.mark.parametrize("r_max", [1.0, 1.5])
    def test_a_cap_past_the_unit_radius_raises(self, r_max):
        # the cap's domain is _radial's, checked at r_max before any call
        with pytest.raises(ValueError, match="requires 0 <= r < 1"):
            integrate_surface(_never_called, "sphere-cap", r_max, SPEC, scale=0.1)

    def test_the_cap_measure_is_r_over_s(self):
        # int 2 pi s (r / s) dr over [0, 0.6] is the disk area pi 0.36
        res = integrate_surface(
            lambda r: np.sqrt(1.0 - r * r), "sphere-cap", 0.6, SPEC, scale=0.6 * 2.0**-16
        )
        assert res.value == pytest.approx(math.pi * 0.36, rel=1e-14)

    @pytest.mark.parametrize(
        "surface, measure",
        [("plane", lambda r: r), ("sphere-cap", lambda r: r / np.sqrt(1.0 - r * r))],
        ids=["plane", "sphere-cap"],
    )
    def test_each_measure_keeps_the_bits_of_its_closed_form(self, surface, measure):
        def f(r):
            return np.exp(-r / 0.01)

        res = integrate_surface(f, surface, 0.6, SPEC, scale=0.01)
        ref = quadrature._adaptive_1d(
            lambda r: 2.0 * math.pi * f(r) * measure(r), graded_cuts(0.6, 0.01), SPEC
        )
        assert res == ref


class TestStackedIntegrand:
    """k components on one mesh, each against its own tolerance."""

    EPS = 1e-6  # the peaked component lives on the scale sqrt(EPS)
    R = 0.2

    def peaked(self, r):
        return 1.0 / (self.EPS + r * r)

    def stacked(self, r):
        return np.stack([np.ones_like(r), self.peaked(r)])

    def surface(self, f, spec=None):
        return integrate_surface(
            f, "plane", self.R, spec or SPEC, scale=math.sqrt(self.EPS)
        )

    def test_each_component_meets_its_own_tolerance(self):
        disk, peak = self.surface(self.stacked)
        exact = (
            math.pi * self.R**2,
            math.pi * math.log((self.EPS + self.R**2) / self.EPS),
        )
        for res, value in zip((disk, peak), exact):
            assert isinstance(res, IntegralResult)
            bound = max(SPEC.abs_tol, SPEC.rel_tol * value)
            assert abs(res.value - value) <= bound
        assert disk.cells == peak.cells

    def test_mesh_is_at_least_the_peaked_components_own(self):
        disk, _ = self.surface(self.stacked)
        assert disk.cells >= self.surface(self.peaked).cells

    def test_one_component_is_the_scalar_path(self):
        h, r_max = 1e-4, 0.2

        def f(r, z):
            return r * z / (h + r * r)

        (stacked,) = integrate_gap(lambda r, z: f(r, z)[None], h, r_max, SPEC)
        assert stacked == integrate_gap(f, h, r_max, SPEC)
        (stacked,) = self.surface(lambda r: self.peaked(r)[None])
        assert stacked == self.surface(self.peaked)

    def test_nonconvergence_names_the_component(self, monkeypatch):
        def f(r):
            return np.stack([np.ones_like(r), np.abs(np.sin(1.0 / (r + 1e-12)))])

        monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
        spec = _respec(rel_tol=1e-12)
        with pytest.raises(QuadratureError, match="in component 1 ") as err:
            self.surface(f, spec)
        assert len(err.value.value) == len(err.value.error) == 2
        assert all(math.isfinite(v) for v in err.value.value)


def _nasty(r):
    return np.abs(np.sin(1.0 / (r + 1e-12)))  # unresolvable oscillation


class TestGlobalRefinement:
    """Each way the refinement loop gives up ends in bounded work."""

    @pytest.mark.parametrize(
        "f, spec, max_depth, reason",
        [
            (lambda r: np.where(r < 0.1, 1.0, np.inf), SPEC, None, "non-finite"),
            (np.ones_like, QuadratureSpec(rel_tol=1e-15, abs_tol=1e-18), None, "roundoff floor"),
            (_nasty, _respec(rel_tol=1e-12), 3, "max_depth 3"),
            (_nasty, _respec(rel_tol=1e-12), None, f"cell budget {MAX_CELLS}"),
        ],
        ids=["non-finite", "roundoff", "max-depth", "budget"],
    )
    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    def test_each_stop_raises_with_its_reason(self, monkeypatch, f, spec, max_depth, reason):
        if max_depth is not None:
            monkeypatch.setattr(quadrature, "MAX_DEPTH", max_depth)
        calls = []

        def counted(r):
            calls.append(r.size)
            return f(r)

        with pytest.raises(QuadratureError, match=reason) as err:
            integrate_surface(counted, "plane", 0.2, spec, scale=0.2 * 2.0**-16)
        assert err.value.cells <= MAX_CELLS
        assert len(calls) <= MAX_CELLS

    def test_a_smooth_integrand_is_one_call(self):
        calls = []

        def f(r):
            calls.append(r.size)
            return np.exp(r)

        res = integrate_surface(f, "plane", 0.2, SPEC, scale=0.2 * 2.0**-16)
        assert len(calls) == 1
        exact = 2.0 * math.pi * (1.0 - 0.8 * math.exp(0.2))  # int 2 pi r e^r dr
        assert res.value == pytest.approx(exact, rel=1e-14)


class TestClassifySingular:
    def test_log_case_matches_closed_form(self):
        case = classify_singular(1, 1, 0.25, spec=SPEC)
        assert case.classification is Classification.LOGARITHMIC
        for h, value in case.values:
            assert value == pytest.approx(log_case_oracle(h, 0.25), rel=1e-8)

    def test_log_case_frozen_point(self):
        # delta = 0.25, h = 1e-4: closed form is 0.5 ln(626.0)
        assert log_case_oracle(1e-4, 0.25) == pytest.approx(
            0.5 * math.log(626.0), rel=1e-15
        )
        case = classify_singular(1, 1, 0.25, h_list=(1e-2, 1e-3, 1e-4, 1e-5), spec=SPEC)
        got = dict(case.values)[1e-4]
        assert got == pytest.approx(0.5 * math.log(626.0), rel=1e-8)

    def test_log_ratio_approaches_half(self):
        case = classify_singular(1, 1, 0.25, h_list=(1e-4, 1e-5, 1e-6), spec=SPEC)
        # the fitted slope is the h->0 limit of I(h)/|ln h|; pointwise the
        # ratio increases toward 1/2 but carries a ln(delta^2)/2 offset
        ratios = [value / abs(math.log(h)) for h, value in case.values]
        assert ratios == sorted(ratios)
        assert all(ratio < 0.5 for ratio in ratios)
        assert case.selected.a == pytest.approx(0.5, rel=1e-3)

    @pytest.mark.parametrize(
        "p,q,expected,exponent",
        [
            (0, 1, Classification.POWER_LAW, -0.5),
            (1, 1, Classification.LOGARITHMIC, 0.0),
            (2, 1, Classification.BOUNDED, 0.0),
            (3, 1, Classification.BOUNDED, 0.0),
            (0, 2, Classification.POWER_LAW, -1.5),
            (1, 2, Classification.POWER_LAW, -1.0),
            (2, 2, Classification.POWER_LAW, -0.5),
            (3, 2, Classification.LOGARITHMIC, 0.0),
        ],
    )
    def test_classification_grid(self, p, q, expected, exponent):
        case = classify_singular(p, q, 0.2, spec=SPEC)
        assert case.classification is expected
        if expected is Classification.POWER_LAW:
            assert case.exponent == exponent
        assert case.selected.r_squared >= 0.99

    def test_power_law_oracle_p0_q1(self):
        # closed form: atan(delta/sqrt(h))/sqrt(h)
        case = classify_singular(0, 1, 0.2, spec=SPEC)
        for h, value in case.values:
            exact = math.atan(0.2 / math.sqrt(h)) / math.sqrt(h)
            assert value == pytest.approx(exact, rel=1e-9)

    def test_bounded_p3_q1_oracle(self):
        # closed form: delta^2/2 - (h/2) ln((h+delta^2)/h)
        case = classify_singular(3, 1, 0.2, spec=SPEC)
        for h, value in case.values:
            exact = 0.02 - 0.5 * h * math.log((h + 0.04) / h)
            assert value == pytest.approx(exact, rel=1e-9)

    def test_a_case_whose_fits_all_fail_is_returned(self):
        # h_list reaches no gap with h << delta^2, so no model fits; the
        # case still carries its values and fits for the report's rows
        case = classify_singular(2, 1, 1e-3, spec=SPEC)
        assert case.classification is Classification.BOUNDED
        assert len(case.values) == len(DEFAULT_H_LIST)
        assert all(fit.r_squared < FIT_R2_FLOOR for fit in case.fits.values())

    def test_the_log_case_oracle_is_positive_below_eps_h(self):
        # delta^2 / h = 1e-18 < eps: (h + delta^2) / h would round to 1
        assert log_case_oracle(1e-2, 1e-10) == pytest.approx(0.5e-18, rel=1e-15)

    @pytest.mark.parametrize("delta", [0.2, 0.05])
    def test_values_match_the_hypergeometric_closed_form(self, delta):
        # I(h) = delta^(p+1)/(p+1) h^-q 2F1(q, (p+1)/2; (p+3)/2; -delta^2/h),
        # at 30 digits, over the default h_list in all three classes
        grid = [(0, 0.75), (2, 2), (1, 1.5), (1, 1), (0, 0.5), (3.5, 2.25), (2, 1), (1, 0.5)]
        seen = set()
        with mpmath.workdps(30):
            for p, q in grid:
                case = classify_singular(p, q, delta, spec=SPEC)
                seen.add(case.classification)
                P, Q, D = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(delta)
                for h, value in case.values:
                    H = mpmath.mpf(h)
                    exact = D ** (P + 1) / (P + 1) * H**-Q * mpmath.hyp2f1(
                        Q, (P + 1) / 2, (P + 3) / 2, -D * D / H
                    )
                    assert abs(value / exact - 1) <= SPEC.rel_tol, (p, q, h)
        assert seen == set(Classification)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            classify_singular(-1, 1, 0.2, spec=SPEC)
        with pytest.raises(ValueError):
            classify_singular(1, 0, 0.2, spec=SPEC)
        with pytest.raises(ValueError):
            classify_singular(1, 1, 0.2, h_list=(1e-9,), spec=SPEC)

    @pytest.mark.parametrize(
        "p, q, expected, exponent, key",
        [
            (0, 1, Classification.POWER_LAW, -0.5, "power"),
            (1, 1, Classification.LOGARITHMIC, 0.0, "log"),
            (2, 1, Classification.BOUNDED, 0.0, "bounded"),
        ],
        ids=["power-law", "logarithmic", "bounded"],
    )
    def test_a_case_reads_its_classification_from_p_and_q(self, p, q, expected, exponent, key):
        # a case holds its inputs and results only, so none can disagree
        # with (p, q): p + 1 < 2q, p + 1 = 2q and p + 1 > 2q
        fits = {name: ModelFit(name, 1.0, 0.0, 1.0) for name in ("power", "log", "bounded")}
        case = SingularIntegralCase(p=p, q=q, delta=0.2, values=(), fits=fits)
        assert case.classification is expected
        assert case.exponent == exponent
        assert case.selected is fits[key]
        assert SingularIntegralCase._fields == ("p", "q", "delta", "values", "fits")


def _reference_adaptive_1d(g, cuts, spec, names=None):
    """_adaptive_1d as it was before its first mesh was cached and its
    checks compared floats: the bit-for-bit reference of the faster body.
    It reads the refinement bounds from the module, as the body does, so
    that a test's monkeypatch holds for both."""
    x, w = quadrature._gl_rule(quadrature.RULE_ORDER)
    MAX_DEPTH, BATCH_FACTOR = quadrature.MAX_DEPTH, quadrature.BATCH_FACTOR
    MAX_CELLS, ROUNDOFF_FLOOR = quadrature.MAX_CELLS, quadrature.ROUNDOFF_FLOOR

    def rule(lo, hi, parts):
        half = 0.5 * (hi - lo)
        vals = np.asarray(g((lo[:, None] + half[:, None] * (x + 1.0)).ravel()))
        est = half * np.sum(w * vals.reshape(-1, lo.size, x.size), axis=-1)
        return est.reshape(len(est), parts, -1), vals.ndim == 2

    a, b = np.array(cuts[:-1], dtype=float), np.array(cuts[1:], dtype=float)
    m = 0.5 * (a + b)
    est, stacked = rule(np.concatenate((a, a, m)), np.concatenate((b, m, b)), 3)
    depth = np.ones(a.size, dtype=int)
    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(np.sum(est[:, 0], axis=-1)))

    while True:
        value, err = est[:, 1] + est[:, 2], np.abs(est[:, 0] - est[:, 1] - est[:, 2])
        bad, reason = ~np.isfinite(np.sum(np.abs(est), axis=(1, 2))), "non-finite estimate"
        if not bad.any():
            bad = tol < ROUNDOFF_FLOOR * np.sum(np.abs(value), axis=-1)
            reason = "tolerance below the roundoff floor"
        if bad.any():
            break
        error = [math.fsum(e) for e in err.tolist()]
        bad = np.array(error) > tol
        if not bad.any():
            value = [math.fsum(v) for v in value.tolist()]
            results = tuple(IntegralResult(v, e, a.size) for v, e in zip(value, error))
            return results if stacked else results[0]
        ratio = np.where(depth < MAX_DEPTH, np.max(err[bad] / tol[bad, None], axis=0), -1.0)
        if ratio.max() <= 0.0:
            reason = f"max_depth {MAX_DEPTH} reached"
            break
        sel = ratio >= ratio.max() / BATCH_FACTOR
        if a.size + np.count_nonzero(sel) > MAX_CELLS:
            reason = f"cell budget {MAX_CELLS} reached"
            break
        m = 0.5 * (a[sel] + b[sel])
        lo, hi = np.concatenate((a[sel], m)), np.concatenate((m, b[sel]))
        mid = 0.5 * (lo + hi)
        halves, _ = rule(np.concatenate((lo, mid)), np.concatenate((mid, hi)), 2)
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


def _bits(res):
    """A result's floats as float.hex, and its cells."""
    results = (res,) if isinstance(res, IntegralResult) else res
    return [(r.value.hex(), r.error.hex(), r.cells) for r in results]


def _error_bits(exc):
    """A QuadratureError's message, floats as float.hex, and cells."""
    value, error = (v if isinstance(v, tuple) else (v,) for v in (exc.value, exc.error))
    return str(exc), [v.hex() for v in value], [e.hex() for e in error], exc.cells


def _assert_same_bits(*args):
    """_adaptive_1d(*args) and its reference return the same bits, or
    raise the same QuadratureError; the reference's cells, or None."""
    try:
        want = _reference_adaptive_1d(*args)
    except QuadratureError as exc:
        with pytest.raises(QuadratureError) as err:
            quadrature._adaptive_1d(*args)
        assert _error_bits(err.value) == _error_bits(exc)
        return None
    assert _bits(quadrature._adaptive_1d(*args)) == _bits(want)
    return _bits(want)[0][2]


class TestAdaptiveReference:
    """_adaptive_1d gives the bits of its reference on every input."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_meshes_keep_their_bits(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            r_max = float(rng.uniform(0.05, 0.9))
            inner = np.sort(rng.uniform(0.0, r_max, int(rng.integers(0, 24))))
            cuts = [0.0, *inner.tolist(), r_max]
            eps = float(10.0 ** rng.uniform(-8.0, -1.0))
            k = int(rng.integers(1, 8))
            rates = rng.uniform(-20.0, 20.0, k)[:, None]

            def stacked(r):
                smooth = np.exp(rates * r)
                smooth[0] = 1.0 / (eps + r * r)  # peaked on the scale sqrt(eps)
                return smooth

            spec = QuadratureSpec(
                rel_tol=float(10.0 ** rng.uniform(-13.0, -6.0)), abs_tol=1e-14
            )
            for g in (stacked, lambda r: stacked(r)[0], lambda r: np.cos(rates[0] * r)):
                _assert_same_bits(g, cuts, spec)

    @pytest.mark.parametrize("h", [1e-6, 1e-9, 1e-12])
    def test_refining_passes_keep_their_bits(self, h):
        # a peaked stack on a graded mesh at tight tolerances refines over
        # several rounds
        def g(r):
            return np.stack([r / (h + r * r) ** 1.5, np.ones_like(r), np.exp(-r / math.sqrt(h))])

        cuts = graded_cuts(0.2, 0.2)  # one cell: all of its resolution is refined
        cells = [_assert_same_bits(g, cuts, _respec(rel_tol=tol), ("a", "b", "c"))
                 for tol in (1e-8, 1e-11)]
        assert all(n > 4 for n in cells)

    @pytest.mark.parametrize(
        "f, spec, max_depth",
        [
            (lambda r: np.stack([np.ones_like(r), np.where(r < 0.1, 1.0, np.inf)]), SPEC, None),
            (lambda r: np.stack([np.ones_like(r), np.ones_like(r)]),
             QuadratureSpec(rel_tol=1e-15, abs_tol=1e-18), None),
            (lambda r: np.stack([np.ones_like(r), _nasty(r)]), _respec(rel_tol=1e-12), 3),
            (_nasty, _respec(rel_tol=1e-12), None),
        ],
        ids=["non-finite", "roundoff", "max-depth", "budget"],
    )
    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    def test_each_failure_keeps_its_message_and_numbers(self, monkeypatch, f, spec, max_depth):
        if max_depth is not None:
            monkeypatch.setattr(quadrature, "MAX_DEPTH", max_depth)
        cuts = graded_cuts(0.2, 0.2 * 2.0**-16)
        with pytest.raises(QuadratureError) as want:
            _reference_adaptive_1d(f, cuts, spec)
        with pytest.raises(QuadratureError) as got:
            quadrature._adaptive_1d(f, cuts, spec)
        assert _error_bits(got.value) == _error_bits(want.value)

    def test_the_first_mesh_is_read_only(self):
        for arr in quadrature._first_mesh(tuple(graded_cuts(0.2, 1e-3))):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
