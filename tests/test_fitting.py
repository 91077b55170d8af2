import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from leadlag import (EigenCurve, ValidationError, attenuation, factor_eigencurve,
                     fit_eigencurve, relaxation_time)
from leadlag.fitting import (_ALPHA_GRID, _ALPHA_MAX, _RTOL, _XTOL, _brent, _profiled_rss,
                             _slope)
from leadlag.moments import _attenuation_array

DYADIC = (1, 2, 4, 8, 16, 32, 64, 128)

REFERENCE_FITS = [  # (gamma_f, alpha, t_alpha rounded to 2 decimals)
    (0.17, 0.16, 0.55),
    (0.03, 0.25, 0.72),
    (0.02, 0.18, 0.58),
    (0.01, 0.26, 0.74),
]


class TestRelaxationTime:
    @pytest.mark.parametrize("gamma_f, alpha, expected", REFERENCE_FITS)
    def test_reference_column(self, gamma_f, alpha, expected):
        assert round(relaxation_time(alpha, 1.0), 2) == expected

    def test_euler_point(self):
        assert relaxation_time(1 / math.e, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_zero_alpha_is_undefined(self):
        with pytest.raises(ValidationError, match="no memory"):
            relaxation_time(0.0)

    def test_alpha_at_or_above_one(self):
        with pytest.raises(ValidationError):
            relaxation_time(1.0)

    def test_alpha_string_refused(self):
        with pytest.raises(ValidationError, match="alpha must be a number"):
            relaxation_time("0.5")

    def test_base_scale_units(self):
        assert relaxation_time(0.16, 5.0) == pytest.approx(5 * relaxation_time(0.16, 1.0))

    @pytest.mark.parametrize("base", [0.0, -1.0, math.nan, math.inf])
    def test_base_scale_must_be_finite_and_positive(self, base):
        with pytest.raises(ValidationError, match="base_scale_minutes"):
            relaxation_time(0.16, base)


class TestFitEigencurve:
    def test_noiseless_market_curve_recovers_parameters(self):
        curve = factor_eigencurve(533, 0.17, 0.16, DYADIC)
        fit = fit_eigencurve(curve, 533)
        assert abs(fit.alpha - 0.16) < 1e-6
        assert abs(fit.amplitude - 90.61) < 1e-6
        assert fit.converged

    @pytest.mark.parametrize("gamma_f, alpha, t_expected", REFERENCE_FITS)
    def test_reference_round_trip(self, gamma_f, alpha, t_expected):
        curve = factor_eigencurve(533, gamma_f, alpha, DYADIC)
        fit = fit_eigencurve(curve, 533, base_scale_minutes=1.0)
        assert abs(fit.alpha - alpha) < 1e-6
        assert abs(fit.amplitude - 533 * gamma_f) < 1e-6
        assert abs(fit.gamma_f - gamma_f) < 1e-6 / 533
        assert round(fit.t_alpha, 2) == t_expected

    def test_flat_curve_fits_no_memory(self):
        curve = EigenCurve(np.array(DYADIC), np.full(len(DYADIC), 12.5))
        fit = fit_eigencurve(curve, 100)
        assert fit.alpha == pytest.approx(0.0, abs=1e-9)
        assert fit.amplitude == pytest.approx(12.5, rel=1e-9)
        assert fit.t_alpha == 0.0
        assert fit.converged

    def test_requires_three_points(self):
        curve = EigenCurve(np.array([1, 2]), np.array([3.0, 4.0]))
        with pytest.raises(ValidationError, match="3 points"):
            fit_eigencurve(curve, 10)

    def test_idempotent_refit(self):
        curve = factor_eigencurve(200, 0.08, 0.22, DYADIC)
        first = fit_eigencurve(curve, 200)
        regenerated = EigenCurve(
            curve.taus,
            first.amplitude / np.array([attenuation(first.alpha, int(t)) for t in curve.taus]),
        )
        second = fit_eigencurve(regenerated, 200)
        assert abs(second.alpha - first.alpha) < 1e-9
        assert abs(second.amplitude - first.amplitude) < 1e-9 * max(1.0, first.amplitude)

    @pytest.mark.parametrize("factor", [8.0, 3.7, 0.25])
    def test_scale_equivariance(self, factor):
        curve = factor_eigencurve(533, 0.17, 0.16, DYADIC)
        scaled = EigenCurve(curve.taus, curve.values * factor)
        base = fit_eigencurve(curve, 533)
        other = fit_eigencurve(scaled, 533)
        assert abs(other.alpha - base.alpha) < 1e-9
        assert abs(other.amplitude - factor * base.amplitude) < 1e-9 * factor * base.amplitude

    @pytest.mark.parametrize("values", [
        factor_eigencurve(150, 0.12, 0.3, DYADIC).values
        * (1 + np.random.default_rng(5).normal(0, 0.03, len(DYADIC))),
        # scaled to max 1, its profiled RSS has two local minima: alpha ~0.682
        # (RSS 0.5508) and ~0.9945 (RSS 0.4725); a coarse alpha grid picks the first
        np.exp(np.random.default_rng(1).normal(size=(215, 8))[214]),
        # scaled to max 1, its profiled RSS has local minima at alpha ~0.18
        # (RSS 0.8158) and at the bound 1 - 1e-6 (RSS 0.8168); grids of 3, 5
        # and 9 nodes pick the bound, where the slope points out of the box
        np.exp(np.random.default_rng(1204).normal(size=8)),
    ], ids=["noisy-market", "two-minima", "minimum-beside-the-bound"])
    def test_reported_rss_is_global_minimum(self, values):
        curve = EigenCurve(np.array(DYADIC), values)
        fit = fit_eigencurve(curve, 150)
        assert fit.converged
        taus = curve.taus.astype(float)
        unit = float(np.max(curve.values))
        values = curve.values / unit
        for alpha in np.linspace(0.0, _ALPHA_MAX, 2001):
            rss, _ = _profiled_rss(values, taus, alpha)
            assert fit.rss <= rss * unit**2 * (1 + 1e-12)

    def test_complex_step_slope_matches_central_difference(self):
        rng = np.random.default_rng(7)
        clean = factor_eigencurve(150, 0.12, 0.3, DYADIC)
        values = clean.values * (1 + rng.normal(0, 0.03, len(clean)))
        values /= values.max()
        taus = clean.taus.astype(float)
        h = 1e-6
        for alpha in (0.05, 0.3, 0.6, 0.9):
            upper, _ = _profiled_rss(values, taus, alpha + h)
            lower, _ = _profiled_rss(values, taus, alpha - h)
            assert _slope(alpha, values, taus) == pytest.approx((upper - lower) / (2 * h),
                                                                rel=1e-6)

    @pytest.mark.parametrize("values, bound", [
        # bulk-like: shrinks with scale, which no alpha in the box can follow
        (1.5 - 0.05 * np.log2(np.array(DYADIC, dtype=float)), 0.0),
        # grows linearly in tau, faster than any alpha inside the box allows
        (np.array(DYADIC, dtype=float), _ALPHA_MAX),
    ])
    def test_curve_beyond_the_box_converges_at_a_bound(self, values, bound):
        fit = fit_eigencurve(EigenCurve(np.array(DYADIC), values), 50)
        assert fit.alpha == bound
        assert fit.converged

    def test_gamma_f_is_amplitude_over_n(self):
        curve = factor_eigencurve(80, 0.05, 0.1, DYADIC)
        fit = fit_eigencurve(curve, 80)
        assert fit.gamma_f == pytest.approx(fit.amplitude / 80, rel=1e-15)

    @settings(max_examples=25)
    @given(alpha=st.floats(min_value=0.0, max_value=0.93),
           gamma_f=st.floats(min_value=1e-4, max_value=2.0))
    def test_noiseless_recovery_property(self, alpha, gamma_f):
        curve = factor_eigencurve(250, gamma_f, alpha, DYADIC)
        fit = fit_eigencurve(curve, 250)
        assert abs(fit.alpha - alpha) < 1e-6
        assert abs(fit.amplitude - 250 * gamma_f) < 1e-6 * max(1.0, 250 * gamma_f)

    @pytest.mark.parametrize("values, n_assets, expected", [
        (factor_eigencurve(533, 0.17, 0.16, DYADIC).values, 533,
         "FitResult(alpha=0.16000000000000003, amplitude=90.61, gamma_f=0.17, "
         "t_alpha=0.5456783339686457, rss=2.022200390200816e-27, iterations=51, "
         "converged=True)"),
        (factor_eigencurve(150, 0.12, 0.3, DYADIC).values
         * (1 + np.random.default_rng(5).normal(0, 0.03, len(DYADIC))), 150,
         "FitResult(alpha=0.3144372312815994, amplitude=17.292375802746985, "
         "gamma_f=0.11528250535164657, t_alpha=0.8643260446953348, rss=3.362835808495561, "
         "iterations=50, converged=True)"),
        (np.exp(np.random.default_rng(1).normal(size=(215, 8))[214]), 150,
         "FitResult(alpha=0.9946377562013415, amplitude=0.0003464301869788275, "
         "gamma_f=2.30953457985885e-06, t_alpha=185.9886482158355, rss=5.748951740431893, "
         "iterations=57, converged=True)"),
        (1.5 - 0.05 * np.log2(np.array(DYADIC, dtype=float)), 50,
         "FitResult(alpha=0.0, amplitude=1.3249999999999997, gamma_f=0.026499999999999996, "
         "t_alpha=0.0, rss=0.10500000000000004, iterations=43, converged=True)"),
        (np.array(DYADIC, dtype=float), 50,
         "FitResult(alpha=0.999999, amplitude=2.000071633937657e-06, "
         "gamma_f=4.0001432678753144e-08, t_alpha=999999.4999942828, "
         "rss=2.6799589982754618e-06, iterations=43, converged=True)"),
        (np.full(len(DYADIC), 12.5), 100,
         "FitResult(alpha=0.0, amplitude=12.5, gamma_f=0.125, t_alpha=0.0, rss=0.0, "
         "iterations=43, converged=True)"),
    ], ids=["noiseless", "noisy-market", "two-minima", "below-the-box", "above-the-box",
            "flat"])
    def test_fit_bits_are_pinned(self, values, n_assets, expected):
        # every field to the last bit, iterations included: float repr round-trips
        fit = fit_eigencurve(EigenCurve(np.array(DYADIC), values), n_assets)
        assert repr(fit) == expected

    @settings(max_examples=25)
    @given(alpha=st.floats(min_value=0.0, max_value=0.99),
           gamma_f=st.floats(min_value=1e-4, max_value=2.0),
           noise=st.sampled_from([0.0, 0.01, 0.05, 0.3]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_grid_rss_matches_each_node(self, alpha, gamma_f, noise, seed):
        # the fitter scores the grid in one call; each row must be that node's
        # own scalar evaluation to the bit, and so pick the same best node
        clean = factor_eigencurve(250, gamma_f, alpha, DYADIC).values
        values = clean * np.exp(np.random.default_rng(seed).normal(0.0, noise, len(DYADIC)))
        values /= values.max()
        taus = np.array(DYADIC, dtype=float)
        grid_rss, grid_amplitude = _profiled_rss(values, taus, _ALPHA_GRID[:, None])
        node_rss, node_amplitude = np.array(
            [_profiled_rss(values, taus, float(a)) for a in _ALPHA_GRID]).T
        np.testing.assert_array_equal(grid_rss, node_rss)
        np.testing.assert_array_equal(grid_amplitude, node_amplitude)
        assert np.argmin(grid_rss) == np.argmin(node_rss)

    def test_attenuation_array_is_sane_at_fit_boundary(self):
        # the fitter's grid and slope evaluate alpha right at the box bound
        taus = np.arange(1, 129, dtype=float)
        values = _attenuation_array(1.0 - 1e-6, taus)
        assert np.all(values > 0.0)
        assert np.all(np.diff(values) < 0.0)


def recorded(f):
    # f, and the list of the points it is called at
    points = []

    def call(x, *args):
        points.append(x)
        return f(x, *args)

    return call, points


def scipy_brent(f, a, b, args=(), maxiter=100):
    # the reference: ((root, function calls, converged), points evaluated)
    f, points = recorded(f)
    root, info = brentq(f, a, b, args=args, xtol=_XTOL, rtol=_RTOL, maxiter=maxiter,
                        full_output=True, disp=False)
    return (root, info.function_calls, info.converged), points


def port_brent(f, a, b, args=(), maxiter=100):
    f, points = recorded(f)
    return _brent(f, a, b, args, maxiter), points


def same_solve(ours, reference):
    # root bits, call count, convergence flag and every evaluated point agree
    (root, calls, converged), points = ours
    (ref_root, ref_calls, ref_converged), ref_points = reference
    assert type(root) is float
    assert root.hex() == ref_root.hex()
    assert (calls, converged) == (ref_calls, ref_converged)
    assert [x.hex() for x in points] == [float(x).hex() for x in ref_points]


def branches_taken(f, a, b, maxiter=100):
    # the branch comments of _brent's source whose next statement ran, and the
    # statements that ran, on one call
    lines, first = inspect.getsourcelines(_brent)
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is not _brent.__code__:
            return None
        if event == "line":
            ran.add(frame.f_lineno - first)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _brent(f, a, b, maxiter=maxiter)
    finally:
        sys.settrace(previous)
    return {lines[i].strip() for i in ran} | {lines[i - 1].strip() for i in ran}


class TestBrentAgainstScipy:
    def test_fitter_slope_on_noiseless_and_noisy_curves(self):
        rng = np.random.default_rng(11)
        curves = [factor_eigencurve(533, gamma, alpha, DYADIC).values
                  for gamma in (0.01, 0.03, 0.17, 0.6)
                  for alpha in (0.0, 0.02, 0.05, 0.1, 0.16, 0.25, 0.3, 0.4, 0.5, 0.6,
                                0.75, 0.85, 0.9, 0.95, 0.97, 0.99)]
        curves += [clean * np.exp(rng.normal(0.0, 0.05, len(DYADIC)))
                   for clean in curves for _ in range(2)]
        taus = np.array(DYADIC, dtype=float)
        solves = 0
        for values in curves:
            values = values / values.max()
            slopes = [_slope(float(a), values, taus) for a in _ALPHA_GRID]
            for i in range(_ALPHA_GRID.size - 1):
                # every cell the slope brackets, not only the one the fit picks
                if slopes[i] * slopes[i + 1] <= 0.0:
                    lo, hi = float(_ALPHA_GRID[i]), float(_ALPHA_GRID[i + 1])
                    args = (values, taus)
                    same_solve(port_brent(_slope, lo, hi, args),
                               scipy_brent(_slope, lo, hi, args))
                    solves += 1
        # about one bracketed cell per curve; the alpha = 0 curves may have none
        assert solves >= 150

    @pytest.mark.parametrize("f, a, b, maxiter, branch", [
        (lambda x: x - 0.25, 0.25, 1.0, 100, "return xpre, calls, True"),
        (lambda x: x - 1.0, 0.25, 1.0, 100, "return xcur, calls, True"),
        (lambda x: x - 0.3, 0.0, 1.0, 100, "# interpolate"),
        (lambda x: math.expm1(3.0 * (x - 0.4)), 0.0, 1.0, 100, "# extrapolate"),
        (lambda x: x**3 - 0.2, 0.0, 1.0, 100, "# bisect: the interpolated step is too long"),
        (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0, 100,
         "# bisect: the last step was too short or did not shrink |f|"),
        (lambda x: x**15 - 0.5, 0.0, 1.0, 100, "xcur += delta if sbis > 0 else -delta"),
        # the product of the end values underflows to -0.0: the bracket test
        # reads the signs, as scipy's does
        (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0, 100, "# interpolate"),
        (lambda x: x**3 - 0.2, 0.0, 1.0, 3, "return xcur, calls, False"),
    ], ids=["root-at-a", "root-at-b", "interpolation", "extrapolation", "forced-bisection",
            "slow-bisection", "minimal-step", "tiny-values", "budget-exhausted"])
    def test_every_branch(self, f, a, b, maxiter, branch):
        assert branch in branches_taken(f, a, b, maxiter)
        same_solve(port_brent(f, a, b, maxiter=maxiter), scipy_brent(f, a, b, maxiter=maxiter))


class TestEigenCurveValidation:
    def test_taus_must_ascend(self):
        with pytest.raises(ValidationError, match="ascending"):
            EigenCurve(np.array([1, 4, 2]), np.array([1.0, 2.0, 3.0]))

    def test_values_positive(self):
        with pytest.raises(ValidationError, match="positive"):
            EigenCurve(np.array([1, 2, 4]), np.array([1.0, -2.0, 3.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            EigenCurve(np.array([1, 2, 4]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("values", [["1", "2", "3"], [1.5, True, 3.0]],
                             ids=["strings", "bool"])
    def test_values_refuse_bools_and_strings(self, values):
        # as every real vector of the API: refused, never read as 1 or parsed
        with pytest.raises(ValidationError, match="values must be numbers"):
            EigenCurve([1, 2, 3], values)
