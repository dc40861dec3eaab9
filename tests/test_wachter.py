import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hdcca.errors import BelowCutoff, BelowEdge, DimensionError, OnSupport
from hdcca.wachter import (
    regime_from_dims,
    regime_from_ratios,
    rho2_from_z,
    sin2_angles,
    spike_prediction,
    theta_degrees,
    wachter_cdf,
    wachter_density,
    wachter_stieltjes,
    wachter_stieltjes_deriv,
    z_from_rho2,
)

ROOT = Path(__file__).resolve().parents[1]
FIG_REGIME = regime_from_dims(1000, 1500, 8000)  # tau_K=8, tau_M=16/3


def quad_density_integral(regime, f, upper=None):
    """Independent oracle: adaptive quadrature of f * density over the support.

    Uses the trig substitution x = mid + half*sin(t) so the integrand is
    smooth for quad.
    """
    lm, lp = regime.lambda_minus, regime.lambda_plus
    mid, half = 0.5 * (lm + lp), 0.5 * (lp - lm)
    hi = math.pi / 2 if upper is None else math.asin((upper - mid) / half)

    def g(t):
        x = mid + half * math.sin(t)
        w = regime.tau_K / (2 * math.pi) * (half * math.cos(t)) ** 2 / (x * (1 - x))
        return w * f(x)

    val, err = quad(g, -math.pi / 2, hi, limit=400, epsabs=1e-12, epsrel=1e-12)
    assert err < 5e-8
    return val


class TestRegime:
    def test_fig_dims(self):
        r = FIG_REGIME
        assert r.tau_K == pytest.approx(8.0)
        assert r.tau_M == pytest.approx(16.0 / 3.0)
        # noise-only simulation at these dims concentrates the top correlation
        # at the upper edge ~0.5238 (checked in test_simulate)
        assert r.lambda_plus == pytest.approx(0.5238, abs=1e-4)

    def test_equal_sides_zero_lower_edge(self):
        r = regime_from_dims(80, 80, 521)
        assert r.tau_K == pytest.approx(6.5125)
        assert r.tau_M == pytest.approx(6.5125)
        assert r.lambda_minus == 0.0

    def test_limestone_dims(self):
        r = regime_from_dims(6, 8, 45)
        assert r.lambda_plus == pytest.approx(0.524, abs=5e-4)

    def test_swap_recorded(self):
        r = regime_from_dims(1500, 1000, 8000)
        assert r.swapped is True
        assert (r.K, r.M) == (1000, 1500)
        assert r.tau_K == pytest.approx(8.0)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            regime_from_dims(5, 40, 30)  # M >= S
        with pytest.raises(DimensionError):
            regime_from_dims(20, 25, 40)  # K + M >= S
        with pytest.raises(DimensionError):
            regime_from_dims(0, 5, 40)

    def test_invariants(self):
        for dims in [(10, 15, 80), (3, 30, 100), (100, 101, 5000)]:
            r = regime_from_dims(*dims)
            assert r.tau_K > 1 and r.tau_M > 1
            assert 1 / r.tau_K + 1 / r.tau_M < 1
            assert 0 <= r.lambda_minus < r.lambda_plus < 1
            assert 0 < r.rho_c_sq < 1

    def test_cutoff_boundary_identity(self):
        # z evaluated at the cutoff strength equals the upper edge
        for dims in [(1000, 1500, 8000), (6, 8, 45), (30, 77, 400)]:
            r = regime_from_dims(*dims)
            eps = 1e-9
            z = z_from_rho2(r.rho_c_sq + eps, r)
            assert abs(z - r.lambda_plus) < 1e-12


class TestZRhoInversion:
    def test_rho_one_maps_to_one(self):
        for r in [FIG_REGIME, regime_from_dims(6, 8, 45)]:
            assert z_from_rho2(1.0, r) == pytest.approx(1.0, abs=1e-14)
            assert rho2_from_z(1.0, r) == pytest.approx(1.0, abs=1e-12)

    def test_edge_limit(self):
        r = FIG_REGIME
        z = z_from_rho2(r.rho_c_sq + 1e-8, r)
        assert z > r.lambda_plus
        assert z - r.lambda_plus < 1e-12

    def test_spike_location_fig_setup(self):
        # one-signal simulation at K=1000, M=1500, S=8000, r^2=0.49 puts the
        # outlier near 0.662 (cross-checked against simulation in
        # test_inference)
        assert z_from_rho2(0.49, FIG_REGIME) == pytest.approx(0.662, abs=1e-3)

    def test_below_cutoff_raises(self):
        r = FIG_REGIME
        with pytest.raises(BelowCutoff):
            z_from_rho2(r.rho_c_sq, r)
        with pytest.raises(BelowCutoff):
            z_from_rho2(0.01, r)

    def test_below_edge_raises(self):
        r = FIG_REGIME
        with pytest.raises(BelowEdge):
            rho2_from_z(r.lambda_plus, r)
        with pytest.raises(BelowEdge):
            rho2_from_z(0.3, r)

    def test_stocks_first_signal(self):
        r = regime_from_dims(80, 80, 521)
        assert rho2_from_z(0.89, r) == pytest.approx(0.840, abs=1e-3)

    def test_limestone_signal(self):
        r = regime_from_dims(6, 8, 45)
        assert rho2_from_z(0.83, r) == pytest.approx(0.750, abs=1e-3)

    def test_round_trip_rho_direction(self):
        # exact inverse away from the cutoff; near the cutoff the map has a
        # quadratic minimum, so double precision caps the attainable accuracy
        # (see test_round_trip_conditioning_floor)
        for dims in [(1000, 1500, 8000), (6, 8, 45), (80, 80, 521)]:
            r = regime_from_dims(*dims)
            for rho in np.linspace(r.rho_c_sq + 1e-4, 1.0, 200):
                back = rho2_from_z(z_from_rho2(rho, r), r)
                assert abs(back - rho) < 1e-12

    def test_round_trip_z_direction(self):
        for dims in [(1000, 1500, 8000), (6, 8, 45), (80, 80, 521)]:
            r = regime_from_dims(*dims)
            for z in np.linspace(r.lambda_plus + 1e-9, 1.0, 200):
                back = z_from_rho2(rho2_from_z(z, r), r)
                assert abs(back - z) < 1e-12

    def test_round_trip_conditioning_floor(self):
        # dz/drho^2 vanishes at the cutoff, so a float64 z cannot pin rho^2
        # to 1e-12 at distance 1e-6 from the cutoff; the error stays within a
        # small multiple of the conditioning bound ulp(z)/ (d z / d rho^2)
        r = FIG_REGIME
        for delta in (1e-6, 1e-5):
            rho = r.rho_c_sq + delta
            back = rho2_from_z(z_from_rho2(rho, r), r)
            a, b = r.tau_K - 1.0, r.tau_M - 1.0
            curvature = (a * b) ** 1.5 / (r.tau_K * r.tau_M)
            bound = np.finfo(float).eps * r.lambda_plus / (2 * curvature * delta)
            assert abs(back - rho) < 10 * bound

    def test_monotone_increasing_above_cutoff(self):
        r = FIG_REGIME
        rhos = np.linspace(r.rho_c_sq + 1e-6, 1.0, 500)
        zs = [z_from_rho2(v, r) for v in rhos]
        assert np.all(np.diff(zs) > 0)

    @settings(max_examples=60, deadline=None)
    @given(
        tau_m=st.floats(min_value=2.1, max_value=40.0),
        factor=st.floats(min_value=1.0, max_value=5.0),
        frac=st.floats(min_value=1e-4, max_value=1.0),
    )
    def test_round_trip_property(self, tau_m, factor, frac):
        r = regime_from_ratios(tau_m * factor, tau_m)
        rho = r.rho_c_sq + frac * (1.0 - r.rho_c_sq)
        if rho > 1.0:
            rho = 1.0
        back = rho2_from_z(z_from_rho2(rho, r), r)
        # scale tolerance with the conditioning of the inverse map
        delta = rho - r.rho_c_sq
        a, b = r.tau_K - 1.0, r.tau_M - 1.0
        curvature = (a * b) ** 1.5 / (r.tau_K * r.tau_M)
        floor = np.finfo(float).eps / (2 * curvature * max(delta, 1e-12))
        assert abs(back - rho) < max(1e-12, 20 * floor)


class TestAngles:
    def test_fig_table_values(self):
        s_x, s_y = sin2_angles(0.49, FIG_REGIME)
        assert theta_degrees(s_x) == pytest.approx(25.22, abs=0.02)
        assert theta_degrees(s_y) == pytest.approx(28.39, abs=0.02)

    def test_stocks_first_signal(self):
        r = regime_from_dims(80, 80, 521)
        s_x, s_y = sin2_angles(0.8402, r)
        assert s_x == pytest.approx(s_y)
        assert s_x == pytest.approx(0.036, abs=2e-3)
        assert theta_degrees(s_x) == pytest.approx(10.9, abs=0.1)

    def test_perfect_signal(self):
        assert sin2_angles(1.0, FIG_REGIME) == (0.0, 0.0)

    def test_cutoff_limit_is_one(self):
        for r in [FIG_REGIME, regime_from_dims(6, 8, 45)]:
            s_x, s_y = sin2_angles(r.rho_c_sq + 1e-12, r)
            assert s_x == pytest.approx(1.0, abs=1e-6)
            assert s_y == pytest.approx(1.0, abs=1e-6)

    def test_open_unit_interval(self):
        r = FIG_REGIME
        for rho in np.linspace(r.rho_c_sq + 1e-3, 1.0 - 1e-6, 50):
            s_x, s_y = sin2_angles(rho, r)
            assert 0 < s_x < 1 and 0 < s_y < 1

    def test_below_cutoff_raises(self):
        with pytest.raises(BelowCutoff):
            sin2_angles(FIG_REGIME.rho_c_sq * 0.5, FIG_REGIME)

    def test_large_tau_consistency(self):
        r = regime_from_ratios(1e6, 1e6)
        rho = 0.49
        assert abs(z_from_rho2(rho, r) - rho) < 1e-4
        s_x, s_y = sin2_angles(rho, r)
        assert s_x < 1e-4 and s_y < 1e-4

    def test_prediction_bundle(self):
        pred = spike_prediction(0.49, FIG_REGIME)
        assert pred.z_rho == pytest.approx(z_from_rho2(0.49, FIG_REGIME))
        assert pred.s_x < pred.s_y  # smaller dimension is estimated better


class TestDensity:
    def test_zero_outside_support(self):
        r = FIG_REGIME
        assert wachter_density(r.lambda_minus - 0.01, r) == 0.0
        assert wachter_density(r.lambda_plus + 0.01, r) == 0.0
        vals = wachter_density(np.array([-1.0, 0.0, 0.99, 2.0]), r)
        assert np.all(vals == 0.0)

    def test_integrates_to_one(self):
        for dims in [(1000, 1500, 8000), (6, 8, 45), (80, 80, 521)]:
            r = regime_from_dims(*dims)
            total = quad_density_integral(r, lambda x: np.ones_like(x))
            assert total == pytest.approx(1.0, abs=1e-6)
            assert wachter_cdf(r.lambda_plus, r) == pytest.approx(1.0, abs=1e-9)

    def test_midpoint_against_quadrature(self):
        r = FIG_REGIME
        mid = 0.5 * (r.lambda_minus + r.lambda_plus)
        # high-precision quadrature of the CDF pins the same normalisation
        assert wachter_cdf(mid, r) == pytest.approx(
            quad_density_integral(r, lambda x: np.ones_like(x), upper=mid), abs=1e-8
        )
        assert wachter_density(mid, r) > 0

    def test_cdf_monotone(self):
        r = regime_from_dims(80, 80, 521)
        xs = np.linspace(0.0, 1.0, 101)
        cdf = wachter_cdf(xs, r)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == 0.0 and cdf[-1] == 1.0

    def test_cdf_bits(self):
        # the bits the 256-point rule gave when it was built at import time
        r = regime_from_dims(200, 300, 1600)
        xs = np.linspace(r.lambda_minus, r.lambda_plus, 7)[1:-1]
        expected = [
            "0x1.588d38e0a6d38p-2", "0x1.17d70f388db0dp-1", "0x1.6aac99af8da2dp-1",
            "0x1.ada543d6f03c4p-1", "0x1.e1f0d8335e9e6p-1",
        ]
        assert [float(v).hex() for v in wachter_cdf(xs, r)] == expected

    def test_cli_import_builds_no_nodes(self):
        # the quadrature nodes and numpy.polynomial wait for wachter_cdf
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        code = ("import sys, hdcca.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestStieltjes:
    def test_large_z_leading_term(self):
        r = FIG_REGIME
        z = 1e8
        assert z * wachter_stieltjes(z, r) == pytest.approx(1.0 / r.tau_K, abs=1e-7)

    def test_matches_quadrature_real(self):
        r = FIG_REGIME
        for z in (2.0, 0.9, -0.5, r.lambda_plus + 0.05, r.lambda_minus - 0.03):
            oracle = quad_density_integral(r, lambda x: 1.0 / (z - x)) / r.tau_K
            assert wachter_stieltjes(z, r) == pytest.approx(oracle, abs=1e-8)

    def test_matches_quadrature_complex(self):
        r = regime_from_dims(6, 8, 45)
        for z in (0.4 + 0.3j, -0.2 + 0.05j, 1.5 - 0.7j):
            re = quad_density_integral(r, lambda x: np.real(1.0 / (z - x))) / r.tau_K
            im = quad_density_integral(r, lambda x: np.imag(1.0 / (z - x))) / r.tau_K
            val = wachter_stieltjes(z, r)
            assert val.real == pytest.approx(re, abs=1e-8)
            assert val.imag == pytest.approx(im, abs=1e-8)

    def test_edge_sqrt_identity_at_spike(self):
        # sqrt((z_rho-lambda_-)(z_rho-lambda_+)) has the closed form
        # (rho^4 (tau_K-1)(tau_M-1) - 1) / (rho^2 tau_M tau_K)
        for dims in [(1000, 1500, 8000), (6, 8, 45)]:
            r = regime_from_dims(*dims)
            for rho in np.linspace(r.rho_c_sq + 0.05, 1.0, 25):
                z = z_from_rho2(rho, r)
                lhs = math.sqrt((z - r.lambda_minus) * (z - r.lambda_plus))
                rhs = (rho**2 * (r.tau_K - 1) * (r.tau_M - 1) - 1) / (
                    rho * r.tau_M * r.tau_K
                )
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_spike_value_positive_root(self):
        r = FIG_REGIME
        z = z_from_rho2(0.49, r)
        val = wachter_stieltjes(z, r)
        assert np.isfinite(val) and val > 0

    def test_derivative_matches_quadrature(self):
        r = FIG_REGIME
        for z in (2.0, 0.9, -0.5):
            oracle = -quad_density_integral(r, lambda x: 1.0 / (z - x) ** 2) / r.tau_K
            assert wachter_stieltjes_deriv(z, r) == pytest.approx(oracle, abs=1e-8)

    def test_on_support_raises(self):
        r = FIG_REGIME
        mid = 0.5 * (r.lambda_minus + r.lambda_plus)
        with pytest.raises(OnSupport):
            wachter_stieltjes(mid, r)
        with pytest.raises(OnSupport):
            wachter_stieltjes(r.lambda_plus + 1e-12, r)

    def test_value_at_one_is_analytic_limit(self):
        r = FIG_REGIME
        near = wachter_stieltjes(1.0 + 1e-7, r)
        assert wachter_stieltjes(1.0, r) == pytest.approx(near, abs=1e-5)
