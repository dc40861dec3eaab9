import threading

import numpy as np
import pytest

from hdcca import linalg, simulate
from hdcca.errors import SpecError
from hdcca.linalg import angle_between, sample_cca
from hdcca.simulate import (
    SimSpec,
    gen_data,
    ks_distance,
    mc_angles,
    sample_r_sq,
    seeded_rng,
    sinusoid_pair,
    wick_check,
)
from hdcca.wachter import regime_from_dims, spike_prediction, theta_degrees, wachter_cdf


class TestSpecValidation:
    def test_strengths_sorted_descending(self):
        spec = SimSpec(K=10, M=12, S=100, signal_strengths=(0.5, 0.9, 0.7))
        assert spec.signal_strengths == (0.9, 0.7, 0.5)

    def test_rejects_duplicate_strengths(self):
        with pytest.raises(SpecError):
            SimSpec(K=10, M=12, S=100, signal_strengths=(0.5, 0.5))

    def test_rejects_too_many_signals(self):
        with pytest.raises(SpecError):
            SimSpec(K=3, M=12, S=100, signal_strengths=(0.5, 0.6, 0.7))

    def test_rejects_bad_noise(self):
        with pytest.raises(SpecError):
            SimSpec(K=4, M=5, S=50, noise_law="cauchy")
        with pytest.raises(SpecError):
            SimSpec(K=4, M=5, S=50, noise_law="student_t", noise_df=2.0)

    def test_deterministic_mode_needs_signals(self):
        with pytest.raises(SpecError):
            SimSpec(K=4, M=5, S=50, signal_strengths=(0.7,), signal_mode="deterministic")


def vstack_recipe(spec, replication_id):
    """gen_data's earlier assembly: signal rows and noise blocks drawn as
    separate arrays, then stacked; returns (U, V, x, y, alpha, beta)."""
    rng = seeded_rng(spec.seed, replication_id)
    df = spec.noise_df

    def noise(law, shape):
        if law == "gaussian":
            return rng.standard_normal(shape)
        if law == "uniform":
            return rng.uniform(-1.0, 1.0, shape) * np.sqrt(3.0)
        return rng.standard_t(df, shape) / np.sqrt(df / (df - 2.0))

    q, K, M, S = spec.n_signals, spec.K, spec.M, spec.S
    if spec.signal_mode == "deterministic":
        xs, ys = spec.signal_x.copy(), spec.signal_y.copy()
    elif spec.signal_mode == "rotated-pair":
        xs, ys = simulate._rotated_pairs(rng, spec.signal_strengths, S)
    else:
        law = "gaussian" if spec.signal_mode == "iid-gaussian" else spec.noise_law
        xs, ys = np.empty((q, S)), np.empty((q, S))
        for i, r in enumerate(spec.signal_strengths):
            xs[i] = noise(law, S)
            eps = noise(law, S)
            ys[i] = r * xs[i] + np.sqrt(1.0 - r * r) * eps
    if spec.signal_cov_scale:
        scale = np.sqrt(np.asarray(spec.signal_cov_scale, dtype=float))
        xs[: scale.shape[0]] *= scale[:, None]
    U = np.vstack([xs, noise(spec.noise_law, (K - q, S))])
    V = np.vstack([ys, noise(spec.noise_law, (M - q, S))])
    alpha, beta = np.eye(K)[:q], np.eye(M)[:q]
    if spec.mix:
        ups = rng.standard_normal((K, K)) + 2.0 * np.eye(K)
        psi = rng.standard_normal((M, M)) + 2.0 * np.eye(M)
        U, V = ups @ U, psi @ V
        if q:
            alpha = np.linalg.solve(ups.T, alpha.T).T
            beta = np.linalg.solve(psi.T, beta.T).T
    return U, V, xs, ys, alpha, beta


class TestGenData:
    @pytest.mark.parametrize("mix", [False, True])
    @pytest.mark.parametrize("mode", simulate.SIGNAL_MODES)
    @pytest.mark.parametrize("law", simulate.NOISE_LAWS)
    def test_matches_vstack_recipe(self, law, mode, mix):
        # drawing straight into the panels keeps every stream and every bit
        S = 60
        extra = {}
        if mode == "deterministic":
            pairs = [sinusoid_pair(S, 0.8), sinusoid_pair(S, 0.5, 4, 9)]
            extra = {"signal_x": np.array([p[0] for p in pairs]),
                     "signal_y": np.array([p[1] for p in pairs])}
        spec = SimSpec(K=6, M=9, S=S, signal_strengths=(0.8, 0.5), noise_law=law,
                       noise_df=5.0, signal_mode=mode, signal_cov_scale=(4.0,),
                       mix=mix, seed=17, **extra)
        for rep in (0, 3):
            U, V, truth = gen_data(spec, rep)
            ref = vstack_recipe(spec, rep)
            got = (U, V, truth.x, truth.y, truth.alpha, truth.beta)
            for a, b in zip(got, ref):
                assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("mix", [False, True])
    def test_matches_vstack_recipe_without_signals(self, mix):
        spec = SimSpec(K=5, M=7, S=40, noise_law="uniform", mix=mix, seed=18)
        U, V, truth = gen_data(spec, 2)
        got = (U, V, truth.x, truth.y, truth.alpha, truth.beta)
        for a, b in zip(got, vstack_recipe(spec, 2)):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_shapes_and_ground_truth(self):
        spec = SimSpec(K=6, M=9, S=80, signal_strengths=(0.8, 0.5), seed=3)
        U, V, truth = gen_data(spec)
        assert U.shape == (6, 80) and V.shape == (9, 80)
        assert truth.x.shape == (2, 80) and truth.beta.shape == (2, 9)
        for i in range(2):
            assert np.allclose(U.T @ truth.alpha[i], truth.x[i], atol=1e-12)
            assert np.allclose(V.T @ truth.beta[i], truth.y[i], atol=1e-12)

    def test_ground_truth_survives_mixing(self):
        spec = SimSpec(K=6, M=9, S=80, signal_strengths=(0.8,), mix=True, seed=4)
        U, V, truth = gen_data(spec)
        assert np.allclose(U.T @ truth.alpha[0], truth.x[0], atol=1e-9)
        assert np.allclose(V.T @ truth.beta[0], truth.y[0], atol=1e-9)

    def test_mixing_preserves_correlations(self):
        base = SimSpec(K=6, M=9, S=80, signal_strengths=(0.8,), seed=5)
        mixed = SimSpec(K=6, M=9, S=80, signal_strengths=(0.8,), mix=True, seed=5)
        lam0 = sample_cca(*gen_data(base)[:2]).correlations_sq
        lam1 = sample_cca(*gen_data(mixed)[:2]).correlations_sq
        assert np.max(np.abs(lam0 - lam1)) < 1e-9

    def test_rotated_pair_exact_strength(self):
        spec = SimSpec(
            K=10, M=12, S=200, signal_strengths=(0.7, 0.5),
            signal_mode="rotated-pair", seed=6,
        )
        _, _, truth = gen_data(spec)
        assert sample_r_sq(truth.x[0], truth.y[0]) == pytest.approx(0.49, abs=1e-12)
        assert sample_r_sq(truth.x[1], truth.y[1]) == pytest.approx(0.25, abs=1e-12)
        # cross pairs are exactly orthogonal
        assert abs(truth.x[0] @ truth.y[1]) < 1e-9

    def test_sinusoid_pair_exact_strength(self):
        x, y = sinusoid_pair(1600, 0.7)
        assert sample_r_sq(x, y) == pytest.approx(0.49, abs=1e-10)
        assert x @ x == pytest.approx(1600.0, abs=1e-8)

    def test_noise_unit_variance(self):
        for law, df in (("gaussian", 3.0), ("uniform", 3.0), ("student_t", 5.0)):
            spec = SimSpec(K=4, M=5, S=50, noise_law=law, noise_df=df, seed=7)
            U, _, _ = gen_data(spec, replication_id=1)
            rng = seeded_rng(7, 1)
            assert abs(np.var(U) - 1.0) < 0.1


class TestSeededRng:
    def test_reproducible(self):
        spec = SimSpec(K=5, M=6, S=40, signal_strengths=(0.6,), seed=11)
        U1, V1, _ = gen_data(spec, replication_id=2)
        U2, V2, _ = gen_data(spec, replication_id=2)
        assert np.array_equal(U1, U2) and np.array_equal(V1, V2)

    def test_replications_differ(self):
        spec = SimSpec(K=5, M=6, S=40, signal_strengths=(0.6,), seed=11)
        U1 = gen_data(spec, replication_id=0)[0]
        U2 = gen_data(spec, replication_id=1)[0]
        assert not np.array_equal(U1, U2)

    def test_stream_cross_correlation(self):
        S = 4000
        a = seeded_rng(0, 0).standard_normal(S)
        b = seeded_rng(0, 1).standard_normal(S)
        corr = abs(np.corrcoef(a, b)[0, 1])
        assert corr < 3.0 / np.sqrt(S)


class TestWickCheck:
    def test_gaussian_satisfies_pairing(self):
        rep = wick_check(seeded_rng(0).standard_normal((1_000_000, 2)))
        assert rep.max_deviation < 0.02
        assert rep.converged

    def test_uniform_population_deviation(self):
        rep = wick_check(seeded_rng(1).uniform(-1.0, 1.0, (1_000_000, 1)))
        assert rep.max_deviation == pytest.approx(2.0 / 15.0, abs=0.01)
        assert rep.converged

    def test_heavy_tails_flagged(self):
        rep = wick_check(seeded_rng(2).standard_t(3, (400_000, 1)))
        assert not rep.converged

    def test_too_few_draws(self):
        with pytest.raises(SpecError):
            wick_check(np.ones((4, 2)))


class TestMcAngles:
    def test_means_track_theory(self):
        spec = SimSpec(K=50, M=250, S=800, signal_strengths=(0.7,), seed=0)
        summary = mc_angles(spec, replications=40)
        reg = regime_from_dims(50, 250, 800)
        pred = spike_prediction(0.49, reg)
        assert summary.mean_theta_x[0] == pytest.approx(
            theta_degrees(pred.s_x), abs=2.5
        )
        assert summary.mean_theta_y[0] == pytest.approx(
            theta_degrees(pred.s_y), abs=2.5
        )
        assert summary.band_x[0, 0] <= summary.mean_theta_x[0] <= summary.band_x[1, 0]
        assert summary.lambdas.shape == (40, 50)

    def test_tiny_dimensions_wide_bands(self):
        # at K=5, M=25, S=80 individual draws scatter over tens of degrees,
        # yet the replication mean still tracks the limiting prediction
        spec = SimSpec(K=5, M=25, S=80, signal_strengths=(0.8,), seed=0)
        summary = mc_angles(spec, 200)
        tx = theta_degrees(summary.theory[0].s_x)
        assert abs(summary.mean_theta_x[0] - tx) < 4.0
        assert summary.band_x[1, 0] - summary.band_x[0, 0] > 10.0
        assert summary.band_x[0, 0] < tx < summary.band_x[1, 0]

    def test_builds_no_qr_factor(self, monkeypatch):
        # well-conditioned panels take the kernel's Cholesky route
        def no_qr(*args):
            raise AssertionError("mc_angles built a QR factor")

        monkeypatch.setattr(linalg, "_orthonormal_rows", no_qr)
        spec = SimSpec(K=20, M=30, S=200, signal_strengths=(0.8, 0.6), seed=1)
        summary = mc_angles(spec, replications=3)
        assert summary.theta_x.shape == (3, 2) and summary.lambdas.shape == (3, 20)

    def test_solves_no_weights(self, monkeypatch):
        # the angles come from the variables alone, so the summary equals
        # the one built from sample_cca's variables and correlations
        spec = SimSpec(K=20, M=30, S=200, signal_strengths=(0.8, 0.6), seed=4)
        tx, ty, lam = [], [], []
        for rep in range(5):
            U, V, truth = gen_data(spec, rep)
            res = sample_cca(U, V)
            tx.append([angle_between(truth.x[i], res.left_variables[i]).degrees
                       for i in range(2)])
            ty.append([angle_between(truth.y[i], res.right_variables[i]).degrees
                       for i in range(2)])
            lam.append(res.correlations_sq)

        def unused(*args):
            raise AssertionError("mc_angles solved for weights")

        monkeypatch.setattr(linalg, "_solve_weights", unused)
        summary = mc_angles(spec, replications=5)
        assert np.array_equal(summary.theta_x, np.array(tx))
        assert np.array_equal(summary.theta_y, np.array(ty))
        assert np.array_equal(summary.lambdas, np.array(lam))

    @pytest.mark.parametrize("dims, mix", [((20, 30, 200), False),
                                           ((50, 250, 800), False),
                                           ((50, 250, 800), True)])
    def test_worker_matches_serial_loop(self, dims, mix):
        # below the size constant, and for mixed specs, the loop is serial;
        # otherwise the next draw runs on a worker thread; each equals the
        # plain loop bit for bit
        K, M, S = dims
        spec = SimSpec(K=K, M=M, S=S, signal_strengths=(0.8, 0.6), mix=mix, seed=9)
        assert ((K + M) * S >= simulate._PREFETCH_CELLS) == (K == 50)
        threads = threading.active_count()
        summary = mc_angles(spec, 4)
        assert threading.active_count() == threads
        for rep in range(4):
            tx, ty, lam = simulate._angles(spec, *gen_data(spec, rep))
            assert np.array_equal(summary.theta_x[rep], tx)
            assert np.array_equal(summary.theta_y[rep], ty)
            assert np.array_equal(summary.lambdas[rep], lam)

    @pytest.mark.parametrize("side", ["draw", "factor"])
    def test_replication_error_propagates(self, monkeypatch, side):
        # an error in the worker's draw or in the caller's factorisation
        # reaches the caller, and the worker thread is gone afterwards
        spec = SimSpec(K=50, M=250, S=800, signal_strengths=(0.7,), seed=10)
        assert (spec.K + spec.M) * spec.S >= simulate._PREFETCH_CELLS

        def failing(func, at):
            calls = []

            def wrapper(*args):
                calls.append(1)
                if len(calls) == at:
                    raise RuntimeError(f"{side} failed")
                return func(*args)
            return wrapper

        if side == "draw":
            monkeypatch.setattr(simulate, "gen_data", failing(simulate.gen_data, 3))
        else:
            monkeypatch.setattr(simulate, "_factor", failing(simulate._factor, 2))
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{side} failed"):
            mc_angles(spec, 5)
        assert threading.active_count() == threads

    def test_covariance_modification_leaves_variable_angle(self):
        # scaling the signal coordinate changes the weight-vector angle but
        # not the canonical-variable angle
        reps = 20
        base = SimSpec(K=150, M=225, S=1200, signal_strengths=(0.7,), seed=2)
        scaled = SimSpec(
            K=150, M=225, S=1200, signal_strengths=(0.7,),
            signal_cov_scale=(4.0,), seed=2,
        )
        var_angles = {True: [], False: []}
        weight_angles = {True: [], False: []}
        for is_scaled, spec in ((False, base), (True, scaled)):
            for rep in range(reps):
                U, V, truth = gen_data(spec, rep)
                res = sample_cca(U, V)
                var_angles[is_scaled].append(
                    angle_between(truth.x[0], res.left_variables[0]).degrees
                )
                weight_angles[is_scaled].append(
                    angle_between(truth.alpha[0], res.left_weights[0]).degrees
                )
        dv = abs(np.mean(var_angles[True]) - np.mean(var_angles[False]))
        dw = abs(np.mean(weight_angles[True]) - np.mean(weight_angles[False]))
        assert dv < 1.5
        assert dw > 3.0


class TestNoiseOnlyLaw:
    def test_bulk_matches_limit_distribution(self):
        spec = SimSpec(K=200, M=300, S=1600, seed=8)
        U, V, _ = gen_data(spec)
        lam = sample_cca(U, V).correlations_sq
        reg = regime_from_dims(200, 300, 1600)
        assert ks_distance(lam, lambda x: wachter_cdf(x, reg)) < 0.05
        assert lam[0] < reg.lambda_plus + 0.03
        assert lam[-1] > reg.lambda_minus - 0.03

    def test_spike_location_above_cutoff(self):
        spec = SimSpec(K=200, M=300, S=1600, signal_strengths=(0.7,), seed=9)
        U, V, _ = gen_data(spec)
        lam = sample_cca(U, V).correlations_sq
        reg = regime_from_dims(200, 300, 1600)
        pred = spike_prediction(0.49, reg)
        assert lam[0] == pytest.approx(pred.z_rho, abs=0.02)
        assert lam[1] == pytest.approx(reg.lambda_plus, abs=0.02)

    def test_full_scale_spike_locations(self):
        # single full-size draws (~20 s): above the cutoff the top two
        # correlations pin the spike location and the bulk edge to 0.01;
        # below the cutoff the top correlation sits at the edge
        reg = regime_from_dims(1000, 1500, 8000)
        spec = SimSpec(
            K=1000, M=1500, S=8000, signal_strengths=(0.7,),
            signal_mode="rotated-pair", seed=0,
        )
        U, V, _ = gen_data(spec)
        lam = sample_cca(U, V).correlations_sq
        assert lam[0] == pytest.approx(spike_prediction(0.49, reg).z_rho, abs=0.01)
        assert lam[1] == pytest.approx(reg.lambda_plus, abs=0.01)
        weak = SimSpec(K=1000, M=1500, S=8000, signal_strengths=(0.3,), seed=1)
        U, V, _ = gen_data(weak)
        lam = sample_cca(U, V).correlations_sq
        assert 0.09 < reg.rho_c_sq  # the planted strength is below the cutoff
        assert lam[0] == pytest.approx(reg.lambda_plus, abs=0.01)
