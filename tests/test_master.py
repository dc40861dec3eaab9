import numpy as np
import pytest

from hdcca import linalg, master
from hdcca.cli import master_instance
from hdcca.errors import (
    DegenerateQ,
    DenominatorVanishes,
    DimensionError,
    PoleProximity,
    RepeatedCosine,
)
from hdcca.linalg import CanonicalBasis, sample_cca
from hdcca.master import (
    MasterInputs,
    cos2_relation,
    empirical_G,
    master_residual,
    master_roots,
    master_vector_stats,
    q_factors,
    r2_relation,
    wachter_G,
)
from hdcca.wachter import (
    regime_from_dims,
    regime_from_ratios,
    sin2_angles,
    z_from_rho2,
)


def random_instance(rng, K=None, M=None, S=None):
    """Assembled data realising a random scalar-product table.

    Returns the full matrices (signal row stacked on noise rows), the
    adjoined unit vectors, and the corresponding MasterInputs.
    """
    K = K or int(rng.integers(2, 11))
    M = M or int(rng.integers(K, 15))
    S = S or int(rng.integers(K + M + 2, 61))
    U_sub = rng.standard_normal((K - 1, S))
    V_sub = rng.standard_normal((M - 1, S))
    u_star = rng.standard_normal(S)
    u_star /= np.linalg.norm(u_star)
    v_star = rng.standard_normal(S)
    v_star /= np.linalg.norm(v_star)
    U = np.vstack([u_star, U_sub])
    V = np.vstack([v_star, V_sub])
    inputs = MasterInputs.from_matrices(u_star, v_star, U_sub, V_sub)
    return U, V, u_star, v_star, inputs


class TestResidual:
    def test_zero_at_every_sample_correlation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            U, V, _, _, inputs = random_instance(rng)
            for lam in sample_cca(U, V).correlations_sq:
                assert abs(master_residual(lam, inputs)) < 1e-8

    def test_scale_covariance(self):
        # scaling u* scales the residual but keeps its zeros
        rng = np.random.default_rng(1)
        U, V, u_star, v_star, inputs = random_instance(rng, 4, 6, 30)
        basis_inputs = MasterInputs.from_matrices(3.0 * u_star, v_star, U[1:], V[1:])
        for lam in sample_cca(U, V).correlations_sq:
            assert abs(master_residual(lam, basis_inputs)) < 1e-7

    def test_decoupled_signal_root_at_zero(self):
        # u* orthogonal to v* and to the v-basis, v* orthogonal to the
        # u-basis; the noise subspaces themselves overlap so the cosines stay
        # generic
        S = 30
        rng = np.random.default_rng(2)
        U_sub = np.zeros((3, S))
        U_sub[:, 4:24] = rng.standard_normal((3, 20))
        V_sub = np.zeros((5, S))
        V_sub[:, 4:24] = rng.standard_normal((5, 20))
        u_star = np.zeros(S)
        u_star[0] = 1.0
        v_star = np.zeros(S)
        v_star[1] = 1.0
        inputs = MasterInputs.from_matrices(u_star, v_star, U_sub, V_sub)
        assert abs(master_residual(0.0, inputs)) < 1e-12

    def test_pole_guard(self):
        rng = np.random.default_rng(3)
        _, _, _, _, inputs = random_instance(rng, 4, 6, 30)
        pole = inputs.poles()[0]
        with pytest.raises(PoleProximity):
            master_residual(pole + 1e-12, inputs)

    def test_double_pole_cancels_to_simple(self):
        # the squared bracket and the product both carry double poles at
        # each noise cosine that cancel in the difference, leaving a simple
        # pole: residual * delta tends to a finite residue
        rng = np.random.default_rng(3)
        _, _, _, _, inputs = random_instance(rng, 4, 6, 30)
        for pole in inputs.poles():
            scaled = [
                master_residual(pole + d, inputs) * d for d in (1e-4, 1e-5, 1e-6)
            ]
            assert abs(scaled[2] - scaled[1]) < 0.1 * abs(scaled[1]) + 1e-12

    def test_sign_change_brackets_each_root(self):
        rng = np.random.default_rng(4)
        U, V, _, _, inputs = random_instance(rng, 5, 8, 30)
        lam = sample_cca(U, V).correlations_sq
        for z in lam:
            lo, hi = z - 1e-6, z + 1e-6
            if np.min(np.abs(inputs.poles() - lo)) < 1e-7:
                continue
            assert np.sign(master_residual(lo, inputs)) != np.sign(
                master_residual(hi, inputs)
            )


class TestRoots:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_eigensolver(self, seed):
        rng = np.random.default_rng(100 + seed)
        U, V, _, _, inputs = random_instance(rng)
        roots = master_roots(inputs)
        lam = sample_cca(U, V).correlations_sq
        assert roots.shape[0] == inputs.K
        assert np.max(np.abs(np.sort(roots) - np.sort(lam))) < 1e-9

    def test_root_count_is_always_K(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            _, _, _, _, inputs = random_instance(rng)
            assert master_roots(inputs).shape[0] == inputs.K

    def test_interlacing_with_intermediate_pair(self):
        # roots interlace with the correlations y of (noise-u subspace, full
        # v space): z_1 >= y_1 >= z_2 >= ... and y_i bracket the noise
        # cosines the same way
        rng = np.random.default_rng(6)
        for _ in range(10):
            U, V, _, _, inputs = random_instance(rng)
            z = master_roots(inputs)
            y = np.sort(sample_cca(U[1:], V).correlations_sq)[::-1]
            c2 = inputs.poles()
            tol = 1e-9
            for i in range(len(y)):
                assert z[i] >= y[i] - tol
                assert y[i] >= z[i + 1] - tol
                assert y[i] >= c2[i] - tol
                if i + 1 < len(y):
                    assert c2[i] >= y[i + 1] - tol

    def test_repeated_cosine_reports_degenerate_root(self):
        # two exactly equal noise cosines: the repeated value is itself a root
        S = 24
        c = 0.6
        s = np.sqrt(1 - c * c)
        u1, u2 = np.eye(S)[0], np.eye(S)[1]
        v1 = c * u1 + s * np.eye(S)[4]
        v2 = c * u2 + s * np.eye(S)[5]
        v3 = np.eye(S)[6]
        U_sub = np.vstack([u1, u2])
        V_sub = np.vstack([v1, v2, v3])
        rng = np.random.default_rng(7)
        u_star = rng.standard_normal(S)
        u_star /= np.linalg.norm(u_star)
        v_star = rng.standard_normal(S)
        v_star /= np.linalg.norm(v_star)
        basis = CanonicalBasis(U_sub, np.vstack([v1, v2, v3]), np.array([c, c]))
        inputs = MasterInputs.from_vectors(u_star, v_star, basis)
        with pytest.warns(RepeatedCosine):
            roots = master_roots(inputs)
        lam = sample_cca(
            np.vstack([u_star, U_sub]), np.vstack([v_star, V_sub])
        ).correlations_sq
        assert roots.shape[0] == 3
        assert np.max(np.abs(np.sort(roots) - np.sort(lam))) < 1e-9

    def test_repeated_cosine_decoupled_block_keeps_root(self):
        # when the duplicated pair is untouched by the adjoined vectors, the
        # repeated squared cosine itself stays in the spectrum
        S = 24
        c = 0.6
        s = np.sqrt(1 - c * c)
        u1, u2 = np.eye(S)[0], np.eye(S)[1]
        v1 = c * u1 + s * np.eye(S)[4]
        v2 = c * u2 + s * np.eye(S)[5]
        v3 = np.eye(S)[6]
        U_sub = np.vstack([u1, u2])
        V_sub = np.vstack([v1, v2, v3])
        u_star = np.eye(S)[8] + 0.5 * np.eye(S)[6]
        v_star = np.eye(S)[9] + 0.25 * np.eye(S)[8]
        basis = CanonicalBasis(U_sub, V_sub, np.array([c, c]))
        inputs = MasterInputs.from_vectors(u_star, v_star, basis)
        roots = master_roots(inputs)
        lam = sample_cca(
            np.vstack([u_star, U_sub]), np.vstack([v_star, V_sub])
        ).correlations_sq
        assert np.max(np.abs(np.sort(roots) - np.sort(lam))) < 1e-9
        assert np.sum(np.abs(roots - c * c) < 1e-12) == 2


def bisection_reference(inputs, roots):
    """Each root bisected to floating-point resolution on the residual, inside
    the bracket between its neighbouring roots and poles (all at once)."""
    cf = master._coeffs(inputs)
    r = np.sort(roots)
    poles = np.sort(inputs.poles())
    mids = np.concatenate([[0.0], 0.5 * (r[1:] + r[:-1]), [1.0]])
    i = np.searchsorted(poles, r)
    pad = 1e-11  # the residual's double poles cancel only away from the pole
    a = np.maximum(mids[:-1], np.concatenate([[0.0], poles + pad])[i])
    b = np.minimum(mids[1:], np.concatenate([poles - pad, [1.0]])[i])
    fa = master._residual(cf, a)
    assert np.all(np.sign(fa) * np.sign(master._residual(cf, b)) < 0)
    for _ in range(100):
        mid = 0.5 * (a + b)
        fm = master._residual(cf, mid)
        left = np.sign(fm) == np.sign(fa)
        a, fa, b = np.where(left, mid, a), np.where(left, fm, fa), np.where(left, b, mid)
    return 0.5 * (a + b)


def check_instance(K, M, S, seed):
    U, V = master_instance(K, M, S, seed)
    return MasterInputs.from_matrices(U[0], V[0], U[1:], V[1:])


class TestSolver:
    @pytest.mark.parametrize("seed", range(34000, 34012))
    def test_matches_bisection_at_k150(self, seed):
        inputs = check_instance(150, 225, 1200, seed)
        roots = master_roots(inputs)
        assert roots.shape[0] == 150
        assert np.max(np.abs(np.sort(roots) - bisection_reference(inputs, roots))) <= 1e-14

    def test_matches_bisection_on_random_instances(self):
        for seed in (5, 100, 101, 102, 103, 104):
            rng = np.random.default_rng(seed)
            for _ in range(10):
                inputs = random_instance(rng)[4]
                roots = master_roots(inputs)
                assert roots.shape[0] == inputs.K
                ref = bisection_reference(inputs, roots)
                assert np.max(np.abs(np.sort(roots) - ref)) <= 1e-14

    def test_residual_matches_terms(self):
        inputs = check_instance(20, 30, 160, 3)
        cf = master._coeffs(inputs)
        z = np.linspace(0.0, 1.0, 1001)
        assert np.array_equal(master._residual(cf, z), master._terms(cf, z).residual)
        for x in z[::50]:
            assert master._residual(cf, x) == master._terms(cf, x).residual

    def test_evaluations_per_root(self, monkeypatch):
        # the mesh scan plus a few Newton steps per root; fixed bisection
        # took about 44 evaluations per root
        calls = []
        for name in ("_terms", "_residual"):
            def counting(cf, z, func=getattr(master, name)):
                calls.append(z)
                return func(cf, z)
            monkeypatch.setattr(master, name, counting)
        inputs = check_instance(150, 225, 1200, 34003)
        assert master_roots(inputs).shape[0] == 150
        assert len(calls) <= 8 * 150

    def test_refines_only_rootless_intervals(self, monkeypatch):
        # seed 34001 hides a close root pair from the first scan; the finer
        # mesh goes over the intervals without a root, not over all of them
        calls = []
        for name in ("_terms", "_residual"):
            def counting(cf, z, func=getattr(master, name)):
                calls.append(z)
                return func(cf, z)
            monkeypatch.setattr(master, name, counting)
        inputs = check_instance(150, 225, 1200, 34001)
        roots = master_roots(inputs)
        assert roots.shape[0] == 150
        assert len(calls) <= 8 * 150
        monkeypatch.undo()
        assert np.max(np.abs(np.sort(roots) - bisection_reference(inputs, roots))) <= 1e-14

    def test_coefficients_built_once_per_table(self, monkeypatch):
        builds = []
        build = master._coeffs
        monkeypatch.setattr(master, "_coeffs", lambda inputs: builds.append(1) or build(inputs))
        inputs = check_instance(60, 90, 480, 3)
        roots = master_roots(inputs)
        for z in roots:
            master_vector_stats(z, inputs)
        master_residual(0.5 * (roots[0] + roots[1]), inputs)
        assert len(builds) == 1

    def test_intermediate_correlations(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            U, V, _, _, inputs = random_instance(rng)
            ref = linalg._factor(U[1:], V, 0)[0]
            assert np.max(np.abs(inputs.intermediate_correlations() - ref)) <= 1e-12


class TestVectorStats:
    @pytest.mark.parametrize("seed", range(8))
    def test_cosines_match_measured_angles(self, seed):
        rng = np.random.default_rng(200 + seed)
        U, V, u_star, v_star, inputs = random_instance(rng, 4, 6, 25)
        res = sample_cca(U, V)
        for i, lam in enumerate(res.correlations_sq):
            st = master_vector_stats(lam, inputs)
            cx = abs(u_star @ res.left_variables[i]) / np.linalg.norm(u_star)
            cy = abs(v_star @ res.right_variables[i]) / np.linalg.norm(v_star)
            assert st.cos_theta_x == pytest.approx(cx, abs=1e-8)
            assert st.cos_theta_y == pytest.approx(cy, abs=1e-8)
            # row 0 of U and V holds the unit-norm adjoined vector, so its
            # squared weight is the signal loading
            assert st.alpha0_sq == pytest.approx(res.left_weights[i][0] ** 2, abs=1e-8)
            assert st.beta0_sq == pytest.approx(res.right_weights[i][0] ** 2, abs=1e-8)

    def test_isolated_signal_direction(self):
        # u* orthogonal to the u-basis with all cross products zero: the
        # signal is its own canonical direction and alpha0^2 = 1/<u*,u*>
        S = 30
        rng = np.random.default_rng(9)
        U_sub = np.zeros((3, S))
        U_sub[:, 5:25] = rng.standard_normal((3, 20))
        V_sub = np.zeros((4, S))
        V_sub[:, 5:25] = rng.standard_normal((4, 20))
        u_star = np.zeros(S)
        u_star[0] = 2.0
        v_star = np.zeros(S)
        v_star[0] = 1.0  # correlated with u*, orthogonal to both bases
        inputs = MasterInputs.from_matrices(u_star, v_star, U_sub, V_sub)
        roots = master_roots(inputs)
        st = master_vector_stats(roots[0], inputs)
        assert roots[0] == pytest.approx(1.0, abs=1e-10)
        assert st.alpha0_sq == pytest.approx(1.0 / 4.0, abs=1e-10)
        assert st.cos_theta_x == pytest.approx(1.0, abs=1e-8)

    def test_vanishing_t1_raises_degenerate_q(self):
        # u* is orthogonal to every basis vector and to v*, and v* lies along
        # the larger side's unpaired direction: T1 and T3 vanish at every z
        inputs = MasterInputs(
            cosines=np.array([0.5]), uu_star=1.0, vv_star=1.0, uv_star=0.0,
            u_star_u=np.zeros(1), u_star_v=np.zeros(2),
            v_star_u=np.zeros(1), v_star_v=np.array([0.0, 1.0]),
        )
        with pytest.raises(DegenerateQ, match="denominator vanishes at z=0.3"):
            master_vector_stats(0.3, inputs)


class TestEmpiricalG:
    def test_one_term_sum(self):
        ev = empirical_G(0.5, [0.25], S=4)
        assert ev.value == pytest.approx(1.0)
        assert ev.derivative == pytest.approx(-0.25 / 0.25**2)

    def test_empty_sum_raises(self):
        with pytest.raises(PoleProximity):
            empirical_G(0.9, np.array([0.8])[1:], S=10)

    def test_pole_guard(self):
        with pytest.raises(PoleProximity):
            empirical_G(0.25 + 1e-8, [0.25], S=4)

    def test_shifted_matches_direct_asymptotically(self):
        # resolvent sums over noise cosines and over the shifted observed
        # spectrum agree better and better as dimensions grow
        discrepancies = []
        for S in (200, 400, 800, 1600):
            K, M = S // 4, S // 3
            rng = np.random.default_rng(S)
            U = rng.standard_normal((K, S))
            V = rng.standard_normal((M, S))
            lam = sample_cca(U, V).correlations_sq
            c2 = sample_cca(U[1:], V[1:]).correlations_sq
            z = 0.95
            d = abs(
                empirical_G(z, c2, S).value
                - empirical_G(z, lam[1:], S).value
            )
            discrepancies.append(d)
        assert discrepancies[-1] < discrepancies[0]
        assert discrepancies[-1] < 5e-3
        # derivative sums converge the same way (slower: squared poles)
        d1 = abs(
            empirical_G(0.95, c2, 1600).derivative
            - empirical_G(0.95, lam[1:], 1600).derivative
        )
        assert d1 < 5e-2

    def test_converges_to_closed_form(self):
        K, M, S = 500, 750, 4000
        rng = np.random.default_rng(11)
        U = rng.standard_normal((K - 1, S))
        V = rng.standard_normal((M - 1, S))
        c2 = sample_cca(U, V).correlations_sq
        reg = regime_from_dims(K, M, S)
        z = 0.9
        emp = empirical_G(z, c2, S).value
        assert emp == pytest.approx(wachter_G(z, reg).value, abs=5e-3)


class TestAsymptoticRelations:
    def test_reduction_identity_spot(self):
        reg = regime_from_ratios(8.0, 16.0 / 3.0)
        rho2 = 0.49
        z = z_from_rho2(rho2, reg)
        G = wachter_G(z, reg)
        k, m = 1.0 / reg.tau_K, 1.0 / reg.tau_M
        assert r2_relation(z, G.value, k, m) == pytest.approx(rho2, abs=1e-10)
        ev = cos2_relation(z, G.value, G.derivative, rho2, k, m)
        s_x, s_y = sin2_angles(rho2, reg)
        assert 1.0 - ev.cos2_x == pytest.approx(s_x, abs=1e-9)
        assert 1.0 - ev.cos2_y == pytest.approx(s_y, abs=1e-9)
        assert 1.0 - ev.cos2_x == pytest.approx(0.1816, abs=2e-4)
        assert ev.front_x == pytest.approx(1.0, abs=1e-9)
        assert ev.front_y == pytest.approx(1.0, abs=1e-9)

    def test_q_factors_closed_form(self):
        # at the spike the ratio factors have rational closed forms
        reg = regime_from_ratios(8.0, 16.0 / 3.0)
        rho2 = 0.6
        z = z_from_rho2(rho2, reg)
        G = wachter_G(z, reg)
        q_x, q_y = q_factors(z, G.value, 1.0 / reg.tau_K, 1.0 / reg.tau_M)
        assert q_x == pytest.approx(
            -rho2 * reg.tau_M / (rho2 * (reg.tau_M - 1) + 1), abs=1e-10
        )
        assert q_y == pytest.approx(
            -rho2 * reg.tau_K / (rho2 * (reg.tau_K - 1) + 1), abs=1e-10
        )

    def test_noise_only_edge_gives_cutoff(self):
        reg = regime_from_dims(400, 600, 3200)
        z = reg.lambda_plus + 1e-6
        G = wachter_G(z, reg)
        r2 = r2_relation(z, G.value, 1.0 / reg.tau_K, 1.0 / reg.tau_M)
        assert r2 == pytest.approx(reg.rho_c_sq, abs=1e-2)

    def test_limestone_strength_via_shifted_sum(self):
        lam = np.array([0.83, 0.52, 0.36, 0.11, 0.09, 0.04])
        K, M, S = 6, 8, 45
        G = empirical_G(lam[0], lam[1:], S)
        r2 = r2_relation(lam[0], G.value, K / S, M / S)
        assert r2 == pytest.approx(0.75, abs=0.05)

    def test_empirical_route_matches_closed_form_on_simulation(self):
        K, M, S, r = 300, 450, 2400, 0.7
        rng = np.random.default_rng(12)
        x = rng.standard_normal(S)
        y = r * x + np.sqrt(1 - r * r) * rng.standard_normal(S)
        U = np.vstack([x, rng.standard_normal((K - 1, S))])
        V = np.vstack([y, rng.standard_normal((M - 1, S))])
        lam = sample_cca(U, V).correlations_sq
        G = empirical_G(lam[0], lam[1:], S)
        r2_emp = r2_relation(lam[0], G.value, K / S, M / S)
        reg = regime_from_dims(K, M, S)
        from hdcca.wachter import rho2_from_z

        assert r2_emp == pytest.approx(rho2_from_z(lam[0], reg), abs=0.03)
        ev = cos2_relation(lam[0], G.value, G.derivative, r2_emp, K / S, M / S)
        s_x, s_y = sin2_angles(r * r, reg)
        assert 1.0 - ev.cos2_x == pytest.approx(s_x, abs=0.02)
        assert 1.0 - ev.cos2_y == pytest.approx(s_y, abs=0.02)

    def test_nonpositive_strength_raises_denominator_vanishes(self):
        reg = regime_from_ratios(8.0, 16.0 / 3.0)
        z = z_from_rho2(0.49, reg)
        G = wachter_G(z, reg)
        k, m = 1.0 / reg.tau_K, 1.0 / reg.tau_M
        for r_sq in (0.0, -0.1):
            with pytest.raises(DenominatorVanishes, match="r_sq must be positive"):
                cos2_relation(z, G.value, G.derivative, r_sq, k, m)


class TestInputValidation:
    def test_rejects_unsorted_cosines(self):
        with pytest.raises(ValueError):
            MasterInputs(
                cosines=np.array([0.2, 0.8]),
                uu_star=1.0,
                vv_star=1.0,
                uv_star=0.1,
                u_star_u=np.zeros(2),
                u_star_v=np.zeros(2),
                v_star_u=np.zeros(2),
                v_star_v=np.zeros(2),
            )

    def test_rejects_cauchy_schwarz_violation(self):
        with pytest.raises(ValueError):
            MasterInputs(
                cosines=np.array([0.5]),
                uu_star=1.0,
                vv_star=1.0,
                uv_star=1.5,
                u_star_u=np.zeros(1),
                u_star_v=np.zeros(1),
                v_star_u=np.zeros(1),
                v_star_v=np.zeros(1),
            )

    def test_rejects_wrong_side_order(self):
        with pytest.raises(DimensionError):
            MasterInputs(
                cosines=np.array([0.5, 0.4]),
                uu_star=1.0,
                vv_star=1.0,
                uv_star=0.0,
                u_star_u=np.zeros(3),
                u_star_v=np.zeros(2),
                v_star_u=np.zeros(3),
                v_star_v=np.zeros(2),
            )
