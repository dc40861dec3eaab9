import numpy as np
import pytest

from hdcca import linalg
from hdcca.errors import DimensionError, RankDeficient, RegimeWarning, ZeroVector
from hdcca.inference import analyze
from hdcca.linalg import (
    PopulationSpec,
    angle_between,
    canonical_bases,
    pca_spectrum,
    population_cca,
    sample_cca,
)


def brute_force_correlations(U, V):
    """Oracle: eigenvalues of (U U^T)^-1 U V^T (V V^T)^-1 V U^T by direct
    dense inversion, sorted descending."""
    gu = np.linalg.inv(U @ U.T)
    gv = np.linalg.inv(V @ V.T)
    mat = gu @ U @ V.T @ gv @ V @ U.T
    vals = np.linalg.eigvals(mat)
    assert np.max(np.abs(vals.imag)) < 1e-10
    return np.sort(vals.real)[::-1]


class TestSampleCca:
    def test_identical_inputs(self):
        rng = np.random.default_rng(1)
        U = rng.standard_normal((3, 20))
        res = sample_cca(U, U.copy())
        assert np.allclose(res.correlations_sq, 1.0, atol=1e-10)

    def test_orthogonal_row_spaces(self):
        S = 30
        U = np.zeros((3, S))
        V = np.zeros((4, S))
        U[np.arange(3), np.arange(3)] = 1.0
        V[np.arange(4), 10 + np.arange(4)] = 1.0
        res = sample_cca(U, V)
        assert np.allclose(res.correlations_sq, 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        K = rng.integers(2, 9)
        M = rng.integers(K, 9)
        S = int(rng.integers(K + M + 2, 41))
        U = rng.standard_normal((K, S))
        V = rng.standard_normal((M, S))
        res = sample_cca(U, V)
        oracle = brute_force_correlations(U, V)
        assert np.max(np.abs(res.correlations_sq - oracle)) < 1e-10

    def test_result_invariants(self):
        rng = np.random.default_rng(7)
        U = rng.standard_normal((4, 30))
        V = rng.standard_normal((6, 30))
        res = sample_cca(U, V)
        lam = res.correlations_sq
        assert np.all(np.diff(lam) <= 0)
        assert np.all((lam >= 0) & (lam <= 1))
        X, Y = res.left_variables, res.right_variables
        assert np.allclose(X @ X.T, np.eye(4), atol=1e-8)
        assert np.allclose(Y @ Y.T, np.eye(4), atol=1e-8)
        # <x_i, y_i>^2 recovers the correlations
        assert np.allclose(np.einsum("ij,ij->i", X, Y) ** 2, lam, atol=1e-8)
        # variables are the normalised projected weights
        for i in range(4):
            proj = U.T @ res.left_weights[i]
            assert np.allclose(proj / np.linalg.norm(proj), X[i], atol=1e-8)
            j = np.argmax(np.abs(res.left_weights[i]))
            assert res.left_weights[i, j] > 0

    def test_invariance_under_invertible_mixing(self):
        rng = np.random.default_rng(3)
        U = rng.standard_normal((5, 40))
        V = rng.standard_normal((7, 40))
        up = rng.standard_normal((5, 5))
        psi = rng.standard_normal((7, 7))
        base = sample_cca(U, V).correlations_sq
        mixed = sample_cca(up @ U, psi @ V).correlations_sq
        assert np.max(np.abs(base - mixed)) < 1e-9

    def test_invariance_under_sample_rotation(self):
        rng = np.random.default_rng(4)
        U = rng.standard_normal((4, 25))
        V = rng.standard_normal((6, 25))
        O, _ = np.linalg.qr(rng.standard_normal((25, 25)))
        a = sample_cca(U, V)
        b = sample_cca(U @ O, V @ O)
        assert np.max(np.abs(a.correlations_sq - b.correlations_sq)) < 1e-10
        # angle statistics carry over: measure against rotated references
        for i in range(4):
            ref = U[i]
            ang_a = angle_between(ref, a.left_variables[i]).degrees
            ang_b = angle_between(O.T @ ref, b.left_variables[i]).degrees
            assert ang_a == pytest.approx(ang_b, abs=1e-7)

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(5)
        U = rng.standard_normal((4, 30))
        V = rng.standard_normal((6, 30))
        a = sample_cca(U, V)
        b = sample_cca(V, U)
        assert np.allclose(a.correlations_sq, b.correlations_sq, atol=1e-10)
        assert np.allclose(np.abs(a.left_variables), np.abs(b.right_variables), atol=1e-8)
        assert a.swapped is False and b.swapped is True

    def test_all_unit_when_rows_span_samples(self):
        rng = np.random.default_rng(6)
        U = rng.standard_normal((3, 10))
        V = rng.standard_normal((12, 10))
        with pytest.warns(RegimeWarning):
            res = sample_cca(U, V)
        assert np.all(res.correlations_sq > 1.0 - 1e-8)

    def test_forced_unit_count_on_overlap(self):
        # K + M > S > K, M forces exactly K + M - S unit correlations
        rng = np.random.default_rng(8)
        K, M, S = 6, 9, 12
        U = rng.standard_normal((K, S))
        V = rng.standard_normal((M, S))
        with pytest.warns(RegimeWarning):
            res = sample_cca(U, V)
        n_unit = int(np.sum(res.correlations_sq > 1.0 - 1e-8))
        assert n_unit == K + M - S
        assert res.correlations_sq[K + M - S] < 1.0 - 1e-6

    def test_more_rows_than_samples(self):
        # a 30 x 20 panel has a singular Gram matrix, yet it is accepted: its
        # rows span every sample direction, so every correlation is 1, and
        # its weights are the minimal-norm solutions; analyze makes a note
        rng = np.random.default_rng(12)
        U = rng.standard_normal((30, 20))
        V = rng.standard_normal((5, 20))
        assert np.linalg.cond(U @ U.T) > 1e12
        with pytest.warns(RegimeWarning):
            res = sample_cca(U, V)
        assert res.swapped and np.all(res.correlations_sq > 1.0 - 1e-12)
        minimal = np.linalg.pinv(U.T) @ res.left_variables.T
        assert np.allclose(res.left_weights, minimal.T, atol=1e-10)
        report = analyze(U, V)
        assert report.regime is None
        assert any(n.startswith("dimension regime violated") for n in report.notes)

    def test_rank_deficient_raises(self):
        rng = np.random.default_rng(9)
        U = rng.standard_normal((4, 30))
        U[3] = U[0] + U[1]
        V = rng.standard_normal((5, 30))
        with pytest.raises(RankDeficient):
            sample_cca(U, V)

    def test_demean_flag(self):
        rng = np.random.default_rng(10)
        U = rng.standard_normal((4, 50)) + 5.0
        V = rng.standard_normal((5, 50)) - 3.0
        res = sample_cca(U, V, demean=True)
        ref = sample_cca(
            U - U.mean(axis=1, keepdims=True), V - V.mean(axis=1, keepdims=True)
        )
        assert np.allclose(res.correlations_sq, ref.correlations_sq, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            sample_cca(np.zeros((3, 10)), np.zeros((4, 11)))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 20)])
    def test_empty_panel(self, shape):
        with pytest.raises(DimensionError, match="U has no rows or no samples"):
            sample_cca(np.zeros(shape), np.ones((4, shape[1])))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry(self, value):
        # match= tells the check apart from numpy's LinAlgError, a ValueError
        rng = np.random.default_rng(11)
        U, V = rng.standard_normal((3, 20)), rng.standard_normal((4, 20))
        V[1, 5] = value
        with pytest.raises(ValueError, match="V has non-finite entries"):
            sample_cca(U, V)


def _conditioned_panel(rng, X, cond):
    """X mixed by ``Q diag(d) Q^T`` with a random orthogonal Q, so that the
    Gram condition number is ``cond`` times that of ``X X^T``.  The mixing is
    invertible, so it leaves every canonical correlation unchanged."""
    n = X.shape[0]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.logspace(0.0, -0.5 * np.log10(cond), n)
    return (Q * d) @ Q.T @ X


class TestCorrelations:
    # (K, M): ordinary, swapped (K > M), and one-row U with the ladder on V
    @pytest.mark.parametrize(
        "dims", [(20, 30), (30, 20), (1, 30)], ids=["K<M", "K>M", "K=1"]
    )
    @pytest.mark.parametrize("exponent", [1, 3, 5, 7, 9, 11])
    def test_conditioning_ladder(self, dims, exponent):
        # the Cholesky route below the guard and the QR fallback above it
        # both match the QR route's correlations, leading variables and
        # leading weights
        rng = np.random.default_rng(exponent)
        K, M = dims
        U = rng.standard_normal((K, 300))
        V = rng.standard_normal((M, 300))
        V[0] = 0.8 * U[0] + 0.6 * V[0]
        if K > 1:
            U = _conditioned_panel(rng, U, 10.0**exponent)
            gram = U @ U.T
        else:
            V = _conditioned_panel(rng, V, 10.0**exponent)
            gram = V @ V.T
        assert 10.0 ** (exponent - 1) < np.linalg.cond(gram) < 10.0 ** (exponent + 1)
        lam = linalg._correlations(U, V)
        ref, ref_left, ref_right = linalg._qr_route(U, V)
        assert lam.shape == (min(K, M),)
        assert np.all(np.diff(lam) <= 0.0)
        assert np.max(np.abs(lam - ref)) <= 1e-12
        res = linalg._cca(U, V)
        assert np.max(np.abs(res.correlations_sq - ref)) <= 1e-12
        sides = (
            (res.left_weights[0], res.left_variables[0], ref_left),
            (res.right_weights[0], res.right_variables[0], ref_right),
        )
        for weights, variables, side in sides:
            ref_w, ref_v = linalg._recover(*side)
            assert abs(1.0 - abs(variables @ ref_v[0])) <= 1e-12
            rel = np.linalg.norm(weights - ref_w[0]) / np.linalg.norm(ref_w[0])
            assert rel <= 1e-10


def _guard_routes(monkeypatch, panels):
    """The route ``_gram_cholesky`` takes on each panel ("certified", "exact
    pass" or "exact fail"), checking on the way that it returns None exactly
    when the exact eigenvalue test fails, and otherwise the bits of
    ``np.linalg.cholesky(X @ X.T)``: so the Gram's diagonal is restored."""
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def spy(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    routes = []
    for X in panels:
        eig = eigvalsh(X @ X.T)
        exact = eig[0] > 0.0 and eig[-1] <= linalg._GRAM_COND_LIMIT * eig[0]
        calls.clear()
        L = linalg._gram_cholesky(X)
        assert (L is not None) == exact, eig[-1] / eig[0]
        if L is not None:
            assert np.array_equal(L, np.linalg.cholesky(X @ X.T))
        if not calls:
            routes.append("certified")
        else:
            routes.append("exact pass" if exact else "exact fail")
    return routes


class TestGramCholesky:
    # the certificate may leave a decision to the exact test, never change it
    @pytest.mark.parametrize(
        "dims", [(20, 30), (30, 20), (1, 30)], ids=["K<M", "K>M", "K=1"]
    )
    def test_conditioning_ladder(self, monkeypatch, dims):
        routes = []
        for exponent in np.arange(2.0, 6.01, 0.25):
            rng = np.random.default_rng(int(100 * exponent))
            K, M = dims
            U = rng.standard_normal((K, 300))
            V = rng.standard_normal((M, 300))
            V[0] = 0.8 * U[0] + 0.6 * V[0]
            if K > 1:
                U = _conditioned_panel(rng, U, 10.0**exponent)
            else:
                V = _conditioned_panel(rng, V, 10.0**exponent)
            routes += _guard_routes(monkeypatch, [U, V])
        assert {"certified", "exact pass", "exact fail"} <= set(routes)

    def test_one_row_scaled(self, monkeypatch):
        rng = np.random.default_rng(5)
        panels = []
        for scale in np.logspace(-3.0, 3.0, 49):
            X = rng.standard_normal((20, 300))
            X[3] *= scale
            panels.append(X)
        routes = _guard_routes(monkeypatch, panels)
        assert {"certified", "exact pass", "exact fail"} <= set(routes)

    def test_common_factor(self, monkeypatch):
        # every row loads on one common series: one large eigenvalue
        rng = np.random.default_rng(6)
        panels = [
            weight * rng.standard_normal(300) + rng.standard_normal((n, 300))
            for n in (2, 20, 150)
            for weight in np.logspace(0.0, 2.5, 21)
        ]
        routes = _guard_routes(monkeypatch, panels)
        assert {"certified", "exact fail"} <= set(routes)

    def test_singular_gram(self, monkeypatch):
        X = np.random.default_rng(7).standard_normal((10, 200))
        X[4] = X[1] - X[2]
        assert _guard_routes(monkeypatch, [X, np.zeros((3, 50))]) == ["exact fail"] * 2


class TestTriSolve:
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("rhs", [1, 200])
    @pytest.mark.parametrize(
        "n", [1, linalg._TRI_BLOCK - 1, linalg._TRI_BLOCK, linalg._TRI_BLOCK + 1, 300]
    )
    def test_matches_solve(self, n, rhs, trans):
        # blocked substitution on a Cholesky factor of a Gram matrix against
        # np.linalg.solve on the whole factor, in place on B
        rng = np.random.default_rng(n + rhs)
        X = rng.standard_normal((n, 4 * n + 20))
        L = np.linalg.cholesky(X @ X.T)
        B = rng.standard_normal((n, rhs))
        ref = np.linalg.solve(L.T if trans else L, B)
        out = B.copy()
        got = linalg._tri_solve(L, out, trans)
        assert got is out
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("n", [20, 2 * linalg._TRI_BLOCK + 7])
    def test_right_side_solve_on_transposed_view(self, n, trans):
        # C L^-T (C L^-1 when trans) in C's own memory, through C.T
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 3 * n))
        L = np.linalg.cholesky(X @ X.T)
        C = rng.standard_normal((90, n))
        ref = np.linalg.solve(L.T if trans else L, C.T).T
        out = C.copy()
        linalg._tri_solve(L, out.T, trans)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestPopulationCca:
    def test_single_signal_structure(self):
        spec = PopulationSpec.single_signal(5, 7, r=0.6)
        eig, left, right = population_cca(spec)
        assert eig[0] == pytest.approx(0.36, abs=1e-12)
        assert np.allclose(eig[1:], 0.0, atol=1e-12)
        assert np.allclose(np.abs(left[0]), np.eye(5)[0], atol=1e-10)
        assert np.allclose(np.abs(right[0]), np.eye(7)[0], atol=1e-10)

    def test_zero_cross_block(self):
        spec = PopulationSpec(np.eye(4), np.zeros((4, 6)), np.eye(6))
        eig, _, _ = population_cca(spec)
        assert np.allclose(eig, 0.0, atol=1e-14)

    def test_matches_large_sample_cca(self):
        rng = np.random.default_rng(11)
        K, M, S = 3, 4, 1_000_000
        A = rng.standard_normal((K, K))
        B = rng.standard_normal((M, M))
        cov_uu = A @ A.T + K * np.eye(K)
        cov_vv = B @ B.T + M * np.eye(M)
        cov_uv = 0.5 * rng.standard_normal((K, M))
        spec = PopulationSpec(cov_uu, cov_uv, cov_vv)
        assert spec.is_valid()
        eig = population_cca(spec).eigenvalues
        L = np.linalg.cholesky(spec.joint())
        W = L @ rng.standard_normal((K + M, S))
        sampled = sample_cca(W[:K], W[K:]).correlations_sq
        assert np.max(np.abs(eig - sampled)) < 2e-2

    def test_population_is_r_squared(self):
        # the single nonzero eigenvalue equals C_uv^2 / (C_uu C_vv)
        spec = PopulationSpec.single_signal(4, 5, r=0.8)
        c_uu = spec.cov_uu[0, 0]
        c_vv = spec.cov_vv[0, 0]
        c_uv = spec.cov_uv[0, 0]
        eig = population_cca(spec).eigenvalues
        assert eig[0] == pytest.approx(c_uv**2 / (c_uu * c_vv), abs=1e-14)


class TestCanonicalBases:
    def test_orthogonal_spaces(self):
        U = np.eye(3, 25)
        V = np.zeros((5, 25))
        V[np.arange(5), 10 + np.arange(5)] = 1.0
        basis = canonical_bases(U, V)
        assert np.allclose(basis.cosines, 0.0, atol=1e-12)
        assert np.allclose(basis.u_basis @ basis.u_basis.T, np.eye(3), atol=1e-10)
        assert np.allclose(basis.v_basis @ basis.v_basis.T, np.eye(5), atol=1e-10)

    def test_identical_spaces(self):
        rng = np.random.default_rng(12)
        U = rng.standard_normal((4, 30))
        basis = canonical_bases(U, U.copy())
        assert np.allclose(basis.cosines, 1.0, atol=1e-10)

    def test_scalar_product_table(self):
        rng = np.random.default_rng(13)
        U = rng.standard_normal((3, 25))
        V = rng.standard_normal((5, 25))
        basis = canonical_bases(U, V)
        cross = basis.u_basis @ basis.v_basis.T
        expected = np.zeros((3, 5))
        expected[np.arange(3), np.arange(3)] = basis.cosines
        assert np.max(np.abs(cross - expected)) < 1e-10
        assert np.max(np.abs(basis.u_basis @ basis.u_basis.T - np.eye(3))) < 1e-10
        assert np.max(np.abs(basis.v_basis @ basis.v_basis.T - np.eye(5))) < 1e-10
        # cosines match the CCA correlations on the same inputs
        lam = sample_cca(U, V).correlations_sq
        assert np.allclose(basis.cosines**2, lam, atol=1e-10)
        assert basis.padded_cosines.shape == (5,)
        assert np.all(basis.padded_cosines[3:] == 0.0)

    def test_requires_smaller_first(self):
        with pytest.raises(DimensionError):
            canonical_bases(np.eye(5, 20), np.eye(3, 20))

    @pytest.mark.parametrize("dims", [(20, 30), (1, 30)], ids=["K<M", "K=1"])
    @pytest.mark.parametrize("exponent", [1, 3, 5, 7, 9, 11])
    def test_conditioning_ladder(self, dims, exponent):
        # the whitened route below the Gram guard and the QR route above it
        # both give the QR reference's cosines, orthonormal paired bases and
        # the same leading pair and row spaces
        rng = np.random.default_rng(exponent)
        K, M = dims
        U = rng.standard_normal((K, 300))
        V = rng.standard_normal((M, 300))
        V[0] = 0.8 * U[0] + 0.6 * V[0]
        if K > 1:
            U = _conditioned_panel(rng, U, 10.0**exponent)
        else:
            V = _conditioned_panel(rng, V, 10.0**exponent)
        assert (linalg._whitened(U, V) is None) == (exponent > 4)
        basis = canonical_bases(U, V)
        Qu, _ = np.linalg.qr(U.T)
        Qv, _ = np.linalg.qr(V.T)
        A, sigma, Bt = np.linalg.svd(Qu.T @ Qv)
        ref_u, ref_v = (Qu @ A).T, (Qv @ Bt.T).T
        assert np.max(np.abs(basis.cosines - sigma)) <= 1e-12
        cross = np.zeros((K, M))
        cross[np.arange(K), np.arange(K)] = basis.cosines
        assert np.max(np.abs(basis.u_basis @ basis.v_basis.T - cross)) <= 1e-12
        for got, ref in ((basis.u_basis, ref_u), (basis.v_basis, ref_v)):
            n = ref.shape[0]
            assert np.max(np.abs(got @ got.T - np.eye(n))) <= 1e-12
            assert abs(1.0 - abs(got[0] @ ref[0])) <= 1e-12
            assert np.max(np.abs(got.T @ got - ref.T @ ref)) <= 1e-12


class TestPcaSpectrum:
    def test_rank_one(self):
        row = np.ones(50) / np.sqrt(50)
        X = np.vstack([row, row, row])
        eig = pca_spectrum(X)
        assert eig[0] == pytest.approx(3.0 / 50, abs=1e-12)
        assert np.allclose(eig[1:], 0.0, atol=1e-12)

    def test_marchenko_pastur_bulk(self):
        rng = np.random.default_rng(14)
        N, S = 100, 1000
        eig = pca_spectrum(rng.standard_normal((N, S)))
        gamma = N / S
        lo, hi = (1 - np.sqrt(gamma)) ** 2, (1 + np.sqrt(gamma)) ** 2
        assert eig.min() > lo - 0.05
        assert eig.max() < hi + 0.05

    def test_rotation_invariance(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((6, 40))
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert np.max(np.abs(pca_spectrum(X) - pca_spectrum(Q @ X))) < 1e-10

    def test_demean(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((5, 200)) + 10.0
        eig = pca_spectrum(X, demean=True)
        assert eig[0] < 5.0  # the mean direction is removed


class TestAngleBetween:
    def test_parallel(self):
        res = angle_between(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]))
        assert res == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_orthogonal(self):
        res = angle_between(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert res.cos_sq == pytest.approx(0.0, abs=1e-14)
        assert res.degrees == pytest.approx(90.0)

    def test_hand_example(self):
        res = angle_between(np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert res.sin_sq == pytest.approx(0.5, abs=1e-12)
        assert res.degrees == pytest.approx(45.0, abs=1e-10)

    def test_sign_invariance(self):
        rng = np.random.default_rng(17)
        x, y = rng.standard_normal(10), rng.standard_normal(10)
        assert angle_between(x, y).degrees == pytest.approx(
            angle_between(-x, y).degrees
        )

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            angle_between(np.zeros(5), np.ones(5))
