import warnings

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
from hdcca.simulate import SimSpec, gen_data


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sample_cca(U, V)
        assert np.allclose(res.correlations_sq, 0.0, atol=1e-12)
        # no correlation to divide by, yet every pair is well defined
        sides = ((res.left_weights, res.left_variables),
                 (res.right_weights, res.right_variables))
        for weights, variables in sides:
            assert np.all(np.isfinite(weights)) and np.all(np.isfinite(variables))
            assert np.max(np.abs(variables @ variables.T - np.eye(3))) <= 1e-12

    def test_weak_pairs(self, monkeypatch):
        # correlations 0.9 down to 1e-7: T^T a / sigma is accurate for the
        # strong pairs only, so asking for every pair takes the thin SVD;
        # both ways give orthonormal variables with <x_i, y_i> = sigma_i
        S = 60
        rng = np.random.default_rng(15)
        Q, _ = np.linalg.qr(rng.standard_normal((S, 12)))
        r = np.array([0.9, 0.5, 0.1, 1e-3, 1e-5, 1e-7])
        U = Q[:, :6].T
        V = r[:, None] * U + np.sqrt(1.0 - r * r)[:, None] * Q[:, 6:].T
        svd = np.linalg.svd
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for n, svds in ((3, 0), (None, 1)):
            calls.clear()
            lam, left, right = linalg._factor(U, V, n)
            assert len(calls) == svds
            assert np.max(np.abs(lam - r * r)) <= 1e-12
            x, y = linalg._recover(*left)[1], linalg._recover(*right)[1]
            k = x.shape[0]
            assert k == (n or 6)
            for z in (x, y):
                assert np.max(np.abs(z @ z.T - np.eye(k))) <= 1e-12
            assert np.max(np.abs(np.abs(np.einsum("ij,ij->i", x, y)) - r[:k])) <= 1e-12
            # each variable lies in its own planted pair's plane
            assert np.max(1.0 - np.abs(np.einsum("ij,ij->i", x, U[:k]))) <= 1e-12

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

    def test_more_rows_than_samples_demeaned(self):
        # de-meaning cuts the 30 x 20 panel to rank 19, and V's de-meaned rows
        # lie in that row space: every correlation is 1, and the weights
        # are the minimal-norm ones
        rng = np.random.default_rng(12)
        U = rng.standard_normal((30, 20))
        V = rng.standard_normal((5, 20))
        with pytest.warns(RegimeWarning):
            res = sample_cca(U, V, demean=True)
        assert np.all(res.correlations_sq > 1.0 - 1e-12)
        Ud = U - U.mean(axis=1, keepdims=True)
        assert np.allclose(Ud.T @ res.left_weights.T, res.left_variables.T, atol=1e-10)
        minimal = np.linalg.pinv(Ud.T) @ res.left_variables.T
        assert np.allclose(res.left_weights, minimal.T, atol=1e-10)

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


def _qr_reference(monkeypatch, U, V):
    """Squared correlations, descending, and each side's leading pair from a
    full SVD of the rank-revealing route's cross matrix, built from
    orthogonal factorisations alone: the exact reference at any Gram
    condition number below 1e12."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_gram_cholesky", lambda X: None)
        T, left, right = linalg._cross(U, V)
    A, sigma, Bt = np.linalg.svd(T)
    return np.clip(sigma**2, 0.0, 1.0), (*left, A[:, :1]), (*right, Bt.T[:, :1])


class TestCorrelations:
    # (K, M): ordinary, swapped (K > M), and one-row U with the ladder on V
    @pytest.mark.parametrize(
        "dims", [(20, 30), (30, 20), (1, 30)], ids=["K<M", "K>M", "K=1"]
    )
    @pytest.mark.parametrize("exponent", [1, 3, 5, 7, 9, 11])
    def test_conditioning_ladder(self, monkeypatch, dims, exponent):
        # the Cholesky route below the guard and the rank-revealing fallback
        # above it both match the QR reference's correlations, leading
        # variables and leading weights
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
        lam = linalg._factor(U, V, 0)[0]
        ref, ref_left, ref_right = _qr_reference(monkeypatch, U, V)
        assert lam.shape == (min(K, M),)
        assert np.all(np.diff(lam) <= 0.0)
        assert np.max(np.abs(lam - ref)) <= 1e-12
        res = sample_cca(U, V)
        assert np.max(np.abs(res.correlations_sq - ref)) <= 1e-12
        sides = (
            (res.left_weights[0], res.left_variables[0], ref_left),
            (res.right_weights[0], res.right_variables[0], ref_right),
        )
        for weights, variables, side in sides:
            ref_w, ref_v = linalg._recover(*side)
            linalg._fix_signs(ref_w, ref_v)
            assert abs(1.0 - abs(variables @ ref_v[0])) <= 1e-12
            rel = np.linalg.norm(weights - ref_w[0]) / np.linalg.norm(ref_w[0])
            assert rel <= 1e-10


class TestScaleInvariance:
    # canonical correlations, variables and (mapped back) weights do not
    # depend on the units of a row, and neither does the route
    @pytest.mark.parametrize("dims", [(20, 30, 200), (200, 300, 1600)])
    def test_row_scales(self, monkeypatch, dims):
        K, M, S = dims
        U, V, _ = gen_data(SimSpec(K=K, M=M, S=S, signal_strengths=(0.9, 0.7), seed=5))
        rng = np.random.default_rng(K)
        du, dv = 10.0 ** rng.uniform(-3.0, 3.0, K), 10.0 ** rng.uniform(-3.0, 3.0, M)
        du[:2] = dv[:2] = 1e-3, 1e3  # both ends: a raw Gram condition above 1e12
        Us, Vs = U * du[:, None], V * dv[:, None]

        def no_qr(X, name):
            raise AssertionError("row scales sent a panel to the QR route")

        monkeypatch.setattr(linalg, "_qr_basis", no_qr)
        lam = analyze(U, V).correlations
        assert np.max(np.abs(analyze(Us, Vs).correlations - lam)) <= 1e-12
        ref, res = sample_cca(U, V), sample_cca(Us, Vs)
        assert np.max(np.abs(res.correlations_sq - ref.correlations_sq)) <= 1e-12
        sides = ((ref.left_variables, res.left_variables, ref.left_weights,
                  res.left_weights * du),
                 (ref.right_variables, res.right_variables, ref.right_weights,
                  res.right_weights * dv))
        for x, y, w, w_back in sides:
            # the largest weight coordinate fixes each sign, and it moves with the units
            sign = np.sign(np.einsum("ij,ij->i", x, y))[:, None]
            assert np.max(np.abs(x - sign * y)) <= 1e-12
            # as one matrix: a bulk pair's own weights move by eps cond / gap
            assert np.linalg.norm(w - sign * w_back) <= 1e-12 * np.linalg.norm(w)


def _equilibrated_gram(X):
    """``D^-1 X X^T D^-1`` with ``D = diag(X X^T)^1/2``; a zero row stays zero."""
    gram = X @ X.T
    d = np.sqrt(gram.diagonal())
    d[d == 0.0] = 1.0
    return gram / d / d[:, None]


def _guard_routes(monkeypatch, panels):
    """The route ``_gram_cholesky`` takes on each panel ("certified", "exact
    pass" or "exact fail"), checking on the way that it returns None exactly
    when the exact eigenvalue test of the equilibrated Gram matrix fails, and
    otherwise the bits of ``np.linalg.cholesky(X @ X.T)``: so the Gram's
    diagonal is restored."""
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def spy(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    routes = []
    for X in panels:
        eig = eigvalsh(_equilibrated_gram(X))
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
        # the guard reads the equilibrated Gram matrix, so a row in other
        # units leaves every panel certified, and its factor chol(X X^T)
        rng = np.random.default_rng(5)
        panels = []
        for scale in np.logspace(-3.0, 3.0, 49):
            X = rng.standard_normal((20, 300))
            X[3] *= scale
            panels.append(X)
        assert _guard_routes(monkeypatch, panels) == ["certified"] * 49

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

    @pytest.mark.parametrize("route", ["dpotrf", "fallback"])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", [1, 30, 100])
    def test_factor_bits(self, monkeypatch, n, layout, route):
        # LAPACK's dpotrf on the work matrix and the np.linalg.cholesky
        # fallback both give the bits of np.linalg.cholesky(X X^T): at n=100
        # a strided panel's X X^T is not exactly symmetric, and the lower
        # triangle is the one read
        if route == "fallback":
            monkeypatch.setattr(linalg, "_lapack_dpotrf", lambda: None)
        elif linalg._lapack_dpotrf() is None:
            pytest.skip("numpy's OpenBLAS dpotrf is not loaded")
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 8 * n + 20))
        X = {"C": X, "F": np.asfortranarray(X), "strided": X[:, ::2]}[layout]
        gram = X @ X.T
        if layout == "strided" and n == 100:
            assert not np.array_equal(gram, gram.T)
        L = linalg._gram_cholesky(X)
        assert L.flags.c_contiguous
        assert L.tobytes() == np.linalg.cholesky(gram).tobytes()

    def test_dpotrf_takes_square_c_ordered_doubles(self):
        if linalg._lapack_dpotrf() is None:
            pytest.skip("numpy's OpenBLAS dpotrf is not loaded")
        for a in (np.ones(4), np.eye(4)[:3].copy(), np.eye(4, dtype=np.float32),
                  np.asfortranarray(np.eye(4)), np.eye(8)[::2, ::2]):
            with pytest.raises(ValueError, match="C-ordered square float64"):
                linalg._cholesky_upper(a)

    def test_kept_factor_failure_raises(self, monkeypatch):
        # a certificate that passed and a kept factorisation that fails
        # raise as np.linalg.cholesky does
        cholesky_upper, calls = linalg._cholesky_upper, []

        def second_fails(a):
            calls.append(a.shape)
            return len(calls) == 1 and cholesky_upper(a)

        monkeypatch.setattr(linalg, "_cholesky_upper", second_fails)
        X = np.random.default_rng(3).standard_normal((10, 60))
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            linalg._gram_cholesky(X)
        assert calls == [(10, 10)] * 2


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


class TestWhitening:
    # inverted diagonal blocks on both sides of every block boundary, for
    # Gram matrices up to the Cholesky route's 1e4 condition-number guard
    @pytest.mark.parametrize("exponent", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65, 200, 300])
    def test_inverted_blocks_match_solve(self, n, exponent):
        rng = np.random.default_rng(10 * n + exponent)
        X = _conditioned_panel(rng, rng.standard_normal((n, 4 * n + 20)), 10.0**exponent)
        L = linalg._gram_cholesky(X)
        assert L is not None
        B = rng.standard_normal((n, 150))
        C = rng.standard_normal((90, n))
        left, right = B.copy(), C.copy()
        assert linalg._tri_solve(L, left, inverse=True) is left
        # the right-side solve C L^-T in C's own memory, through C.T
        linalg._tri_solve(L, right.T, inverse=True)
        for got, ref in ((left, np.linalg.solve(L, B)), (right, np.linalg.solve(L, C.T).T)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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
        assert (linalg._cross(U, V)[1][1] is None) == (exponent <= 4)
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
