"""Numerically stable CCA, canonical subspace bases, PCA spectra, and angles.

Sample canonical correlations are defined through eigenvalues of
``(U U^T)^-1 U V^T (V V^T)^-1 V U^T``, but that expression squares condition
numbers.  Every CCA caller (``sample_cca``, ``analyze``, the Monte Carlo
harness) therefore runs one kernel, ``_factor``, which whitens the cross
product ``U V^T`` with Cholesky factors of the two Gram matrices.  Its
eigenvalue error grows like eps * cond(Gram) (Yamamoto et al., "Roundoff error
analysis of the CholeskyQR2 algorithm", ETNA 2015), so it runs only when both
Gram condition numbers are at most ``_GRAM_COND_LIMIT``.  Otherwise it falls
back to ``_qr_route``: thin QR factorisations of the transposed data followed
by an SVD of the product of orthonormal bases, which keeps full accuracy for
the small correlations as well.  ``canonical_bases`` makes the same choice:
it takes its orthonormal bases from the whitened panels when both Gram
matrices pass the guard, and from thin QR factors otherwise.

``_gram_cholesky`` certifies the guard with one Cholesky factorisation of the
Gram matrix ``G`` shifted down by ``2 ||G||_inf / _GRAM_COND_LIMIT``.
``||G||_inf`` bounds the largest eigenvalue, and Cholesky's backward error,
about ``n^2 eps ||G||`` (Higham, "Accuracy and Stability of Numerical
Algorithms", 2002, ch. 10), is far below the shift for any Gram matrix that
fits in memory, so a factorisation that succeeds proves the condition number
is within the limit.  Only when it fails do the exact eigenvalues from
``eigvalsh`` decide, so every input takes the route the exact test alone
would give it.

The spectral step takes ``eigh`` of the smaller of ``T T^T`` and ``T^T T``
for the whitened cross product ``T`` and forms the other side's vectors only
for the pairs the caller reads, as ``T^T a_i / sigma_i``.  Their error grows
like eps (sigma_1 / sigma_i)^2, so below ``_PAIR_RATIO`` the thin SVD of ``T``
gives the pairs instead.  ``analyze`` takes the eigenvalues alone.

The whitening multiplies by the inverses of each factor's diagonal blocks: a
block factors a Schur complement of a Gram matrix that passed the guard, so
its inverse is accurate to about 100 eps (Higham, ch. 14).  Narrow solves
(weights, ``canonical_bases``, ``population_cca``) keep ``np.linalg.solve``
per block, backward stable as LU is (Higham, ch. 8): a product's bits depend
on its column count, and the Monte Carlo harness must match ``sample_cca``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    RankDeficient,
    RegimeWarning,
    SingularCovariance,
    ZeroVector,
)


@dataclass
class CcaResult:
    """Sample CCA output.

    ``correlations_sq`` holds the squared correlations sorted descending.
    Row ``i`` of ``left_weights`` / ``right_weights`` holds the weight
    vectors, and the unit-norm canonical variables are the rows of
    ``left_variables`` / ``right_variables`` (so
    ``left_variables[i] = U^T left_weights[i]`` exactly).  ``swapped`` records
    that the first input had more rows than the second, which matters when
    mapping angle formulas that assume the left side is the smaller one.
    """

    correlations_sq: np.ndarray
    left_weights: np.ndarray
    right_weights: np.ndarray
    left_variables: np.ndarray
    right_variables: np.ndarray
    swapped: bool = False


_COND_LIMIT = 1e12   # largest tolerated condition number of a Gram matrix
_GRAM_COND_LIMIT = 1e4   # largest Gram condition number the Cholesky route takes
_TRI_BLOCK = 64          # rows per diagonal block of the triangular solves
_INV_BLOCK = 32          # rows per inverted diagonal block of the whitening
_PAIR_RATIO = 1e-2       # least sigma_i / sigma_1 of a pair formed as T^T a / sigma


def _orthonormal_rows(X, name):
    """QR of X^T; returns (Q with orthonormal columns, R) and rank-checks."""
    Q, R = np.linalg.qr(X.T)
    diag = np.abs(np.diag(R))
    if diag.min() == 0.0:
        raise RankDeficient(f"{name} has exactly collinear rows")
    # cond(R)^2 approximates the condition number of the Gram matrix X X^T
    cond = np.linalg.cond(R)
    if cond * cond > _COND_LIMIT:
        raise RankDeficient(
            f"{name} rows are numerically collinear "
            f"(Gram condition ~{cond * cond:.2e} > {_COND_LIMIT:.0e})"
        )
    return Q, R


def _fix_signs(weights, variables=None):
    """Make the largest-magnitude coordinate of each weight vector positive."""
    for i in range(weights.shape[0]):
        j = np.argmax(np.abs(weights[i]))
        if weights[i, j] < 0:
            weights[i] = -weights[i]
            if variables is not None:
                variables[i] = -variables[i]


def _solve_weights(R, B):
    """Weights solving ``R w = b`` per column; minimal-norm when R is wide."""
    if R.shape[0] == R.shape[1]:
        return np.linalg.solve(R, B)
    return np.linalg.lstsq(R, B, rcond=None)[0]


def _regime_note(K: int, M: int, S: int) -> str | None:
    """Why the sample size is outside the recommended regime, or None."""
    if S > K + M:
        return None
    return (
        f"S={S} <= K+M={K + M}: {max(K + M - S, 0)} correlations are "
        "forced to 1 and the remaining ones carry reduced information"
    )


def _panels(U, V, demean):
    """Both panels as float arrays with a common sample count, de-meaned if asked;
    DimensionError for an empty panel, ValueError for a non-finite entry."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    for name, X in (("U", U), ("V", V)):
        if X.size == 0:
            raise DimensionError(f"{name} has no rows or no samples: shape {X.shape}")
        # min and max propagate nan and inf without a boolean copy of the panel
        if not (np.isfinite(X.min()) and np.isfinite(X.max())):
            raise ValueError(f"{name} has non-finite entries")
    if U.shape[1] != V.shape[1]:
        raise DimensionError(
            f"sample counts differ: U has {U.shape[1]}, V has {V.shape[1]}"
        )
    if demean:
        U = U - U.mean(axis=1, keepdims=True)
        V = V - V.mean(axis=1, keepdims=True)
    return U, V


def _qr_route(U, V, n=None):
    """``_factor`` from thin QR factors ``X^T = Q R`` of both panels and the SVD
    of ``Qu^T Qv``; the reference the Cholesky route is tested against."""
    Qu, Ru = _orthonormal_rows(U, "U")
    Qv, Rv = _orthonormal_rows(V, "V")
    A, sigma, Bt = np.linalg.svd(Qu.T @ Qv, full_matrices=False)
    return np.clip(sigma**2, 0.0, 1.0), (U, Qu, Ru, A[:, :n]), (V, Qv, Rv, Bt.T[:, :n])


def _gram_cholesky(X):
    """Cholesky factor of ``X X^T``, or None when its condition number exceeds
    ``_GRAM_COND_LIMIT``: certified by a shifted Cholesky factorisation, or
    decided by the exact eigenvalues when that fails (see the module
    docstring)."""
    gram = X @ X.T
    n = gram.shape[0]
    diag = gram.diagonal().copy()
    # shifted in place and restored bit for bit: a shifted copy costs memory
    gram.flat[:: n + 1] -= 2.0 * np.abs(gram).sum(axis=1).max() / _GRAM_COND_LIMIT
    try:
        np.linalg.cholesky(gram)
        certified = True
    except np.linalg.LinAlgError:
        certified = False
    gram.flat[:: n + 1] = diag
    if not certified:
        eig = np.linalg.eigvalsh(gram)  # ascending
        if not (eig[0] > 0.0 and eig[-1] <= _GRAM_COND_LIMIT * eig[0]):
            return None
    return np.linalg.cholesky(gram)


def _tri_solve(L, B, trans=False, inverse=False):
    """Overwrite ``B`` with ``L^-1 B`` (``L^-T B`` when ``trans``) for a lower
    triangular ``L`` and return it, by blocked substitution: each diagonal
    block by ``np.linalg.solve``, or by a product with its ``np.linalg.inv``
    when ``inverse``.  ``B`` may be a transposed view, so the right-side solve
    ``C L^-T`` is ``_tri_solve(L, C.T)`` in place."""
    T = L.T if trans else L
    n, step = T.shape[0], _INV_BLOCK if inverse else _TRI_BLOCK
    blocks = range(0, n, step)
    for i in reversed(blocks) if trans else blocks:
        j = i + step
        solved = slice(j, n) if trans else slice(0, i)
        if n > step:
            B[i:j] -= T[i:j, solved] @ B[solved]
        D = T[i:j, i:j]
        B[i:j] = np.linalg.inv(D) @ B[i:j] if inverse else np.linalg.solve(D, B[i:j])
    return B


def _whiten(Lu, Lv, cross):
    """``Lu^-1 C Lv^-T`` for a cross block ``C``, computed in ``C``'s memory."""
    _tri_solve(Lv, cross.T, inverse=True)
    return _tri_solve(Lu, cross, inverse=True)


def _whitened(U, V):
    """``(Lu, Lv, Lu^-1 U V^T Lv^-T)`` with ``Lu``, ``Lv`` the Cholesky factors
    of the Gram matrices, or None when either fails the guard."""
    Lu = _gram_cholesky(U)
    Lv = _gram_cholesky(V) if Lu is not None else None
    return None if Lv is None else (Lu, Lv, _whiten(Lu, Lv, U @ V.T))


def _factor(U, V, n=None):
    """Squared canonical correlations (descending) and, for the first ``n``
    pairs (all by default), each side's ``(X, Q, R, A)``: the panel, the thin
    Q of ``X^T`` (None on the Cholesky route), a triangular ``R`` with
    ``R^T R = X X^T`` and the singular vectors of ``T`` as columns of ``A``.
    ``n = 0`` asks for the correlations alone."""
    whitened = _whitened(U, V)
    if whitened is None:
        return _qr_route(U, V, n)
    Lu, Lv, T = whitened
    wide = T.shape[0] <= T.shape[1]
    small = T @ T.T if wide else T.T @ T
    if n == 0:
        return np.clip(np.linalg.eigvalsh(small)[::-1], 0.0, 1.0), None, None
    lam, Z = np.linalg.eigh(small)
    lam = np.clip(lam[::-1], 0.0, 1.0)
    sigma = np.sqrt(lam[:n])
    if sigma[-1] > _PAIR_RATIO * sigma[0]:
        Z = Z[:, ::-1][:, :n].copy()
        other = ((T.T if wide else T) @ Z) / sigma
        A, B = (Z, other) if wide else (other, Z)
    else:  # a pair too weak for T^T a / sigma, or no correlation at all
        A, sigma, Bt = np.linalg.svd(T, full_matrices=False)
        lam, A, B = np.clip(sigma**2, 0.0, 1.0), A[:, :n], Bt.T[:, :n]
    return lam, (U, None, Lu.T, A), (V, None, Lv.T, B)


def _spanning_correlations(U, V):
    """Squared cosines between the row spaces of U and V at their numerical
    ranks, descending: the correlations when the rows of a panel that spans
    the sample space are necessarily dependent (``_orthonormal_rows`` rejects
    such a panel once de-meaning has cut its rank to ``S - 1``)."""
    bases = []
    for X in (U, V):
        _, s, Vt = np.linalg.svd(X, full_matrices=False)
        bases.append(Vt[s > s[0] * max(X.shape) * np.finfo(float).eps])
    sigma = np.linalg.svd(bases[0] @ bases[1].T, compute_uv=False)
    return np.clip(sigma**2, 0.0, 1.0)


def _recover(X, Q, R, A):
    """Weight vectors and unit canonical variables of the pairs of one
    ``_factor`` side, one row each."""
    # the Cholesky route's R = L^T is square, and its variables need the weights
    weights = _tri_solve(R.T, A.copy(), trans=True) if Q is None else _solve_weights(R, A)
    variables = X.T @ weights if Q is None else Q @ A
    weights, variables = weights.T, variables.T
    _fix_signs(weights, variables)
    return weights, variables


def _cca(U, V) -> CcaResult:
    """The CCA itself on prepared panels; raises on rank deficiency, never warns."""
    lam, left, right = _factor(U, V)
    left_w, left_v = _recover(*left)
    right_w, right_v = _recover(*right)
    return CcaResult(
        correlations_sq=lam,
        left_weights=left_w,
        right_weights=right_w,
        left_variables=left_v,
        right_variables=right_v,
        swapped=U.shape[0] > V.shape[0],
    )


def sample_cca(U, V, *, demean: bool = False) -> CcaResult:
    """Sample canonical correlations and variables between two row-data sets.

    Parameters
    ----------
    U, V : (K, S) and (M, S) arrays
        Variables in rows, samples in columns; every entry finite.
    demean : bool
        Subtract the per-row mean across samples first.  Off by default;
        ingestion paths de-mean at load time instead.

    Returns
    -------
    CcaResult
        With ``min(K, M)`` correlations sorted descending.  Warns
        ``RegimeWarning`` when ``S <= K + M``.  Raises ``RankDeficient``
        when either Gram matrix has condition number above 1e12, except for
        a panel with more rows than samples whose rows span every sample
        direction: then all correlations are 1 and its weights minimal-norm.
    """
    U, V = _panels(U, V, demean)
    note = _regime_note(U.shape[0], V.shape[0], U.shape[1])
    if note is not None:
        warnings.warn(note, RegimeWarning, stacklevel=2)
    return _cca(U, V)


# ---------------------------------------------------------------------------
# Population CCA
# ---------------------------------------------------------------------------

@dataclass
class PopulationSpec:
    """Covariance blocks of a joint (K+M)-dimensional population.

    ``signal_left`` / ``signal_right`` / ``strengths`` optionally record the
    planted signal vectors and their squared correlations for reference.
    """

    cov_uu: np.ndarray
    cov_uv: np.ndarray
    cov_vv: np.ndarray
    signal_left: np.ndarray | None = None
    signal_right: np.ndarray | None = None
    strengths: tuple[float, ...] = ()

    def __post_init__(self):
        self.cov_uu = np.asarray(self.cov_uu, dtype=float)
        self.cov_uv = np.asarray(self.cov_uv, dtype=float)
        self.cov_vv = np.asarray(self.cov_vv, dtype=float)
        K, M = self.cov_uv.shape
        if self.cov_uu.shape != (K, K) or self.cov_vv.shape != (M, M):
            raise DimensionError("covariance block shapes are inconsistent")

    def joint(self) -> np.ndarray:
        top = np.hstack([self.cov_uu, self.cov_uv])
        bottom = np.hstack([self.cov_uv.T, self.cov_vv])
        return np.vstack([top, bottom])

    def is_valid(self, tol: float = 1e-10) -> bool:
        return bool(np.linalg.eigvalsh(self.joint()).min() > -tol)

    @classmethod
    def single_signal(cls, K: int, M: int, r: float) -> "PopulationSpec":
        """Only the first coordinates of the two vectors are correlated, with
        correlation ``r``; everything else is independent unit noise."""
        cov_uv = np.zeros((K, M))
        cov_uv[0, 0] = r
        return cls(np.eye(K), cov_uv, np.eye(M), strengths=(r * r,))


class PopulationCca(NamedTuple):
    eigenvalues: np.ndarray      # squared population correlations, descending
    left_vectors: np.ndarray     # rows: weight vectors in R^K
    right_vectors: np.ndarray    # rows: weight vectors in R^M


def population_cca(spec: PopulationSpec) -> PopulationCca:
    """Eigen-solve the population problem via Cholesky whitening.

    For a rank-1 cross block there is exactly one nonzero eigenvalue, the
    squared correlation of the planted signal pair.
    """
    try:
        Lu = np.linalg.cholesky(spec.cov_uu)
        Lv = np.linalg.cholesky(spec.cov_vv)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"covariance block not positive definite: {exc}")
    A, sigma, Bt = np.linalg.svd(_whiten(Lu, Lv, spec.cov_uv.copy()), full_matrices=False)
    left = _tri_solve(Lu, A, trans=True).T
    right = _tri_solve(Lv, Bt.T, trans=True).T
    _fix_signs(left)
    _fix_signs(right)
    return PopulationCca(sigma**2, left, right)


# ---------------------------------------------------------------------------
# Canonical bases of a subspace pair
# ---------------------------------------------------------------------------

@dataclass
class CanonicalBasis:
    """Orthonormal bases of two subspaces aligned pair-by-pair.

    Rows of ``u_basis`` span the smaller subspace, rows of ``v_basis`` the
    larger one, and ``<u_i, v_j> = cosines[i] * delta_ij`` (zero for
    ``j >= len(cosines)``).
    """

    u_basis: np.ndarray
    v_basis: np.ndarray
    cosines: np.ndarray

    @property
    def padded_cosines(self) -> np.ndarray:
        """Cosines extended with zeros to the dimension of the larger side."""
        extra = self.v_basis.shape[0] - self.cosines.shape[0]
        return np.concatenate([self.cosines, np.zeros(extra)])


def canonical_bases(U_sub, V_sub) -> CanonicalBasis:
    """Aligned orthonormal bases for the row spaces of two matrices.

    Requires ``U_sub`` to have at most as many rows as ``V_sub``.  The cosines
    are the square roots of the correlations :func:`sample_cca` returns on the
    same inputs.
    """
    U_sub = np.atleast_2d(np.asarray(U_sub, dtype=float))
    V_sub = np.atleast_2d(np.asarray(V_sub, dtype=float))
    if U_sub.shape[0] > V_sub.shape[0]:
        raise DimensionError(
            "first argument must be the smaller subspace; swap the inputs"
        )
    if U_sub.shape[1] != V_sub.shape[1]:
        raise DimensionError("ambient dimensions differ")
    whitened = _whitened(U_sub, V_sub)
    if whitened is None:
        Qu, _ = _orthonormal_rows(U_sub, "U_sub")
        Qv, _ = _orthonormal_rows(V_sub, "V_sub")
        A, sigma, Bt = np.linalg.svd(Qu.T @ Qv)  # full: all of the larger side
        return CanonicalBasis(
            u_basis=(Qu @ A).T,
            v_basis=(Qv @ Bt.T).T,
            cosines=np.clip(sigma, 0.0, 1.0),
        )
    # the rows of Lu^-1 U_sub and Lv^-1 V_sub are orthonormal bases
    Lu, Lv, T = whitened
    A, sigma, Bt = np.linalg.svd(T)  # full: all of the larger side
    return CanonicalBasis(
        u_basis=_tri_solve(Lu, A, trans=True).T @ U_sub,
        v_basis=_tri_solve(Lv, Bt.T, trans=True).T @ V_sub,
        cosines=np.clip(sigma, 0.0, 1.0),
    )


# ---------------------------------------------------------------------------
# PCA spectrum and angles
# ---------------------------------------------------------------------------

def pca_spectrum(X, demean: bool = False) -> np.ndarray:
    """Descending eigenvalues of ``X X^T / S`` for an N x S data matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if demean:
        X = X - X.mean(axis=1, keepdims=True)
    sigma = np.linalg.svd(X, compute_uv=False)
    eig = np.zeros(X.shape[0])
    eig[: sigma.shape[0]] = sigma**2 / X.shape[1]
    return eig


class AngleResult(NamedTuple):
    cos_sq: float
    sin_sq: float
    degrees: float


def angle_between(x, y) -> AngleResult:
    """Scale-invariant angle between two vectors, reported in [0, 90] degrees."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ZeroVector("cannot measure an angle against a zero vector")
    c = abs(float(x @ y)) / (nx * ny)
    c = min(c, 1.0)
    cos_sq = c * c
    return AngleResult(cos_sq, 1.0 - cos_sq, float(np.degrees(np.arccos(c))))
