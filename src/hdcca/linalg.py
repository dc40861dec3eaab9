"""Numerically stable CCA, canonical subspace bases, PCA spectra, and angles.

Sample canonical correlations are defined through eigenvalues of
``(U U^T)^-1 U V^T (V V^T)^-1 V U^T``, but that expression squares condition
numbers.  Every CCA caller (``sample_cca``, ``analyze``, the Monte Carlo
harness, ``canonical_bases``) takes them instead from a small cross matrix
``T`` that ``_cross`` builds on one of two routes.  Correlations do not
change when a row is rescaled, so both routes judge a panel ``X`` by its
equilibrated Gram matrix ``D^-1 G D^-1``, ``G = X X^T``, ``D = diag(G)^1/2``,
within a factor of the dimension of the best diagonal scaling (van der
Sluis, Numer. Math. 1969).

The Cholesky route whitens ``U V^T`` with both factors ``chol(G)`` when both
equilibrated condition numbers are at most ``_GRAM_COND_LIMIT``.  The raw
factor serves: Cholesky's backward error is componentwise in
``sqrt(g_ii g_jj)`` (Demmel 1989; Higham, "Accuracy and Stability of
Numerical Algorithms", 2002, ch. 10), so ``chol(G)`` is ``D`` times the
factor of a matrix within ``O(n eps)`` of ``D^-1 G D^-1``, and triangular
solves and inverses ignore the row scaling too (ch. 8, 14): the error grows
like eps times the equilibrated condition number (Yamamoto et al., ETNA
2015).  ``_gram_cholesky`` certifies the guard by factoring ``G - delta D^2
= D (D^-1 G D^-1 - delta I) D``, ``delta = 2 ||D^-1 G D^-1||_inf /
_GRAM_COND_LIMIT``: the norm bounds the largest eigenvalue and the backward
error is far below the shift, so success proves the limit.  Only a failure
lets the exact eigenvalues of ``D^-1 G D^-1`` decide the route.

Both factorisations call LAPACK's ``dpotrf('L')`` in numpy's bundled
OpenBLAS (Anderson et al., "LAPACK Users' Guide", 1999) on one work matrix
beside ``G``, where ``np.linalg.cholesky`` would copy its input into a buffer
of its own and write a third matrix; it is the routine numpy calls, on the
same numbers, so the factor keeps its bits.  The work matrix holds ``G^T``,
because column-major LAPACK reads a C-ordered matrix as its transpose: the
factorisation then reads the lower triangle numpy reads, which matters
because ``X X^T`` of a strided panel need not be exactly symmetric.  The
factor is written back, C-ordered, into the memory of ``G``.  Where the
library map or the symbol is missing (another BLAS, another OS) the same
steps run through ``np.linalg.cholesky``.

Every other input takes the rank-revealing route: the thin QR ``X^T = Q R``
of each panel, then the SVD of the small ``R D^-1`` (scaling the columns of
``X^T`` leaves ``Q`` as it is), cut at the numerical rank.  A panel with
fewer rows than samples must keep full rank, or ``RankDeficient`` names its
equilibrated condition above ``_COND_LIMIT``; a wider panel keeps its
numerical row space, with minimal-norm weights.

The spectral step takes ``eigh`` of the smaller of ``T T^T`` and ``T^T T``
and forms the other side's vectors only for the pairs the caller reads, as
``T^T a_i / sigma_i``, unless a pair is below ``_PAIR_RATIO``, where the
error eps (sigma_1 / sigma_i)^2 calls for the thin SVD of ``T``.  The
whitening multiplies by inverted diagonal blocks of each factor, accurate to
about 100 eps (Higham, ch. 14); narrow solves keep ``np.linalg.solve`` per
block, because a product's bits depend on its column count and the Monte
Carlo harness must match ``sample_cca``.
"""

from __future__ import annotations

import ctypes
import functools
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


_COND_LIMIT = 1e12   # largest equilibrated Gram condition number of a full-rank panel
_GRAM_COND_LIMIT = 1e4   # largest equilibrated Gram condition number the Cholesky route takes
_TRI_BLOCK = 64          # rows per diagonal block of the triangular solves
_INV_BLOCK = 32          # rows per inverted diagonal block of the whitening
_PAIR_RATIO = 1e-2       # least sigma_i / sigma_1 of a pair formed as T^T a / sigma


def _fix_signs(weights, variables=None):
    """Make the largest-magnitude coordinate of each weight vector positive."""
    for i in range(weights.shape[0]):
        j = np.argmax(np.abs(weights[i]))
        if weights[i, j] < 0:
            weights[i] = -weights[i]
            if variables is not None:
                variables[i] = -variables[i]


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


@functools.cache
def _lapack_dpotrf():
    """LAPACK's ``dpotrf`` from numpy's bundled OpenBLAS (``scipy_dpotrf_64_``:
    64-bit integers and a trailing string length), found once per process in
    its map of loaded libraries, or None where that symbol or map is absent."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except (OSError, IndexError):
        return None
    integer = ctypes.POINTER(ctypes.c_int64)
    for path in sorted(paths):
        try:
            potrf = ctypes.CDLL(path).scipy_dpotrf_64_
        except (OSError, AttributeError):
            continue
        potrf.argtypes = [
            ctypes.c_char_p, integer, ctypes.c_void_p, integer, integer, ctypes.c_size_t,
        ]
        potrf.restype = None
        return potrf
    return None


def _cholesky_upper(a):
    """Factor the C-ordered square ``a`` in place as column-major LAPACK sees
    it, as ``a.T``: on success the upper triangle of ``a`` holds
    ``np.linalg.cholesky(a.T).T`` bit for bit, by the ``dpotrf('L')`` numpy
    calls, and the strict lower triangle is not read.  False when ``a.T`` is
    not positive definite.  Without ``_lapack_dpotrf``, ``np.linalg.cholesky``
    itself."""
    potrf = _lapack_dpotrf()
    if potrf is None:
        try:
            a[...] = np.linalg.cholesky(a.T).T
        except np.linalg.LinAlgError:
            return False
        return True
    if not (a.dtype == np.float64 and a.flags.c_contiguous and a.ndim == 2
            and a.shape[0] == a.shape[1]):
        raise ValueError("dpotrf needs a C-ordered square float64 matrix")
    n, info = ctypes.c_int64(a.shape[0]), ctypes.c_int64(0)
    potrf(b"L", n, a.ctypes.data, n, info, 1)
    return info.value == 0


def _gram_cholesky(X):
    """Cholesky factor of ``G = X X^T``, or None when the condition number of
    ``D^-1 G D^-1``, ``D = diag(G)^1/2``, exceeds ``_GRAM_COND_LIMIT``:
    certified by a shifted Cholesky factorisation, or decided by the exact
    eigenvalues when that fails (see the module docstring)."""
    gram = X @ X.T
    diag = gram.diagonal().copy()
    d = np.sqrt(diag)
    d[d == 0.0] = 1.0  # a zero row stays a zero row of D^-1 G D^-1
    delta = 2.0 * ((np.abs(gram) @ (1.0 / d)) / d).max() / _GRAM_COND_LIMIT
    # each factorisation runs on G^T in one work matrix, so that it reads the
    # lower triangle np.linalg.cholesky reads: X X^T of a strided panel need
    # not be exactly symmetric.  G - delta D^2 = D (D^-1 G D^-1 - delta I) D
    work = gram.T.copy()
    np.fill_diagonal(work, diag - delta * diag)
    if not _cholesky_upper(work):
        np.divide(gram, d, out=work)
        work /= d[:, None]
        eig = np.linalg.eigvalsh(work)  # ascending
        if not (eig[0] > 0.0 and eig[-1] <= _GRAM_COND_LIMIT * eig[0]):
            return None
    np.copyto(work, gram.T)
    if not _cholesky_upper(work):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    gram.fill(0.0)  # the factor, C-ordered, in the Gram matrix's memory
    np.copyto(gram, work.T, where=np.tri(len(gram), dtype=bool))
    return gram


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


def _qr_basis(X, name):
    """``(Q, P, F)`` of one panel from the thin QR ``X^T = Q R`` and the SVD
    ``R D^-1 = P diag(s) W^T``, D the row norms of X, cut at the numerical
    rank r: the columns of ``Q P`` are an orthonormal basis of the row space
    of X, and ``F = D^-1 W diag(1/s)`` turns coordinates in it into weights,
    the minimal-norm ones when r is below the row count.  RankDeficient when
    a panel with fewer rows than samples has rank below its row count."""
    Q, R = np.linalg.qr(X.T)
    d = np.linalg.norm(R, axis=0)  # the row norms of X: Q's columns are orthonormal
    d[d == 0.0] = 1.0  # a zero row of a panel that spans the sample space
    R /= d
    P, s, Wt = np.linalg.svd(R, full_matrices=False)
    r = np.count_nonzero(_COND_LIMIT * s * s > s[0] * s[0])
    if r < X.shape[0] < X.shape[1]:
        if np.abs(np.diag(R)).min() == 0.0:
            raise RankDeficient(f"{name} has exactly collinear rows")
        raise RankDeficient(
            f"{name} rows are numerically collinear "
            f"(Gram condition ~{(s[0] / s[-1]) ** 2:.2e} > {_COND_LIMIT:.0e})"
        )
    del R  # before F is formed: at fig1 size this sets the route's peak memory
    F = Wt[:r].T / s[:r]
    F /= d[:, None]
    if r < X.shape[0]:  # keep the weights in the row space of X, range(D W)
        Z = np.linalg.qr(Wt[:r].T * d[:, None])[0]
        F = Z @ (Z.T @ F)
    return Q, P[:, :r], F


def _cross(U, V, names=("U", "V")):
    """The matrix whose singular values are the canonical correlations of the
    row spaces of U and V, and each side's ``(X, Q, P, F)`` for ``_recover``:
    the whitened cross product with ``(X, None, None, L^T)`` when both Gram
    matrices pass the guard, and the rank-revealing route otherwise."""
    Lu = _gram_cholesky(U)
    Lv = _gram_cholesky(V) if Lu is not None else None
    if Lv is not None:
        return _whiten(Lu, Lv, U @ V.T), (U, None, None, Lu.T), (V, None, None, Lv.T)
    (Qu, Pu, Fu), (Qv, Pv, Fv) = _qr_basis(U, names[0]), _qr_basis(V, names[1])
    return Pu.T @ (Qu.T @ Qv) @ Pv, (U, Qu, Pu, Fu), (V, Qv, Pv, Fv)


def _factor(U, V, n=None):
    """Squared canonical correlations (descending) and, for the first ``n``
    pairs (all by default), each side's ``(X, Q, P, F, A)``: the ``_cross``
    side and the singular vectors of its cross matrix as columns of ``A``.
    ``n = 0`` forms no vectors: ``eigvalsh`` gives the correlations alone,
    and each side keeps its panel but no factor."""
    T, left, right = _cross(U, V)
    wide = T.shape[0] <= T.shape[1]
    small = T @ T.T if wide else T.T @ T
    if n == 0:  # T and both factors go first: at fig1 size they would set the peak
        del T, left, right
        lam = np.clip(np.linalg.eigvalsh(small)[::-1], 0.0, 1.0)
        # zero pairs need no factor: an empty one recovers none
        return lam, *((X, None, None, np.empty((0, 0)), np.empty((len(X), 0))) for X in (U, V))
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
    return lam, (*left, A), (*right, B)


def _recover(X, Q, P, F, A):
    """Weight vectors and unit canonical variables, one row each, of the
    singular vectors ``A`` of one ``_cross`` side."""
    if Q is None:  # F = L^T, and the variables need the weights
        weights = _tri_solve(F.T, A.copy(), trans=True)
        return weights.T, (X.T @ weights).T
    return (F @ A).T, (Q @ (P @ A)).T


def _basis_rows(X, Q, P, F, A):
    """``_recover``'s variables alone, as C-order rows (the Cholesky route
    solves in A's memory): products ``master`` takes of the rows get their
    bits from that order."""
    if Q is None:
        return _tri_solve(F.T, A, trans=True).T @ X
    return (P @ A).T @ Q.T


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
        when a panel with fewer rows than samples has an equilibrated Gram
        condition number above 1e12.  A panel with at least as many rows as
        samples is taken at its numerical rank r (so there are at most r
        correlations), with minimal-norm weights: when its rows span every
        sample direction, all correlations are 1.
    """
    U, V = _panels(U, V, demean)
    note = _regime_note(U.shape[0], V.shape[0], U.shape[1])
    if note is not None:
        warnings.warn(note, RegimeWarning, stacklevel=2)
    lam, left, right = _factor(U, V)
    (left_w, left_v), (right_w, right_v) = _recover(*left), _recover(*right)
    _fix_signs(left_w, left_v)
    _fix_signs(right_w, right_v)
    return CcaResult(
        correlations_sq=lam,
        left_weights=left_w,
        right_weights=right_w,
        left_variables=left_v,
        right_variables=right_v,
        swapped=U.shape[0] > V.shape[0],
    )


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
    T, left, right = _cross(U_sub, V_sub, ("U_sub", "V_sub"))
    A, sigma, Bt = np.linalg.svd(T)  # full: all of the larger side
    return CanonicalBasis(
        u_basis=_basis_rows(*left, A),
        v_basis=_basis_rows(*right, Bt.T),
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
