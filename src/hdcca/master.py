"""Exact finite-size secular equations for canonical correlations.

Given two subspaces in canonical position (orthonormal bases paired with
cosines ``c_1 >= c_2 >= ...``) and two extra vectors ``u*`` and ``v*``
adjoined to them, every squared canonical correlation ``z`` of the enlarged
pair of spaces solves one rational equation in the scalar products of
``u*``/``v*`` with the bases (``master_residual``).  The same data also
determines the overlap of each canonical variable with the adjoined vectors
(``master_vector_stats``), which is how estimation precision can be computed
without ever observing the true signal.

The module also carries the large-dimension limits of the equations, where the
scalar-product table collapses to a resolvent-type sum ``G`` over the noise
correlations (``empirical_G``), and the strength and the cosines follow from
``G`` by ``r2_relation`` and ``cos2_relation``.  With ``G`` replaced by the
closed-form bulk transform (``wachter_G``) the limits reduce to the formulas
in :mod:`hdcca.wachter`; that reduction is an identity and is tested as one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import wachter
from .errors import (
    DegenerateQ,
    DenominatorVanishes,
    DimensionError,
    HdccaError,
    PoleProximity,
    RepeatedCosine,
)
from .linalg import CanonicalBasis, canonical_bases

_DUP_TOL = 1e-12
_POLE_TOL = 1e-9    # relative distance below which z counts as on a pole
_RESOLVENT_POLE_TOL = 1e-6  # distance below which empirical_G's z is on a value
_MAX_MESH = 4096    # finest scan mesh per pole interval


@dataclass
class MasterInputs:
    """Scalar-product table for one adjoined pair of vectors.

    ``cosines`` may be given with length ``K-1`` (it is padded with zeros up
    to ``M-1``, the convention for the unpaired directions of the larger
    side) or with length ``M-1`` already padded.
    """

    cosines: np.ndarray
    uu_star: float
    vv_star: float
    uv_star: float
    u_star_u: np.ndarray   # <u*, u_i>, i < K
    u_star_v: np.ndarray   # <u*, v_j>, j < M
    v_star_u: np.ndarray   # <v*, u_i>, i < K
    v_star_v: np.ndarray   # <v*, v_j>, j < M

    def __post_init__(self):
        self.u_star_u = np.asarray(self.u_star_u, dtype=float)
        self.u_star_v = np.asarray(self.u_star_v, dtype=float)
        self.v_star_u = np.asarray(self.v_star_u, dtype=float)
        self.v_star_v = np.asarray(self.v_star_v, dtype=float)
        self.cosines = np.asarray(self.cosines, dtype=float)
        km1 = self.u_star_u.shape[0]
        mm1 = self.u_star_v.shape[0]
        if self.v_star_u.shape[0] != km1 or self.v_star_v.shape[0] != mm1:
            raise DimensionError("scalar-product lists have inconsistent lengths")
        if km1 > mm1:
            raise DimensionError("the u-side must be the smaller one (K <= M)")
        if self.cosines.shape[0] == km1:
            self.cosines = np.concatenate([self.cosines, np.zeros(mm1 - km1)])
        if self.cosines.shape[0] != mm1:
            raise DimensionError(
                f"cosines must have length {km1} or {mm1}, got {self.cosines.shape[0]}"
            )
        if np.any(np.diff(self.cosines) > _DUP_TOL):
            raise ValueError("cosines must be sorted in decreasing order")
        if np.any((self.cosines < -_DUP_TOL) | (self.cosines > 1.0 + _DUP_TOL)):
            raise ValueError("cosines must lie in [0, 1]")
        if np.any(self.cosines[km1:] != 0.0):
            raise ValueError("cosines beyond the smaller dimension must be zero")
        if self.uu_star <= 0 or self.vv_star <= 0:
            raise ValueError("squared lengths of the adjoined vectors must be positive")
        slack = 1.0 + 1e-8
        if self.uv_star**2 > self.uu_star * self.vv_star * slack:
            raise ValueError("<u*,v*> violates the Cauchy-Schwarz bound")
        for name, arr, bound in [
            ("u_star_u", self.u_star_u, self.uu_star),
            ("u_star_v", self.u_star_v, self.uu_star),
            ("v_star_u", self.v_star_u, self.vv_star),
            ("v_star_v", self.v_star_v, self.vv_star),
        ]:
            if np.any(arr**2 > bound * slack):
                raise ValueError(f"{name} violates the Cauchy-Schwarz bound")

    @property
    def K(self) -> int:
        return self.u_star_u.shape[0] + 1

    @property
    def M(self) -> int:
        return self.u_star_v.shape[0] + 1

    @classmethod
    def from_vectors(cls, u_star, v_star, basis: CanonicalBasis) -> "MasterInputs":
        u_star = np.asarray(u_star, dtype=float).ravel()
        v_star = np.asarray(v_star, dtype=float).ravel()
        return cls(
            cosines=basis.padded_cosines,
            uu_star=float(u_star @ u_star),
            vv_star=float(v_star @ v_star),
            uv_star=float(u_star @ v_star),
            u_star_u=basis.u_basis @ u_star,
            u_star_v=basis.v_basis @ u_star,
            v_star_u=basis.u_basis @ v_star,
            v_star_v=basis.v_basis @ v_star,
        )

    @classmethod
    def from_matrices(cls, u_star, v_star, U_sub, V_sub) -> "MasterInputs":
        """Convenience: canonical bases of the row spaces, then the table."""
        return cls.from_vectors(u_star, v_star, canonical_bases(U_sub, V_sub))

    @cached_property
    def _cf(self) -> "_Coeffs":
        """``_coeffs(self)``, built on first use and kept for every later
        root search, residual and vector statistic of this table."""
        return _coeffs(self)

    def poles(self) -> np.ndarray:
        """Squared noise cosines where the secular terms blow up (descending)."""
        return self.cosines[: self.K - 1] ** 2

    def intermediate_correlations(self) -> np.ndarray:
        """Squared canonical correlations of the u-basis against the whole
        enlarged v-side space, descending; they interlace with the roots and
        with the poles.  That space is the v-basis plus the unit residual of
        v* against it, so they are the squared singular values of
        ``[diag(c) | (<v*,u_i> - c_i <v*,v_i>) / |v* residual|]``."""
        km1 = self.K - 1
        c = self.cosines[:km1]
        resid = np.sqrt(self.vv_star - self.v_star_v @ self.v_star_v)
        col = (self.v_star_u - c * self.v_star_v[:km1]) / resid
        sigma = np.linalg.svd(np.column_stack([np.diag(c), col]), compute_uv=False)
        return np.clip(sigma**2, 0.0, 1.0)


class _Terms(NamedTuple):
    """The secular sums at one ``z`` (floats) or along a 1-D array of ``z``."""

    t1: float
    u2: float   # z * T2, computed without the removable 1/z pole
    t3: float
    d_t1: float
    d_u2: float
    d_t3: float
    t1_scale: float

    @property
    def residual(self):
        """``T1^2 - z T2 T3``: zero exactly at a squared canonical correlation."""
        return self.t1 * self.t1 - self.u2 * self.t3

    @property
    def d_residual(self):
        return 2.0 * self.t1 * self.d_t1 - self.d_u2 * self.t3 - self.u2 * self.d_t3


class _Coeffs(NamedTuple):
    """The z-independent pieces of ``_terms`` for one table."""

    cj2: np.ndarray   # squared nonzero cosines
    ci2: np.ndarray   # squared cosines of the smaller side
    uu_star: float
    vv_star: float
    uv_star: float
    t1_a: np.ndarray
    t1_b: np.ndarray
    t1_c: np.ndarray
    u2_a: np.ndarray
    u2_b: np.ndarray
    t3_a: np.ndarray
    t3_b: np.ndarray
    const_t1: float
    const_u2: float
    const_t3: float


def _coeffs(inputs: MasterInputs) -> _Coeffs:
    """``_terms``' coefficients for one table (``MasterInputs._cf`` keeps them).

    Contributions from zero cosines (the unpaired directions of the larger
    side) are z-independent after the factors of z cancel, so they are folded
    in as constants; this keeps ``_terms`` finite at z = 0.
    """
    km1 = inputs.K - 1
    c = inputs.cosines
    c2 = c * c
    usu, usv = inputs.u_star_u, inputs.u_star_v
    vsu, vsv = inputs.v_star_u, inputs.v_star_v
    usu_pad = np.concatenate([usu, np.zeros(c.shape[0] - km1)])
    vsu_pad = np.concatenate([vsu, np.zeros(c.shape[0] - km1)])
    jm = c2 > 0.0
    cj = c[jm]
    ci = c[:km1]
    return _Coeffs(
        cj2=c2[jm],
        ci2=c2[:km1],
        uu_star=inputs.uu_star,
        vv_star=inputs.vv_star,
        uv_star=inputs.uv_star,
        t1_a=cj * usv[jm] * vsu_pad[jm],
        t1_b=usv[jm] * vsv[jm],
        t1_c=usu * (vsu - ci * vsv[:km1]),
        u2_a=usv[jm] ** 2 - 2.0 * cj * usv[jm] * usu_pad[jm],
        u2_b=usu * usu,
        t3_a=vsu * vsu - 2.0 * ci * vsu * vsv[:km1],
        t3_b=vsv[jm] ** 2,
        const_t1=-float(usv[~jm] @ vsv[~jm]),
        const_u2=float(usv[~jm] @ usv[~jm]),
        const_t3=float(vsv[~jm] @ vsv[~jm]),
    )


def _sums(cf: _Coeffs, zc):
    """The pole factors and the three bracketed sums ``(T1, z T2, T3)`` at
    ``zc``, a column of z values; ``_residual`` and ``_terms`` share them."""
    z = zc[..., 0]
    inv_j = 1.0 / (zc - cf.cj2)
    w_j = zc * inv_j
    inv_i = 1.0 / (zc - cf.ci2)
    w_i = zc * inv_i
    t1 = cf.uv_star + inv_j @ cf.t1_a - w_j @ cf.t1_b + cf.const_t1 - w_i @ cf.t1_c
    u2 = -z * cf.uu_star + w_j @ cf.u2_a + cf.const_u2 + z * (w_i @ cf.u2_b)
    t3 = -cf.vv_star + inv_i @ cf.t3_a + w_j @ cf.t3_b + cf.const_t3
    return inv_j, w_j, inv_i, w_i, t1, u2, t3


def _residual(cf: _Coeffs, z):
    """``_terms(cf, z).residual`` without the derivatives and the scale: the
    mesh scan reads only its sign."""
    t1, u2, t3 = _sums(cf, np.asarray(z, dtype=float)[..., None])[4:]
    return t1 * t1 - u2 * t3


def _terms(cf: _Coeffs, z) -> _Terms:
    """The three bracketed sums of the secular identity and their z-derivatives.

    ``z`` is a scalar or a 1-D array; the sums run over the last axis.
    """
    zc = np.asarray(z, dtype=float)[..., None]
    inv_j, w_j, inv_i, w_i, t1, u2, t3 = _sums(cf, zc)
    dinv_j = -inv_j * inv_j
    dw_j = inv_j * (1.0 - w_j)
    dinv_i = -inv_i * inv_i
    dw_i = inv_i * (1.0 - w_i)

    d_t1 = dinv_j @ cf.t1_a - dw_j @ cf.t1_b - dw_i @ cf.t1_c
    t1_scale = (
        abs(cf.uv_star)
        + np.abs(cf.t1_a * inv_j).sum(axis=-1)
        + np.abs(cf.t1_b * w_j).sum(axis=-1)
        + abs(cf.const_t1)
        + np.abs(cf.t1_c * w_i).sum(axis=-1)
    )
    d_u2 = -cf.uu_star + dw_j @ cf.u2_a + (w_i + zc * dw_i) @ cf.u2_b
    d_t3 = dinv_i @ cf.t3_a + dw_j @ cf.t3_b
    return _Terms(t1, u2, t3, d_t1, d_u2, d_t3, t1_scale)


def master_residual(z: float, inputs: MasterInputs) -> float:
    """Secular residual; zero exactly when z is a squared canonical
    correlation of the enlarged subspace pair.  Raises PoleProximity within
    a relative 1e-9 of a noise-cosine pole."""
    tol = _POLE_TOL * (1.0 + abs(z))
    if np.any(np.abs(z - inputs.poles()) <= tol):
        raise PoleProximity(f"z={z} is within {tol:.2e} of a noise-cosine pole")
    return float(_terms(inputs._cf, z).residual)


def _bracketed_newton(cf: _Coeffs, a, b, fa, fb):
    """The root of the residual in ``[a, b]``, whose end values ``fa`` and
    ``fb`` differ in sign: Newton steps from the secant point, each keeping
    the sign-change bracket, with a bisection step for any Newton step that
    would leave it.  Stops once a Newton step is at most 1e-15 (1 + |z|)."""
    z = a - fa * (b - a) / (fb - fa)
    for _ in range(100):
        t = _terms(cf, z)
        f = t.residual
        if f == 0.0:
            break
        if np.sign(f) == np.sign(fa):
            a, fa = z, f
        else:
            b = z
        d_f = t.d_residual
        step = f / d_f if d_f != 0.0 else np.inf
        # a converged step can round to zero: test it before the bracket
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            return z - step
        z = z - step
        if not a < z < b:
            z = 0.5 * (a + b)
            if z == a or z == b:
                break
    return z


def _graded_mesh(lo, hi, n):
    """Chebyshev-style mesh on (lo, hi), clustered toward both endpoints."""
    s = (1.0 - np.cos(np.pi * (np.arange(1, n + 1) / (n + 1)))) / 2.0
    return lo + (hi - lo) * s


def _interval_roots(cf: _Coeffs, lo, hi, n_mesh):
    """The roots in the pole interval ``(lo, hi)`` that an ``n_mesh``-point
    graded scan brackets by sign changes, each solved by ``_bracketed_newton``,
    plus any mesh point where the residual is exactly zero."""
    pad = max(1e-11 * max(hi - lo, 1.0), 1e-14)
    a = lo + (pad if lo > 0.0 else 0.0)
    b = hi - (pad if hi < 1.0 else 0.0)
    grid = np.concatenate([[a], _graded_mesh(a, b, n_mesh), [b]])
    vals = _residual(cf, grid)
    ok = np.isfinite(vals)
    grid, vals = grid[ok], vals[ok]
    signs = np.sign(vals)
    roots = [
        min(max(_bracketed_newton(cf, grid[i], grid[i + 1], vals[i], vals[i + 1]), 0.0), 1.0)
        for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    ]
    return roots + grid[vals == 0.0].tolist()


def _deflate_decoupled_pairs(inputs: MasterInputs):
    """Split off canonical noise pairs orthogonal to both adjoined vectors.

    Such a pair spans a block orthogonal to everything else, so its squared
    cosine stays an exact canonical correlation of the enlarged spaces and
    can be reported directly while the secular search runs on the reduced
    table.
    """
    km1 = inputs.K - 1
    tiny_u = 1e-24 * inputs.uu_star
    tiny_v = 1e-24 * inputs.vv_star
    decoupled = (
        (inputs.u_star_u**2 <= tiny_u)
        & (inputs.u_star_v[:km1] ** 2 <= tiny_u)
        & (inputs.v_star_u**2 <= tiny_v)
        & (inputs.v_star_v[:km1] ** 2 <= tiny_v)
    )
    if not np.any(decoupled):
        return inputs, []
    keep_i = ~decoupled
    keep_j = np.concatenate([keep_i, np.ones(inputs.M - inputs.K, dtype=bool)])
    reduced = MasterInputs(
        cosines=inputs.cosines[keep_j],
        uu_star=inputs.uu_star,
        vv_star=inputs.vv_star,
        uv_star=inputs.uv_star,
        u_star_u=inputs.u_star_u[keep_i],
        u_star_v=inputs.u_star_v[keep_j],
        v_star_u=inputs.v_star_u[keep_i],
        v_star_v=inputs.v_star_v[keep_j],
    )
    direct = (inputs.cosines[:km1][decoupled] ** 2).tolist()
    return reduced, direct


def master_roots(inputs: MasterInputs) -> np.ndarray:
    """All K squared canonical correlations of the enlarged pair, descending.

    Each open interval between consecutive noise poles can hold zero, one or
    two roots (adjoining u* and v* raises both subspace dimensions, so the
    spectra interlace only with gap two: ``z_i >= c_i^2 >= z_{i+2}``).  An
    adaptive sign scan of the residual brackets each root inside its
    interval, and Newton steps that never leave the bracket (a bisection step
    replaces any that would) converge on it; see Bunch, Nielsen & Sorensen,
    Numer. Math. 31 (1978) for safeguarded steps inside pole brackets.  When
    the scan comes up short, only the intervals where it found no root are
    scanned again, on a mesh four times finer.

    Degeneracies are handled directly under a RepeatedCosine warning: noise
    pairs fully decoupled from both adjoined vectors keep their squared
    cosine in the spectrum exactly, and a repeated cosine (within 1e-12) is
    itself taken as a root when the scan comes up short of the exact count.
    """
    K = inputs.K
    inputs, deflated = _deflate_decoupled_pairs(inputs)
    poles_all = np.sort(inputs.poles())[::-1]
    distinct: list[float] = []
    dup_roots: list[float] = []
    for p in poles_all:
        if distinct and abs(distinct[-1] - p) <= _DUP_TOL:
            dup_roots.append(float(p))
        else:
            distinct.append(float(p))
    if dup_roots:
        warnings.warn(
            f"{len(dup_roots)} repeated noise cosine(s); degenerate roots "
            "are handled directly",
            RepeatedCosine,
            stacklevel=2,
        )
    # intervals in descending z order: (p1, 1], (p2, p1), ..., [0, pr)
    intervals = [
        (lo, hi) for lo, hi in zip(distinct + [0.0], [1.0] + distinct)
        if hi - lo > 4 * _DUP_TOL
    ]
    found: list[list[float]] = [[] for _ in intervals]
    pending = range(len(intervals))
    n_mesh = 32
    while True:
        for k in pending:
            found[k] = _interval_roots(inputs._cf, *intervals[k], n_mesh)
        # a removable pole can be crossed from both sides, producing the same
        # root twice: cluster the scan output at the method's resolution
        clustered: list[float] = []
        for r in sorted(r for roots in found for r in roots):
            if clustered and abs(r - clustered[-1]) <= 1e-12 * (1.0 + r):
                continue
            clustered.append(r)
        merged = clustered + deflated
        # repeated cosines can pin roots exactly at the pole where no sign
        # change is visible; use them only to fill a shortfall
        for d in dup_roots:
            if len(merged) >= K:
                break
            if not any(abs(r - d) <= 1e-8 * (1.0 + d) for r in merged):
                merged.append(float(d))
        if len(merged) == K or n_mesh >= _MAX_MESH:
            break
        # an interval holds at most two roots, and an odd number exactly when
        # the residual's signs at its ends differ: a scan that found a root
        # found all of them, so only the empty intervals are scanned again
        pending = [k for k in pending if not found[k]]
        n_mesh *= 4
    if len(merged) != K:
        raise HdccaError(
            f"root search found {len(merged)} of {K} expected roots; "
            "inputs may be degenerate"
        )
    return np.sort(np.array(merged))[::-1]


class VectorStats(NamedTuple):
    alpha0_sq: float
    beta0_sq: float
    cos_theta_x: float
    cos_theta_y: float


def _q_ratios(inputs: MasterInputs, z: float):
    """``(T2/T1, T3/T1)`` at a root z.  A root satisfies ``T1^2 = z T2 T3``, so
    ``T2/T1 = T1/(z T3)`` and ``T3/T1 = T1/(z T2)``; each ratio is taken in the
    form with the larger denominator, which keeps it accurate where T1 or a
    T2 or T3 cancelled in the sums is small.  Raises DegenerateQ when T1 is
    a chosen denominator and has cancelled to 1e-12 of its terms' scale."""
    t = _terms(inputs._cf, z)
    a_by_t1 = abs(t.t1) >= abs(z * t.t3)
    b_by_t1 = abs(t.t1) >= abs(t.u2)
    if (a_by_t1 or b_by_t1) and abs(t.t1) <= 1e-12 * max(t.t1_scale, 1e-300):
        raise DegenerateQ(
            f"vector-statistics denominator vanishes at z={z} "
            f"(|T1|={abs(t.t1):.2e} against scale {t.t1_scale:.2e})"
        )
    q_a = t.u2 / z / t.t1 if a_by_t1 else t.t1 / (z * t.t3)
    q_b = t.t3 / t.t1 if b_by_t1 else t.t1 / t.u2
    return q_a, q_b


def master_vector_stats(z: float, inputs: MasterInputs) -> VectorStats:
    """Squared signal loadings and |cosines| of the canonical variables at a
    verified root z against the adjoined vectors."""
    if z <= 0.0:
        raise PoleProximity("vector statistics need a strictly positive root")
    if np.any(z == inputs.poles()):
        raise PoleProximity(f"vector statistics are undefined at the noise-cosine pole z={z}")
    q_a, q_b = _q_ratios(inputs, z)
    km1 = inputs.K - 1
    c = inputs.cosines
    ci = c[:km1]
    inv_i = 1.0 / (z - ci * ci)
    usu, vsu = inputs.u_star_u, inputs.v_star_u
    usv, vsv = inputs.u_star_v, inputs.v_star_v

    d_vec = ci * usv[:km1] - z * usu - z * q_a * (vsu - ci * vsv[:km1])
    inv_a0 = float(
        inputs.uu_star + 2.0 * (usu * d_vec) @ inv_i + (d_vec * d_vec) @ inv_i**2
    )
    num_x = float(inputs.uu_star + (usu * d_vec) @ inv_i)

    inv_j = 1.0 / (z - c * c)
    usu_pad = np.concatenate([usu, np.zeros(c.shape[0] - km1)])
    vsu_pad = np.concatenate([vsu, np.zeros(c.shape[0] - km1)])
    e_vec = -z * q_b * (usv - c * usu_pad) + c * vsu_pad - z * vsv
    inv_b0 = float(
        inputs.vv_star + 2.0 * (vsv * e_vec) @ inv_j + (e_vec * e_vec) @ inv_j**2
    )
    num_y = float(inputs.vv_star + (vsv * e_vec) @ inv_j)

    if inv_a0 <= 0.0 or inv_b0 <= 0.0:
        raise DegenerateQ("normalisation sum is not positive; z is not a clean root")
    alpha0_sq = 1.0 / inv_a0
    beta0_sq = 1.0 / inv_b0
    cos_x = abs(num_x) * np.sqrt(alpha0_sq / inputs.uu_star)
    cos_y = abs(num_y) * np.sqrt(beta0_sq / inputs.vv_star)
    return VectorStats(alpha0_sq, beta0_sq, float(cos_x), float(cos_y))


# ---------------------------------------------------------------------------
# Large-dimension limits: resolvent sums and the asymptotic relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StieltjesEval:
    """A resolvent-type value G(z) with its analytic derivative."""

    value: float
    derivative: float


def empirical_G(z: float, values_sq, S: int) -> StieltjesEval:
    """Resolvent sum ``(1/S) sum 1/(z - value)`` over squared correlations.

    Over noise cosines squared this is the finite-size G.  Over the observed
    correlations below a spike at rank q (``lam[q:]``) it reuses the observed
    spectrum.
    """
    vals = np.asarray(values_sq, dtype=float).ravel()
    if vals.size == 0:
        raise PoleProximity("empty resolvent sum: no values remain below the spike")
    if np.min(np.abs(z - vals)) <= _RESOLVENT_POLE_TOL:
        raise PoleProximity(
            f"z={z} is within {_RESOLVENT_POLE_TOL} of an observed correlation"
        )
    diff = z - vals
    value = float(np.sum(1.0 / diff)) / S
    derivative = -float(np.sum(1.0 / diff**2)) / S
    return StieltjesEval(value=value, derivative=derivative)


def wachter_G(z: float, regime: wachter.AsymptoticRegime) -> StieltjesEval:
    """Closed-form bulk transform packaged as a StieltjesEval."""
    return StieltjesEval(
        value=wachter.wachter_stieltjes(z, regime),
        derivative=wachter.wachter_stieltjes_deriv(z, regime),
    )


def r2_relation(lam: float, g_value: float, k_ratio: float, m_ratio: float) -> float:
    """Signal strength implied by an outlier at ``lam`` given G(lam).

    ``k_ratio`` and ``m_ratio`` are K/S and M/S (or their limits)."""
    den = 1.0 - m_ratio - lam * k_ratio - lam * (1.0 - lam) * g_value
    if abs(den) < 1e-14:
        raise DenominatorVanishes(f"relation denominator vanishes at lam={lam}")
    num_a = 1.0 - 2.0 * k_ratio - (m_ratio - k_ratio) / lam - (1.0 - lam) * g_value
    num_b = 1.0 - k_ratio - m_ratio - (1.0 - lam) * g_value
    return lam * num_a * num_b / (den * den)


def q_factors(lam: float, g_value: float, k_ratio: float, m_ratio: float):
    """The two ratio factors entering the cosine relations."""
    den = 1.0 - m_ratio - lam * k_ratio - lam * (1.0 - lam) * g_value
    if abs(den) < 1e-14:
        raise DenominatorVanishes(f"ratio denominator vanishes at lam={lam}")
    q_x = -(1.0 - 2.0 * k_ratio - (m_ratio - k_ratio) / lam - (1.0 - lam) * g_value) / den
    q_y = -(1.0 - k_ratio - m_ratio - (1.0 - lam) * g_value) / den
    return q_x, q_y


class Cos2Eval(NamedTuple):
    cos2_x: float
    cos2_y: float
    front_x: float   # squared-root factor of the x relation; 1 in the bulk limit
    front_y: float


def cos2_relation(
    lam: float,
    g_value: float,
    g_deriv: float,
    r_sq: float,
    k_ratio: float,
    m_ratio: float,
) -> Cos2Eval:
    """Squared cosines between estimated and true canonical variables."""
    if r_sq <= 0.0:
        raise DenominatorVanishes("r_sq must be positive for the cosine relations")
    k, m, g, gp = k_ratio, m_ratio, g_value, g_deriv
    q_x, q_y = q_factors(lam, g, k, m)

    front_x = 1.0 - k - lam * q_x * (k + (1.0 - lam) * g)
    den_x = (
        1.0
        - 2.0 * k
        - 2.0 * k * lam * q_x
        + g * (2.0 * lam - 1.0 + 2.0 * lam * (2.0 * lam - 1.0) * q_x + lam**2 / r_sq * q_x**2)
        + (lam**2 - lam) * gp * (1.0 + 2.0 * lam * q_x + lam / r_sq * q_x**2)
    )
    front_y = 1.0 - m - lam * q_y * (
        m + (1.0 - lam) * g + (1.0 - lam) / lam * (m - k)
    )
    den_y = (
        1.0
        - 2.0 * m
        - 2.0 * k * lam * q_y
        + (m - k) * (1.0 + q_y**2 / r_sq)
        + g * (2.0 * lam - 1.0 + 2.0 * lam * (2.0 * lam - 1.0) * q_y + lam**2 / r_sq * q_y**2)
        + (lam**2 - lam) * gp * (1.0 + 2.0 * lam * q_y + lam / r_sq * q_y**2)
    )
    if abs(den_x) < 1e-14 or abs(den_y) < 1e-14:
        raise DenominatorVanishes(f"cosine denominator vanishes at lam={lam}")
    return Cos2Eval(
        cos2_x=front_x * front_x / den_x,
        cos2_y=front_y * front_y / den_y,
        front_x=front_x,
        front_y=front_y,
    )
