"""Closed-form asymptotics for squared sample canonical correlations.

When two independent high-dimensional data sets of shapes K x S and M x S are
compared through CCA, the squared sample canonical correlations do not
concentrate at zero.  Their empirical law converges (as S/K -> tau_K and
S/M -> tau_M) to the Wachter distribution supported on ``[lambda_minus,
lambda_plus]``.  A population correlation of strength rho^2 produces an
outlier ("spike") above ``lambda_plus`` only when rho^2 exceeds a detection
cutoff ``rho_c_sq``; the spike location ``z_rho`` and the limiting angles
between estimated and true canonical variables are explicit functions of
(rho^2, tau_K, tau_M).

This module holds those scalar formulas: the regime constants, the density /
CDF / modified Stieltjes transform of the bulk law, the forward map
``z_from_rho2``, its monotone closed-form inverse ``rho2_from_z``, and the
squared-sine angle formulas ``sin2_angles``.

Conventions
-----------
All functions assume the side labelled ``K`` is the smaller one
(``K <= M``, so ``tau_K >= tau_M``).  ``regime_from_dims`` swaps its
arguments internally when needed and records the swap so callers can
re-orient angle labels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BelowCutoff, BelowEdge, DimensionError, OnSupport

# Square-root arguments within this distance of 0 are treated as exact zeros
# (floating-point dust at the bulk edge).
_EDGE_DUST = 1e-14

# Gauss-Legendre resolution for bulk-law integrals; the trigonometric
# substitution removes the edge singularities, so the integrand is analytic.
_GL_NODES = 256


@dataclass(frozen=True)
class AsymptoticRegime:
    """Dimension ratios and the derived spectral constants.

    ``K``, ``M``, ``S`` are retained for plug-in use (``tau_K = S/K``,
    ``tau_M = S/M``); they are ``None`` for ratio-only regimes built via
    :func:`regime_from_ratios`.
    """

    tau_K: float
    tau_M: float
    lambda_minus: float
    lambda_plus: float
    rho_c_sq: float
    K: int | None = None
    M: int | None = None
    S: int | None = None
    swapped: bool = False


def _support(tau_K, tau_M):
    a = math.sqrt((1.0 / tau_M) * (1.0 - 1.0 / tau_K))
    b = math.sqrt((1.0 / tau_K) * (1.0 - 1.0 / tau_M))
    return (a - b) ** 2, (a + b) ** 2


def regime_from_ratios(tau_K: float, tau_M: float) -> AsymptoticRegime:
    """Build a regime directly from limiting ratios (no finite dimensions).

    Requires ``tau_K >= tau_M > 1`` and ``1/tau_K + 1/tau_M < 1``.
    """
    if not (tau_K >= tau_M > 1.0):
        raise DimensionError(f"need tau_K >= tau_M > 1, got ({tau_K}, {tau_M})")
    if 1.0 / tau_K + 1.0 / tau_M >= 1.0:
        raise DimensionError(
            f"need 1/tau_K + 1/tau_M < 1, got {1.0 / tau_K + 1.0 / tau_M:.6f}"
        )
    lm, lp = _support(tau_K, tau_M)
    rho_c_sq = 1.0 / math.sqrt((tau_M - 1.0) * (tau_K - 1.0))
    return AsymptoticRegime(tau_K, tau_M, lm, lp, rho_c_sq)


def regime_from_dims(K: int, M: int, S: int) -> AsymptoticRegime:
    """Plug-in regime for finite dimensions, swapping so that K <= M.

    Raises
    ------
    DimensionError
        If ``max(K, M) >= S`` (every sample correlation is 1: the rows of the
        larger matrix span the whole sample space) or ``K + M >= S``
        (``K + M - S`` correlations are forced to 1 by subspace intersection).
    """
    if K <= 0 or M <= 0 or S <= 0:
        raise DimensionError(f"dimensions must be positive, got ({K}, {M}, {S})")
    swapped = K > M
    if swapped:
        K, M = M, K
    if M >= S:
        raise DimensionError(
            f"M={M} >= S={S}: the M x S rows span the sample space and all "
            "correlations equal 1"
        )
    if K + M >= S:
        raise DimensionError(
            f"K+M={K + M} >= S={S}: {K + M - S if K + M > S else 0} or more "
            "correlations are forced to 1 by subspace intersection"
        )
    base = regime_from_ratios(S / K, S / M)
    return AsymptoticRegime(
        base.tau_K,
        base.tau_M,
        base.lambda_minus,
        base.lambda_plus,
        base.rho_c_sq,
        K=K,
        M=M,
        S=S,
        swapped=swapped,
    )


@dataclass(frozen=True)
class SpikePrediction:
    """Limiting spike location and squared-sine angles for one signal."""

    rho_sq: float
    z_rho: float
    s_x: float  # squared sine on the K-side (smaller dimension)
    s_y: float  # squared sine on the M-side


def z_from_rho2(rho_sq: float, regime: AsymptoticRegime) -> float:
    """Limiting location of the outlier correlation for signal strength rho^2.

    Defined for ``rho_c_sq < rho_sq <= 1``; the value increases from
    ``lambda_plus`` to 1 over that range.
    """
    if not rho_sq > regime.rho_c_sq:
        raise BelowCutoff(
            f"rho_sq={rho_sq} <= cutoff {regime.rho_c_sq}: no outlier exists"
        )
    if rho_sq > 1.0:
        if rho_sq > 1.0 + 1e-10:
            raise ValueError(f"rho_sq={rho_sq} > 1")
        rho_sq = 1.0
    tK, tM = regime.tau_K, regime.tau_M
    return ((tK - 1.0) * rho_sq + 1.0) * ((tM - 1.0) * rho_sq + 1.0) / (
        rho_sq * tK * tM
    )


def _edge_sqrt(z: float, regime: AsymptoticRegime) -> float:
    """sqrt((z - lambda_minus)(z - lambda_plus)) for real z >= lambda_plus."""
    arg = (z - regime.lambda_minus) * (z - regime.lambda_plus)
    if arg < 0.0:
        if arg > -_EDGE_DUST:
            arg = 0.0
        else:
            raise BelowEdge(f"z={z} lies inside the bulk support")
    return math.sqrt(arg)


def rho2_from_z(z: float, regime: AsymptoticRegime, *, edge_tol: float = 1e-12) -> float:
    """Closed-form inverse of :func:`z_from_rho2` on the monotone branch.

    Out of the two roots of the quadratic hiding in ``z_from_rho2`` this is
    the branch with ``rho_sq >= rho_c_sq``, so no root selection is needed.
    """
    if z <= regime.lambda_plus + edge_tol:
        raise BelowEdge(
            f"z={z} is not above the bulk edge {regime.lambda_plus}"
        )
    if z > 1.0:
        if z > 1.0 + 1e-10:
            raise ValueError(f"z={z} > 1 is not a squared correlation")
        z = 1.0
    p, q = 1.0 / regime.tau_K, 1.0 / regime.tau_M
    root = _edge_sqrt(z, regime)
    return (z - q - p + 2.0 * p * q + root) / (2.0 * (1.0 - q) * (1.0 - p))


def sin2_angles(rho_sq: float, regime: AsymptoticRegime) -> tuple[float, float]:
    """Limiting squared sines of the angles between estimated and true variables.

    Returns ``(s_x, s_y)`` where the x-side is the K-side (smaller dimension)
    and the y-side the M-side.  Both tend to 1 as ``rho_sq`` approaches the
    cutoff from above and vanish at ``rho_sq = 1``.
    """
    if not rho_sq > regime.rho_c_sq:
        raise BelowCutoff(
            f"rho_sq={rho_sq} <= cutoff {regime.rho_c_sq}: angles are not identified"
        )
    a, b = regime.tau_K - 1.0, regime.tau_M - 1.0
    den = a * b * rho_sq - 1.0
    s_x = (1.0 - rho_sq) * a / den * (b * rho_sq + 1.0) / (a * rho_sq + 1.0)
    s_y = (1.0 - rho_sq) * b / den * (a * rho_sq + 1.0) / (b * rho_sq + 1.0)
    return s_x, s_y


def spike_prediction(rho_sq: float, regime: AsymptoticRegime) -> SpikePrediction:
    """Bundle ``z_rho`` and the two squared sines for one signal."""
    s_x, s_y = sin2_angles(rho_sq, regime)
    return SpikePrediction(rho_sq, z_from_rho2(rho_sq, regime), s_x, s_y)


def theta_degrees(sin_sq: float) -> float:
    """Angle in degrees, in [0, 90], from a squared sine."""
    return math.degrees(math.asin(math.sqrt(min(max(sin_sq, 0.0), 1.0))))


# ---------------------------------------------------------------------------
# Bulk law: density, CDF, modified Stieltjes transform
# ---------------------------------------------------------------------------

def wachter_density(x, regime: AsymptoticRegime):
    """Density of the bulk law on ``[lambda_minus, lambda_plus]``, 0 outside."""
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lm, lp = regime.lambda_minus, regime.lambda_plus
    inside = (x > lm) & (x < lp)
    out = np.zeros_like(x)
    xs = x[inside]
    out[inside] = (
        regime.tau_K
        / (2.0 * np.pi)
        * np.sqrt((xs - lm) * (lp - xs))
        / (xs * (1.0 - xs))
    )
    return float(out[0]) if scalar else out


@functools.cache
def _gauss_legendre():
    """The ``_GL_NODES``-point Gauss-Legendre nodes and weights, built on
    first use: building them imports ``numpy.polynomial`` and runs an
    eigensolver, which no command that skips ``wachter_cdf`` should pay."""
    return np.polynomial.legendre.leggauss(_GL_NODES)


def _bulk_integral(f, regime: AsymptoticRegime, upper=None):
    """Integrate ``f(x) * density(x)`` over ``[lambda_minus, upper]``.

    Uses the substitution ``x = mid + half*sin(theta)`` which absorbs the
    square-root edge factors, leaving an analytic integrand for the
    Gauss-Legendre rule.
    """
    lm, lp = regime.lambda_minus, regime.lambda_plus
    mid, half = 0.5 * (lm + lp), 0.5 * (lp - lm)
    hi = math.pi / 2 if upper is None else math.asin(
        min(max((upper - mid) / half, -1.0), 1.0)
    )
    lo = -math.pi / 2
    t, w = _gauss_legendre()
    theta = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    x = mid + half * np.sin(theta)
    # density * dx = tau_K/(2 pi) * (half cos(theta))^2 / (x (1-x)) dtheta,
    # except at x -> 0 when lambda_minus = 0, where cos^2/(1+sin) stays finite.
    if lm == 0.0:
        base = regime.tau_K / (2.0 * np.pi) * half * (1.0 - np.sin(theta)) / (1.0 - x)
    else:
        base = (
            regime.tau_K
            / (2.0 * np.pi)
            * (half * np.cos(theta)) ** 2
            / (x * (1.0 - x))
        )
    vals = base * f(x)
    return float(0.5 * (hi - lo) * np.dot(w, vals))


def wachter_cdf(x, regime: AsymptoticRegime):
    """CDF of the bulk law (numerical, accurate to ~1e-12)."""
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    for i, xi in enumerate(xs):
        if xi <= regime.lambda_minus:
            out[i] = 0.0
        elif xi >= regime.lambda_plus:
            out[i] = 1.0
        else:
            out[i] = _bulk_integral(lambda t: np.ones_like(t), regime, upper=xi)
    return float(out[0]) if scalar else out


def _branch_sqrt(z, regime: AsymptoticRegime):
    """sqrt((z-lambda_minus)(z-lambda_plus)) analytic off the support.

    The branch is positive for large positive real z and negative for
    negative real z; for complex z the principal square roots of the two
    factors are multiplied, which realises that branch.
    """
    lm, lp = regime.lambda_minus, regime.lambda_plus
    if np.iscomplexobj(np.asarray(z)) or isinstance(z, complex):
        return np.sqrt(np.asarray(z, dtype=complex) - lm) * np.sqrt(
            np.asarray(z, dtype=complex) - lp
        )
    z = float(z)
    if z >= lp:
        return math.sqrt(max((z - lm) * (z - lp), 0.0))
    if z <= lm:
        return -math.sqrt(max((lm - z) * (lp - z), 0.0))
    raise OnSupport(f"z={z} lies inside the bulk support [{lm}, {lp}]")


def _support_distance(z, regime: AsymptoticRegime) -> float:
    lm, lp = regime.lambda_minus, regime.lambda_plus
    zr, zi = np.real(z), np.imag(z)
    if zr < lm:
        return math.hypot(lm - zr, zi)
    if zr > lp:
        return math.hypot(zr - lp, zi)
    return abs(zi)


def wachter_stieltjes(z, regime: AsymptoticRegime, *, tol: float = 1e-9):
    """Modified Stieltjes transform ``(1/tau_K) * int density(x)/(z-x) dx``.

    Closed form, valid for z off the support; real z returns a float.  The
    point ``z = 1`` (a removable singularity of the closed form) is handled
    by its analytic limit.

    Raises
    ------
    OnSupport
        If z is within ``tol`` of the support interval.
    """
    if _support_distance(z, regime) <= tol:
        raise OnSupport(f"z={z} is within {tol} of the bulk support")
    p, q = 1.0 / regime.tau_K, 1.0 / regime.tau_M
    if np.isscalar(z) and not isinstance(z, complex):
        z = float(z)
        if abs(z - 1.0) < 1e-9:
            return p + p * q / (1.0 - p - q)
        if abs(z) < 1e-12:
            raise OnSupport("z=0 is a removable singularity; evaluate nearby instead")
    root = _branch_sqrt(z, regime)
    val = (q + p - z + root) / (2.0 * z * (z - 1.0)) + p / z
    if not np.iscomplexobj(np.asarray(val)):
        return float(val)
    return complex(val) if np.isscalar(val) else val


def wachter_stieltjes_deriv(z, regime: AsymptoticRegime, *, tol: float = 1e-9):
    """Analytic z-derivative of :func:`wachter_stieltjes` (same branch)."""
    if _support_distance(z, regime) <= tol:
        raise OnSupport(f"z={z} is within {tol} of the bulk support")
    lm, lp = regime.lambda_minus, regime.lambda_plus
    p, q = 1.0 / regime.tau_K, 1.0 / regime.tau_M
    root = _branch_sqrt(z, regime)
    num = q + p - z + root
    dnum = -1.0 + (2.0 * z - lm - lp) / (2.0 * root)
    val = (
        dnum / (2.0 * z * (z - 1.0))
        - num / (2.0 * z * z * (z - 1.0))
        - num / (2.0 * z * (z - 1.0) ** 2)
        - p / (z * z)
    )
    if not np.iscomplexobj(np.asarray(val)):
        return float(val)
    return complex(val) if np.isscalar(val) else val
