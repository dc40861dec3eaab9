"""Synthetic data generation and the Monte Carlo harness.

Data recipes place the signal pairs on the leading coordinates (so the true
weight vectors are coordinate vectors and the true canonical variables are
the signal rows themselves), fill the rest with independent noise of a chosen
law, and hand back the ground truth for angle measurement.  Signals and noise
are drawn straight into the two panels, with no stacking copy.  Replications
are driven by counter-style seeded streams so runs are reproducible and
order-independent; that is what lets ``mc_angles`` draw the next replication
on a worker thread while the current one is factored, with the serial loop's
results bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import wachter
from .errors import SpecError
from .linalg import _factor, _recover, angle_between

NOISE_LAWS = ("gaussian", "uniform", "student_t")
SIGNAL_MODES = ("iid-gaussian", "iid-nongaussian", "deterministic", "rotated-pair")
# (K + M) * S from which mc_angles draws the next replication on a worker
_PREFETCH_CELLS = 150_000


def seeded_rng(seed: int, replication_id: int = 0) -> np.random.Generator:
    """Deterministic, replication-keyed random stream.

    Identical (seed, replication_id) gives a bit-identical stream; different
    replication ids give statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replication_id),))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class SimSpec:
    """Recipe for one synthetic (U, V) draw.

    ``signal_strengths`` are correlations r in [0, 1); they are stored
    sorted descending so signal q pairs with the q-th largest sample
    correlation.  ``signal_cov_scale`` holds per-signal-coordinate variances
    applied to the U-side signal rows (covariance-modification experiments);
    ``mix`` post-multiplies both data matrices by random invertible maps,
    which leaves every correlation and variable-angle statistic unchanged.
    """

    K: int
    M: int
    S: int
    signal_strengths: tuple[float, ...] = ()
    noise_law: str = "gaussian"
    noise_df: float = 3.0
    signal_mode: str = "iid-gaussian"
    signal_cov_scale: tuple[float, ...] = ()
    signal_x: np.ndarray | None = None
    signal_y: np.ndarray | None = None
    mix: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.K <= 0 or self.M <= 0 or self.S <= 0:
            raise SpecError("dimensions must be positive")
        r = tuple(float(v) for v in self.signal_strengths)
        if any(not (0.0 <= v < 1.0) for v in r):
            raise SpecError("signal strengths must lie in [0, 1)")
        if len(set(np.round(r, 12))) != len(r):
            raise SpecError("signal strengths must be distinct")
        self.signal_strengths = tuple(sorted(r, reverse=True))
        q = len(self.signal_strengths)
        if q >= min(self.K, self.M):
            raise SpecError("need fewer signals than either dimension")
        if self.noise_law not in NOISE_LAWS:
            raise SpecError(f"noise_law must be one of {NOISE_LAWS}")
        if self.noise_law == "student_t" and not (
            math.isfinite(self.noise_df) and self.noise_df > 2.0
        ):
            raise SpecError("student_t noise needs a finite df > 2 for unit variance")
        if self.signal_mode not in SIGNAL_MODES:
            raise SpecError(f"signal_mode must be one of {SIGNAL_MODES}")
        if self.signal_mode == "rotated-pair" and self.S < 2 * q:
            raise SpecError(
                f"rotated-pair signals need S >= 2q orthonormal directions, "
                f"got S={self.S} for q={q} signals"
            )
        if self.signal_cov_scale and len(self.signal_cov_scale) > q:
            raise SpecError("signal_cov_scale has more entries than signals")
        if not all(math.isfinite(v) and v > 0.0 for v in self.signal_cov_scale):
            raise SpecError("signal_cov_scale entries must be finite and above 0")
        if self.signal_mode == "deterministic":
            if self.signal_x is None or self.signal_y is None:
                raise SpecError("deterministic mode needs signal_x and signal_y")
            self.signal_x = np.atleast_2d(np.asarray(self.signal_x, dtype=float))
            self.signal_y = np.atleast_2d(np.asarray(self.signal_y, dtype=float))
            if self.signal_x.shape != (q, self.S) or self.signal_y.shape != (q, self.S):
                raise SpecError("deterministic signals must have shape (q, S)")

    @property
    def n_signals(self) -> int:
        return len(self.signal_strengths)


@dataclass
class GroundTruth:
    """True signal rows and weight vectors, one row per signal."""

    x: np.ndarray       # (q, S) true canonical variables on the U side
    y: np.ndarray       # (q, S)
    alpha: np.ndarray   # (q, K) true weight vectors
    beta: np.ndarray    # (q, M)


def _draw_noise(rng, law, df, out):
    """Fill ``out`` with unit-variance noise of ``law``; the stream is consumed
    exactly as a fresh draw of ``out.shape`` would consume it."""
    if law == "gaussian":
        rng.standard_normal(out=out)
    elif law == "uniform":
        np.multiply(rng.uniform(-1.0, 1.0, out.shape), np.sqrt(3.0), out=out)
    elif law == "student_t":
        np.divide(rng.standard_t(df, out.shape), np.sqrt(df / (df - 2.0)), out=out)
    else:
        raise SpecError(f"unknown noise law {law!r}")


def _rotated_pairs(rng, strengths, S):
    """Signal pairs with exactly controlled sample correlations.

    2q i.i.d. Gaussian vectors are orthonormalised; each y is the prescribed
    combination of its x and a fresh orthogonal direction, so the realised
    sample correlation equals r exactly.
    """
    q = len(strengths)
    raw = rng.standard_normal((S, 2 * q))
    Q, _ = np.linalg.qr(raw)
    xs = np.sqrt(S) * Q[:, :q].T
    nus = np.sqrt(S) * Q[:, q:].T
    ys = np.array(
        [r * x + np.sqrt(1.0 - r * r) * nu for r, x, nu in zip(strengths, xs, nus)]
    )
    return xs, ys


def gen_data(spec: SimSpec, replication_id: int = 0):
    """One synthetic draw: (U, V, ground_truth).

    The signal rows and the noise are drawn straight into the two panels, in
    the stream order signals, U's noise, V's noise, then the mixing maps.
    """
    rng = seeded_rng(spec.seed, replication_id)
    q = spec.n_signals
    K, M, S = spec.K, spec.M, spec.S
    U = np.empty((K, S))
    V = np.empty((M, S))

    if q:
        if spec.signal_mode == "deterministic":
            U[:q], V[:q] = spec.signal_x, spec.signal_y
        elif spec.signal_mode == "rotated-pair":
            U[:q], V[:q] = _rotated_pairs(rng, spec.signal_strengths, S)
        else:
            law = "gaussian" if spec.signal_mode == "iid-gaussian" else spec.noise_law
            for i, r in enumerate(spec.signal_strengths):
                _draw_noise(rng, law, spec.noise_df, U[i])
                _draw_noise(rng, law, spec.noise_df, V[i])
                V[i] = r * U[i] + np.sqrt(1.0 - r * r) * V[i]
        if spec.signal_cov_scale:
            scale = np.sqrt(np.asarray(spec.signal_cov_scale, dtype=float))
            U[: scale.shape[0]] *= scale[:, None]
    xs, ys = U[:q].copy(), V[:q].copy()

    _draw_noise(rng, spec.noise_law, spec.noise_df, U[q:])
    _draw_noise(rng, spec.noise_law, spec.noise_df, V[q:])
    alpha = np.eye(q, K)
    beta = np.eye(q, M)

    if spec.mix:
        ups = rng.standard_normal((K, K)) + 2.0 * np.eye(K)
        psi = rng.standard_normal((M, M)) + 2.0 * np.eye(M)
        U = ups @ U
        V = psi @ V
        # keep U^T alpha equal to the original signal rows
        alpha = np.linalg.solve(ups.T, alpha.T).T if q else alpha
        beta = np.linalg.solve(psi.T, beta.T).T if q else beta

    return U, V, GroundTruth(x=xs, y=ys, alpha=alpha, beta=beta)


def sample_r_sq(x, y) -> float:
    """Realised squared correlation of two signal rows."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    return float((x @ y) ** 2 / ((x @ x) * (y @ y)))


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

@dataclass
class McSummary:
    """Per-replication angles and correlations against the limiting theory."""

    spec: SimSpec
    replications: int
    theta_x: np.ndarray        # (reps, q) degrees
    theta_y: np.ndarray
    lambdas: np.ndarray        # (reps, min(K, M))
    theory: list[wachter.SpikePrediction]
    mean_theta_x: np.ndarray = field(init=False)
    mean_theta_y: np.ndarray = field(init=False)
    band_x: np.ndarray = field(init=False)   # (2, q) empirical 95% band
    band_y: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mean_theta_x = self.theta_x.mean(axis=0)
        self.mean_theta_y = self.theta_y.mean(axis=0)
        self.band_x = np.percentile(self.theta_x, [2.5, 97.5], axis=0)
        self.band_y = np.percentile(self.theta_y, [2.5, 97.5], axis=0)


def theory(spec: SimSpec) -> list[wachter.SpikePrediction]:
    """Limiting prediction per signal of ``spec``, strongest first.

    At or below the detection cutoff a signal leaves no spike: its location
    is the bulk edge and both angles are 90 degrees (squared sines of 1).
    """
    regime = wachter.regime_from_dims(spec.K, spec.M, spec.S)
    predictions = []
    for r in spec.signal_strengths:
        rho_sq = r * r
        if rho_sq > regime.rho_c_sq:
            predictions.append(wachter.spike_prediction(rho_sq, regime))
        else:
            predictions.append(
                wachter.SpikePrediction(rho_sq, regime.lambda_plus, 1.0, 1.0)
            )
    return predictions


def _angles(spec, U, V, truth):
    """Measured angles and correlations of one drawn replication."""
    q = spec.n_signals  # only the signal pairs
    lam, left, right = _factor(U, V, q)
    x_hat, y_hat = _recover(*left)[1], _recover(*right)[1]
    tx = np.array([angle_between(truth.x[i], x_hat[i]).degrees for i in range(q)])
    ty = np.array([angle_between(truth.y[i], y_hat[i]).degrees for i in range(q)])
    return tx, ty, lam


def mc_angles(spec: SimSpec, replications: int) -> McSummary:
    """Replicate gen_data -> CCA -> measured angles, with limiting theory.

    When one replication's panels hold at least ``_PREFETCH_CELLS`` cells,
    replication ``r + 1`` is drawn on one worker thread while the caller
    factors replication ``r``; the draws are keyed by replication, so the
    summary is bit for bit the serial loop's, at the cost of one more
    replication's panels in memory.  Below that size the worker's contention
    for the interpreter costs more than the overlap gains.  Mixed specs run
    serially: the mixing products on the worker contend with the caller's
    own matrix products.
    """
    if spec.n_signals == 0:
        raise SpecError("mc_angles needs at least one signal")
    predictions = theory(spec)

    q = spec.n_signals
    theta_x = np.empty((replications, q))
    theta_y = np.empty((replications, q))
    lambdas = np.empty((replications, min(spec.K, spec.M)))
    if replications < 2 or spec.mix or (spec.K + spec.M) * spec.S < _PREFETCH_CELLS:
        for rep in range(replications):
            theta_x[rep], theta_y[rep], lambdas[rep] = _angles(spec, *gen_data(spec, rep))
    else:
        with ThreadPoolExecutor(max_workers=1) as pool:
            pending = pool.submit(gen_data, spec, 0)
            for rep in range(replications):
                draw = pending.result()
                if rep + 1 < replications:
                    pending = pool.submit(gen_data, spec, rep + 1)
                theta_x[rep], theta_y[rep], lambdas[rep] = _angles(spec, *draw)
    return McSummary(
        spec=spec,
        replications=replications,
        theta_x=theta_x,
        theta_y=theta_y,
        lambdas=lambdas,
        theory=predictions,
    )


def ks_distance(values, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a CDF callable."""
    xs = np.sort(np.asarray(values, dtype=float).ravel())
    n = xs.shape[0]
    F = np.asarray([cdf(x) for x in xs], dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - F)
    lower = np.max(F - np.arange(0, n) / n)
    return float(max(upper, lower))


def sinusoid_pair(S: int, r: float):
    """Deterministic signal pair with exact sample correlation r.

    Discrete sinusoids at the distinct integer frequencies 3 and 7 are
    exactly orthogonal with squared norm S/2, so the prescribed combination
    has realised correlation r with no sampling noise.
    """
    t = np.arange(S)
    x = np.sqrt(2.0) * np.sin(2.0 * np.pi * 3 * t / S)
    nu = np.sqrt(2.0) * np.sin(2.0 * np.pi * 7 * t / S)
    y = r * x + np.sqrt(1.0 - r * r) * nu
    return x, y
