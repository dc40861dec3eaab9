"""Spike detection and per-signal estimation from observed correlations.

The practical pipeline: compute sample canonical correlations, locate the
outliers above the noise bulk edge, and for each outlier estimate the true
signal strength and the angles between estimated and true canonical
variables.  Two routes are provided per spike and cross-check each other:

* ``closed-form``: treat the outlier as the limiting spike location and
  invert the explicit bulk-law formulas;
* ``empirical-G``: reuse the rest of the observed spectrum as a resolvent
  sum, avoiding any distributional assumption on the noise.

One walk down the correlations (``_walk_spikes``) decides which are spikes,
each spike's gap (to the next correlation, or to the bulk edge for the last
one) and its eigenvalue-gap gate (gap >= gate_multiplier / sqrt(S)), which
marks spikes whose empirical-route estimates should be trusted.  Both
estimators take that gap and gate as given.  A spike that fails the gate is
still reported, flagged ``gate_passed=False`` and named in a note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import master, wachter
from .errors import DimensionError, HdccaError, PoleProximity
from .linalg import _factor, _panels, _regime_note

_TIE_TOL = 1e-10
OVERLAY_POINTS = 512


@dataclass
class SpikeReport:
    """Estimates attached to one detected signal."""

    index: int            # 1-based spike rank
    lam: float            # observed squared correlation
    rho_sq_hat: float
    rho_abs: float
    theta_x_deg: float
    theta_y_deg: float
    sin2_x: float
    sin2_y: float
    method: str           # "closed-form" | "empirical-G"
    gate_passed: bool
    gap: float            # lam minus the next correlation (the bulk edge for the last)


@dataclass
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray   # bulk density at the bin midpoints (zeros without a regime)

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


@dataclass
class AnalysisReport:
    """Full output of one analysis run."""

    regime: wachter.AsymptoticRegime | None
    correlations: np.ndarray
    spikes: list[SpikeReport]
    empirical_spikes: list[SpikeReport]
    histogram: Histogram
    overlay: np.ndarray | None   # (OVERLAY_POINTS, 2): x, bulk density
    notes: list[str] = field(default_factory=list)


def _walk_spikes(lam, regime, gate_multiplier):
    """The maximal prefix of correlations above the edge, gated.

    Returns ``(index, gap, gate_passed)`` per spike (0-based index) and one
    text per spike that fails the gate ``gap >= gate_multiplier / sqrt(S)``.
    The gap is measured to the next correlation, or to the bulk edge for the
    last one.
    """
    if regime.S is None:
        raise DimensionError("spike detection needs a finite-dimension regime")
    gate = gate_multiplier / math.sqrt(regime.S)
    spikes, failures = [], []
    for i in range(lam.shape[0]):
        if lam[i] <= regime.lambda_plus:
            break
        below = lam[i + 1] if i + 1 < lam.shape[0] else regime.lambda_plus
        gap = float(lam[i] - below)
        gate_passed = gap >= gate
        spikes.append((i, gap, gate_passed))
        if not gate_passed:
            failures.append(
                f"correlation {i + 1} ({lam[i]:.4f}) is above the edge but its "
                f"gap {gap:.4f} fails the gate {gate:.4f}; "
                "empirical-route estimates may be unreliable"
            )
    return spikes, failures


def detect_spikes(correlations, regime: wachter.AsymptoticRegime) -> list[int]:
    """Indices (0-based) of the maximal prefix of correlations above the edge.

    Membership is the edge test ``lam > lambda_plus`` alone; the gate marks a
    spike in ``analyze``'s reports but never removes one.
    """
    spikes, _ = _walk_spikes(np.asarray(correlations, dtype=float), regime, 0.0)
    return [i for i, _, _ in spikes]


def _spike_report(index, lam, rho_sq, s_x, s_y, *, swapped, method, gate_passed, gap):
    """SpikeReport for the caller's panel order (``s_x`` is the smaller side's)."""
    if swapped:
        s_x, s_y = s_y, s_x
    return SpikeReport(
        index=index,
        lam=float(lam),
        rho_sq_hat=float(rho_sq),
        rho_abs=math.sqrt(rho_sq),
        theta_x_deg=wachter.theta_degrees(s_x),
        theta_y_deg=wachter.theta_degrees(s_y),
        sin2_x=float(s_x),
        sin2_y=float(s_y),
        method=method,
        gate_passed=gate_passed,
        gap=gap,
    )


def estimate_spike_closed_form(
    lambda_q: float,
    regime: wachter.AsymptoticRegime,
    *,
    index: int = 1,
    gap: float = float("nan"),
    gate_passed: bool = True,
) -> SpikeReport:
    """Strength and angles from the explicit bulk-law inversion."""
    rho_sq = wachter.rho2_from_z(lambda_q, regime)
    if rho_sq > 1.0:
        rho_sq = 1.0
    s_x, s_y = wachter.sin2_angles(rho_sq, regime)
    return _spike_report(
        index, lambda_q, rho_sq, s_x, s_y, swapped=regime.swapped,
        method="closed-form", gate_passed=gate_passed, gap=gap,
    )


def estimate_spike_empirical(
    correlations,
    regime: wachter.AsymptoticRegime,
    *,
    index: int = 1,
    gap: float = float("nan"),
    gate_passed: bool = True,
) -> SpikeReport:
    """Strength and angles reusing the observed spectrum as the resolvent.

    ``index`` is the 1-based spike rank; the resolvent sum runs over the
    correlations below it, so the last correlation has none and raises
    PoleProximity.  ``gap`` and ``gate_passed`` are carried into the report.
    """
    lam = np.asarray(correlations, dtype=float)
    if not 1 <= index <= lam.shape[0]:
        raise ValueError(f"spike rank {index} out of range")
    if regime.S is None:
        raise DimensionError("the empirical route needs a finite-dimension regime")
    k_ratio, m_ratio = regime.K / regime.S, regime.M / regime.S
    lam_q = float(lam[index - 1])
    G = master.empirical_G(lam_q, lam[index:], regime.S)
    rho_sq = min(master.r2_relation(lam_q, G.value, k_ratio, m_ratio), 1.0)
    if rho_sq <= 0.0:
        raise PoleProximity(
            f"empirical strength estimate {rho_sq:.4f} is not positive"
        )
    ev = master.cos2_relation(lam_q, G.value, G.derivative, rho_sq, k_ratio, m_ratio)
    s_x = min(max(1.0 - ev.cos2_x, 0.0), 1.0)
    s_y = min(max(1.0 - ev.cos2_y, 0.0), 1.0)
    return _spike_report(
        index, lam_q, rho_sq, s_x, s_y, swapped=regime.swapped,
        method="empirical-G", gate_passed=gate_passed, gap=gap,
    )


def _freedman_diaconis_edges(values, bins):
    if bins is not None:
        return np.histogram_bin_edges(values, bins=int(bins))
    if values.size < 2 or np.ptp(values) == 0.0:
        return np.histogram_bin_edges(values, bins=1)
    edges = np.histogram_bin_edges(values, bins="fd")
    if edges.shape[0] > 513:
        edges = np.histogram_bin_edges(values, bins=512)
    return edges


def analyze(
    U,
    V,
    *,
    demean: bool = False,
    gate_multiplier: float = 5.0,
    bins: int | None = None,
) -> AnalysisReport:
    """Full pipeline: CCA, spike detection, both estimators, histogram.

    Dimension-regime violations, gate failures and per-spike estimation
    failures become notes on the report instead of exceptions or warnings;
    so does the rank deficiency of a panel with at least as many rows as
    samples.  Raises DimensionError for an empty panel, ValueError for a
    non-finite entry and RankDeficient for collinear rows otherwise.
    """
    U, V = _panels(U, V, demean)
    return _analyze_correlations(
        _factor(U, V, 0)[0], U.shape[0], V.shape[0], U.shape[1],
        gate_multiplier=gate_multiplier, bins=bins,
    )


def _analyze_correlations(
    lam, K, M, S, *, gate_multiplier=5.0, bins=None
) -> AnalysisReport:
    """``analyze`` from the squared correlations ``lam`` of K x S and M x S panels."""
    notes: list[str] = []
    regime_note = _regime_note(K, M, S)
    if regime_note is not None:
        notes.append(regime_note)

    regime = None
    try:
        regime = wachter.regime_from_dims(K, M, S)
    except DimensionError as exc:
        notes.append(f"dimension regime violated: {exc}")

    detected: list[tuple[int, float, bool]] = []
    if regime is not None:
        detected, failures = _walk_spikes(lam, regime, gate_multiplier)
        notes.extend(failures)
    n_spikes = len(detected)  # the spikes are the leading correlations

    tied = bool(np.any(np.abs(np.diff(lam[:n_spikes])) < _TIE_TOL))
    if tied:
        notes.append(
            "tied spike correlations (within 1e-10): per-spike estimation "
            "needs distinct values and was skipped"
        )

    spikes: list[SpikeReport] = []
    empirical_spikes: list[SpikeReport] = []
    if not tied:
        for i, gap, gate_passed in detected:
            try:
                spikes.append(
                    estimate_spike_closed_form(
                        lam[i], regime, index=i + 1, gap=gap, gate_passed=gate_passed
                    )
                )
            except HdccaError as exc:
                notes.append(f"closed-form estimate failed at spike {i + 1}: {exc}")
            try:
                empirical_spikes.append(
                    estimate_spike_empirical(
                        lam, regime, index=i + 1, gap=gap, gate_passed=gate_passed
                    )
                )
            except HdccaError as exc:
                notes.append(f"empirical estimate failed at spike {i + 1}: {exc}")

    bulk = lam[n_spikes:]
    if bulk.size == 0:
        bulk = lam
        notes.append("all correlations are above the edge; histogram uses them all")
    edges = _freedman_diaconis_edges(bulk, bins)
    counts, edges = np.histogram(bulk, bins=edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    density = (
        wachter.wachter_density(mids, regime)
        if regime is not None
        else np.zeros_like(mids)
    )
    density = np.atleast_1d(density)

    overlay = None
    if regime is not None:
        span = regime.lambda_plus - regime.lambda_minus
        xs = np.linspace(
            max(regime.lambda_minus - 0.02 * span, 0.0),
            min(regime.lambda_plus + 0.02 * span, 1.0),
            OVERLAY_POINTS,
        )
        overlay = np.column_stack([xs, np.atleast_1d(wachter.wachter_density(xs, regime))])

    return AnalysisReport(
        regime=regime,
        correlations=lam,
        spikes=spikes,
        empirical_spikes=empirical_spikes,
        histogram=Histogram(bin_edges=edges, counts=counts, density=density),
        overlay=overlay,
        notes=notes,
    )
