"""Reproducing two published analyses from their reported correlations alone.

No raw data needed: the estimation pipeline consumes only the observed
squared sample canonical correlations and the dimensions.

Case 1: weekly returns of 80 cyclical vs 80 defensive stocks over 521 weeks;
the three largest squared correlations (0.89, 0.62, 0.58) sit above the bulk
edge and map to three signals of decreasing strength.  The published lambda
values are rounded to two decimals, and the table's other columns were
computed from the unrounded ones: the third signal prints rho^2 0.35 / 37.2
degrees for lambda = 0.58, while the published row (0.34 / 38.2 degrees)
corresponds to lambda ~ 0.575.

Case 2: limestone grassland data, 6 soil variables vs 8 plant species over
45 samples; the reported spectrum (0.83, 0.52, 0.36, 0.11, 0.09, 0.04) shows
a single rank-1 signal.

Run:  python3 demos/05_reference_tables.py
"""

import numpy as np

from hdcca import (
    detect_spikes,
    estimate_spike_closed_form,
    estimate_spike_empirical,
    regime_from_dims,
)

print("=== cyclical vs defensive stocks: K=M=80, S=521 ===")
regime = regime_from_dims(80, 80, 521)
print(f"bulk edge lambda_+ = {regime.lambda_plus:.4f}")
print(f"{'signal':>7} {'lambda':>8} {'rho^2':>7} {'|rho|':>7} {'angle':>7} {'sin^2':>7}")
for rank, lam in enumerate((0.89, 0.62, 0.58), start=1):
    s = estimate_spike_closed_form(lam, regime, index=rank)
    # equal dimensions: one angle covers both sides
    print(
        f"{rank:>7} {s.lam:8.2f} {s.rho_sq_hat:7.2f} {s.rho_abs:7.2f} "
        f"{s.theta_x_deg:6.1f}d {s.sin2_x:7.2f}"
    )
print()

print("=== limestone grassland: K=6, M=8, S=45 ===")
lam = np.array([0.83, 0.52, 0.36, 0.11, 0.09, 0.04])
regime = regime_from_dims(6, 8, 45)
print(f"bulk edge lambda_+ = {regime.lambda_plus:.4f}")
spikes = detect_spikes(lam, regime)
print(f"correlations above the edge: {[float(lam[i]) for i in spikes]}")
s = estimate_spike_closed_form(lam[0], regime)
print(
    f"closed form:     rho^2 = {s.rho_sq_hat:.2f}, |rho| = {s.rho_abs:.2f}, "
    f"theta_x = {s.theta_x_deg:.2f}d, theta_y = {s.theta_y_deg:.2f}d"
)
e = estimate_spike_empirical(lam, regime)
print(
    f"spectrum reuse:  rho^2 = {e.rho_sq_hat:.2f}, |rho| = {e.rho_abs:.2f}, "
    f"theta_x = {e.theta_x_deg:.2f}d, theta_y = {e.theta_y_deg:.2f}d"
)
print()
print("a single strong soil-species signal, estimated to ~14-16 degree")
print("precision even though S=45 is tiny.")
