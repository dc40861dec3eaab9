"""Acceptance suite: one pass/fail line per criterion (run with ``pytest -s``).

Each criterion pins its tolerance here.  Published figures are read at their
printed precision: criterion 4 takes each printed two-decimal correlation of
the reference stock-returns table as the interval it rounds from, because the
table computed its other columns from the unrounded value (see the test
docstring; the third row's lambda=0.58 stands for lambda ~ 0.575).
"""

import numpy as np
import pytest

from hdcca.cli import main
from hdcca.inference import analyze, detect_spikes, estimate_spike_empirical
from hdcca.io import write_sim_config
from hdcca.linalg import sample_cca
from hdcca.master import (
    MasterInputs,
    cos2_relation,
    master_roots,
    master_vector_stats,
    r2_relation,
    wachter_G,
)
from hdcca.simulate import (
    SimSpec,
    gen_data,
    ks_distance,
    mc_angles,
    sample_r_sq,
    sinusoid_pair,
)
from hdcca.wachter import (
    regime_from_dims,
    regime_from_ratios,
    rho2_from_z,
    sin2_angles,
    spike_prediction,
    theta_degrees,
    wachter_cdf,
    z_from_rho2,
)

DESK = dict(K=200, M=300, S=1600)
DESK_REGIME = regime_from_dims(**DESK)
DESK_PREDICTION = spike_prediction(0.49, DESK_REGIME)
THETA_X_49 = 25.22
THETA_Y_49 = 28.39


def _verdict(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:>2} [{name}]: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def desk_mc():
    spec = SimSpec(signal_strengths=(0.7,), seed=0, **DESK)
    return mc_angles(spec, 50)


def test_c01_exact_oracle_suite():
    """200 random instances: secular roots and vector statistics equal the
    direct eigensolve; root count and interlacing hold."""
    rng = np.random.default_rng(0)
    worst_root = worst_vec = 0.0
    interlaced = True
    for _ in range(200):
        K = int(rng.integers(2, 11))
        M = int(rng.integers(K, 15))
        S = int(rng.integers(K + M + 2, 61))
        U_sub = rng.standard_normal((K - 1, S))
        V_sub = rng.standard_normal((M - 1, S))
        u_star = rng.standard_normal(S)
        u_star /= np.linalg.norm(u_star)
        v_star = rng.standard_normal(S)
        v_star /= np.linalg.norm(v_star)
        U = np.vstack([u_star, U_sub])
        V = np.vstack([v_star, V_sub])
        inputs = MasterInputs.from_matrices(u_star, v_star, U_sub, V_sub)
        roots = master_roots(inputs)
        assert roots.shape[0] == K
        res = sample_cca(U, V)
        lam = res.correlations_sq
        worst_root = max(worst_root, float(np.max(np.abs(roots - lam))))
        y = np.sort(sample_cca(U_sub, V).correlations_sq)[::-1]
        c2 = inputs.poles()
        tol = 1e-9
        for i in range(len(y)):
            interlaced &= roots[i] >= y[i] - tol and y[i] >= roots[i + 1] - tol
            interlaced &= y[i] >= c2[i] - tol
            if i + 1 < len(y):
                interlaced &= c2[i] >= y[i + 1] - tol
        for i, z in enumerate(lam):
            st = master_vector_stats(z, inputs)
            cx = abs(u_star @ res.left_variables[i])
            cy = abs(v_star @ res.right_variables[i])
            worst_vec = max(worst_vec, abs(st.cos_theta_x - cx), abs(st.cos_theta_y - cy))
    _verdict(
        1,
        "exact secular oracle",
        worst_root < 1e-9 and interlaced and worst_vec < 1e-8,
        f"max root err {worst_root:.2e}, max cosine err {worst_vec:.2e}",
    )


def test_c02_reduction_identity():
    """Asymptotic relations with the closed-form bulk transform reproduce the
    explicit spike/angle formulas over a 20x20x20 grid."""
    worst = worst_front = 0.0
    for tau_m in np.linspace(2.1, 10.0, 20):
        for factor in np.linspace(1.0, 4.0, 20):
            reg = regime_from_ratios(tau_m * factor, tau_m)
            k, m = 1.0 / reg.tau_K, 1.0 / reg.tau_M
            for frac in np.linspace(0.05, 0.999, 20):
                rho2 = min(reg.rho_c_sq + frac * (1.0 - reg.rho_c_sq), 1.0 - 1e-9)
                z = z_from_rho2(rho2, reg)
                G = wachter_G(z, reg)
                worst = max(worst, abs(r2_relation(z, G.value, k, m) - rho2))
                ev = cos2_relation(z, G.value, G.derivative, rho2, k, m)
                s_x, s_y = sin2_angles(rho2, reg)
                worst = max(
                    worst,
                    abs(1.0 - ev.cos2_x - s_x),
                    abs(1.0 - ev.cos2_y - s_y),
                )
                worst_front = max(
                    worst_front, abs(ev.front_x - 1.0), abs(ev.front_y - 1.0)
                )
    _verdict(
        2,
        "bulk-transform reduction identity",
        worst < 1e-9 and worst_front < 1e-9,
        f"max relation err {worst:.2e}, max |front-1| {worst_front:.2e}",
    )


def test_c03_round_trip():
    """Strength <-> spike-location inversion is the identity on both sides."""
    worst = 0.0
    for dims in [(1000, 1500, 8000), (80, 80, 521), (6, 8, 45)]:
        reg = regime_from_dims(*dims)
        n = 2000
        step_z = (1.0 - reg.lambda_plus) / n
        for i in range(n):
            z = reg.lambda_plus + (i + 1) * step_z
            worst = max(worst, abs(z_from_rho2(rho2_from_z(z, reg), reg) - z))
        step_r = (1.0 - reg.rho_c_sq) / n
        for i in range(n):
            rho = reg.rho_c_sq + (i + 0.5) * step_r
            worst = max(worst, abs(rho2_from_z(z_from_rho2(rho, reg), reg) - rho))
        worst = max(worst, abs(rho2_from_z(z_from_rho2(1.0, reg), reg) - 1.0))
    _verdict(3, "round trip", worst < 1e-12, f"max err {worst:.2e}")


STOCKS_DIMS = (80, 80, 521)
STOCKS_ROWS = [
    # (lambda, rho_sq +- 0.01, theta +- tol, sin2 or None +- 0.01)
    ("first", 0.89, 0.84, 10.8, 0.3, 0.03),
    ("second", 0.62, 0.43, 31.0, 0.5, None),
    ("third", 0.58, 0.34, 38.2, 0.5, None),
]
LAM_HALF_UNIT = 0.005  # lambda is printed to two decimals
LAM_STEP = 1e-5  # rho_sq rises and theta falls monotonically in lambda


def _stocks_figures(lam, reg):
    """(rho_sq, theta in degrees, sin2) predicted for one squared correlation."""
    rho = rho2_from_z(lam, reg)
    s_x, _ = sin2_angles(rho, reg)
    return rho, theta_degrees(s_x), s_x


def _reproducing_lambdas(lam, rho_t, theta_t, theta_tol, sin2_t, dims):
    """Grid points of the rounding interval [lam - 0.005, lam + 0.005] at which
    every pinned bound of the row holds at once."""
    reg = regime_from_dims(*dims)
    n = round(2 * LAM_HALF_UNIT / LAM_STEP)
    grid = np.linspace(lam - LAM_HALF_UNIT, lam + LAM_HALF_UNIT, n + 1)
    hits = []
    for z in grid[grid > reg.lambda_plus]:  # at or below the edge: no signal
        rho, theta, s_x = _stocks_figures(z, reg)
        if (
            abs(rho - rho_t) <= 0.01
            and abs(theta - theta_t) <= theta_tol
            and (sin2_t is None or abs(s_x - sin2_t) <= 0.01)
        ):
            hits.append(float(z))
    return hits


@pytest.mark.parametrize("name,lam,rho_t,theta_t,theta_tol,sin2_t", STOCKS_ROWS)
def test_c04_stocks_reference_table(name, lam, rho_t, theta_t, theta_tol, sin2_t):
    """Weekly-returns reference table (K=M=80, S=521) from the published
    two-decimal correlations.

    The table prints lambda to two decimals but computed rho_sq and theta
    from the unrounded value, so a row is reproduced when some lambda in
    [lambda - 0.005, lambda + 0.005] meets all of its pinned bounds at once.
    Read as exact, the third row fails: lambda=0.58 maps to rho_sq=0.3537
    and theta=37.20 deg, while the published 0.34 / 38.2 correspond to an
    unrounded lambda near 0.575 (0.575 -> rho_sq=0.344, theta=38.2), which
    rounds to 0.58.
    """
    hits = _reproducing_lambdas(lam, rho_t, theta_t, theta_tol, sin2_t, STOCKS_DIMS)
    rho, theta, s_x = _stocks_figures(lam, regime_from_dims(*STOCKS_DIMS))
    span = f"[{hits[0]:.5f}, {hits[-1]:.5f}]" if hits else "none"
    _verdict(
        4,
        f"stocks table, {name} row",
        bool(hits),
        f"reproducing lambda {span}; at lam={lam}: rho_sq {rho:.4f} vs {rho_t}, "
        f"theta {theta:.2f} vs {theta_t}, sin2 {s_x:.4f} vs {sin2_t}",
    )


@pytest.mark.parametrize(
    "dims,names",
    [
        ((80, 80, 500), ("second", "third")),
        ((80, 100, 521), ("first", "second", "third")),
    ],
    ids=["S500", "M100"],
)
def test_c04_stocks_table_wrong_regime(dims, names):
    """Negative control: in a regime the table was not computed in, no lambda
    in the rounding interval reproduces these rows, so the interval reading
    of criterion 4 can still fail."""
    rows = [row for row in STOCKS_ROWS if row[0] in names]
    reproduced = [row[0] for row in rows if _reproducing_lambdas(*row[1:], dims)]
    _verdict(
        4,
        f"stocks table, control at K,M,S={dims}",
        not reproduced,
        f"rows reproduced: {reproduced or 'none'}",
    )


def test_c05_limestone_reference():
    """Soil/species reference analysis: K=6, M=8, S=45, lambda_1=0.83."""
    reg = regime_from_dims(6, 8, 45)
    rho = rho2_from_z(0.83, reg)
    s_x, s_y = sin2_angles(rho, reg)
    ok = (
        abs(reg.lambda_plus - 0.52) <= 0.01
        and abs(rho - 0.75) <= 0.01
        and abs(theta_degrees(s_x) - 14.21) <= 0.6
        and abs(theta_degrees(s_y) - 15.77) <= 0.6
    )
    _verdict(
        5,
        "limestone reference",
        ok,
        f"edge {reg.lambda_plus:.4f}, rho_sq {rho:.4f}, "
        f"theta ({theta_degrees(s_x):.2f}, {theta_degrees(s_y):.2f})",
    )


def test_c06_theory_angle_table():
    """Closed-form angles at tau_K=8, tau_M=16/3 match the reference table."""
    reg = regime_from_ratios(8.0, 16.0 / 3.0)
    table = [
        (0.9025, 7.57, 8.89),
        (0.5625, 21.37, 24.31),
        (0.49, 25.22, 28.39),
    ]
    worst = 0.0
    for rho2, tx, ty in table:
        s_x, s_y = sin2_angles(rho2, reg)
        worst = max(
            worst,
            abs(theta_degrees(s_x) - tx),
            abs(theta_degrees(s_y) - ty),
        )
    _verdict(6, "theory angle table", worst <= 0.02, f"max angle err {worst:.4f}")


def test_c07_desk_scale_monte_carlo(desk_mc):
    """50 Gaussian replications at K=200, M=300, S=1600, r^2=0.49."""
    mean_lam1 = float(desk_mc.lambdas[:, 0].mean())
    d_lam = abs(mean_lam1 - DESK_PREDICTION.z_rho)
    d_x = abs(desk_mc.mean_theta_x[0] - THETA_X_49)
    d_y = abs(desk_mc.mean_theta_y[0] - THETA_Y_49)
    _verdict(
        7,
        "desk-scale Monte Carlo",
        d_lam < 0.01 and d_x < 1.5 and d_y < 1.5,
        f"lam1 dev {d_lam:.4f}, theta devs ({d_x:.2f}, {d_y:.2f}) deg",
    )


@pytest.mark.parametrize(
    "law,df", [("uniform", 3.0), ("student_t", 3.0)], ids=["uniform", "t3"]
)
def test_c08_universality(law, df):
    """Non-Gaussian noise reproduces the Gaussian-theory angles."""
    spec = SimSpec(
        signal_strengths=(0.7,), noise_law=law, noise_df=df, seed=0, **DESK
    )
    summary = mc_angles(spec, 50)
    d_x = abs(summary.mean_theta_x[0] - THETA_X_49)
    d_y = abs(summary.mean_theta_y[0] - THETA_Y_49)
    _verdict(
        8,
        f"universality ({law})",
        d_x < 2.0 and d_y < 2.0,
        f"theta devs ({d_x:.2f}, {d_y:.2f}) deg",
    )


def test_c09_correlated_signal():
    """Deterministic sinusoidal signal pair with exact strength 0.49."""
    x, y = sinusoid_pair(DESK["S"], 0.7)
    assert sample_r_sq(x, y) == pytest.approx(0.49, abs=1e-10)
    spec = SimSpec(
        signal_strengths=(0.7,),
        signal_mode="deterministic",
        signal_x=x.reshape(1, -1),
        signal_y=y.reshape(1, -1),
        seed=0,
        **DESK,
    )
    summary = mc_angles(spec, 50)
    d_x = abs(summary.mean_theta_x[0] - THETA_X_49)
    d_y = abs(summary.mean_theta_y[0] - THETA_Y_49)
    _verdict(
        9,
        "correlated deterministic signal",
        d_x < 2.0 and d_y < 2.0,
        f"theta devs ({d_x:.2f}, {d_y:.2f}) deg",
    )


def test_c10_multi_signal_ordering():
    """Three signals r=0.95/0.75/0.7: all detected, strengths recovered in
    order, angles increasing as strength decreases."""
    targets = np.array([0.9025, 0.5625, 0.49])
    reps = 10
    rho = np.zeros((reps, 3))
    theta = np.zeros((reps, 3))
    counts = []
    for rep in range(reps):
        spec = SimSpec(signal_strengths=(0.95, 0.75, 0.7), seed=100 + rep, **DESK)
        U, V, _ = gen_data(spec)
        report = analyze(U, V)
        counts.append(len(report.spikes))
        rho[rep] = [s.rho_sq_hat for s in report.spikes[:3]]
        theta[rep] = [s.theta_x_deg for s in report.spikes[:3]]
    mean_rho = rho.mean(axis=0)
    mean_theta = theta.mean(axis=0)
    ok = (
        all(c == 3 for c in counts)
        and np.all(np.abs(mean_rho - targets) <= 0.03)
        and mean_theta[0] < mean_theta[1] < mean_theta[2]
    )
    _verdict(
        10,
        "multi-signal ordering",
        ok,
        f"mean rho_sq {np.round(mean_rho, 4)}, mean theta {np.round(mean_theta, 2)}",
    )


def test_c11_noise_only_law():
    """One noise-only draw at K=500, M=750, S=4000 follows the bulk law."""
    spec = SimSpec(K=500, M=750, S=4000, seed=0)
    U, V, _ = gen_data(spec)
    lam = sample_cca(U, V).correlations_sq
    reg = regime_from_dims(500, 750, 4000)
    ks = ks_distance(lam, lambda v: wachter_cdf(v, reg))
    spikes = detect_spikes(lam, reg)
    _verdict(
        11,
        "noise-only bulk law",
        ks < 0.03 and spikes == [],
        f"KS distance {ks:.4f}, {len(spikes)} gated spikes",
    )


def test_c12_route_agreement(desk_mc):
    """Closed-form and spectrum-reuse strength estimates agree on the
    desk-scale replications."""
    diffs = []
    for rep in range(desk_mc.replications):
        lam = desk_mc.lambdas[rep]
        closed = rho2_from_z(float(lam[0]), DESK_REGIME)
        emp = estimate_spike_empirical(lam, DESK_REGIME).rho_sq_hat
        diffs.append(abs(closed - emp))
    mean_diff = float(np.mean(diffs))
    _verdict(12, "route agreement", mean_diff < 0.02, f"mean |diff| {mean_diff:.5f}")


def test_c13_determinism(tmp_path):
    """Identical spec and seed give byte-identical simulation outputs."""
    cfg = tmp_path / "spec.cfg"
    write_sim_config(
        cfg,
        SimSpec(K=25, M=35, S=280, signal_strengths=(0.8,), seed=21),
        extras={"replications": 3},
    )
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["simulate", "--spec", str(cfg), "--out-dir", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    identical = names == sorted(p.name for p in outs[1].iterdir()) and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    _verdict(13, "byte-identical outputs", identical, f"{len(names)} files compared")
