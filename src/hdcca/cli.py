"""Command-line surface: analyze, simulate, master-check.

``analyze`` always writes one file set, the one README.md lists.

``simulate`` runs a named preset or a spec file.  A preset is the keys and
values a spec file would hold, so ``--preset NAME`` runs as the file
``io.write_sim_config`` writes for it would, and both pick the run kind by
one rule: a ``rho_grid`` sweeps Monte Carlo curves, more than one
replication runs one Monte Carlo summary, and one replication is a single
draw.  ``--replications`` and ``--seed`` override either source.  ``fig2``
simulates nothing: it writes closed-form curves at its dimensions.

Exit codes: 0 success, 2 input error, 3 dimension-regime violation,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import io as hio
from . import master, wachter
from .errors import (
    DimensionError,
    HdccaError,
    ParseError,
    ShapeMismatch,
    SpecError,
)
from .inference import GATE_MULTIPLIER, _analyze_correlations, analyze
from .linalg import sample_cca
from .simulate import _angles, gen_data, mc_angles, seeded_rng, theory

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REGIME = 3
EXIT_NUMERICAL = 4

_INPUT_ERRORS = (ParseError, ShapeMismatch, SpecError, OSError)

# squared strengths spanning both sides of typical detection cutoffs
_RHO_GRID = tuple(np.linspace(0.05, 0.95, 25).tolist())
# the simulate presets, each as the keys and values of a spec file
PRESETS = {
    "fig1": dict(K=1000, M=1500, S=8000, signal_strengths=(0.7,)),
    "fig4-uniform": dict(K=1000, M=1500, S=8000, signal_strengths=(0.7,),
                         noise_law="uniform"),
    "fig4-t3": dict(K=1000, M=1500, S=8000, signal_strengths=(0.7,),
                    noise_law="student_t", noise_df=3.0),
    "fig5": dict(K=500, M=2500, S=8000, rho_grid=_RHO_GRID),
    "fig7": dict(K=1000, M=1500, S=8000, signal_strengths=(0.95, 0.75, 0.7)),
    "fig8": dict(K=5, M=25, S=80, replications=1000, rho_grid=_RHO_GRID),
    "fig9": dict(K=50, M=250, S=800, replications=200, rho_grid=_RHO_GRID),
    "desk": dict(K=200, M=300, S=1600, signal_strengths=(0.7,), replications=50),
}
# the presets that simulate nothing: (K, M, S) of their closed-form curves
THEORY_PRESETS = {"fig2": (1000, 1500, 8000)}


def _print_spike_table(report):
    if report.regime is None:
        print("no spike detection: the bulk edge is undefined outside the "
              "dimension regime")
        return
    if not report.spikes:
        print(f"no correlations above the bulk edge "
              f"({report.regime.lambda_plus:.4f})")
        return
    same_sides = report.regime.K == report.regime.M
    header = ["signal", "lambda", "rho_sq", "|rho|"]
    header += ["angle"] if same_sides else ["theta_x", "theta_y"]
    header += ["sin2"] if same_sides else ["sin2_x", "sin2_y"]
    header += ["gate"]
    print("  ".join(f"{h:>8}" for h in header))
    for s in report.spikes:
        row = [f"{s.index:>8}", f"{s.lam:8.2f}", f"{s.rho_sq_hat:8.2f}",
               f"{s.rho_abs:8.2f}"]
        if same_sides:
            row += [f"{s.theta_x_deg:8.2f}", f"{s.sin2_x:8.2f}"]
        else:
            row += [f"{s.theta_x_deg:8.2f}", f"{s.theta_y_deg:8.2f}",
                    f"{s.sin2_x:8.2f}", f"{s.sin2_y:8.2f}"]
        row += ["      ok" if s.gate_passed else "  gapped"]
        print("  ".join(row))


def _write_tables(out, report):
    hio.write_correlations_csv(out / "correlations.csv", report.correlations)
    hio.write_histogram_csv(out / "histogram.csv", report.histogram)
    hio.write_spikes_csv(out / "spikes.csv", report.spikes)
    if report.overlay is not None:
        hio.write_overlay_csv(out / "overlay.csv", report.overlay)


def cmd_analyze(args) -> int:
    u = hio.load_csv(args.u_csv, orientation=args.orientation, demean=args.demean)
    v = hio.load_csv(args.v_csv, orientation=args.orientation, demean=args.demean)
    hio.check_joint_samples(u, v)
    report = analyze(u.values, v.values, gate_multiplier=args.gate_multiplier)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_tables(out, report)
    hio.write_report_json(out / "report.json", report)
    _print_spike_table(report)
    for note in report.notes:
        print(f"note: {note}")
    if report.regime is None:
        return EXIT_REGIME
    return EXIT_OK


def _write_curves(out, rows):
    """theta_x_curve.csv and theta_y_curve.csv from (x row, y row) pairs."""
    header = ["rho_sq", "theta_theory", "theta_mean", "band_lo", "band_hi"]
    for side, name in enumerate(("theta_x_curve.csv", "theta_y_curve.csv")):
        hio.write_table(out / name, header, (pair[side] for pair in rows))


def _run_single(spec, out):
    theta_x, theta_y, lam = _angles(spec, *gen_data(spec))
    report = _analyze_correlations(lam, spec.K, spec.M, spec.S)
    _write_tables(out, report)
    if spec.n_signals:
        predictions = theory(spec)  # raises DimensionError before the angles
        rows = [
            (q + 1, pred.rho_sq, wachter.theta_degrees(pred.s_x), theta_x[q],
             wachter.theta_degrees(pred.s_y), theta_y[q])
            for q, pred in enumerate(predictions)
        ]
        hio.write_table(
            out / "angles.csv",
            ["signal", "rho_sq", "theta_x_theory", "theta_x_sim",
             "theta_y_theory", "theta_y_sim"],
            rows,
        )
    _print_spike_table(report)
    return EXIT_OK


def _curve_rows(summary, q, rho_sq):
    """theta_x and theta_y curve rows of signal q, labelled with ``rho_sq``."""
    pred = summary.theory[q]
    return (
        (rho_sq, wachter.theta_degrees(pred.s_x), summary.mean_theta_x[q],
         *summary.band_x[:, q]),
        (rho_sq, wachter.theta_degrees(pred.s_y), summary.mean_theta_y[q],
         *summary.band_y[:, q]),
    )


def _run_mc(spec, replications, out):
    summary = mc_angles(spec, replications)
    rows = [_curve_rows(summary, q, pred.rho_sq) for q, pred in enumerate(summary.theory)]
    _write_curves(out, rows)
    hio.write_correlations_csv(out / "mean_lambdas.csv", summary.lambdas.mean(axis=0))
    for q, (row_x, row_y) in enumerate(rows):
        print(
            f"signal {q + 1}: rho_sq={row_x[0]:.4f}  "
            f"theta_x theory {row_x[1]:6.2f} mean {row_x[2]:6.2f}  "
            f"theta_y theory {row_y[1]:6.2f} mean {row_y[2]:6.2f}"
        )
    return EXIT_OK


def _run_mc_curve(spec, rho_grid, replications, out):
    """One Monte Carlo run per grid strength; run i uses seed ``spec.seed + i``."""
    rows = []
    for idx, rho_sq in enumerate(rho_grid):
        point = replace(
            spec, signal_strengths=(math.sqrt(rho_sq),), seed=spec.seed + idx
        )
        rows.append(_curve_rows(mc_angles(point, replications), 0, rho_sq))
    _write_curves(out, rows)
    print(f"wrote angle curves over {len(rho_grid)} strengths")
    return EXIT_OK


def _run_theory_curve(K, M, S, out):
    regime = wachter.regime_from_dims(K, M, S)
    rows = []
    for rho_sq in np.linspace(regime.rho_c_sq + 1e-3, 1.0, 200):
        pred = wachter.spike_prediction(rho_sq, regime)
        rows.append((rho_sq, pred.z_rho, wachter.theta_degrees(pred.s_x),
                     wachter.theta_degrees(pred.s_y)))
    hio.write_table(out / "theory_curve.csv",
                    ["rho_sq", "z_rho", "theta_x_deg", "theta_y_deg"], rows)
    print("wrote theory_curve.csv")
    return EXIT_OK


def _resolve_simulation(args):
    """(spec, kind, replications, rho_grid) of a simulating ``--preset`` or
    of ``--spec``.  Both sources give their keys to ``hio.sim_spec``; then
    ``--replications`` and ``--seed`` override, and the kind is
    ``mc-curve`` with a ``rho_grid``, else ``mc`` above one replication,
    else ``single-run``."""
    if args.preset:
        if args.preset not in PRESETS:
            raise SpecError(f"unknown preset {args.preset!r}; "
                            f"available: {sorted([*PRESETS, *THEORY_PRESETS])}")
        spec, extras = hio.sim_spec(PRESETS[args.preset])
    elif args.spec:
        spec, extras = hio.parse_sim_config(args.spec)
    else:
        raise SpecError("simulate needs --preset or --spec")
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    replications = args.replications or extras.get("replications", 1)
    rho_grid = extras.get("rho_grid")
    if rho_grid is not None:
        kind = "mc-curve"
    else:
        kind = "mc" if replications > 1 else "single-run"
    return spec, kind, replications, rho_grid


def cmd_simulate(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.preset in THEORY_PRESETS:
        return _run_theory_curve(*THEORY_PRESETS[args.preset], out)
    spec, kind, replications, rho_grid = _resolve_simulation(args)
    if kind == "mc-curve":
        return _run_mc_curve(spec, rho_grid, replications, out)
    if kind == "mc":
        return _run_mc(spec, replications, out)
    return _run_single(spec, out)


class MasterCheck(NamedTuple):
    """What ``master-check`` compares on one random instance."""

    roots: int
    root_err: float
    interlaced: bool
    vec_err: float

    def ok(self, K: int) -> bool:
        return (self.roots == K and self.root_err < 1e-9 and self.interlaced
                and self.vec_err < 1e-8)


def master_instance(K: int, M: int, S: int, seed: int):
    """``master-check``'s random instance as one K x S panel ``U`` and one
    M x S panel ``V``.  Rows 1 onward are Gaussian noise, ``U_sub`` and
    ``V_sub``; row 0 holds the unit vectors ``u_star`` and ``v_star``.  They
    are drawn in the order ``U_sub``, ``V_sub``, ``u_star``, ``v_star``."""
    rng = seeded_rng(seed)
    U = np.empty((K, S))
    V = np.empty((M, S))
    for rows in (U[1:], V[1:], U[0], V[0]):
        rng.standard_normal(out=rows)
    for star in (U[0], V[0]):
        star /= np.linalg.norm(star)
    return U, V


def master_check(K: int, M: int, S: int, seed: int) -> MasterCheck:
    """Secular roots and vector statistics of the instance ``seed`` against
    the eigensolver and the measured cosines.  Raises DimensionError unless
    2 <= K <= M and (K, M, S) is in the dimension regime, and HdccaError
    when a formula fails."""
    if not 2 <= K <= M:
        raise DimensionError(f"master-check needs 2 <= K <= M, got K={K} and M={M}")
    wachter.regime_from_dims(K, M, S)
    U, V = master_instance(K, M, S, seed)
    u_star, v_star = U[0], V[0]

    inputs = master.MasterInputs.from_matrices(u_star, v_star, U[1:], V[1:])
    roots = master.master_roots(inputs)
    res = sample_cca(U, V)
    lam = res.correlations_sq
    root_err = float(np.max(np.abs(np.sort(roots) - np.sort(lam))))

    y = inputs.intermediate_correlations()
    c2 = inputs.poles()
    tol = 1e-9
    interlaced = all(
        roots[i] >= y[i] - tol and y[i] >= roots[i + 1] - tol for i in range(len(y))
    ) and all(
        y[i] >= c2[i] - tol and (i + 1 >= len(y) or c2[i] >= y[i + 1] - tol)
        for i in range(len(c2))
    )

    vec_err = 0.0
    for i, z in enumerate(lam):
        st = master.master_vector_stats(z, inputs)
        cx = abs(u_star @ res.left_variables[i])
        cy = abs(v_star @ res.right_variables[i])
        vec_err = max(vec_err, abs(st.cos_theta_x - cx), abs(st.cos_theta_y - cy))
    return MasterCheck(roots.shape[0], root_err, interlaced, vec_err)


def cmd_master_check(args) -> int:
    K, M, S = args.dims
    check = master_check(K, M, S, args.seed)
    print(f"dims K={K} M={M} S={S} seed={args.seed}")
    print(f"root count: {check.roots} (expected {K})")
    print(f"max |secular root - eigensolver correlation| = {check.root_err:.3e}")
    print(f"interlacing: {'ok' if check.interlaced else 'VIOLATED'}")
    print(f"max |vector-statistic cosine - measured cosine| = {check.vec_err:.3e}")
    return EXIT_OK if check.ok(K) else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdcca",
        description="high-dimensional CCA: spike detection and precision estimates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="CCA analysis of two CSV panels")
    pa.add_argument("u_csv")
    pa.add_argument("v_csv")
    pa.add_argument(
        "--orientation",
        choices=hio.ORIENTATIONS,
        default="rows-are-variables",
    )
    pa.add_argument(
        "--demean",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="remove per-variable means across samples (default on)",
    )
    pa.add_argument("--gate-multiplier", type=hio.positive_float,
                    default=GATE_MULTIPLIER,
                    help="a spike whose gap to the next correlation (or to the "
                    "bulk edge) is below this over sqrt(S) is flagged in the "
                    "gate column, in gate_passed and in the notes, never removed")
    pa.add_argument("--out-dir", default=".")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="synthetic draws and Monte Carlo curves")
    source = ps.add_mutually_exclusive_group()
    source.add_argument("--preset", default=None,
                        help=f"one of {sorted([*PRESETS, *THEORY_PRESETS])}")
    source.add_argument("--spec", default=None, help="flat key=value spec file")
    ps.add_argument("--replications", type=hio.positive_int, default=None)
    ps.add_argument("--seed", type=hio.nonnegative_int, default=None)
    ps.add_argument("--out-dir", default=".")
    ps.set_defaults(func=cmd_simulate)

    pm = sub.add_parser(
        "master-check", help="verify the exact secular equations on a random instance"
    )
    pm.add_argument("--seed", type=hio.nonnegative_int, default=0)
    pm.add_argument(
        "--dims", type=int, nargs=3, default=[6, 9, 40], metavar=("K", "M", "S")
    )
    pm.set_defaults(func=cmd_master_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DimensionError as exc:
        print(f"dimension regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (HdccaError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
