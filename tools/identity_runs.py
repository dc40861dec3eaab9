"""Run a fixed set of hdcca CLI commands and keep everything they produce.

Usage::

    python3 tools/identity_runs.py OUT --src PATH

``PATH`` is the ``src`` directory of the tree under test.  Every run gets its
own directory ``OUT/<name>`` holding the files the command wrote plus
``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``.  Commands run in that
directory with relative paths, so no output names the directory.  The inputs
(CSV panels and spec files, in ``OUT/inputs``) are made with numpy alone from
fixed seeds, so two source trees see the same bytes.  To compare two trees::

    python3 tools/identity_runs.py /tmp/before --src old/src
    python3 tools/identity_runs.py /tmp/after --src src
    diff -r /tmp/before /tmp/after

The set covers ``analyze`` on plain, swapped, two-spike, gate-failing,
all-spikes (every correlation above the edge), regime-violating, wide (more
rows than samples, with and without de-meaning), ill-conditioned (the
rank-revealing route), collinear and desk-size three-spike panels, panels
whose Gram guard is decided by its exact eigenvalue test, and rows in other
units (one row of a small panel, and every row of the desk panels at
log-uniform scales); CSV ingestion (labels with a header, ``rows-are-samples`` with and without a
header, a UTF-8 byte-order mark, CRLF endings, quoted cells, labelled
panels of several ``load_csv`` chunks, and one exit per input error: an
empty, ``na``, ``inf`` or non-numeric cell, a non-numeric cell past the
first chunk, a ragged row, a label-only file, a file that is not UTF-8, a
directory);
``simulate`` presets and spec files for single, Monte Carlo and curve runs,
including Monte Carlo runs large enough to draw on a worker thread (uniform
and Student-t noise, mixing), ``--replications`` turning a Monte Carlo
preset into one draw and a one-draw preset into Monte Carlo, the ``desk``
preset and its spec file side by side, regime violations, an unknown preset,
``--replications 0``, ``--preset`` with ``--spec``, a spec value its key
cannot take, a key set twice, an empty ``rho_grid``, grid strengths,
Student-t degrees of freedom and signal variances out of range, and
rotated-pair signals with too few samples; and
``master-check`` at two sizes over several seeds, plus instances with a root
near a noise pole or a cancelled secular sum, and dimensions it rejects
(K = 1, K > M).

``OUT/environment.txt`` records the BLAS thread settings, the numpy version
and the BLAS library, so ``diff -r`` also shows when two result sets ran
under different BLAS settings, which can change the last bits of results.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def _write_panel(path, X, *, header=None, labels=None, eol="\n", quote=""):
    """One line per row of X; optional header line, label column, line ending
    and quote character around each number."""
    lines = [",".join(header)] if header else []
    for i, row in enumerate(X):
        cells = [f"{quote}{float(v)!r}{quote}" for v in row]
        lines.append(",".join(([labels[i]] if labels else []) + cells))
    with open(path, "w", newline="") as fh:
        fh.write(eol.join(lines) + eol)


def _signal_panels(seed, K, M, S, strengths):
    """K x S and M x S Gaussian panels whose leading rows carry the signals."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((K, S))
    V = rng.standard_normal((M, S))
    for i, r in enumerate(strengths):
        V[i] = r * U[i] + np.sqrt(1.0 - r * r) * V[i]
    return U, V


def _mixed(seed, X, cond):
    """X mixed by ``Q diag(d) Q^T`` with a random orthogonal Q, which raises
    the Gram condition number by about ``cond`` however the rows are scaled,
    and leaves every canonical correlation unchanged."""
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * np.logspace(0.0, -0.5 * np.log10(cond), n)) @ Q.T @ X


def _assert_guard_fallback(U):
    """Check that the de-meaned U's Gram matrix ``G`` fails the shifted-Cholesky
    certificate of ``linalg._gram_cholesky`` and passes its exact 1e4 test,
    both on ``D^-1 G D^-1`` with ``D = diag(G)^1/2``, so that analyze reaches
    the exact test and then takes the Cholesky route."""
    X = U - U.mean(axis=1, keepdims=True)
    gram = X @ X.T
    d = np.sqrt(gram.diagonal())
    eig = np.linalg.eigvalsh(gram / d / d[:, None])
    assert eig[0] > 0.0 and eig[-1] <= 1e4 * eig[0], eig[-1] / eig[0]
    delta = 2.0 * ((np.abs(gram) @ (1.0 / d)) / d).max() / 1e4
    gram.flat[:: gram.shape[0] + 1] -= delta * gram.diagonal()
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return
    raise AssertionError("the guard_fallback panel passes the certificate")


# spec values that no run may take, each after K = 5, M = 25, S = 80
BAD_VALUES = {
    "rho_grid_negative": "rho_grid = -0.1",
    "rho_grid_one": "rho_grid = 0.5, 1.0",
    "rho_grid_empty": "rho_grid =",
    "noise_df_nan": "noise_law = student_t\nnoise_df = nan",
    "noise_df_inf": "noise_law = student_t\nnoise_df = inf",
    "cov_scale_negative": "signal_strengths = 0.5\nsignal_cov_scale = -1",
    "cov_scale_zero": "signal_strengths = 0.5\nsignal_cov_scale = 0",
}


def make_inputs(inputs):
    """Write every CSV panel and spec file the runs read."""
    inputs.mkdir(parents=True)
    U, V = _signal_panels(1, 40, 60, 400, (0.8,))
    panels = {"plain": (U, V)}
    panels["two_spike"] = _signal_panels(2, 40, 60, 400, (0.9, 0.75))
    panels["regime"] = _signal_panels(3, 10, 20, 25, ())
    panels["wide"] = _signal_panels(4, 30, 5, 20, ())
    U, V = _signal_panels(5, 40, 60, 400, (0.8,))
    U[1] *= 1e4  # a row in other units: raw Gram condition ~1e8
    panels["ill"] = (U, V)
    U, V = _signal_panels(5, 40, 60, 400, (0.8,))
    panels["ill_mixed"] = (_mixed(5, U, 1e8), V)  # the rank-revealing route
    U, V = _signal_panels(6, 40, 60, 400, (0.8,))
    U[3] = U[0] + U[1]
    panels["collinear"] = (U, V)
    U, V = _signal_panels(10, 40, 60, 400, (0.8,))
    U = _mixed(10, U, 8e3)  # equilibrated Gram condition ~9e3: the exact test decides
    _assert_guard_fallback(U)
    panels["guard_fallback"] = (U, V)
    U, V = _signal_panels(11, 20, 30, 200, (0.9,))
    U[0] *= 1e6  # raw Gram condition ~1e12
    panels["row_units"] = (U, V)
    # every correlation above the edge: the last spike's gap is to the edge
    panels["all_spikes"] = _signal_panels(20, 2, 3, 40, (0.95, 0.9))
    U, V = panels["desk"] = _signal_panels(7, 200, 300, 1600, (0.9, 0.7, 0.5))
    rng = np.random.default_rng(12)  # row scales log-uniform over 1e-3..1e3
    panels["desk_units"] = (U * 10.0 ** rng.uniform(-3.0, 3.0, (200, 1)),
                            V * 10.0 ** rng.uniform(-3.0, 3.0, (300, 1)))
    for name, (U, V) in panels.items():
        _write_panel(inputs / f"{name}_u.csv", U)
        _write_panel(inputs / f"{name}_v.csv", V)

    # CSV ingestion: the same two-spike panels in other layouts
    U, V = panels["two_spike"]
    for side, X in (("u", U), ("v", V)):
        names = [f"{side}{i + 1}" for i in range(X.shape[0])]
        _write_panel(inputs / f"labeled_{side}.csv", X, labels=names,
                     header=["name"] + [f"s{j + 1}" for j in range(X.shape[1])])
        _write_panel(inputs / f"samples_{side}.csv", X.T, header=names)
        _write_panel(inputs / f"crlf_{side}.csv", X, eol="\r\n")
        _write_panel(inputs / f"quoted_{side}.csv", X, quote='"')
    # the plain panels transposed without a header, and with a UTF-8
    # byte-order mark: both should give analyze_plain's outputs
    U, V = panels["plain"]
    for side, X in (("u", U), ("v", V)):
        _write_panel(inputs / f"samples_plain_{side}.csv", X.T)
        path = inputs / f"bom_{side}.csv"
        _write_panel(path, X)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    # labelled rows-are-samples panels with CRLF endings, several load_csv
    # chunks each, and the u panel with a non-numeric cell past its first chunk
    U, V = _signal_panels(19, 40, 60, 4000, (0.7,))
    samples = [f"t{j + 1}" for j in range(U.shape[1])]
    for side, X in (("u", U), ("v", V)):
        names = [f"{side}{i + 1}" for i in range(X.shape[0])]
        _write_panel(inputs / f"chunks_{side}.csv", X.T, header=["sample"] + names,
                     labels=samples, eol="\r\n")
    lines = (inputs / "chunks_u.csv").read_bytes().split(b"\r\n")
    cells = lines[3001].split(b",")
    cells[5] = b"abc"
    lines[3001] = b",".join(cells)
    (inputs / "err_late_cell.csv").write_bytes(b"\r\n".join(lines))
    # input errors: one bad cell or row in a small panel
    X = np.random.default_rng(8).standard_normal((5, 30))
    for name, cell in (("empty", ""), ("na", "na"), ("inf", "inf"), ("text", "abc")):
        lines = [",".join(repr(float(v)) for v in row) for row in X]
        cells = lines[2].split(",")
        cells[3] = cell
        lines[2] = ",".join(cells)
        (inputs / f"err_{name}.csv").write_text("\n".join(lines) + "\n")
    lines = [",".join(repr(float(v)) for v in row) for row in X]
    lines[3] += ",1.0"
    (inputs / "err_ragged.csv").write_text("\n".join(lines) + "\n")
    (inputs / "err_labels_only.csv").write_text("name\na\nb\nc\n")
    # a Latin-1 label, which is not UTF-8
    labels = ["caf\xe9"] + [f"v{i}" for i in range(1, len(X))]
    lines = [",".join([label] + [repr(float(v)) for v in row])
             for label, row in zip(labels, X)]
    (inputs / "err_not_utf8.csv").write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    _write_panel(inputs / "err_v.csv", np.random.default_rng(9).standard_normal((6, 30)))

    specs = {
        "single": "K = 40\nM = 60\nS = 400\nsignal_strengths = 0.8\n"
        "noise_law = student_t\nnoise_df = 5\nsignal_mode = iid-gaussian\n"
        "mix = true\nseed = 11\n",
        "mc": "K = 30\nM = 45\nS = 300\nsignal_strengths = 0.85, 0.6\n"
        "noise_law = uniform\nsignal_mode = iid-gaussian\nseed = 12\n"
        "replications = 8\n",
        "curve": "K = 20\nM = 40\nS = 200\nnoise_law = gaussian\n"
        "signal_mode = iid-gaussian\nseed = 13\nreplications = 4\n"
        "rho_grid = 0.3, 0.6, 0.9\n",
        # above simulate._PREFETCH_CELLS, so the next draw runs on the worker
        "mc_uniform": "K = 50\nM = 150\nS = 800\nsignal_strengths = 0.8\n"
        "noise_law = uniform\nsignal_mode = iid-nongaussian\nseed = 16\n"
        "replications = 6\n",
        "mc_student_t": "K = 50\nM = 150\nS = 800\nsignal_strengths = 0.8, 0.5\n"
        "noise_law = student_t\nnoise_df = 5\nsignal_mode = iid-gaussian\n"
        "seed = 17\nreplications = 6\n",
        "mc_mix": "K = 50\nM = 150\nS = 800\nsignal_strengths = 0.8\n"
        "noise_law = gaussian\nsignal_mode = iid-gaussian\nmix = true\nseed = 18\n"
        "replications = 6\n",
        "regime_single": "K = 50\nM = 60\nS = 100\nsignal_strengths = 0.8\n"
        "noise_law = gaussian\nsignal_mode = iid-gaussian\nseed = 14\n",
        "regime_mc": "K = 50\nM = 60\nS = 100\nsignal_strengths = 0.8\n"
        "noise_law = gaussian\nsignal_mode = iid-gaussian\nseed = 15\n"
        "replications = 3\n",
        "bad_value": "K = abc\nM = 60\nS = 400\n",
        # two signals need four orthonormal directions in R^S
        "rotated_small_s": "K = 3\nM = 4\nS = 2\nsignal_strengths = 0.5, 0.3\n"
        "signal_mode = rotated-pair\n",
        "key_twice": "K = 20\nM = 30\nS = 200\nK = 25\n",
        # what hdcca.io.write_sim_config writes for the desk preset
        "desk": "K = 200\nM = 300\nS = 1600\nsignal_strengths = 0.7\n"
        "noise_law = gaussian\nsignal_mode = iid-gaussian\nseed = 0\n"
        "replications = 50\n",
    }
    for name, line in BAD_VALUES.items():
        specs[name] = f"K = 5\nM = 25\nS = 80\n{line}\n"
    for name, text in specs.items():
        (inputs / f"{name}.cfg").write_text(text)


def runs():
    """(name, CLI arguments) of every run, inputs relative to the run directory."""
    def panel(name):
        return [f"../inputs/{name}_u.csv", f"../inputs/{name}_v.csv"]

    out = [
        ("analyze_plain", ["analyze", *panel("plain")]),
        ("analyze_swapped", ["analyze", *reversed(panel("plain"))]),
        ("analyze_two_spike", ["analyze", *panel("two_spike")]),
        ("analyze_gate_fail",
         ["analyze", *panel("plain"), "--gate-multiplier", "50"]),
        ("analyze_regime", ["analyze", *panel("regime")]),
        ("analyze_wide", ["analyze", *panel("wide"), "--no-demean"]),
        ("analyze_ill", ["analyze", *panel("ill")]),
        ("analyze_ill_mixed", ["analyze", *panel("ill_mixed")]),
        ("analyze_row_units", ["analyze", *panel("row_units")]),
        ("analyze_desk_units", ["analyze", *panel("desk_units")]),
        ("analyze_collinear", ["analyze", *panel("collinear")]),
        ("analyze_guard_fallback", ["analyze", *panel("guard_fallback")]),
        ("analyze_desk", ["analyze", *panel("desk")]),
        ("analyze_all_spikes", ["analyze", *panel("all_spikes")]),
        ("analyze_wide_demean", ["analyze", *panel("wide")]),
        ("analyze_no_demean", ["analyze", *panel("plain"), "--no-demean"]),
        ("csv_labeled", ["analyze", *panel("labeled")]),
        ("csv_samples", ["analyze", *panel("samples"),
                         "--orientation", "rows-are-samples"]),
        ("csv_samples_plain", ["analyze", *panel("samples_plain"),
                               "--orientation", "rows-are-samples"]),
        ("csv_bom", ["analyze", *panel("bom")]),
        ("csv_crlf", ["analyze", *panel("crlf")]),
        ("csv_quoted", ["analyze", *panel("quoted")]),
        ("csv_chunks", ["analyze", *panel("chunks"),
                        "--orientation", "rows-are-samples"]),
        ("csv_err_late_cell", ["analyze", "../inputs/err_late_cell.csv",
                               "../inputs/chunks_v.csv",
                               "--orientation", "rows-are-samples"]),
        ("sim_desk", ["simulate", "--preset", "desk", "--replications", "10"]),
        ("sim_fig8", ["simulate", "--preset", "fig8", "--replications", "20"]),
        ("sim_fig9", ["simulate", "--preset", "fig9", "--replications", "20"]),
        ("sim_fig1", ["simulate", "--preset", "fig1"]),
        ("sim_fig2", ["simulate", "--preset", "fig2"]),
        ("sim_fig7", ["simulate", "--preset", "fig7"]),
        ("sim_unknown", ["simulate", "--preset", "no-such-preset"]),
        ("sim_preset_and_spec",
         ["simulate", "--preset", "fig2", "--spec", "no-such-file.cfg"]),
        ("sim_replications_0", ["simulate", "--preset", "desk", "--replications", "0"]),
        ("sim_desk_replications_1",
         ["simulate", "--preset", "desk", "--replications", "1"]),
        ("sim_fig1_replications_2",
         ["simulate", "--preset", "fig1", "--replications", "2"]),
        ("sim_desk_replications_3",
         ["simulate", "--preset", "desk", "--replications", "3"]),
        ("spec_desk_replications_3",
         ["simulate", "--spec", "../inputs/desk.cfg", "--replications", "3"]),
        ("spec_key_twice", ["simulate", "--spec", "../inputs/key_twice.cfg"]),
        ("spec_single", ["simulate", "--spec", "../inputs/single.cfg"]),
        ("spec_single_seed",
         ["simulate", "--spec", "../inputs/single.cfg", "--seed", "21"]),
        ("spec_mc", ["simulate", "--spec", "../inputs/mc.cfg"]),
        ("spec_mc_uniform", ["simulate", "--spec", "../inputs/mc_uniform.cfg"]),
        ("spec_mc_student_t", ["simulate", "--spec", "../inputs/mc_student_t.cfg"]),
        ("spec_mc_mix", ["simulate", "--spec", "../inputs/mc_mix.cfg"]),
        ("spec_curve", ["simulate", "--spec", "../inputs/curve.cfg"]),
        ("spec_regime_single", ["simulate", "--spec", "../inputs/regime_single.cfg"]),
        ("spec_regime_mc", ["simulate", "--spec", "../inputs/regime_mc.cfg"]),
        ("spec_bad_value", ["simulate", "--spec", "../inputs/bad_value.cfg"]),
        ("spec_rotated_small_s",
         ["simulate", "--spec", "../inputs/rotated_small_s.cfg"]),
        ("csv_err_directory", ["analyze", "../inputs", "../inputs/err_v.csv"]),
        ("master_k1", ["master-check", "--dims", "1", "2", "10"]),
        ("master_k_above_m", ["master-check", "--dims", "5", "1", "20"]),
    ]
    for name in BAD_VALUES:
        out.append((f"spec_{name}", ["simulate", "--spec", f"../inputs/{name}.cfg"]))
    for name in ("empty", "na", "inf", "text", "ragged", "labels_only", "not_utf8"):
        out.append((f"csv_err_{name}",
                    ["analyze", f"../inputs/err_{name}.csv", "../inputs/err_v.csv"]))
    for seed in (0, 7, *range(34000, 34012)):
        out.append((f"master_{seed}", ["master-check", "--seed", str(seed)]))
    for seed in range(34000, 34012):
        out.append((f"master_150_{seed}",
                    ["master-check", "--dims", "150", "225", "1200", "--seed", str(seed)]))
    # roots near a noise pole (3041, 13045, 185) and a cancelled T2 (1032)
    for seed in (1032, 3041, 13045):
        out.append((f"master_150_{seed}",
                    ["master-check", "--dims", "150", "225", "1200", "--seed", str(seed)]))
    out.append(("master_60_185", ["master-check", "--dims", "60", "90", "480",
                                  "--seed", "185"]))
    return out


def environment():
    """The lines of ``environment.txt``: BLAS thread settings and libraries."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = [f"{var}={os.environ.get(var, '(unset)')}"
             for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
    lines += [f"numpy {np.__version__}", f"blas {blas['name']} {blas.get('version', '')}"]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="new directory for the results")
    parser.add_argument("--src", type=Path, required=True,
                        help="src directory of the hdcca tree to run")
    args = parser.parse_args(argv)
    if args.out.exists():
        parser.error(f"{args.out} exists")
    make_inputs(args.out / "inputs")
    (args.out / "environment.txt").write_text(environment())
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    for name, cli_args in runs():
        run_dir = args.out / name
        run_dir.mkdir()
        if cli_args[0] != "master-check":
            cli_args = [*cli_args, "--out-dir", "."]
        proc = subprocess.run(
            [sys.executable, "-m", "hdcca.cli", *cli_args],
            cwd=run_dir, env=env, capture_output=True, text=True,
        )
        (run_dir / "stdout.txt").write_text(proc.stdout)
        (run_dir / "stderr.txt").write_text(proc.stderr)
        (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
