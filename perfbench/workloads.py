"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up),
runs one operation in ``op`` (the timed part) and checks the outputs of all
operations in ``check``, after timing.  ``check`` returns one error string
per operation, or ``None`` where the operation's output is correct.  With
``perturb`` set, the first correlation each check reads is shifted by 1e-6
first, which every exact check must catch.

The program only ever sees the generated panels, CSV files and CLI
arguments; the seed stays in the benchmark.
"""

from __future__ import annotations

import contextlib
import csv
import io as stdio
import os
import re
import time
import traceback

import numpy as np

from hdcca import cli, inference, simulate, wachter
from hdcca import io as hio
from hdcca.simulate import SimSpec

PERTURBATION = 1e-6


class Ops:
    """Outputs, times and errors of the operations run so far."""

    def __init__(self):
        self.times: list[float] = []
        self.outputs: list = []        # None where the operation raised
        self.errors: list[str | None] = []

    def run(self, workload, seconds, tracer=None, tag="op", **kwargs):
        """Closed loop, one operation at a time, until ``seconds`` of them.

        At least one operation runs.  Returns the indices of those run.
        """
        spent = 0.0
        first = len(self.times)
        while not self.times[first:] or spent < seconds:
            i = len(self.times)
            if tracer:
                tracer.begin_op(f"{tag}{i}")
            t0 = time.perf_counter()
            try:
                out, err = workload.op(i, **kwargs), None
            except Exception:
                out, err = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            self.times.append(elapsed)
            self.outputs.append(out)
            self.errors.append(err)
            spent += elapsed
        return list(range(first, len(self.times)))

    def check(self, checker, idx, perturb, **kwargs):
        """Record the checker's verdict on the operations that returned."""
        done = [i for i in idx if self.outputs[i] is not None]
        try:
            errors = checker([self.outputs[i] for i in done], perturb, **kwargs)
        except Exception:
            errors = [traceback.format_exc(limit=3)] * len(done)
        for i, err in zip(done, errors):
            self.errors[i] = err

    @property
    def failed(self):
        return sum(e is not None for e in self.errors)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_cli(argv):
    """``hdcca.cli.main`` in-process, with its printed output captured."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def read_column(path, column):
    with open(path, newline="") as fh:
        return np.array([float(row[column]) for row in csv.DictReader(fh)])


def count_rows(path):
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.DictReader(fh))


def oracle_correlations(U, V):
    """Squared canonical correlations through SciPy's LAPACK bindings.

    Independent of the package's NumPy path: a thin QR of U^T, an R-only QR
    of V^T, and the singular values of Qu^T V^T Rv^-1, which are the cosines
    of the principal angles between the two row spaces.
    """
    import scipy.linalg as sl

    qu = sl.qr(U.T, mode="economic")[0]
    rv = sl.qr(V.T, mode="r")[0][: V.shape[0]]
    cross = sl.solve_triangular(rv, (qu.T @ V.T).T, trans="T").T
    return np.sort(sl.svdvals(cross) ** 2)[::-1]


def wachter_edge(K, M, S):
    """Upper bulk edge lambda_+ of the Wachter law, from its closed form."""
    tk, tm = K / S, M / S
    return (np.sqrt(tm * (1 - tk)) + np.sqrt(tk * (1 - tm))) ** 2


class AnalyzeFig1:
    """``analyze`` on fig1-size panels plus the five writers of ``cmd_analyze``."""

    def __init__(self, seed, small, work):
        self.dims = (100, 150, 800) if small else (1000, 1500, 8000)
        K, M, S = self.dims
        self.U, self.V, _ = simulate.gen_data(
            SimSpec(K=K, M=M, S=S, signal_strengths=(0.7,), seed=seed)
        )
        self.work = work

    def op(self, i):
        out = self.work / f"op{i}"
        out.mkdir()
        report = inference.analyze(self.U, self.V)
        hio.write_correlations_csv(out / "correlations.csv", report.correlations)
        hio.write_histogram_csv(out / "histogram.csv", report.histogram)
        hio.write_spikes_csv(out / "spikes.csv", report.spikes)
        if report.overlay is not None:
            hio.write_overlay_csv(out / "overlay.csv", report.overlay)
        hio.write_report_json(out / "report.json", report)
        return report.correlations.copy(), len(report.spikes), out

    def check(self, outputs, perturb):
        oracle = oracle_correlations(self.U, self.V)
        above = oracle > wachter_edge(*self.dims)
        expected = int(np.argmin(above)) if not above.all() else above.size
        errors = []
        for lam, n_spikes, out in outputs:
            if perturb:
                lam[0] += PERTURBATION
            err = float(np.max(np.abs(lam - oracle)))
            missing = [
                f for f in ("correlations.csv", "histogram.csv", "spikes.csv",
                            "overlay.csv", "report.json")
                if not (out / f).is_file()
            ]
            if err > 1e-10:
                errors.append(f"max |lambda - oracle| = {err:.3e} > 1e-10")
            elif n_spikes != expected or n_spikes < 1:
                errors.append(f"{n_spikes} spikes, oracle edge test gives {expected}")
            elif missing:
                errors.append(f"missing outputs {missing}")
            else:
                errors.append(None)
        return errors


# Acceptance-suite c07 bounds at desk size, r^2 = 0.49.
DESK_THETA_X, DESK_THETA_Y = 25.22, 28.39
DESK_FILES = ("theta_x_curve.csv", "theta_y_curve.csv", "mean_lambdas.csv")


class McDesk:
    """``hdcca simulate --preset desk`` with one worker per core."""

    def __init__(self, seed, small, work):
        self.argv = ["simulate", "--preset", "desk", "--seed", str(seed)]
        if small:
            self.argv += ["--replications", "4"]
        self.small = small
        self.work = work
        self.workers = nproc()
        os.environ["HDCCA_THREADS"] = str(self.workers)

    def op(self, i, workers=None):
        out = self.work / f"op{i}"
        previous = os.environ["HDCCA_THREADS"]
        os.environ["HDCCA_THREADS"] = str(workers or self.workers)
        try:
            code, _, err = run_cli(self.argv + ["--out-dir", str(out)])
        finally:
            os.environ["HDCCA_THREADS"] = previous
        return code, err, out

    def _numbers(self, out, perturb):
        lam = read_column(out / "mean_lambdas.csv", "lambda")
        if perturb:
            lam[0] += PERTURBATION
        tx = read_column(out / "theta_x_curve.csv", "theta_mean")
        ty = read_column(out / "theta_y_curve.csv", "theta_mean")
        return np.concatenate([lam, tx, ty]), lam[0], tx[0], ty[0]

    def check(self, outputs, perturb, serial=None):
        """``serial``: output of a 1-worker pass, which must match exactly."""
        z_rho = wachter.spike_prediction(
            0.49, wachter.regime_from_dims(200, 300, 1600)
        ).z_rho
        reference = None
        if serial is not None and serial[0] == 0:
            reference = self._numbers(serial[2], False)[0]
        errors = []
        for code, err, out in outputs:
            missing = [f for f in DESK_FILES if not (out / f).is_file()]
            if code != 0 or missing:
                errors.append(f"exit {code}, missing {missing}: {err.strip()}")
                continue
            values, lam1, tx, ty = self._numbers(out, perturb)
            if reference is None:
                reference = values
            if not np.array_equal(values, reference):
                errors.append("outputs differ from the first run or the 1-worker pass")
            elif not self.small and not (
                abs(lam1 - z_rho) < 0.01
                and abs(tx - DESK_THETA_X) < 1.5
                and abs(ty - DESK_THETA_Y) < 1.5
            ):
                errors.append(
                    f"c07 bound missed: lambda_1 {lam1:.4f} (theory {z_rho:.4f}), "
                    f"theta ({tx:.2f}, {ty:.2f})"
                )
            else:
                errors.append(None)
        return errors


_MASTER_PATTERNS = {
    "roots": r"root count: (\d+)",
    "root_err": r"correlation\| = (\S+)",
    "interlacing": r"interlacing: (\w+)",
    "vec_err": r"measured cosine\| = (\S+)",
}


class MasterK150:
    """``hdcca master-check`` at K=150: the exact secular solver (part of ``cli-desk``).

    The solver's cost depends on the instance: a few seeds take nearly three
    times as long as the rest.  So operation ``i`` checks instance seed
    ``1000 * seed + i``, and a run's median covers many instances instead of
    one.
    """

    def __init__(self, seed, small, work):
        self.K = 20 if small else 150
        dims = (20, 30, 160) if small else (150, 225, 1200)
        self.argv = ["master-check", "--dims", *map(str, dims)]
        self.seed = seed

    def op(self, i):
        return run_cli(self.argv + ["--seed", str(1000 * self.seed + i)])

    def check(self, outputs, perturb):
        errors = []
        for code, text, err in outputs:
            found = {k: re.search(p, text) for k, p in _MASTER_PATTERNS.items()}
            if code != 0 or not all(found.values()):
                errors.append(f"exit {code}: {err.strip()}")
                continue
            roots = int(found["roots"].group(1))
            root_err = float(found["root_err"].group(1))
            vec_err = float(found["vec_err"].group(1))
            if perturb:
                root_err += PERTURBATION
            if roots != self.K or root_err > 1e-9 or vec_err > 1e-8:
                errors.append(
                    f"roots {roots}, root error {root_err:.3e}, "
                    f"vector error {vec_err:.3e}"
                )
            elif found["interlacing"].group(1) != "ok":
                errors.append("interlacing violated")
            else:
                errors.append(None)
        return errors


class CsvAnalyzeDesk:
    """``hdcca analyze u.csv v.csv`` on desk-size panels with three signals (part of ``cli-desk``)."""

    def __init__(self, seed, small, work):
        K, M, S = (40, 60, 320) if small else (200, 300, 1600)
        self.U, self.V, _ = simulate.gen_data(
            SimSpec(K=K, M=M, S=S, signal_strengths=(0.95, 0.75, 0.7), seed=seed)
        )
        self.paths = [str(work / "u.csv"), str(work / "v.csv")]
        for path, panel in zip(self.paths, (self.U, self.V)):
            np.savetxt(path, panel, fmt="%.17g", delimiter=",")
        self.work = work

    def op(self, i):
        out = self.work / f"op{i}"
        code, text, err = run_cli(["analyze", *self.paths, "--out-dir", str(out)])
        return code, text, err, out

    def check(self, outputs, perturb):
        ref = inference.analyze(
            self.U - self.U.mean(axis=1, keepdims=True),
            self.V - self.V.mean(axis=1, keepdims=True),
        )
        ref_notes = [f"note: {n}" for n in ref.notes]
        errors = []
        for code, text, err, out in outputs:
            if code != 0:
                errors.append(f"exit {code}: {err.strip()}")
                continue
            lam = read_column(out / "correlations.csv", "lambda")
            if perturb:
                lam[0] += PERTURBATION
            diff = float(np.max(np.abs(lam - ref.correlations)))
            rows = count_rows(out / "spikes.csv")
            notes = [line for line in text.splitlines() if line.startswith("note: ")]
            if diff > 1e-12:
                errors.append(f"max |correlations.csv - analyze| = {diff:.3e} > 1e-12")
            elif rows != len(ref.spikes) or rows < 3:
                errors.append(f"spikes.csv has {rows} rows, analyze finds {len(ref.spikes)}")
            elif notes != ref_notes:
                errors.append(f"notes {notes} differ from analyze's {ref_notes}")
            else:
                errors.append(None)
        return errors


class CliDesk:
    """A short CLI session: ``hdcca analyze`` on the CSV panels, then ``master-check``.

    Each command alone takes one to two seconds of mostly single-threaded
    Python, whose speed on a shared machine drifts by about 20% over tens of
    seconds.  One workload for both leaves the time budget room for longer
    runs, and the traced run still splits ``io.load_csv`` from ``master``.
    """

    def __init__(self, seed, small, work):
        self.csv = CsvAnalyzeDesk(seed, small, work)
        self.master = MasterK150(seed, small, work)

    def op(self, i):
        return self.csv.op(i), self.master.op(i)

    def check(self, outputs, perturb):
        csv_errors = self.csv.check([o[0] for o in outputs], perturb)
        master_errors = self.master.check([o[1] for o in outputs], perturb)
        return ["; ".join(filter(None, pair)) or None
                for pair in zip(csv_errors, master_errors)]


WORKLOADS = {
    "analyze-fig1": AnalyzeFig1,
    "mc-desk": McDesk,
    "cli-desk": CliDesk,
}
