import csv
import json
import math
import tracemalloc
import warnings
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hdcca import io as hio
from hdcca import linalg, simulate
from hdcca import cli
from hdcca.cli import PRESETS, main, master_check
from hdcca.errors import MissingValue, ParseError, ShapeMismatch, SpecError
from hdcca.io import (
    SPIKE_COLUMNS,
    check_joint_samples,
    fmt,
    load_csv,
    parse_sim_config,
    write_sim_config,
)
from hdcca.simulate import SimSpec, gen_data, mc_angles


def write_matrix_csv(path, values, header=None, labels=None):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        for i, row in enumerate(values):
            out = [labels[i]] if labels else []
            writer.writerow(out + [repr(float(v)) for v in row])


def constructed_panel(correlations_sq, K, M, S):
    """Pair of panels whose squared sample correlations are exactly the
    prescribed list: orthonormal rows with pairwise cosines sqrt(lambda)."""
    lam = np.asarray(correlations_sq, dtype=float)
    U = np.zeros((K, S))
    V = np.zeros((M, S))
    for i in range(K):
        U[i, i] = 1.0
        V[i, i] = np.sqrt(lam[i])
        V[i, K + i] = np.sqrt(1.0 - lam[i])
    for j in range(K, M):
        V[j, 2 * K + (j - K)] = 1.0
    return U, V


LIMESTONE = np.array([0.83, 0.52, 0.36, 0.11, 0.09, 0.04])


class TestLoadCsv:
    def test_header_and_labels(self, tmp_path):
        p = tmp_path / "m.csv"
        values = np.arange(15.0).reshape(3, 5)
        write_matrix_csv(
            p, values, header=["name", "s1", "s2", "s3", "s4", "s5"],
            labels=["a", "b", "c"],
        )
        dm = load_csv(p, demean=False)
        assert dm.values.shape == (3, 5)
        assert np.array_equal(dm.values, values)

    def test_plain_numeric(self, tmp_path):
        p = tmp_path / "m.csv"
        write_matrix_csv(p, np.ones((2, 4)))
        dm = load_csv(p, demean=False)
        assert dm.values.shape == (2, 4)
        assert np.array_equal(dm.values, np.ones((2, 4)))

    def test_demean(self, tmp_path):
        p = tmp_path / "m.csv"
        rng = np.random.default_rng(0)
        write_matrix_csv(p, rng.normal(5.0, 1.0, (3, 40)))
        dm = load_csv(p, demean=True)
        assert dm.values.shape == (3, 40)
        assert np.max(np.abs(dm.values.sum(axis=1))) < 1e-10

    def test_rows_are_samples(self, tmp_path):
        p = tmp_path / "m.csv"
        values = np.arange(12.0).reshape(4, 3)  # 4 samples of 3 variables
        write_matrix_csv(p, values, header=["x", "y", "z"])
        dm = load_csv(p, orientation="rows-are-samples", demean=False)
        assert dm.values.shape == (3, 4)
        assert np.array_equal(dm.values, values.T)

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet programs start UTF-8 files with a BOM; it is not a label
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbf1.5,2.5\n3.5,4.5\n")
        expected = np.array([[1.5, 2.5], [3.5, 4.5]])
        dm = load_csv(p, demean=False)
        assert dm.values.shape == (2, 2)
        assert np.array_equal(dm.values, expected)
        dm = load_csv(p, orientation="rows-are-samples", demean=False)
        assert np.array_equal(dm.values, expected.T)

    def test_orientations_give_identical_values(self, tmp_path):
        rng = np.random.default_rng(15)
        X = rng.normal(3.0, 1.0, (7, 101))
        write_matrix_csv(tmp_path / "vars.csv", X)
        write_matrix_csv(tmp_path / "samples.csv", X.T)
        for demean in (True, False):
            by_vars = load_csv(tmp_path / "vars.csv", demean=demean).values
            by_samples = load_csv(
                tmp_path / "samples.csv", orientation="rows-are-samples", demean=demean
            ).values
            assert np.array_equal(by_vars, by_samples)

    def test_missing_value(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1.0,2.0\n3.0,\n")
        with pytest.raises(MissingValue) as info:
            load_csv(p)
        assert info.value.row == 2 and info.value.column == 2

    def test_parse_error_location(self, tmp_path):
        p = tmp_path / "m.csv"
        for cell in ("oops", "inf", "-inf", "infinity", "1e999"):
            p.write_text(f"1.0,2.0\n3.0,{cell}\n")
            with pytest.raises(ParseError) as info:
                load_csv(p)
            assert info.value.row == 2 and info.value.column == 2, cell

    def test_labels_without_samples(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("name\na\nb\n")
        for orientation in ("rows-are-variables", "rows-are-samples"):
            with pytest.raises(ParseError):
                load_csv(p, orientation=orientation)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes("caf\xe9,1.0,2.0\nbar,3.0,4.0\n".encode("latin-1"))
        with pytest.raises(ParseError, match="m.csv is not UTF-8"):
            load_csv(p)

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1.0,2.0\n3.0,4.0,5.0\n")
        with pytest.raises(ParseError):
            load_csv(p)

    def test_shape_mismatch_at_analysis(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix_csv(a, np.ones((2, 5)))
        write_matrix_csv(b, np.ones((2, 6)))
        with pytest.raises(ShapeMismatch):
            check_joint_samples(load_csv(a), load_csv(b))


def load_outcome(path, orientation="rows-are-variables", *, fast=True):
    """What ``load_csv`` gives without de-meaning: the values' bytes and
    shape, or the error's type, location and message.  ``fast=False`` turns
    the vectorised parse off, leaving the per-cell loop alone."""
    off = mock.patch.object(hio, "_parse_block", return_value=None)
    with nullcontext() if fast else off:
        try:
            dm = load_csv(path, orientation=orientation, demean=False)
        except ParseError as exc:
            return type(exc), exc.row, exc.column, str(exc)
    return dm.values.tobytes(), dm.values.shape


_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e3, 1e3).map(lambda x: f" {x:.6e}\t"),
)
_BAD_CELLS = st.sampled_from(
    ["", " ", "na", "NA", "nan", "-NaN", "inf", "-inf", "Infinity", "1e999",
     "1_0", "abc", "#1", '"1"', '"1,5"', "0x10", "1 2", "\u0661"]
)


@st.composite
def csv_texts(draw):
    """CSV text of a small grid, some with labels, a header, blank lines, a
    ragged row, bad cells and any of the three line endings."""
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    grid = [[draw(_GOOD_CELLS) for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 2))):
        grid[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, n_cols - 1))] = (
            draw(_BAD_CELLS)
        )
    if draw(st.booleans()):
        r = draw(st.integers(0, n_rows - 1))
        grid[r] = grid[r] + ["1"] if draw(st.booleans()) else grid[r][:-1]
    labeled = draw(st.booleans())
    q, pad = draw(st.sampled_from(["", '"'])), draw(st.sampled_from(["", " "]))
    lines = [",".join([f"{q}{pad}v{i}{q}"] * labeled + row)
             for i, row in enumerate(grid)]
    if draw(st.booleans()):
        names = ["name"] * labeled + [f"s{j}" for j in range(n_cols)]
        lines.insert(0, ",".join(f"{q}{name}{pad}{q}" for name in names))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "  ", ",,", "\t,"])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


class TestLoadCsvFastPath:
    """The vectorised parse against the per-cell loop it falls back to."""

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=csv_texts(), orientation=st.sampled_from(
        ["rows-are-variables", "rows-are-samples"]),
        chunk=st.sampled_from([1, 12, hio._CHUNK_BYTES]))
    def test_matches_cell_loop(self, tmp_path, text, orientation, chunk):
        p = tmp_path / "grid.csv"
        p.write_bytes(text.encode())
        with mock.patch.object(hio, "_CHUNK_BYTES", chunk):
            fast = load_outcome(p, orientation)
        assert fast == load_outcome(p, orientation, fast=False)

    @pytest.mark.parametrize("text, orientation, expected", [
        ("1,2\n#1,4\n", "rows-are-variables", (ParseError, 2, 1)),
        ("1,2\n  \n3,4\n", "rows-are-variables", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\n,,\n3,4\n", "rows-are-variables", [[1.0, 2.0], [3.0, 4.0]]),
        ('"1",2\n3,"4"\n', "rows-are-variables", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,1_0\n3,4\n", "rows-are-variables", [[1.0, 10.0], [3.0, 4.0]]),
        ("1,2\n3,nan\n", "rows-are-variables", (MissingValue, 2, 2)),
        ("1,inf\n3,4\n", "rows-are-variables", (ParseError, 1, 2)),
        ("1,2\n3,infinity\n", "rows-are-variables", (ParseError, 2, 2)),
        ("1,2\r\n3,4\r\n", "rows-are-variables", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\r3,4\r", "rows-are-variables", [[1.0, 2.0], [3.0, 4.0]]),
        ("a,1,2\nb,3,4,5\n", "rows-are-variables", (ParseError, 2, None)),
        ("a,1,2\nb\n", "rows-are-variables", (ParseError, 2, None)),
        ("name,s1,s2\na,1,2\nb,3,4\n", "rows-are-variables", [[1.0, 2.0], [3.0, 4.0]]),
        ("x,y\n1,2\n3,4\n5,6\n", "rows-are-samples", [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]),
        (',,\n"x","y"\n1,2\n3,4\n', "rows-are-samples", [[1.0, 3.0], [2.0, 4.0]]),
        (",,\n1,2\n3,4\n", "rows-are-samples", [[1.0, 3.0], [2.0, 4.0]]),
        ('"a",1,2\n"b",3,4\n', "rows-are-variables", [[1.0, 2.0], [3.0, 4.0]]),
    ])
    def test_cases(self, tmp_path, text, orientation, expected):
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode())
        outcome = load_outcome(p, orientation)
        assert outcome == load_outcome(p, orientation, fast=False)
        if isinstance(expected, tuple):
            assert outcome[:3] == expected
            return
        dm = load_csv(p, orientation=orientation, demean=False)
        assert dm.values.tolist() == expected
        assert dm.values.shape == (len(expected), len(expected[0]))

    def test_label_only_row_in_later_chunk(self, tmp_path, monkeypatch):
        # the second chunk's numeric block is empty: no np.loadtxt warning
        monkeypatch.setattr(hio, "_CHUNK_BYTES", 8)
        p = tmp_path / "m.csv"
        p.write_text("a,1,2\nb,3,4\nc\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="row 3 has 0 cells, expected 2"):
                load_csv(p)

    def test_panel_held_once(self, tmp_path, monkeypatch):
        # the chunks' rows go into one buffer sized from the file: the traced
        # peak stays below 1.5 panels and one chunk, where the chunks' blocks
        # and their concatenation held the panel twice
        monkeypatch.setattr(hio, "_CHUNK_BYTES", 1 << 16)
        values = np.random.default_rng(9).standard_normal((1000, 200))
        p = tmp_path / "m.csv"
        p.write_text("".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
        assert p.stat().st_size > 50 * hio._CHUNK_BYTES
        tracemalloc.start()
        try:
            dm = load_csv(p, demean=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(dm.values, values)
        assert peak <= 1.5 * values.nbytes + hio._CHUNK_BYTES, peak / values.nbytes

    def test_rows_beyond_first_estimate(self, tmp_path, monkeypatch):
        # long lines first: the buffer sized from the first chunk falls short
        # and grows in place, keeping every row and bit
        monkeypatch.setattr(hio, "_CHUNK_BYTES", 64)
        values = np.random.default_rng(10).standard_normal((40, 3))
        values[10:] = np.round(values[10:], 1)
        lines = [",".join(map(repr, row)) + "\n" for row in values.tolist()]
        p = tmp_path / "m.csv"
        p.write_text("".join(lines))
        # the first chunk is one line, whose length sizes the buffer
        assert p.stat().st_size // len(lines[0]) + 1 < len(lines)
        dm = load_csv(p, demean=False)
        assert dm.values.tobytes() == values.tobytes()

    def test_clean_file_skips_cell_loop(self, tmp_path, monkeypatch):
        def per_cell(*args):
            raise AssertionError("a clean file was parsed cell by cell")

        monkeypatch.setattr(hio, "_parse_cell", per_cell)
        rng = np.random.default_rng(8)
        values = rng.standard_normal((4, 30))
        p = tmp_path / "m.csv"
        write_matrix_csv(p, values, header=["name"] + [f"s{j}" for j in range(30)],
                         labels=list("abcd"))
        dm = load_csv(p, demean=False)
        assert dm.values.shape == (4, 30)
        assert np.array_equal(dm.values, values)


def panel_text(X, *, header=False, labeled=False, eol="\n"):
    """CSV text of X at full precision, with an optional header line and
    label column."""
    lines = [",".join(["name"] * labeled + [f"s{j}" for j in range(X.shape[1])])
             ] if header else []
    lines += [",".join([f"r{i}"] * labeled + [repr(float(v)) for v in row])
              for i, row in enumerate(X)]
    return eol.join(lines) + eol


class TestLoadCsvChunks:
    """``load_csv`` with chunks of a few lines or one: where the chunks
    break must show in neither the values nor the errors."""

    @pytest.mark.parametrize("chunk", [1, 200])
    @pytest.mark.parametrize("orientation", ["rows-are-variables", "rows-are-samples"])
    @pytest.mark.parametrize("header, labeled, eol", [
        (False, False, "\n"), (True, True, "\n"), (True, False, "\r\n"),
        (False, True, "\r\n"),
    ])
    def test_matches_cell_loop(self, tmp_path, monkeypatch, chunk, orientation,
                               header, labeled, eol):
        X = np.random.default_rng(21).standard_normal((40, 9))
        text = panel_text(X, header=header, labeled=labeled, eol=eol)
        lines = text.split(eol)
        lines.insert(25, ",,")  # a blank row inside a later chunk
        p = tmp_path / "m.csv"
        p.write_bytes(eol.join(lines).encode())
        expected = load_outcome(p, orientation, fast=False)

        def per_cell(*args):
            raise AssertionError("a clean file was parsed cell by cell")

        loadtxt, calls = np.loadtxt, []

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(hio, "_CHUNK_BYTES", chunk)
        monkeypatch.setattr(hio, "_parse_cell", per_cell)
        monkeypatch.setattr(hio.np, "loadtxt", counting)
        assert load_outcome(p, orientation) == expected
        assert sum(calls) == 40 and len(calls) >= 5
        # the label column and the header are skipped, not read as numbers
        values = X if orientation == "rows-are-variables" else X.T
        assert expected == (values.tobytes(), values.shape)

    @pytest.mark.parametrize("edit, expected", [
        (("cell", "abc"), (ParseError, 31, 4)),
        (("cell", ""), (MissingValue, 31, 4)),
        (("cell", "inf"), (ParseError, 31, 4)),
        (("cell", '"0.5"'), None),
        (("ragged", ",1.0"), (ParseError, 36, None)),
        (("ragged", ""), (ParseError, 36, None)),
    ])
    @pytest.mark.parametrize("labeled", [False, True])
    def test_error_in_later_chunk(self, tmp_path, monkeypatch, edit, expected, labeled):
        X = np.random.default_rng(22).standard_normal((40, 6))
        lines = panel_text(X, labeled=labeled).splitlines()
        kind, text = edit
        if kind == "cell":
            cells = lines[30].split(",")
            cells[3 + labeled] = text
            lines[30] = ",".join(cells)
        else:
            lines[35] = lines[35].rpartition(",")[0] if not text else lines[35] + text
        p = tmp_path / "m.csv"
        p.write_text("\n".join(lines) + "\n")
        reference = load_outcome(p, fast=False)
        monkeypatch.setattr(hio, "_CHUNK_BYTES", 300)
        outcome = load_outcome(p)
        assert outcome == reference
        if expected is None:
            X[30, 3] = 0.5
            assert outcome[0] == X.tobytes()
        else:
            assert outcome[:3] == expected

    def test_not_utf8_in_later_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hio, "_CHUNK_BYTES", 300)
        lines = panel_text(np.ones((40, 6))).splitlines()
        p = tmp_path / "m.csv"
        p.write_bytes(("\n".join(lines) + "\n").encode() + b"\xff,1.0\n")
        with pytest.raises(ParseError, match="m.csv is not UTF-8"):
            load_csv(p)
        # a bad cell before the bad byte: the file is still not UTF-8 first
        lines[2] = "abc" + lines[2]
        p.write_bytes(("\n".join(lines) + "\n").encode() + b"\xff,1.0\n")
        with pytest.raises(ParseError, match="m.csv is not UTF-8"):
            load_csv(p)

    @pytest.mark.parametrize("text, message", [
        ("", "is empty"),
        ("\n,,\n  \n", "is empty"),
        ("name,s1,s2\n", "has a header but no data"),
        ("\nname,s1,s2\n,,\n\n", "has a header but no data"),
        ("name\na\nb\nc\n", "has labels but no numeric columns"),
        ("a\nb\n", "has labels but no numeric columns"),
    ])
    def test_files_without_data(self, tmp_path, monkeypatch, text, message):
        monkeypatch.setattr(hio, "_CHUNK_BYTES", 1)
        p = tmp_path / "m.csv"
        p.write_text(text)
        for orientation in ("rows-are-variables", "rows-are-samples"):
            with pytest.raises(ParseError, match=f"m.csv {message}$"):
                load_csv(p, orientation=orientation)


class TestSimConfig:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "spec.cfg"
        spec = SimSpec(
            K=20, M=30, S=200, signal_strengths=(0.8, 0.5),
            noise_law="student_t", noise_df=5.0, seed=7,
        )
        write_sim_config(p, spec, extras={"replications": 12})
        loaded, extras = parse_sim_config(p)
        assert loaded == spec
        assert extras == {"replications": 12}

    def test_comments_and_unknown_keys(self, tmp_path):
        p = tmp_path / "spec.cfg"
        p.write_text("K = 5\nM = 6\nS = 50  # samples\n")
        spec, _ = parse_sim_config(p)
        assert (spec.K, spec.M, spec.S) == (5, 6, 50)
        for bad in ("bogus = 1", "K = abc", "replications = x", "replications = 0",
                    "mix = maybe", "signal_strengths = 0.5, x", "noise_df = five"):
            p.write_text(f"K = 5\nM = 6\nS = 50\n{bad}\n")
            with pytest.raises(SpecError, match="line 4: "):
                parse_sim_config(p)

    def test_key_set_twice(self, tmp_path):
        p = tmp_path / "spec.cfg"
        p.write_text("K = 20\nM = 30\nS = 200\n\nK = 25\n")
        with pytest.raises(SpecError, match="line 5: 'K' already set on line 1"):
            parse_sim_config(p)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "spec.cfg"
        p.write_bytes("K = 5\nM = 6\nS = 50\nnoise_law = caf\xe9\n".encode("latin-1"))
        with pytest.raises(SpecError, match="spec.cfg is not UTF-8"):
            parse_sim_config(p)

    def test_flag_spellings(self, tmp_path):
        p = tmp_path / "spec.cfg"
        for value, expected in (("true", True), ("Yes", True), ("on", True), ("1", True),
                                ("false", False), ("No", False), ("off", False),
                                ("0", False)):
            p.write_text(f"K = 5\nM = 6\nS = 50\nmix = {value}\n")
            assert parse_sim_config(p)[0].mix is expected, value


class TestCliAnalyze:
    def run_panels(self, tmp_path, U, V, *extra):
        u_csv, v_csv = tmp_path / "u.csv", tmp_path / "v.csv"
        write_matrix_csv(u_csv, U)
        write_matrix_csv(v_csv, V)
        out = tmp_path / "out"
        return main(
            ["analyze", str(u_csv), str(v_csv), "--no-demean",
             "--out-dir", str(out), *extra]
        ), out

    def test_limestone_shaped_inputs(self, tmp_path, capsys):
        U, V = constructed_panel(LIMESTONE, 6, 8, 45)
        code, out = self.run_panels(tmp_path, U, V)
        assert code == 0
        with (out / "spikes.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert tuple(rows[0].keys()) == SPIKE_COLUMNS
        assert float(rows[0]["rho_sq"]) == pytest.approx(0.75, abs=0.01)
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert len(report["empirical_spikes"]) == 1
        for spike in report["spikes"] + report["empirical_spikes"]:
            assert set(spike) == {*SPIKE_COLUMNS, "gap"}
        with (out / "histogram.csv").open() as fh:
            hist = list(csv.DictReader(fh))
        assert sum(int(r["count"]) for r in hist) == 5  # non-spike correlations

    def test_orientations_write_identical_report(self, tmp_path):
        rng = np.random.default_rng(16)
        U = rng.normal(2.0, 1.0, (20, 200))
        V = rng.normal(-1.0, 1.0, (30, 200))
        V[0] += 2.0 * U[0]
        paths = {}
        for orientation, transpose in (("rows-are-variables", False),
                                       ("rows-are-samples", True)):
            d = tmp_path / orientation
            d.mkdir()
            for name, X in (("u", U), ("v", V)):
                write_matrix_csv(d / f"{name}.csv", X.T if transpose else X)
            assert main(["analyze", str(d / "u.csv"), str(d / "v.csv"),
                         "--orientation", orientation, "--out-dir", str(d)]) == 0
            paths[orientation] = d / "report.json"
        assert (paths["rows-are-variables"].read_bytes()
                == paths["rows-are-samples"].read_bytes())

    def test_noise_only_empty_table(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        U, V = rng.standard_normal((20, 200)), rng.standard_normal((30, 200))
        code, out = self.run_panels(tmp_path, U, V)
        assert code == 0
        with (out / "spikes.csv").open() as fh:
            assert list(csv.DictReader(fh)) == []
        assert "no correlations above the bulk edge" in capsys.readouterr().out

    def test_file_set(self, tmp_path):
        # one file set: overlay.csv inside the dimension regime only
        tables = {"correlations.csv", "histogram.csv", "report.json", "spikes.csv"}
        rng = np.random.default_rng(2)
        (tmp_path / "ok").mkdir()
        U, V = rng.standard_normal((5, 60)), rng.standard_normal((6, 60))
        code, out = self.run_panels(tmp_path / "ok", U, V)
        assert code == 0
        assert {p.name for p in out.iterdir()} == tables | {"overlay.csv"}
        (tmp_path / "regime").mkdir()
        U, V = rng.standard_normal((10, 25)), rng.standard_normal((20, 25))
        code, out = self.run_panels(tmp_path / "regime", U, V)
        assert code == 3
        assert {p.name for p in out.iterdir()} == tables

    @pytest.mark.parametrize("argv", [
        ["analyze", "u.csv", "v.csv", "--format", "json"],
        ["analyze", "u.csv", "v.csv", "--pca"],
        ["analyze", "u.csv", "v.csv", "--empirical-rows"],
        ["analyze", "u.csv", "v.csv", "--bins", "10"],
        ["pca", "u.csv"],
    ], ids=["format", "pca-flag", "empirical-rows", "bins", "pca-command"])
    def test_removed_options_exit_2(self, tmp_path, monkeypatch, argv):
        rng = np.random.default_rng(2)
        write_matrix_csv(tmp_path / "u.csv", rng.standard_normal((5, 60)))
        write_matrix_csv(tmp_path / "v.csv", rng.standard_normal((6, 60)))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out-dir", "out"])
        assert info.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_regime_violation_exit_3(self, tmp_path):
        rng = np.random.default_rng(3)
        U, V = rng.standard_normal((10, 25)), rng.standard_normal((20, 25))
        code, _ = self.run_panels(tmp_path, U, V)
        assert code == 3
        # more rows than samples: a singular Gram matrix, still not exit 4
        (tmp_path / "wide").mkdir()
        U = rng.standard_normal((30, 20))
        code, _ = self.run_panels(tmp_path / "wide", U, V[:5, :20])
        assert code == 3

    def test_missing_file_exit_2(self, tmp_path):
        code = main(["analyze", str(tmp_path / "no.csv"), str(tmp_path / "no2.csv")])
        assert code == 2

    def test_unreadable_inputs_exit_2(self, tmp_path, capsys):
        v_csv = tmp_path / "v.csv"
        write_matrix_csv(v_csv, np.ones((2, 5)))
        assert main(["analyze", str(tmp_path), str(v_csv)]) == 2
        u_csv = tmp_path / "u.csv"
        u_csv.write_bytes(b"1.0,2.0,3.0,4.0,5.0\n\xff,1.0,2.0,3.0,4.0\n")
        assert main(["analyze", str(u_csv), str(v_csv)]) == 2
        assert "u.csv is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("multiplier", ["nan", "inf", "0", "-1", "x"])
    def test_bad_gate_multiplier_exit_2(self, tmp_path, multiplier):
        rng = np.random.default_rng(2)
        U, V = rng.standard_normal((5, 60)), rng.standard_normal((6, 60))
        with pytest.raises(SystemExit) as info:
            self.run_panels(tmp_path, U, V, "--gate-multiplier", multiplier)
        assert info.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_mismatched_samples_exit_2(self, tmp_path):
        u_csv, v_csv = tmp_path / "u.csv", tmp_path / "v.csv"
        write_matrix_csv(u_csv, np.ones((2, 5)))
        write_matrix_csv(v_csv, np.ones((2, 6)))
        assert main(["analyze", str(u_csv), str(v_csv)]) == 2

    def test_non_finite_cell_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        U, V = rng.standard_normal((4, 50)), rng.standard_normal((5, 50))
        U[2, 7] = np.inf
        code, _ = self.run_panels(tmp_path, U, V)
        assert code == 2
        assert "row 3, column 8" in capsys.readouterr().err

    def test_label_only_panel_exit_2(self, tmp_path):
        u_csv, v_csv = tmp_path / "u.csv", tmp_path / "v.csv"
        u_csv.write_text("a\nb\nc\n")
        write_matrix_csv(v_csv, np.ones((2, 5)))
        assert main(["analyze", str(u_csv), str(v_csv)]) == 2

    def test_demean_at_load_removes_row_means(self, tmp_path):
        # only load_csv de-means: shifted rows give the correlations of the
        # unshifted panels, unless --no-demean keeps the shift
        U, V, _ = gen_data(SimSpec(K=30, M=40, S=300, signal_strengths=(0.8,), seed=20))

        def correlations(name, U, V, *flags):
            out = tmp_path / name
            out.mkdir()
            write_matrix_csv(out / "u.csv", U)
            write_matrix_csv(out / "v.csv", V)
            assert main(["analyze", str(out / "u.csv"), str(out / "v.csv"), *flags,
                         "--out-dir", str(out)]) == 0
            return np.array(json.loads((out / "report.json").read_text())["correlations"])

        base = correlations("base", U, V)
        shifted = correlations("shifted", U + 7.0, V - 4.0)
        kept = correlations("kept", U + 7.0, V - 4.0, "--no-demean")
        assert np.max(np.abs(shifted - base)) < 1e-10
        assert np.max(np.abs(kept - base)) > 1e-10

    def test_wide_panel_exit_3_with_or_without_demean(self, tmp_path, capsys):
        # de-meaning cuts a 30 x 20 panel's rank to 19: still a regime
        # violation, not a numerical failure
        rng = np.random.default_rng(4)
        u_csv, v_csv = tmp_path / "u.csv", tmp_path / "v.csv"
        write_matrix_csv(u_csv, rng.standard_normal((30, 20)))
        write_matrix_csv(v_csv, rng.standard_normal((5, 20)))
        for flag in ("--demean", "--no-demean"):
            code = main(["analyze", str(u_csv), str(v_csv), flag,
                         "--out-dir", str(tmp_path / flag)])
            assert code == 3, flag
            out = capsys.readouterr().out
            assert "dimension regime violated: M=30 >= S=20" in out, flag
            report = json.loads((tmp_path / flag / "report.json").read_text())
            assert report["correlations"] == pytest.approx([1.0] * 5, abs=1e-12)

    def test_regime_violation_prints_no_edge(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        U, V = rng.standard_normal((10, 25)), rng.standard_normal((20, 25))
        code, _ = self.run_panels(tmp_path, U, V)
        assert code == 3
        out = capsys.readouterr().out
        assert "nan" not in out
        assert out.startswith("no spike detection: the bulk edge is undefined")

    def test_row_in_other_units(self, tmp_path):
        # canonical correlations ignore a row's units: one U row times 1e6
        # (raw Gram condition ~1e12) gives the unscaled panels' spikes
        U, V, _ = gen_data(SimSpec(K=20, M=30, S=200, signal_strengths=(0.9,), seed=3))
        spikes = []
        for scale in (1.0, 1e6):
            U[0] *= scale
            (tmp_path / str(scale)).mkdir()
            code, out = self.run_panels(tmp_path / str(scale), U, V)
            assert code == 0
            with (out / "spikes.csv").open() as fh:
                spikes.append(list(csv.DictReader(fh)))
        assert len(spikes[0]) == 1
        for row, ref in zip(spikes[1], spikes[0], strict=True):
            for column in SPIKE_COLUMNS:
                if column in ("method", "gate_passed"):
                    assert row[column] == ref[column]
                else:
                    assert float(row[column]) == pytest.approx(float(ref[column]), rel=1e-10)

    def test_collinear_rows_exit_4(self, tmp_path):
        rng = np.random.default_rng(5)
        U = rng.standard_normal((4, 50))
        U[3] = 2.0 * U[0] - U[1]
        V = rng.standard_normal((5, 50))
        code, _ = self.run_panels(tmp_path, U, V)
        assert code == 4


class TestCliSimulate:
    def test_spec_file_single_run(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        write_sim_config(
            cfg, SimSpec(K=20, M=30, S=200, signal_strengths=(0.9,), seed=3)
        )
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(cfg), "--out-dir", str(out)]) == 0
        for name in ("correlations.csv", "histogram.csv", "spikes.csv", "angles.csv"):
            assert (out / name).exists()

    def test_single_run_factors_each_panel_once(self, tmp_path, monkeypatch):
        factored, qr_factored = [], []
        gram_cholesky = linalg._gram_cholesky

        def counting(X):
            factored.append(X.shape)
            return gram_cholesky(X)

        monkeypatch.setattr(linalg, "_gram_cholesky", counting)
        monkeypatch.setattr(
            linalg, "_qr_basis", lambda X, name: qr_factored.append(X.shape)
        )
        cfg = tmp_path / "spec.cfg"
        write_sim_config(
            cfg, SimSpec(K=20, M=30, S=200, signal_strengths=(0.9,), seed=3)
        )
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(cfg), "--out-dir", str(out)]) == 0
        assert factored == [(20, 200), (30, 200)]
        assert qr_factored == []

    @pytest.mark.parametrize("strengths", [(0.9, 0.6), ()], ids=["two", "none"])
    def test_single_run_recovers_signal_pairs_only(self, tmp_path, monkeypatch, strengths):
        # the angle table reads the signal pairs' variables alone, so only
        # those pairs are recovered: none without a signal
        recovered = []
        for module in (linalg, simulate):
            recover = module._recover

            def counting(*side, recover=recover):
                recovered.append(side[-1].shape[1])
                return recover(*side)

            monkeypatch.setattr(module, "_recover", counting)
        cfg = tmp_path / "spec.cfg"
        write_sim_config(
            cfg, SimSpec(K=20, M=30, S=200, signal_strengths=strengths, seed=3)
        )
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(cfg), "--out-dir", str(out)]) == 0
        assert recovered == [len(strengths)] * 2
        assert (out / "angles.csv").exists() == bool(strengths)

    def test_mc_summary(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        write_sim_config(
            cfg,
            SimSpec(K=20, M=30, S=200, signal_strengths=(0.9,), seed=3),
            extras={"replications": 5},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(cfg), "--out-dir", str(out)]) == 0
        with (out / "theta_x_curve.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert set(rows[0]) == {
            "rho_sq", "theta_theory", "theta_mean", "band_lo", "band_hi"
        }

    def test_rho_grid_keeps_every_spec_field(self, tmp_path):
        spec = SimSpec(
            K=10, M=15, S=120, signal_strengths=(0.6,), signal_mode="rotated-pair",
            mix=True, signal_cov_scale=(2.0,), seed=4,
        )
        grid = (0.5, 0.8)
        cfg = tmp_path / "spec.cfg"
        write_sim_config(cfg, spec, extras={"replications": 3, "rho_grid": grid})
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(cfg), "--out-dir", str(out)]) == 0
        with (out / "theta_x_curve.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["rho_sq"] for r in rows] == [fmt(g) for g in grid]
        for idx, (row, rho_sq) in enumerate(zip(rows, grid)):
            point = replace(
                spec, signal_strengths=(math.sqrt(rho_sq),), seed=spec.seed + idx
            )
            assert row["theta_mean"] == fmt(mc_angles(point, 3).mean_theta_x[0])

    @pytest.mark.parametrize("replications", ["0", "-3"])
    def test_bad_replications_exit_2(self, tmp_path, replications):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--preset", "desk", "--replications", replications,
                  "--out-dir", str(tmp_path)])
        assert info.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_bad_spec_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("K = 20\nM = 30\nS = 200\nmix = maybe\n")
        assert main(["simulate", "--spec", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "line 4: " in capsys.readouterr().err

    def test_rotated_pairs_small_s_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("K = 3\nM = 4\nS = 2\nsignal_strengths = 0.5, 0.3\n"
                       "signal_mode = rotated-pair\n")
        assert main(["simulate", "--spec", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "S=2 for q=2" in capsys.readouterr().err

    @pytest.mark.parametrize("source", [["--preset", "desk"], ["--spec", "S"]])
    def test_negative_seed_exit_2(self, tmp_path, capsys, source):
        cfg = tmp_path / "S"
        cfg.write_text("K = 20\nM = 30\nS = 200\n")
        source = [str(cfg) if a == "S" else a for a in source]
        with pytest.raises(SystemExit) as info:
            main(["simulate", *source, "--seed", "-1", "--out-dir", str(tmp_path)])
        assert info.value.code == 2
        cfg.write_text("K = 20\nM = 30\nS = 200\nseed = -1\n")
        assert main(["simulate", "--spec", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "line 4: bad value '-1' for 'seed'" in capsys.readouterr().err

    def test_unknown_preset_exit_2(self, tmp_path, capsys):
        for name in ("nope", "desk.cfg"):
            assert main(["simulate", "--preset", name, "--out-dir", str(tmp_path)]) == 2
            assert capsys.readouterr().err == (
                f"input error: unknown preset {name!r}; available: ['desk', 'fig1', "
                "'fig2', 'fig4-t3', 'fig4-uniform', 'fig5', 'fig7', 'fig8', 'fig9']\n")

    @pytest.mark.parametrize("preset", ["fig2", "desk"])
    def test_preset_with_spec_exit_2(self, tmp_path, capsys, preset):
        # one source per run: --spec is never silently ignored, even when
        # the file does not exist
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--preset", preset, "--spec", "no-such-file.cfg",
                  "--out-dir", str(out)])
        assert info.value.code == 2
        assert "not allowed with argument --preset" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_outputs(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        write_sim_config(
            cfg,
            SimSpec(K=15, M=20, S=150, signal_strengths=(0.8,), seed=11),
            extras={"replications": 3},
        )
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["simulate", "--spec", str(cfg), "--out-dir", str(out)]) == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def resolve(*argv):
    """``cli._resolve_simulation`` of ``hdcca simulate ARGV``."""
    return cli._resolve_simulation(cli.build_parser().parse_args(["simulate", *argv]))


class TestShippedPresets:
    def test_builtin_presets_build(self):
        for name, fields in PRESETS.items():
            spec, extras = hio.sim_spec(fields)
            assert spec.S > spec.K + spec.M, name
            assert set(extras) <= {"replications", "rho_grid"}, name
            assert set(fields) - set(extras) <= set(hio._SPEC_FIELDS), name

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_written_preset_resolves_alike(self, tmp_path, name):
        # a preset runs as the spec file write_sim_config writes for it,
        # whose grid strengths are rounded to 12 significant digits
        spec, extras = hio.sim_spec(PRESETS[name])
        cfg = tmp_path / f"{name}.cfg"
        write_sim_config(cfg, spec, extras)
        for extra in ([], ["--replications", "1"], ["--replications", "3"],
                      ["--seed", "9"]):
            *head, grid = resolve("--spec", str(cfg), *extra)
            *preset_head, preset_grid = resolve("--preset", name, *extra)
            assert head == preset_head, extra
            assert grid == (preset_grid and tuple(float(fmt(r)) for r in preset_grid))


class TestRunKind:
    """One rule for presets and spec files: a grid sweeps curves, more than
    one replication runs Monte Carlo, one replication is a single draw."""

    SINGLE = {"angles.csv", "correlations.csv", "histogram.csv", "overlay.csv",
              "spikes.csv"}
    MC = {"mean_lambdas.csv", "theta_x_curve.csv", "theta_y_curve.csv"}

    @pytest.fixture(autouse=True)
    def small_presets(self, monkeypatch):
        monkeypatch.setitem(PRESETS, "small", dict(
            K=20, M=30, S=200, signal_strengths=(0.9,), seed=3))
        monkeypatch.setitem(PRESETS, "small-mc", dict(
            K=20, M=30, S=200, signal_strengths=(0.9,), seed=3, replications=4))

    def files(self, tmp_path, *argv):
        out = tmp_path / "out"
        assert main(["simulate", *argv, "--out-dir", str(out)]) == 0
        return {p.name for p in out.iterdir()}

    def test_single_run_preset_with_replications(self, tmp_path):
        assert self.files(tmp_path, "--preset", "small", "--replications", "2") == self.MC

    def test_mc_preset_with_one_replication(self, tmp_path):
        assert self.files(tmp_path, "--preset", "small-mc", "--replications", "1") == (
            self.SINGLE)

    @pytest.mark.parametrize("name, kind, replications", [
        ("small", "single-run", 1), ("small-mc", "mc", 4), ("fig5", "mc-curve", 1),
        ("fig8", "mc-curve", 1000), ("desk", "mc", 50), ("fig1", "single-run", 1),
    ])
    def test_preset_kinds(self, name, kind, replications):
        assert resolve("--preset", name)[1:3] == (kind, replications)

    def test_preset_matches_its_spec_file(self, tmp_path):
        spec, extras = hio.sim_spec(PRESETS["desk"])
        cfg = tmp_path / "desk.cfg"
        write_sim_config(cfg, spec, extras)
        outs = []
        for name, source in (("preset", ["--preset", "desk"]),
                             ("spec", ["--spec", str(cfg)])):
            out = tmp_path / name
            assert main(["simulate", *source, "--replications", "3",
                         "--out-dir", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(self.MC)
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_fig2_ignores_replications_and_seed(self, tmp_path):
        assert self.files(tmp_path, "--preset", "fig2", "--replications", "3",
                          "--seed", "4") == {"theory_curve.csv"}


class TestBadSpecValues:
    """Values SimSpec or the harness cannot take exit 2 before any draw."""

    @pytest.mark.parametrize("line, message", [
        ("rho_grid = -0.1", "rho_grid strengths must lie in [0, 1)"),
        ("rho_grid = 0.5, 1.0", "rho_grid strengths must lie in [0, 1)"),
        ("rho_grid = 0.5, nan", "rho_grid strengths must lie in [0, 1)"),
        ("noise_law = student_t\nnoise_df = nan", "finite df > 2"),
        ("noise_law = student_t\nnoise_df = inf", "finite df > 2"),
        ("signal_strengths = 0.5\nsignal_cov_scale = -1", "finite and above 0"),
        ("signal_strengths = 0.5\nsignal_cov_scale = 0", "finite and above 0"),
        ("rho_grid =", "line 4: bad value '' for 'rho_grid'"),
    ])
    def test_exit_2_before_any_draw(self, tmp_path, monkeypatch, capsys, line, message):
        def no_draw(*args):
            raise AssertionError("drew before the spec was checked")

        monkeypatch.setattr(simulate, "gen_data", no_draw)
        monkeypatch.setattr(cli, "gen_data", no_draw)
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(f"K = 5\nM = 25\nS = 80\n{line}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not any(out.iterdir())


class TestCliMasterCheck:
    def test_default_dims_pass(self, capsys):
        assert main(["master-check"]) == 0
        out = capsys.readouterr().out
        assert "interlacing: ok" in out

    def test_regime_violation_exit_3(self):
        assert main(["master-check", "--dims", "20", "25", "40"]) == 3

    @pytest.mark.parametrize("dims", [("1", "2", "10"), ("5", "1", "20"), ("0", "5", "20")])
    def test_rejected_dims_exit_3(self, dims, capsys):
        assert main(["master-check", "--dims", *dims]) == 3
        K, M, _ = dims
        assert f"got K={K} and M={M}" in capsys.readouterr().err

    def test_negative_seed_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["master-check", "--seed", "-1"])
        assert info.value.code == 2

    def test_seeded_repeatable(self, capsys):
        main(["master-check", "--seed", "5"])
        first = capsys.readouterr().out
        main(["master-check", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_factors_each_panel_once(self, monkeypatch):
        factored, qr_factored = [], []
        gram_cholesky = linalg._gram_cholesky
        qr_basis = linalg._qr_basis

        def counting(X):
            factored.append(X.shape)
            return gram_cholesky(X)

        def counting_qr(X, name):
            qr_factored.append(X.shape)
            return qr_basis(X, name)

        monkeypatch.setattr(linalg, "_gram_cholesky", counting)
        monkeypatch.setattr(linalg, "_qr_basis", counting_qr)
        assert main(["master-check", "--dims", "20", "30", "160"]) == 0
        assert sorted(factored) == [(19, 160), (20, 160), (29, 160), (30, 160)]
        assert qr_factored == []

    @pytest.mark.parametrize("dims, seed", [
        ((150, 225, 1200), 3041), ((150, 225, 1200), 13045), ((60, 90, 480), 185),
    ])
    def test_root_near_a_pole(self, dims, seed, capsys):
        # an eigensolver correlation within a relative 1e-9 of a noise pole
        # still has well-defined vector statistics
        argv = ["master-check", "--dims", *map(str, dims), "--seed", str(seed)]
        assert main(argv) == 0
        assert "interlacing: ok" in capsys.readouterr().out

    def test_cancelled_t2_keeps_vector_accuracy(self):
        # a root where T2 cancels to ~1e-12: T2/T1 loses its digits, while
        # T1/(z T3) keeps them
        check = master_check(150, 225, 1200, 1032)
        assert check.ok(150)
        assert check.vec_err <= 1e-10
