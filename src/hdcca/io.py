"""CSV ingestion, report serialisation, and flat sim-spec config files.

CSV is the single data interchange format; reports additionally serialise to
JSON (schema version 1).  Every CSV file is written by ``write_table``, which
renders floats with 12 significant digits; ``report.json`` writes floats at
full ``repr`` precision.  Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import MissingValue, ParseError, ShapeMismatch, SpecError
from .inference import AnalysisReport, SpikeReport
from .simulate import SimSpec

SCHEMA_VERSION = 1
# (column in spikes.csv and key in report.json, SpikeReport attribute)
SPIKE_FIELDS = (
    ("index", "index"),
    ("lambda", "lam"),
    ("rho_sq", "rho_sq_hat"),
    ("rho_abs", "rho_abs"),
    ("theta_x_deg", "theta_x_deg"),
    ("theta_y_deg", "theta_y_deg"),
    ("sin2_x", "sin2_x"),
    ("sin2_y", "sin2_y"),
    ("method", "method"),
    ("gate_passed", "gate_passed"),
)
SPIKE_COLUMNS = tuple(column for column, _ in SPIKE_FIELDS)
_FLOATS = (float, np.floating)
# text read per np.loadtxt call by load_csv: big enough that the per-call cost
# vanishes, small enough that the text never outweighs the panel
_CHUNK_BYTES = 1 << 20


def fmt(value) -> str:
    """12-significant-digit rendering used for every float we write."""
    return format(float(value), ".12g")


@dataclass
class DataMatrix:
    """Variables-by-samples numeric grid with optional row labels."""

    values: np.ndarray
    row_labels: list[str] | None = None
    demeaned: bool = False

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


def _parse_cell(cell, row, col):
    text = cell.strip()
    if text == "" or text.lower() in ("nan", "na"):
        raise MissingValue(
            f"missing value at row {row}, column {col}", row=row, column=col
        )
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"could not parse {text!r} at row {row}, column {col}",
            row=row,
            column=col,
        ) from None
    if not math.isfinite(value):
        raise ParseError(
            f"non-finite value {text!r} at row {row}, column {col}",
            row=row,
            column=col,
        )
    return value


def _is_label(cell):
    """Whether a cell is not a number."""
    try:
        float(cell.strip())
    except ValueError:
        return True
    return False


def _is_header(cells):
    """Whether a first row is a header: its cells after any label are not all
    numbers."""
    data = cells[1:] if _is_label(cells[0]) else cells
    return not data or any(_is_label(c) for c in data)


def load_csv(path, orientation: str = "rows-are-variables", demean: bool = True) -> DataMatrix:
    """Read a CSV into a variables-by-samples DataMatrix.

    ``rows-are-variables``: each row is one variable; an optional leading
    non-numeric column holds variable labels and an optional non-numeric
    first row is skipped as a header.  ``rows-are-samples``: each row is one
    observation; an optional header row holds the variable labels.  When
    ``demean`` is set, each variable's mean across samples is removed, in
    place.  Empty, non-numeric or non-finite cells, ragged rows and files
    without a numeric column raise ParseError (MissingValue for empty cells).

    The file is read in chunks of about ``_CHUNK_BYTES`` of whole lines, and
    each chunk's numeric block is parsed in one vectorised call into one
    buffer sized from the file, so the text held at once stays near one
    chunk whatever the file's size, and the panel is held once.  A file that
    these calls cannot take whole (quotes, empty, bad or non-finite cells,
    ragged rows) is read again and parsed cell by cell, which also locates
    the first bad cell.
    """
    if orientation not in ("rows-are-variables", "rows-are-samples"):
        raise ValueError(f"unknown orientation {orientation!r}")
    path = Path(path)
    # utf-8-sig drops the byte-order mark that spreadsheet programs write
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            parsed = _parse_block(fh)
        if parsed is None:
            with path.open(newline="", encoding="utf-8-sig") as fh:
                lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    values, labels, header = parsed or _parse_cells(lines, path)

    if orientation == "rows-are-samples":
        # a C-order copy de-means with the same arithmetic as the other
        # orientation, so the same numbers give the same bits either way
        values = np.ascontiguousarray(values.T)
        labels = header[-values.shape[0]:] if header else []
    if demean:
        values -= values.mean(axis=1, keepdims=True)
    return DataMatrix(
        values=values,
        row_labels=labels if labels else None,
        demeaned=demean,
    )


def _parse_block(fh):
    """``(values, labels, header)`` from one ``np.loadtxt`` per chunk of the
    numeric block, each copied into one buffer sized for the whole file, or
    None when the file needs ``_parse_cells``.

    Without quotes a line's cells are its comma-separated fields, which is
    what ``csv.reader`` gives, so header and label detection see the same
    cells as in ``_parse_cells``.  The first line with cells decides the
    header and the first data line decides labels and width.  The result
    stands only when every cell is finite and each chunk has one row per data
    line and the first row's width; ``np.loadtxt`` parses each line on its
    own, so the chunks give the bits one call over the whole file would.
    """
    header = labeled = width = None
    labels = []
    values, rows, read = None, 0, 0
    while lines := fh.readlines(_CHUNK_BYTES):
        read += sum(map(len, lines))
        lines = [line for line in lines if _has_cells(line)]
        if not lines:
            continue
        if any('"' in line for line in lines):
            return None
        if header is None and labeled is None:  # the file's first line
            cells = lines[0].rstrip("\r\n").split(",")
            if _is_header(cells):
                header = [c.strip() for c in cells]
                lines = lines[1:]
                if not lines:
                    continue
        if labeled is None:
            labeled = _is_label(lines[0].partition(",")[0])
        if labeled:
            split = [line.partition(",") for line in lines]
            labels += [head.strip() for head, _, _ in split]
            lines = [tail for _, _, tail in split]
        if not lines[0].rstrip("\r\n"):
            return None  # a label-only row, which np.loadtxt would skip
        if width is None:
            width = lines[0].count(",") + 1
        try:
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            return None
        if block.shape != (len(lines), width) or not np.isfinite(block).all():
            return None
        need = rows + len(block)
        if values is None or need > len(values):
            # room for the whole file at the rows per character read so far:
            # most files take one allocation, and a shortfall grows it in place
            total = max(need * os.fstat(fh.fileno()).st_size // read + 1, need)
            if values is None:
                values = np.empty((total, width))
            else:
                values.resize((max(total, len(values) * 9 // 8), width), refcheck=False)
        values[rows:need] = block
        rows = need
    if values is None:
        return None
    values.resize((rows, width), refcheck=False)
    return values, labels, header


def _has_cells(line):
    """Whether a line without quotes holds a cell that is not blank, which
    ``_parse_cells`` requires of a row; most lines show it in their first
    character."""
    return line.lstrip()[:1] not in ("", ",") or bool(line.replace(",", "").strip())


def _parse_cells(lines, path):
    """``(values, labels, header)`` cell by cell; raises ParseError (or
    MissingValue) at the first bad cell or row, with its location."""
    rows = [row for row in csv.reader(lines) if row and any(c.strip() for c in row)]
    if not rows:
        raise ParseError(f"{path} is empty")

    header = None
    if _is_header(rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path} has a header but no data")

    labeled = _is_label(rows[0][0])
    labels = []
    data = []
    width = None
    for r_idx, row in enumerate(rows, start=1):
        cells = row[1:] if labeled else row
        if labeled:
            labels.append(row[0].strip())
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"row {r_idx} has {len(cells)} cells, expected {width}",
                row=r_idx,
            )
        data.append(
            [_parse_cell(c, r_idx, c_idx + 1) for c_idx, c in enumerate(cells)]
        )
    if width == 0:
        raise ParseError(f"{path} has labels but no numeric columns")
    return np.asarray(data, dtype=float), labels, header


def check_joint_samples(u: DataMatrix, v: DataMatrix) -> None:
    if u.n_samples != v.n_samples:
        raise ShapeMismatch(
            f"sample counts differ: {u.n_samples} vs {v.n_samples}"
        )


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _cell(value):
    """A table cell as written: ``fmt`` of a float, any other value as it is."""
    return fmt(value) if isinstance(value, _FLOATS) else value


def write_table(path, header, rows) -> None:
    """Write a CSV file: the header, then one line per row, each cell through
    ``_cell``.  Pass numpy columns as ``.tolist()``: Python floats render
    faster than numpy scalars."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_cell, row) for row in rows)


def write_correlations_csv(path, correlations) -> None:
    write_table(path, ["rank", "lambda"],
                enumerate(np.asarray(correlations).tolist(), start=1))


def write_histogram_csv(path, histogram) -> None:
    edges = histogram.bin_edges.tolist()
    write_table(
        path,
        ["bin_left", "bin_right", "count", "wachter_density"],
        zip(edges[:-1], edges[1:], histogram.counts.tolist(),
            histogram.density.tolist()),
    )


def write_spikes_csv(path, spikes: list[SpikeReport]) -> None:
    write_table(path, SPIKE_COLUMNS,
                ([getattr(s, attr) for _, attr in SPIKE_FIELDS] for s in spikes))


def write_overlay_csv(path, overlay) -> None:
    write_table(path, ["x", "wachter_density"], np.asarray(overlay).tolist())


def write_pca_csv(path, eigenvalues) -> None:
    write_table(path, ["rank", "eigenvalue"],
                enumerate(np.asarray(eigenvalues).tolist(), start=1))


def _spike_dict(s: SpikeReport) -> dict:
    fields = {column: getattr(s, attr) for column, attr in SPIKE_FIELDS}
    return {**fields, "gap": None if np.isnan(s.gap) else s.gap}


def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "regime": None if report.regime is None else asdict(report.regime),
        "correlations": [float(v) for v in report.correlations],
        "spikes": [_spike_dict(s) for s in report.spikes],
        "empirical_spikes": [_spike_dict(s) for s in report.empirical_spikes],
        "histogram": {
            "bin_edges": [float(v) for v in report.histogram.bin_edges],
            "counts": [int(v) for v in report.histogram.counts],
            "wachter_density": [float(v) for v in report.histogram.density],
        },
        "notes": list(report.notes),
    }


def write_report_json(path, report: AnalysisReport) -> None:
    with Path(path).open("w") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Flat key-value sim-spec files
# ---------------------------------------------------------------------------

def positive_int(text) -> int:
    """A count: an integer of at least 1.  Raises ValueError otherwise."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is below 1")
    return value


def nonnegative_int(text) -> int:
    """A seed: an integer of at least 0.  Raises ValueError otherwise."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{value} is below 0")
    return value


def positive_float(text) -> float:
    """A scale: a finite number above 0.  Raises ValueError otherwise."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{value} is not a finite number above 0")
    return value


def _floats(value):
    return tuple(float(v) for v in value.replace(",", " ").split())


def _grid(value):
    """A ``rho_grid``: at least one strength."""
    grid = _floats(value)
    if not grid:
        raise ValueError("no strengths")
    return grid


def _flag(value):
    spelling = value.lower()
    if spelling in ("1", "true", "yes", "on"):
        return True
    if spelling in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


# key -> parser of its value; a ValueError from the parser is a SpecError
_SPEC_FIELDS = {
    "K": int, "M": int, "S": int, "seed": nonnegative_int, "noise_df": float,
    "mix": _flag,
    "signal_strengths": _floats, "signal_cov_scale": _floats,
    "noise_law": str, "signal_mode": str,
}
_HARNESS_FIELDS = {"replications": positive_int, "rho_grid": _grid}


def parse_sim_config(path):
    """Read a flat ``key = value`` file into ``sim_spec`` of its keys.

    An unknown key, a key set twice or a value its key cannot take raises
    SpecError with the line number.
    """
    fields: dict = {}
    line_of: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path} is not UTF-8 text: {exc.reason}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        parse = _HARNESS_FIELDS.get(key) or _SPEC_FIELDS.get(key)
        if parse is None:
            raise SpecError(f"line {line_no}: unknown key {key!r}")
        if key in line_of:
            raise SpecError(f"line {line_no}: {key!r} already set on line {line_of[key]}")
        try:
            fields[key] = parse(value)
        except ValueError:
            raise SpecError(f"line {line_no}: bad value {value!r} for {key!r}") from None
        line_of[key] = line_no
    return sim_spec(fields)


def sim_spec(fields: dict):
    """(SimSpec, harness-extras dict) from the keys of a spec file and their
    values.  The harness keys (``replications``, ``rho_grid``) are returned
    separately.  Missing dimensions and grid strengths outside [0, 1) raise
    SpecError, as does every value SimSpec rejects.
    """
    missing = {"K", "M", "S"} - fields.keys()
    if missing:
        raise SpecError(f"config must set {sorted(missing)}")
    extras = {key: value for key, value in fields.items() if key in _HARNESS_FIELDS}
    if not all(math.isfinite(r) and 0.0 <= r < 1.0 for r in extras.get("rho_grid", ())):
        raise SpecError("rho_grid strengths must lie in [0, 1)")
    spec = SimSpec(**{key: value for key, value in fields.items() if key not in extras})
    return spec, extras


def write_sim_config(path, spec: SimSpec, extras: dict | None = None) -> None:
    lines = [f"K = {spec.K}", f"M = {spec.M}", f"S = {spec.S}"]
    if spec.signal_strengths:
        lines.append(
            "signal_strengths = " + ", ".join(fmt(v) for v in spec.signal_strengths)
        )
    lines.append(f"noise_law = {spec.noise_law}")
    if spec.noise_law == "student_t":
        lines.append(f"noise_df = {fmt(spec.noise_df)}")
    lines.append(f"signal_mode = {spec.signal_mode}")
    if spec.signal_cov_scale:
        lines.append(
            "signal_cov_scale = " + ", ".join(fmt(v) for v in spec.signal_cov_scale)
        )
    if spec.mix:
        lines.append("mix = true")
    lines.append(f"seed = {spec.seed}")
    for key, value in (extras or {}).items():
        if key not in _HARNESS_FIELDS:
            raise SpecError(f"unknown harness key {key!r}")
        if isinstance(value, tuple):
            lines.append(f"{key} = " + ", ".join(fmt(v) for v in value))
        else:
            lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")
