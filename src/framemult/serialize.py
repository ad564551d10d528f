"""File formats: frame documents and suite reports.

Frame files are JSON with complex entries encoded as [re, im] pairs; float
values are written in Python's shortest round-tripping decimal form (at most
17 significant digits), so save -> load reproduces every entry bit-exactly.

Reports serialize either hierarchically (json) or as a flat table (csv) with
a fixed column order shared by all suites.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING

import numpy as np

from .errors import IoError, ParseError
from .frames import Frame, new_frame
from .linalg import DEFAULT_TOL, Tol

if TYPE_CHECKING:  # pragma: no cover
    from .suites import SuiteReport

__all__ = [
    "save_frame",
    "load_frame",
    "save_report",
    "report_to_json",
    "report_to_csv",
    "CSV_COLUMNS",
]

# Flat-table column order, fixed across suites; absent fields stay empty.
RESIDUAL_COLUMNS = [
    "direct",
    "cond_i",
    "cond_ii",
    "cond_iii",
    "cond_iv",
    "achieved_mu",
    "bound_coefficient",
    "companion_deviation",
    "multiplier_residual",
    "floor_ratio",
    "op_norm",
    "annihilation",
    "masked_annihilation",
    "max_decomposition",
    "probe_breakage",
    "gamma_norm",
    "max_formula_residual",
]
CSV_COLUMNS = ["suite", "trial", "seed", "d", "N", *RESIDUAL_COLUMNS, "verdict"]


def save_frame(frame: Frame, path) -> None:
    """Write a frame document: {dim, count, entries}, entries row-major [re, im]."""
    entries = [
        [[float(z.real), float(z.imag)] for z in row] for row in np.asarray(frame.synth)
    ]
    document = {"dim": frame.dim, "count": frame.count, "entries": entries}
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write frame file {path}: {exc}") from exc


def load_frame(path, tol: Tol = DEFAULT_TOL) -> Frame:
    """Read a frame document back; malformed text raises ParseError with position."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read frame file {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid frame document: {exc.msg}", line=exc.lineno, offset=exc.colno) from exc
    if not isinstance(document, dict):
        raise ParseError("frame document must be an object")
    for field in ("dim", "count", "entries"):
        if field not in document:
            raise ParseError(f"frame document missing field {field!r}")
    dim, count, entries = document["dim"], document["count"], document["entries"]
    sizes_ok = all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in (dim, count))
    if not sizes_ok:
        raise ParseError("dim and count must be positive integers")
    if not isinstance(entries, list) or len(entries) != dim:
        raise ParseError(f"entries must hold exactly {dim} rows")
    matrix = np.empty((dim, count), dtype=np.complex128)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != count:
            raise ParseError(f"row {i} must hold exactly {count} entries")
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
            ):
                raise ParseError(f"entry ({i}, {j}) must be a [re, im] pair of numbers")
            try:
                matrix[i, j] = complex(pair[0], pair[1])
            except OverflowError:  # an integer beyond the float range
                matrix[i, j] = np.inf
            if not np.isfinite(matrix[i, j]):
                raise ParseError(f"entry ({i}, {j}) must be finite")
    return new_frame(matrix, tol)


def report_to_json(report: "SuiteReport") -> str:
    """Hierarchical rendering; key order is sorted so output is reproducible."""
    return json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"


def report_to_csv(report: "SuiteReport") -> str:
    """Flat table: one row per trial in the fixed CSV_COLUMNS order."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for record in report.records:
        row = {
            "suite": record.suite,
            "trial": record.trial,
            "seed": record.seed,
            "d": record.d,
            "N": record.n,
            "verdict": record.verdict,
        }
        for key, value in record.residuals.items():
            if key not in RESIDUAL_COLUMNS:
                raise ValueError(f"residual field {key!r} missing from CSV_COLUMNS")
            row[key] = format(value, ".17g")
        writer.writerow(row)
    return buffer.getvalue()


def save_report(report: "SuiteReport", path, fmt: str = "json") -> None:
    """Write a suite report as json or csv."""
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write report file {path}: {exc}") from exc
