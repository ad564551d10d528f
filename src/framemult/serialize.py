"""File formats: frame documents and suite reports.

Frame files are JSON with complex entries encoded as [re, im] pairs; float
values are written in Python's shortest round-tripping decimal form (at most
17 significant digits), so save -> load reproduces every entry bit-exactly.

Reports serialize either hierarchically (json) or as a flat table (csv) with
a fixed column order shared by all suites: RESIDUAL_COLUMNS, each suite's
residual keys in suite order, derived in suites from its table _SUITES. The
record checks shared with run_suite (_check_real, _check_types) live in
suites too, so this module imports from suites and never the other way.

Each format has one writer, which streams into a file handle; the string
renderings aim it at a StringIO. The JSON writer turns each record into a
dict only as the encoder reaches it, so the report never exists as one dict
tree. The CSV writer formats each row itself, quoting as
csv.writer(lineterminator="\n") does, so no row buffer outlives a row. Every
check that can reject a report runs before the first byte is written.
"""

from __future__ import annotations

import io
import json
from itertools import islice

import numpy as np

from .errors import InvalidArgument, IoError, ParseError
from .frames import Frame, new_frame
from .linalg import DEFAULT_TOL, Tol
from .suites import RESIDUAL_COLUMNS, SuiteReport, _check_real, _check_types

__all__ = [
    "save_frame",
    "load_frame",
    "save_report",
    "report_to_json",
    "report_to_csv",
    "CSV_COLUMNS",
]

# Flat-table column order, fixed across suites (see suites._SUITES); absent fields stay empty.
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
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != count:
            raise ParseError(f"row {i} must hold exactly {count} entries")
    # Every row is checked first, so the matrix is no larger than the parsed document.
    matrix = np.empty((dim, count), dtype=np.complex128)
    for i, row in enumerate(entries):
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


# iterencode yields one short string per token; a report is written in joined
# batches of this many, so peak memory is the records plus one record's dict
# and one batch.
_JSON_BATCH = 1024


class _RecordDicts(list):
    """The records, each turned into a dict only as the encoder iterates to it."""

    def __iter__(self):
        return (record.as_dict() for record in super().__iter__())


def _write_json(report: SuiteReport, handle) -> None:
    """Hierarchical rendering; key order is sorted so output is reproducible.

    The bytes are those of json.dumps(report.as_dict(), sort_keys=True,
    indent=2) plus a newline.
    """
    document = {**report._header(), "records": _RecordDicts(report.records)}
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(document)
    while batch := "".join(islice(chunks, _JSON_BATCH)):
        handle.write(batch)
    handle.write("\n")


def _csv_text(value) -> str:
    """A text cell as csv.writer writes it: quoted, inner quotes doubled, if it holds ',', '"' or a newline."""
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(report: SuiteReport, handle) -> None:
    """Flat table: one row per trial in the fixed CSV_COLUMNS order.

    The bytes are those of csv.DictWriter(handle, CSV_COLUMNS,
    lineterminator="\n") given each residual as format(value, ".17g").
    """
    handle.write(",".join(CSV_COLUMNS) + "\n")
    for record in report.records:
        residuals = record.residuals
        cells = [_csv_text(record.suite), str(record.trial), str(record.seed), str(record.d), str(record.n)]
        cells += [format(residuals[key], ".17g") if key in residuals else "" for key in RESIDUAL_COLUMNS]
        cells.append(_csv_text(record.verdict))
        handle.write(",".join(cells) + "\n")


def _check_residuals(report: SuiteReport) -> None:
    """Reject a report holding a residual that is not numbers.Real; both formats write it as a real number.

    Each distinct type is checked once: a set of types costs less than an
    isinstance per value.
    """
    _check_real({type(v) for r in report.records for v in r.residuals.values()})


def _check_json_fields(report: SuiteReport) -> None:
    """Reject a report whose integers, booleans or notes JSON would encode as another type.

    The integers are each record's trial, seed, d and N and the config's
    trials, seed and dims entries; a SuiteReport built by hand may hold numpy
    integers there.
    """
    records, config = report.records, report.config
    integers = {type(v) for r in records for v in (r.trial, r.seed, r.d, r.n)}
    integers |= {type(config.trials), type(config.seed)}
    integers |= {type(v) for pair in config.dims for v in pair}
    booleans = {type(v) for r in records for v in r.booleans.values()}
    notes = {type(r.note) for r in records}
    _check_types("integer field", "an int", lambda cls: issubclass(cls, int) and cls is not bool, integers)
    _check_types("boolean value", "a bool", lambda cls: issubclass(cls, bool), booleans)
    _check_types("note", "a str", lambda cls: issubclass(cls, str), notes)


def _report_writer(report: SuiteReport, fmt: str):
    """The writer of fmt, after every check that can reject the report."""
    if fmt not in ("json", "csv"):
        raise InvalidArgument(f"unknown report format {fmt!r}")
    _check_residuals(report)
    if fmt == "json":
        _check_json_fields(report)
        return _write_json
    for record in report.records:
        for key in record.residuals:
            if key not in RESIDUAL_COLUMNS:
                raise InvalidArgument(f"residual field {key!r} missing from CSV_COLUMNS")
    return _write_csv


def _render(report: SuiteReport, fmt: str) -> str:
    buffer = io.StringIO()
    _report_writer(report, fmt)(report, buffer)
    return buffer.getvalue()


def report_to_json(report: SuiteReport) -> str:
    """The JSON report text, as save_report writes it."""
    return _render(report, "json")


def report_to_csv(report: SuiteReport) -> str:
    """The CSV report text, as save_report writes it."""
    return _render(report, "csv")


def save_report(report: SuiteReport, path, fmt: str = "json") -> None:
    """Stream a suite report into path as json or csv.

    The report is checked before path is opened, so a rejected report leaves
    an existing file untouched.
    """
    write = _report_writer(report, fmt)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            write(report, handle)
    except OSError as exc:
        raise IoError(f"cannot write report file {path}: {exc}") from exc
