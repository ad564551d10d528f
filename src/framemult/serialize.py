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
renderings aim it at a StringIO. Both read report.records once, whether a
run's lazily built view or a tuple, so each record is built, written and
dropped in turn. The JSON writer formats each record itself, in the bytes
json.dumps(sort_keys=True, indent=2) gives, into the slot json.dumps leaves
in the header; the CSV writer formats each row itself, quoting as
csv.writer(lineterminator="\n") does. Every check that can reject a report
runs on one summary of its records' field types and keys (a run's view
reads it from its columns, so only the writer builds records; a second pass
runs only if a residual is not a Python float), and the JSON header is
encoded, before the first byte is written.
"""

from __future__ import annotations

import io
import json
import math
import os
from functools import partial

import numpy as np

from .errors import InvalidArgument, IoError, ParseError
from .frames import Frame, new_frame
from .linalg import DEFAULT_TOL, Tol
from .suites import RESIDUAL_COLUMNS, SuiteReport, _check_real, _check_types, _Records

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


def _check_path(path) -> None:
    """Raise InvalidArgument unless path is a str, bytes or os.PathLike: open() takes an int as an fd."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InvalidArgument(f"path must be a str, bytes or os.PathLike, got {type(path).__name__}")


def save_frame(frame: Frame, path) -> None:
    """Write a frame document: {dim, count, entries}, entries row-major [re, im]."""
    _check_path(path)
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
    _check_path(path)
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


_QUOTE = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it


def _json_float(value) -> str:
    """float(value) as json.dumps writes it."""
    value = float(value)
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _json_bool(value: bool) -> str:
    return "true" if value else "false"


def _json_mapping(mapping, text) -> str:
    """A record's residuals or booleans as json.dumps(sort_keys=True, indent=2) nests them in the report."""
    if not mapping:
        return "{}"
    items = ",\n        ".join(f"{_QUOTE(key)}: {text(value)}" for key, value in sorted(mapping.items()))
    return "{\n        " + items + "\n      }"


def _json_record(record) -> str:
    """record.as_dict() as json.dumps(sort_keys=True, indent=2) nests it in the report's records."""
    return (
        "    {\n"
        f'      "N": {int.__repr__(record.n)},\n'
        f'      "booleans": {_json_mapping(record.booleans, _json_bool)},\n'
        f'      "d": {int.__repr__(record.d)},\n'
        f'      "indeterminate": {_json_bool(record.indeterminate)},\n'
        f'      "note": {_QUOTE(record.note)},\n'
        f'      "residuals": {_json_mapping(record.residuals, _json_float)},\n'
        f'      "seed": {int.__repr__(record.seed)},\n'
        f'      "suite": {_QUOTE(record.suite)},\n'
        f'      "trial": {int.__repr__(record.trial)},\n'
        f'      "verdict": {_QUOTE(record.verdict)}\n'
        "    }"
    )


def _json_frame(report: SuiteReport) -> tuple[str, str]:
    """The JSON text around the records: json.dumps of the header with an empty records list, split at it."""
    text = json.dumps({**report._header(), "records": []}, sort_keys=True, indent=2)
    head, tail = text.split('"records": []')
    return head + '"records": [', tail


def _write_json(report: SuiteReport, frame: tuple[str, str], handle) -> None:
    """Hierarchical rendering; key order is sorted so output is reproducible.

    The bytes are those of json.dumps(report.as_dict(), sort_keys=True,
    indent=2) plus a newline: each record is formatted into the slot that
    frame, from _json_frame, leaves for the records.
    """
    head, tail = frame
    handle.write(head)
    separator = "\n"
    for record in report.records:
        handle.write(separator)
        handle.write(_json_record(record))
        separator = ",\n"
    handle.write(("]" if separator == "\n" else "\n  ]") + tail + "\n")


def _csv_text(value) -> str:
    """A text cell as csv.writer writes it: quoted, inner quotes doubled, if it holds ',', '"' or a newline."""
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(report: SuiteReport, handle) -> None:
    """Flat table: one row per trial in the fixed CSV_COLUMNS order.

    The bytes are those of csv.DictWriter(handle, CSV_COLUMNS,
    lineterminator="\n") given each residual as format(float(value), ".17g"),
    so a residual is written as the float JSON writes.
    """
    handle.write(",".join(CSV_COLUMNS) + "\n")
    for record in report.records:
        residuals = record.residuals
        cells = [_csv_text(record.suite), str(record.trial), str(record.seed), str(record.d), str(record.n)]
        cells += [format(float(residuals[key]), ".17g") if key in residuals else "" for key in RESIDUAL_COLUMNS]
        cells.append(_csv_text(record.verdict))
        handle.write(",".join(cells) + "\n")


def _kinds(records) -> tuple[set, set, set, set, set, set]:
    """(reals, residual keys, boolean keys, integers, booleans, texts): the types and keys of the records' fields.

    reals holds the types of the residual values, integers those of trial,
    seed, d and N, booleans those of the boolean values and indeterminate,
    and texts those of suite, verdict and note. A run's view reads them from
    its columns (_Records.kinds); any other sequence is read record by record.
    """
    if isinstance(records, _Records):
        return records.kinds()
    reals, residual_keys, boolean_keys, integers, booleans, texts = set(), set(), set(), set(), set(), set()
    for r in records:
        reals.update(map(type, r.residuals.values()))
        residual_keys.update(r.residuals)
        boolean_keys.update(r.booleans)
        booleans.update(map(type, r.booleans.values()))
        booleans.add(type(r.indeterminate))
        integers.update((type(r.trial), type(r.seed), type(r.d), type(r.n)))
        texts.update((type(r.suite), type(r.verdict), type(r.note)))
    return reals, residual_keys, boolean_keys, integers, booleans, texts


def _check(report: SuiteReport, fmt: str) -> None:
    """Every check that can reject the report in fmt, from one summary of its records (_kinds).

    Both formats write each residual as float(value), so it must be a real
    number in the double range, and the CSV has a column for each known
    residual key. JSON would encode a value of another type as something
    else or not at all, so it takes ints, bools and strs only: a SuiteReport
    built by hand may hold numpy integers or booleans. Each distinct type is
    checked once; only residuals that are not Python floats, which a run
    never gives, take a second pass.
    """
    reals, residual_keys, boolean_keys, integers, booleans, texts = _kinds(report.records)
    _check_real(reals)
    if reals - {float}:  # float() of an int or a Fraction beyond the double range raises
        for r in report.records:
            for key, value in r.residuals.items():
                try:
                    float(value)
                except OverflowError:
                    raise InvalidArgument(f"residual {key!r} lies beyond the float range") from None
    if fmt == "csv":
        for key in residual_keys:
            if key not in RESIDUAL_COLUMNS:
                raise InvalidArgument(f"residual field {key!r} missing from CSV_COLUMNS")
        return
    config = report.config
    integers |= {type(config.trials), type(config.seed)}
    integers |= {type(v) for pair in config.dims for v in pair}
    _check_types("integer field", "an int", lambda cls: issubclass(cls, int) and cls is not bool, integers)
    _check_types("boolean value", "a bool", lambda cls: issubclass(cls, bool), booleans)
    _check_types("suite, verdict and note", "a str", lambda cls: issubclass(cls, str), texts)
    keys = {type(key) for key in residual_keys | boolean_keys}
    _check_types("residual and boolean key", "a str", lambda cls: issubclass(cls, str), keys)


def _report_writer(report: SuiteReport, fmt: str):
    """write(handle), writing report in fmt, made after every check that can reject the report.

    The JSON header is encoded here too, so an error encoding it comes before
    the file is opened.
    """
    if fmt not in ("json", "csv"):
        raise InvalidArgument(f"unknown report format {fmt!r}")
    _check(report, fmt)
    if fmt == "csv":
        return partial(_write_csv, report)
    return partial(_write_json, report, _json_frame(report))


def _render(report: SuiteReport, fmt: str) -> str:
    buffer = io.StringIO()
    _report_writer(report, fmt)(buffer)
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
    _check_path(path)
    write = _report_writer(report, fmt)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.reconfigure(write_through=True)  # encode each write now: no list of pending strs builds up
            write(handle)
    except OSError as exc:
        raise IoError(f"cannot write report file {path}: {exc}") from exc
