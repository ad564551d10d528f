"""Hand-written CSV rows, duals that keep W instead of v_part, and integer fields in JSON.

The CSV writer formats each row itself and gives the bytes of
csv.DictWriter(lineterminator="\\n"), including its quoting, without the
csv module's row buffer. A dual keeps its read-only W row and forms v_part
on demand, bit for bit the former stacked product. A JSON report whose
integer fields are not ints is rejected before the file is opened.
"""

import csv
import io
import math
import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from framemult import (
    DEFAULT_TOL,
    ExperimentConfig,
    canonical_dual,
    random_dual,
    random_frame,
    riesz_basis,
    run_suite,
    save_report,
)
from framemult.frames import _dual
from framemult.representations import DUAL_SAMPLE_COUNT, _unit_w
from framemult.serialize import CSV_COLUMNS, report_to_csv, report_to_json
from framemult.suites import SUITE_NAMES


@cache
def _report(seed: int, trials: int, generator: str = "random", suite: str = "all"):
    return run_suite(ExperimentConfig(suite=suite, trials=trials, seed=seed, generator=generator))


def _reference_csv(report) -> str:
    """The report as csv.DictWriter renders it, residuals formatted with 17 significant digits."""
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
        row.update((key, format(value, ".17g")) for key, value in record.residuals.items())
        writer.writerow(row)
    return buffer.getvalue()


def _assert_csv_bytes(report, path) -> None:
    text = report_to_csv(report)
    assert text == _reference_csv(report)
    save_report(report, path, "csv")
    assert path.read_bytes() == text.encode()


def _with_first_record(report, **changes):
    records = report.records
    return replace(report, records=(replace(records[0], **changes), *records[1:]))


@pytest.mark.parametrize("seed", [0, 1608])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_solo_suite_csv_equals_the_csv_module(tmp_path, suite, seed):
    _assert_csv_bytes(_report(seed, 12, suite=suite), tmp_path / "r.csv")


@pytest.mark.parametrize("seed", [0, 1608])
@pytest.mark.parametrize("generator", ["random", "riesz"])
def test_all_suite_csv_equals_the_csv_module(tmp_path, generator, seed):
    _assert_csv_bytes(_report(seed, 12, generator), tmp_path / "r.csv")


def test_report_without_records_is_the_header_alone(tmp_path):
    empty = replace(_report(0, 1), records=())
    _assert_csv_bytes(empty, tmp_path / "r.csv")
    assert report_to_csv(empty) == ",".join(CSV_COLUMNS) + "\n"


def test_nan_and_infinite_residuals_are_written_as_the_csv_module_writes_them(tmp_path):
    residuals = {"direct": math.nan, "cond_i": math.inf, "cond_ii": -math.inf, "op_norm": 0.1}
    report = _with_first_record(_report(0, 2, suite="thm1"), residuals=residuals)
    _assert_csv_bytes(report, tmp_path / "r.csv")
    assert report_to_csv(report).splitlines()[1].startswith("thm1,0,0,2,5,nan,inf,-inf,,")


@pytest.mark.parametrize(
    "text, cell",
    [
        ("a,b", '"a,b"'),
        ('say "hi"', '"say ""hi"""'),
        ("two\nlines", '"two\nlines"'),
        ('a,"b"\nc', '"a,""b""\nc"'),
        ('"', '""""'),
        ("carriage\rreturn", "carriage\rreturn"),
        ("", ""),
        (" padded ", " padded "),
    ],
    ids=["comma", "quote", "newline", "all-three", "lone-quote", "cr", "empty", "spaces"],
)
def test_text_cells_are_quoted_as_the_csv_module_quotes_them(tmp_path, text, cell):
    report = _with_first_record(_report(0, 2, suite="per1"), suite=text, verdict=text)
    _assert_csv_bytes(report, tmp_path / "r.csv")
    body = report_to_csv(report).split("\n", 1)[1]
    first_row = body[: body.index("\nper1,1,0,") + 1]
    assert first_row.startswith(f"{cell},0,0,") and first_row.endswith(f",{cell}\n")
    if "\r" not in text:  # the csv module leaves a lone CR unquoted, so it does not read back
        rows = list(csv.DictReader(io.StringIO(report_to_csv(report), newline="")))
        assert rows[0]["suite"] == rows[0]["verdict"] == text


@pytest.mark.parametrize("trials, suite", [(100, "per1"), (100, "all")], ids=["per1", "all"])
def test_csv_save_peak_is_a_row_not_a_row_buffer(tmp_path, trials, suite):
    report = _report(0, trials, suite=suite)
    assert len(report.records) == trials * (len(SUITE_NAMES) if suite == "all" else 1)
    path = tmp_path / "report.csv"
    save_report(report, path, "csv")  # warm: the first open and write
    tracemalloc.start()
    try:
        save_report(report, path, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == _reference_csv(report).encode()
    assert peak < 48 * 1024, f"peak {peak} B"


FRAMES = {
    "4x9": lambda: random_frame(4, 9, (613, 0)),
    "8x17": lambda: random_frame(8, 17, (613, 1)),
    "riesz3": lambda: riesz_basis(3, (613, 2)),
}


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_v_part_is_the_former_stacked_product(name):
    f = FRAMES[name]()
    w = _unit_w(np.random.default_rng(7), DUAL_SAMPLE_COUNT, f.dim, f.count)
    stacked = w @ f._kernel_proj
    synth = f._canonical_synth + stacked
    duals = [_dual(f, w_k, DEFAULT_TOL) for w_k in w]
    assert len(duals) == DUAL_SAMPLE_COUNT
    for k, dual in enumerate(duals):
        assert np.shares_memory(dual.w, w) and not dual.w.flags.writeable
        assert dual.v_part.tobytes() == stacked[k].tobytes()
        assert dual.frame.synth.tobytes() == synth[k].tobytes()
        assert not dual.v_part.flags.writeable


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_canonical_dual_v_part_is_zero_and_read_only(name):
    f = FRAMES[name]()
    for dual in (canonical_dual(f), canonical_dual(f)):  # a fresh solve, then the memo
        assert dual.w is None
        assert np.array_equal(dual.v_part, np.zeros((f.dim, f.count)))
        assert dual.v_part.dtype == np.complex128 and not dual.v_part.flags.writeable
    assert f._canonical_duals[DEFAULT_TOL] is dual.frame


def test_editing_the_callers_w_changes_neither_v_part_nor_the_frame():
    f = FRAMES["4x9"]()
    w = _unit_w(np.random.default_rng(8), 1, f.dim, f.count)[0].copy()
    dual = random_dual(f, w)
    v_part, synth, gram = dual.v_part.tobytes(), dual.frame.synth.tobytes(), dual.frame.cached_S.tobytes()
    w[:] = 0.5
    assert not np.shares_memory(dual.w, w)
    assert dual.v_part.tobytes() == v_part
    assert dual.frame.synth.tobytes() == synth and dual.frame.cached_S.tobytes() == gram


def test_a_dual_family_retains_its_synth_and_gram_stacks_only():
    f = random_frame(8, 17, (613, 3))
    k = DUAL_SAMPLE_COUNT
    w = _unit_w(np.random.default_rng(9), k, f.dim, f.count)
    f._kernel_proj  # the frame's caches, alive like the W block before the family
    [_dual(f, w_k, DEFAULT_TOL) for w_k in w]  # warm: first-call allocations of the kernels
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        family = [_dual(f, w_k, DEFAULT_TOL) for w_k in w]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stacks = k * f.dim * (f.count + f.dim) * 16  # K complex synths (d, N) and grams (d, d)
    assert stacks == 64_000
    assert len(family) == k
    assert retained <= stacks + 16 * 1024, f"retained {retained} B"


@pytest.mark.parametrize("field", ["trial", "seed", "d", "n"])
@pytest.mark.parametrize("value", [np.int64(2), True], ids=["numpy-int64", "bool"])
def test_json_record_integer_must_be_an_int(tmp_path, field, value):
    report = _report(0, 3, suite="per1")
    records = report.records
    bad = replace(report, records=(*records[:-1], replace(records[-1], **{field: value})))
    path = tmp_path / "report.json"
    before = b"an earlier report\n\x00\xff"
    path.write_bytes(before)
    with pytest.raises(ValueError, match="integer field"):
        save_report(bad, path, "json")
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match="integer field"):
        report_to_json(bad)


@pytest.mark.parametrize(
    "changes",
    [{"trials": np.int64(3)}, {"seed": np.int32(0)}, {"dims": ((np.int64(2), 5),)}],
    ids=["trials", "seed", "dims"],
)
def test_json_config_integer_must_be_an_int(tmp_path, changes):
    report = _report(0, 3, suite="per1")
    bad = replace(report, config=replace(report.config, **changes))
    path = tmp_path / "report.json"
    path.write_bytes(b"kept")
    with pytest.raises(ValueError, match="integer field"):
        save_report(bad, path, "json")
    assert path.read_bytes() == b"kept"


def test_csv_accepts_numpy_integers_with_the_same_text():
    report = _report(0, 3, suite="per1")
    record = report.records[-1]
    numpy_ints = {name: np.int64(getattr(record, name)) for name in ("trial", "seed", "d", "n")}
    edited = replace(report, records=(*report.records[:-1], replace(record, **numpy_ints)))
    assert report_to_csv(edited) == report_to_csv(report)
