"""Reports written straight from the run's columns.

run_suite's report holds its records as a read-only sequence view over the
suites' columns: each TrialRecord is built when a reader reaches it, and the
tally and max_residual are read from the columns. The JSON writer formats
each record itself and still writes the bytes of json.dumps(report.as_dict(),
sort_keys=True, indent=2) plus a newline, for the view and for a hand-built
tuple of records alike. Every check that can reject a report runs, in one
pass over its records, before the file is opened. A run peaks at about half
of what it did when every record was built after the last trial, and
save_report adds little above what the report retains.
"""

import gc
import json
import math
import tracemalloc
from collections import Counter
from collections.abc import Sequence
from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from framemult import ExperimentConfig, TrialRecord, run_suite, save_report, suites
from framemult.cli import _summarize
from framemult.serialize import report_to_csv, report_to_json
from framemult.suites import _AGG_KEYS, GENERATOR_NAMES, SUITE_NAMES

# tracemalloc peak of an in-process `--suite all --trials 100` random run at
# seed 0, after a one-trial warm-up: 115 KiB on CPython 3.11 with numpy 2.4
# (151 KiB with a list slot per field, 309 KiB with every record built after
# the last trial).
RUN_PEAK_KIB = 115


@cache
def _report(seed: int, trials: int, generator: str = "random", suite: str = "all"):
    return run_suite(ExperimentConfig(suite=suite, trials=trials, seed=seed, generator=generator))


def _dumped(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"


def _assert_json_bytes(report, path) -> None:
    text = report_to_json(report)
    assert text == _dumped(report)
    save_report(report, path, "json")
    assert path.read_bytes() == text.encode()


def _edited(report, index: int, **changes):
    """The report with records[index] replaced, its records a tuple."""
    records = list(report.records)
    records[index] = replace(records[index], **changes)
    return replace(report, records=tuple(records))


# ------------------------------------------------------------------ the view


def test_the_view_is_a_read_only_sequence_equal_to_its_tuple():
    report = _report(0, 5)
    records = report.records
    built = tuple(records)
    assert isinstance(records, Sequence) and not isinstance(records, tuple)
    assert len(records) == len(built) == 5 * len(SUITE_NAMES)
    assert records == built and built == records and records == list(built)
    assert records[-1] == built[-1] and records[-1].suite == SUITE_NAMES[-1]
    assert records[0] == built[0] and records[np.int64(7)] == built[7]
    assert records[3:12] == built[3:12] and type(records[3:12]) is tuple
    assert records[::-7] == built[::-7] and records[5:2] == ()
    for index in (len(built), -len(built) - 1):
        with pytest.raises(IndexError):
            records[index]
    with pytest.raises(TypeError):
        records[0] = built[0]
    assert records != built[:-1] and records != (*built[:-1], replace(built[-1], note="x"))
    assert all(isinstance(r, TrialRecord) for r in records)


def test_reading_the_view_twice_gives_equal_records():
    records = _report(1608, 4, "riesz").records
    first, second = list(records), list(records)
    assert first == second
    assert all(a is not b for a, b in zip(first, second))
    assert [r.as_dict() for r in first] == [r.as_dict() for r in second]


def test_a_report_with_a_tuple_of_records_writes_the_same_bytes(tmp_path):
    report = _report(0, 6)
    as_tuple = replace(report, records=tuple(report.records))
    assert as_tuple == report
    assert report_to_json(as_tuple) == report_to_json(report)
    assert report_to_csv(as_tuple) == report_to_csv(report)
    _assert_json_bytes(as_tuple, tmp_path / "r.json")


@pytest.mark.parametrize("generator", GENERATOR_NAMES)
def test_tally_and_max_residual_are_those_of_the_records(generator):
    report = _report(0, 10, generator)
    tally = Counter(r.verdict for r in report.records)
    assert (report.passed, report.failed, report.indeterminate) == (
        tally["pass"],
        tally["fail"],
        tally["indeterminate"],
    )
    aggregated = [v for r in report.records for k, v in r.residuals.items() if k in _AGG_KEYS]
    assert report.max_residual == max(aggregated, default=0.0)


# ------------------------------------------------------------- the JSON writer


@pytest.mark.parametrize(
    "residuals",
    [
        {"direct": math.nan, "cond_i": math.inf, "cond_ii": -math.inf},
        {"direct": np.float32(0.1), "cond_i": np.float64(-0.0), "cond_ii": Fraction(1, 3)},
        {"direct": 5e-324, "cond_i": 1.7976931348623157e308, "cond_ii": 1e16, "cond_iii": 123456789.0},
        {},
    ],
    ids=["nan-and-inf", "float32-and-fraction", "extremes", "empty"],
)
def test_residuals_encode_as_json_dumps(tmp_path, residuals):
    _assert_json_bytes(_edited(_report(0, 3), 1, residuals=residuals), tmp_path / "r.json")


def test_csv_writes_each_residual_as_the_float_json_writes():
    residuals = {"direct": np.float32(0.1), "cond_i": Fraction(1, 3), "cond_ii": 7, "cond_iii": True}
    report = _edited(_report(0, 3, suite="thm1"), 1, residuals=residuals)
    row = report_to_csv(report).splitlines()[2].split(",")
    written = json.loads(report_to_json(report))["records"][1]["residuals"]
    assert [float(cell) for cell in row[5:9]] == [written[key] for key in residuals]
    assert row[5:9] == [format(float(value), ".17g") for value in residuals.values()]


@pytest.mark.parametrize(
    "note",
    [
        'a "quoted" \\ back\\slash',
        "ünïcødé ✓, 𝔽 and  ",
        "control \x00\x01\x1f\t\r\n\x7f characters",
        "",
    ],
    ids=["quotes-and-backslashes", "non-ascii", "control", "empty"],
)
def test_notes_encode_as_json_dumps(tmp_path, note):
    report = _edited(_report(0, 3, "riesz"), -1, residuals={}, booleans={}, verdict="fail", note=note)
    _assert_json_bytes(report, tmp_path / "r.json")
    assert json.loads(report_to_json(report))["records"][-1]["note"] == note


def test_empty_booleans_and_unsorted_keys_encode_as_json_dumps(tmp_path):
    report = _edited(_report(0, 3), 0, booleans={}, residuals={"cond_iv": 1.0, "direct": 2.0, "cond_i": 3.0})
    report = _edited(report, 2, booleans={"z": True, "a": False, "M": True}, indeterminate=True)
    _assert_json_bytes(report, tmp_path / "r.json")


@pytest.mark.parametrize("suite", ["all", "per2"])
def test_a_report_without_records_encodes_as_json_dumps(tmp_path, suite):
    report = replace(_report(0, 2, suite=suite), records=())
    _assert_json_bytes(report, tmp_path / "r.json")
    assert json.loads(report_to_json(report))["records"] == []


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"suite": b"thm1"}, "suite, verdict and note"),
        ({"verdict": None}, "suite, verdict and note"),
        ({"indeterminate": np.bool_(False)}, "boolean value"),
        ({"residuals": {1: 0.5}}, "residual and boolean key"),
        ({"booleans": {("a",): True}}, "residual and boolean key"),
    ],
    ids=["bytes-suite", "none-verdict", "numpy-bool-indeterminate", "int-residual-key", "tuple-boolean-key"],
)
def test_a_field_json_would_encode_otherwise_is_rejected_before_the_file_opens(tmp_path, changes, message):
    report = _edited(_report(0, 3, suite="per1"), -1, **changes)
    path = tmp_path / "report.json"
    before = b"an earlier report\n\x00\xff"
    path.write_bytes(before)
    with pytest.raises(ValueError, match=message):
        save_report(report, path, "json")
    assert path.read_bytes() == before


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("value", [10**400, Fraction(-(10**400), 3)], ids=["int", "fraction"])
def test_a_residual_beyond_the_float_range_is_rejected_before_the_file_opens(tmp_path, fmt, value):
    report = _edited(_report(0, 3, suite="thm1"), 1, residuals={"direct": 0.5, "cond_i": value})
    path = tmp_path / f"report.{fmt}"
    path.write_bytes(b"kept")
    with pytest.raises(ValueError, match="'cond_i' lies beyond the float range"):
        save_report(report, path, fmt)
    assert path.read_bytes() == b"kept"


def test_an_unencodable_header_leaves_an_existing_file_untouched(tmp_path):
    report = replace(_report(0, 3, suite="per1"), wall_time_s=object())
    path = tmp_path / "report.json"
    path.write_bytes(b"kept")
    with pytest.raises(TypeError):
        save_report(report, path, "json")
    assert path.read_bytes() == b"kept"


# ------------------------------------------------------------------- memory


def test_a_run_peaks_below_six_fifths_of_its_reading():
    cfg = ExperimentConfig(suite="all", trials=100)
    run_suite(replace(cfg, trials=1))  # warm: imports and shape caches
    gc.collect()
    tracemalloc.start()
    try:
        report = run_suite(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.records) == 800
    assert peak < 1.2 * RUN_PEAK_KIB * 1024, f"peak {peak / 1024:.0f} KiB"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_save_report_adds_less_than_16_kib_above_the_report(tmp_path, fmt):
    report = _report(0, 100)
    path = tmp_path / f"report.{fmt}"
    save_report(report, path, fmt)  # warm: imports and encoder set-up
    gc.collect()
    tracemalloc.start()
    try:
        retained = tracemalloc.get_traced_memory()[0]
        save_report(report, path, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - retained < 16 * 1024, f"save_report peaked {(peak - retained) / 1024:.1f} KiB above the report"


# ---------------------------------------------------- fixed-width columns


def test_notes_sit_on_exactly_the_trials_that_caught_an_error():
    # No suite body returns empty residuals, so a record has none exactly
    # when its trial caught an error; riesz bases give 150 of them.
    report = _report(0, 100, "riesz")
    caught = {i for i, r in enumerate(report.records) if not r.residuals}
    assert len(caught) == 150
    assert {i for i, r in enumerate(report.records) if r.note} == caught
    assert all(report.records[i].verdict == "fail" for i in caught)
    assert sum(len(column.notes) for _, column in report.records._suites) == 150


@pytest.mark.parametrize("generator", GENERATOR_NAMES)
def test_indeterminate_is_read_from_the_verdict(generator):
    records = _report(0, 100 if generator == "riesz" else 10, generator).records
    assert all(r.indeterminate is (r.verdict == "indeterminate") for r in records)


@pytest.mark.parametrize("generator, expected_n", [("gabor", lambda d, n: d * d), ("riesz", lambda d, n: d)])
def test_n_reads_back_as_the_generator_gives_it(generator, expected_n):
    report = _report(1608, 14, generator)
    for record in report.records:
        d, n = report.config.dims[record.trial % len(report.config.dims)]
        # A caught error records the N of its dims entry.
        assert record.n == (n if record.note else expected_n(d, n)) and type(record.n) is int


def test_an_n_beyond_every_fixed_width_reads_back():
    n = 10**20
    (record,) = run_suite(ExperimentConfig(suite="per1", trials=1, dims=((2, n),))).records
    assert record.n == n and record.verdict == "fail" and record.note


def _fake_thm1_run(monkeypatch, make, trials: int):
    """A thm1 run whose body gives make(trial, n) as its _Measured."""
    monkeypatch.setitem(suites._TRIAL_BODIES, "thm1", lambda cfg, trial, d, n: make(trial, n))
    return run_suite(ExperimentConfig(suite="thm1", trials=trials))


def test_an_indeterminate_trial_reads_back(monkeypatch):
    def make(trial, n):
        return suites._Measured(n, {"direct": 0.5 * trial}, {"consistent": True}, ok=True, indeterminate=trial == 1)

    report = _fake_thm1_run(monkeypatch, make, 3)
    assert [(r.verdict, r.indeterminate) for r in report.records] == [
        ("pass", False),
        ("indeterminate", True),
        ("pass", False),
    ]
    assert report.records[1] == TrialRecord("thm1", 1, 0, 3, 7, {"direct": 0.5}, {"consistent": True}, True, "indeterminate")
    assert (report.passed, report.failed, report.indeterminate) == (2, 0, 1)
    assert _summarize(report).splitlines()[0] == "suite=thm1 trials=3 pass=2 fail=0 indeterminate=1"


def test_more_than_256_distinct_ns_and_rows_widen_their_index_columns(monkeypatch):
    def make(trial, n):
        return suites._Measured(trial + 1, {"direct": float(trial)}, {"k": trial}, ok=trial % 3 > 0)

    report = _fake_thm1_run(monkeypatch, make, 300)
    ((_, column),) = report.records._suites
    assert (column.n.typecode, column.pair.typecode, column.verdict.typecode) == ("I", "I", "B")
    for trial, record in enumerate(report.records):
        assert (record.n, record.residuals["direct"], record.booleans["k"]) == (trial + 1, trial, trial)
        assert record.verdict == ("pass" if trial % 3 else "fail")


# ------------------------------------------------------------- the tally


def _summary_from_records(report) -> list[str]:
    """The CLI's per-suite lines, counted from the records themselves."""
    tally = Counter((r.suite, r.verdict) for r in report.records)
    return [
        f"suite={name} trials={sum(tally[name, v] for v in ('pass', 'fail', 'indeterminate'))} "
        f"pass={tally[name, 'pass']} fail={tally[name, 'fail']} indeterminate={tally[name, 'indeterminate']}"
        for name in SUITE_NAMES
        if any(suite == name for suite, _ in tally)
    ]


@pytest.mark.parametrize("suite", ["all", "per2"])
@pytest.mark.parametrize("generator", ["random", "riesz"])
def test_the_summary_counts_the_columns_and_builds_no_record(monkeypatch, suite, generator):
    report = _report(0, 10, generator, suite)
    want = _summary_from_records(report)
    monkeypatch.setattr(suites._Columns, "record", None)  # any record built now raises TypeError
    assert _summarize(report).splitlines()[:-1] == want
