"""A run's report is checked from its columns: the same summary, the same errors, each record built once.

serialize._check reads one summary of the records' field types and keys.
A run's records view (_Records) gives it from its columns and the run's
interned entries, so save_report builds each record once, to write it; any
other sequence of records is summarized record by record.
"""

from dataclasses import replace

import numpy as np
import pytest

from framemult import ExperimentConfig, InvalidArgument, run_suite, save_report, suites
from framemult.serialize import _kinds, report_to_csv, report_to_json

RUNS = {
    "all random": dict(suite="all", trials=9),
    "all riesz": dict(suite="all", trials=6, generator="riesz"),  # caught errors: empty rows
    "per2 seed 1608": dict(suite="per2", trials=4, seed=1608),
}


def _fake_thm1(cfg, trial, d, n):
    """A body giving numpy types and a residual key no CSV column has, on odd trials only."""
    if trial % 2 == 0:
        return suites._Measured(n, {"direct": 0.5}, {"consistent": True}, ok=True)
    return suites._Measured(np.int64(n), {"direct": 0.5, "extra": 1.0}, {"consistent": np.bool_(True)}, ok=True)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_the_column_summary_is_the_record_summary(run):
    report = run_suite(ExperimentConfig(**RUNS[run]))
    assert report.records.kinds() == _kinds(tuple(report.records))


def test_numpy_types_and_unknown_keys_are_summarized_from_the_columns(monkeypatch):
    monkeypatch.setitem(suites._TRIAL_BODIES, "thm1", _fake_thm1)
    for trials in (1, 3):
        report = run_suite(ExperimentConfig(suite="thm1", trials=trials, dims=((2, 5), (3, 7))))
        assert report.records.kinds() == _kinds(tuple(report.records))
    assert np.int64 in report.records.kinds()[3] and np.bool_ in report.records.kinds()[4]
    as_tuple = replace(report, records=tuple(report.records))
    for render in (report_to_json, report_to_csv):
        errors = []
        for version in (report, as_tuple):
            with pytest.raises(InvalidArgument) as info:
                render(version)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_save_report_builds_each_record_once(monkeypatch, tmp_path, fmt):
    report = run_suite(ExperimentConfig(suite="all", trials=5))
    built = []
    record = suites._Columns.record

    def counting(self, *args):
        built.append(args[-1])
        return record(self, *args)

    monkeypatch.setattr(suites._Columns, "record", counting)
    save_report(report, tmp_path / f"r.{fmt}", fmt)
    assert len(built) == len(report.records) == 40
