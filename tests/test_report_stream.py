"""Streamed reports: save_report writes the bytes of report_to_json/report_to_csv.

save_report streams each format into the file through the same writer that
renders the string forms, so peak memory inside it is the report's records
plus one batch of text, not the whole text. A report it rejects leaves an
existing file at the target path untouched. Also: the overflow of a weighted
frame vector and of a multiplier's largest singular value is a
NumericalOverflow.
"""

import json
import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from framemult import (
    ExperimentConfig,
    NumericalOverflow,
    TrialRecord,
    build,
    new_frame,
    new_symbol,
    random_frame,
    random_symbol,
    run_suite,
    save_report,
    scale_by_symbol,
)
from framemult.serialize import report_to_csv, report_to_json
from framemult.suites import SUITE_NAMES

SEEDS = (0, 1608)


@cache
def _report(suite: str, seed: int, trials: int, generator: str = "random"):
    return run_suite(ExperimentConfig(suite=suite, trials=trials, seed=seed, generator=generator))


def _saved(report, path, fmt) -> bytes:
    save_report(report, path, fmt)
    return path.read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("generator", ["random", "riesz"])
def test_saved_all_suite_report_equals_its_string_forms(tmp_path, generator, seed):
    report = _report("all", seed, 20, generator)
    text = report_to_json(report)
    assert text == json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
    assert _saved(report, tmp_path / "r.json", "json") == text.encode()
    assert _saved(report, tmp_path / "r.csv", "csv") == report_to_csv(report).encode()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_saved_solo_csv_report_equals_report_to_csv(tmp_path, suite, seed):
    report = _report(suite, seed, 12)
    text = report_to_csv(report)
    assert len(text.splitlines()) == 1 + len(report.records)
    assert _saved(report, tmp_path / "r.csv", "csv") == text.encode()


def _with_unknown_residual(report):
    first = replace(report.records[0], residuals={"not_a_column": 1.0})
    return replace(report, records=(*report.records[1:], first))


@pytest.mark.parametrize(
    "make, fmt",
    [(_with_unknown_residual, "csv"), (lambda report: report, "xml")],
    ids=["unknown-residual-key", "unknown-format"],
)
def test_rejected_report_leaves_an_existing_file_untouched(tmp_path, make, fmt):
    report = make(_report("per1", 0, 3))
    path = tmp_path / "report.out"
    before = b"an earlier report\n\x00\xff"
    path.write_bytes(before)
    with pytest.raises(ValueError):
        save_report(report, path, fmt)
    assert path.read_bytes() == before


def test_save_report_peak_stays_below_twice_the_text(tmp_path):
    report = _report("all", 0, 100)
    text_bytes = len(report_to_json(report).encode())
    path = tmp_path / "report.json"
    save_report(report, path, "json")  # warm: imports and encoder set-up
    tracemalloc.start()
    try:
        save_report(report, path, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == text_bytes
    assert peak < 2 * text_bytes, f"peak {peak} B for {text_bytes} B of text"


def test_trial_records_carry_no_instance_dict():
    record = _report("per1", 0, 3).records[0]
    assert isinstance(record, TrialRecord)
    assert not hasattr(record, "__dict__")


def test_overflowing_weighted_vector_is_a_numerical_overflow():
    f = new_frame(3 * random_frame(3, 7, (37, 0)).synth)
    m = new_symbol(np.full(7, 1e308))
    with np.errstate(over="ignore"):
        assert not np.isfinite(f.synth * m.values).all()
    with pytest.raises(NumericalOverflow):
        scale_by_symbol(f, m)


def test_overflowing_largest_singular_value_is_a_numerical_overflow():
    m = new_symbol(1e308 * random_symbol(7, 0.5, 1.5, (1, 2)).values)
    phi, psi = random_frame(3, 7, (1, 0)), random_frame(3, 7, (1, 1))
    assert np.isfinite((phi.synth * m.values) @ psi.analysis_op).all()
    with pytest.raises(NumericalOverflow):
        build(m, phi, psi)

