"""Compact trial records, one residual rule for both report formats, and leaner helpers.

Records built by run_suite hold read-only rows: a key tuple shared by every
row of the run with those keys, the residuals as Python floats and the
booleans as the suite body gave them. Equal booleans rows are one object
within a run. Reports render the bytes of the same records built with
dicts. A residual that is not a real number fails the run, and is rejected
before either writer opens the file. symbols.conj carries the moduli over,
and each companion checks its shapes once. What a repeated run leaves
behind does not grow with the number of trials, and a run's peak stays
close to what its report retains.
"""

import gc
import tracemalloc
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from framemult import (
    DimensionMismatch,
    ExperimentConfig,
    InvalidArgument,
    build,
    companion_per1,
    companion_per1_dual_side,
    companion_per2,
    companion_per3,
    new_symbol,
    random_frame,
    random_frame_perturbation,
    random_symbol,
    run_suite,
    save_report,
)
from framemult import frames, perturbation, suites
from framemult.linalg import _finite
from framemult.serialize import report_to_csv, report_to_json
from framemult.suites import SUITE_NAMES, _Row, _row
from framemult.symbols import conj


@cache
def _report(seed: int, trials: int, generator: str = "random"):
    return run_suite(ExperimentConfig(suite="all", trials=trials, seed=seed, generator=generator))


def _with_dicts(report):
    """The report with every record's rows rebuilt as plain dicts."""
    records = tuple(
        replace(r, residuals=dict(r.residuals.items()), booleans=dict(r.booleans.items()))
        for r in report.records
    )
    return replace(report, records=records)


# ---------------------------------------------------------------- row records


def test_rows_equal_the_dict_built_records_and_as_dict_gives_plain_dicts():
    report = _report(0, 8)
    rebuilt = _with_dicts(report)
    assert report.records == rebuilt.records
    for record, plain in zip(report.records, rebuilt.records):
        assert isinstance(record.residuals, _Row) and isinstance(record.booleans, _Row)
        assert record.residuals == plain.residuals and plain.residuals == record.residuals
        assert record.booleans == plain.booleans
        assert list(record.residuals) == list(plain.residuals)
        assert repr(record.booleans) == repr(plain.booleans)
        encoded = record.as_dict()
        assert type(encoded["residuals"]) is dict and type(encoded["booleans"]) is dict
        assert encoded == plain.as_dict()


def test_rows_are_read_only_mappings():
    record = _report(0, 8).records[0]
    row = record.residuals
    assert row["direct"] == dict(row.items())["direct"]
    with pytest.raises(KeyError):
        row["absent"]
    with pytest.raises(TypeError):
        row["direct"] = 0.0
    with pytest.raises(TypeError):
        del row["direct"]
    assert not hasattr(row, "__dict__")
    assert not any(hasattr(row, name) for name in ("update", "pop", "clear", "setdefault"))


def test_every_record_of_a_suite_shares_one_key_tuple():
    report = _report(0, 8)
    for name in SUITE_NAMES:
        records = [r for r in report.records if r.suite == name and not r.note]
        assert records, name
        for attr in ("residuals", "booleans"):
            keys = {id(getattr(r, attr)._keys) for r in records}
            assert len(keys) == 1, (name, attr)


def test_equal_booleans_rows_are_one_object_within_a_run_and_not_across_runs():
    first = _report(0, 8)
    rows = {}
    for record in first.records:
        key = tuple((k, v, type(v)) for k, v in record.booleans.items())
        rows.setdefault(key, set()).add(id(record.booleans))
    assert all(len(ids) == 1 for ids in rows.values())
    assert len(rows) < len(first.records)

    second = run_suite(ExperimentConfig(suite="all", trials=8))
    assert second.records == first.records
    for a, b in zip(first.records, second.records):
        assert a.booleans is not b.booleans
        assert a.residuals._keys is not b.residuals._keys or not a.residuals


def test_rows_differing_only_by_true_one_or_numpy_bool_stay_apart():
    table = {}
    rows = [_row(table, {"ok": value}) for value in (True, 1, np.bool_(True))]
    assert len({id(r) for r in rows}) == 3
    assert [type(r["ok"]) for r in rows] == [bool, int, np.bool_]
    assert _row(table, {"ok": True}) is rows[0]
    assert len({id(r._keys) for r in rows}) == 1


def _run_fake_thm1(monkeypatch, residuals: dict, booleans: dict):
    """A one-trial thm1 run whose body gives these residuals and booleans, its wall time zeroed."""

    def fake_thm1(cfg, trial, d, n):
        return suites._Measured(n, residuals, booleans, ok=True)

    monkeypatch.setitem(suites._TRIAL_BODIES, "thm1", fake_thm1)
    return replace(run_suite(ExperimentConfig(suite="thm1", trials=1)), wall_time_s=0.0)


def test_values_are_stored_as_the_body_gave_them(monkeypatch):
    # Residuals are kept in a float64 column until the last trial, so a
    # numpy float comes back as the Python float of the same value.
    (record,) = _run_fake_thm1(monkeypatch, {"direct": np.float32(0.25)}, {"ok": np.bool_(True)}).records
    assert type(record.residuals["direct"]) is float and record.residuals["direct"] == 0.25
    assert type(record.booleans["ok"]) is np.bool_
    given = _run_fake_thm1(monkeypatch, {"direct": np.float32(0.25)}, {"ok": True})
    plain = _run_fake_thm1(monkeypatch, {"direct": float(np.float32(0.25))}, {"ok": True})
    assert report_to_json(given) == report_to_json(plain)
    assert report_to_csv(given) == report_to_csv(plain)


@pytest.mark.parametrize(
    "value",
    [1.0 + 2.0j, np.complex128(1.0 + 2.0j), "0.5", None],
    ids=["complex", "numpy-complex", "str", "none"],
)
def test_a_body_giving_a_non_real_residual_fails_the_run(monkeypatch, value):
    with pytest.raises(InvalidArgument, match="every residual value must be real"):
        _run_fake_thm1(monkeypatch, {"direct": value}, {})


def test_a_replaced_dict_field_is_stored_as_given_and_serializes_the_same(tmp_path):
    report = _report(0, 3)
    record = report.records[0]
    plain = {k: v for k, v in record.residuals.items()}
    edited = replace(record, residuals=plain)
    assert edited.residuals is plain
    assert edited.as_dict() == record.as_dict()
    swapped = replace(report, records=(edited, *report.records[1:]))
    assert report_to_json(swapped) == report_to_json(report)
    assert report_to_csv(swapped) == report_to_csv(report)
    save_report(swapped, tmp_path / "r.csv", "csv")
    assert (tmp_path / "r.csv").read_text(encoding="utf-8") == report_to_csv(report)


@pytest.mark.parametrize("generator", ["random", "riesz"])
@pytest.mark.parametrize("seed", [0, 1608])
def test_report_bytes_equal_those_of_the_dict_built_report(generator, seed):
    report = _report(seed, 10, generator)
    rebuilt = _with_dicts(report)
    assert report_to_json(report) == report_to_json(rebuilt)
    assert report_to_csv(report) == report_to_csv(rebuilt)


# Bytes a 100-trial --suite all report retains per record: 53 (random) and 76
# (riesz, whose 150 caught errors keep their notes) with fixed-width columns,
# 106 and 120 with a list slot per field, about 350 with records built after
# the last trial.
@pytest.mark.parametrize("generator, bound", [("random", 64), ("riesz", 92)])
def test_retained_bytes_per_record_stay_near_their_reading(generator, bound):
    cfg = ExperimentConfig(suite="all", trials=100, generator=generator)
    run_suite(replace(cfg, trials=1))  # warm: imports and shape caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_suite(cfg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_record = retained / len(report.records)
    assert per_record < bound, f"{per_record:.0f} B per record"


@pytest.mark.parametrize("generator", ["random", "riesz"])
def test_a_run_peaks_less_than_128_kib_above_what_its_report_retains(generator):
    # The finished trials sit in per-suite columns, not records, under the
    # last trial's working set: the peak was 280 KiB (random) and 185 KiB
    # (riesz) above the report with records built trial by trial, about 90
    # and 45 KiB with the columns.
    cfg = ExperimentConfig(suite="all", trials=100, generator=generator)
    run_suite(replace(cfg, trials=1))  # warm: imports and shape caches
    gc.collect()
    tracemalloc.start()
    try:
        report = run_suite(cfg)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.records) == 800
    assert peak - retained < 128 * 1024, f"peak {(peak - retained) / 1024:.0f} KiB above the report"


def _blocks_left_by_a_repeated_run(trials: int) -> int:
    """Package-allocated blocks still held after a second identical run, its report dropped."""
    cfg = ExperimentConfig(suite="all", trials=trials)
    gc.collect()  # a full collection also empties CPython's free lists
    run_suite(cfg)
    gc.disable()  # no collection may empty them again mid-run
    tracemalloc.start()
    try:
        run_suite(cfg)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    package = tracemalloc.Filter(True, str(Path(suites.__file__).parent / "*"))
    return sum(s.count for s in snapshot.filter_traces([package]).statistics("filename"))


def test_blocks_left_behind_do_not_grow_with_the_trial_count():
    # tuple() of an iterator with no length hint over-allocates and shrinks, so
    # each trial moved a block into another size's tuple free list: memory use
    # drifted with the trials run since the last full collection (174 blocks
    # at 10 trials, 565 at 80). The equivalence suite's finite check on a float
    # then called a numpy bool's .all(), whose "all" strs CPython's type cache
    # kept in slots picked by address, so the count also wandered from process
    # to process (16 to 62 more blocks at 80 trials). Now 16 at both.
    grown = _blocks_left_by_a_repeated_run(80) - _blocks_left_by_a_repeated_run(20)
    assert grown < 30, f"{grown} more blocks left behind at 80 trials than at 20"


def test_a_float_finite_check_leaves_no_block_behind():
    _finite(1.5, "bound")
    tracemalloc.start()
    try:
        for _ in range(200):
            _finite(1.5, "bound")
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert not snapshot.filter_traces([tracemalloc.Filter(True, _finite.__code__.co_filename)]).traces


# ------------------------------------------------------- one residual rule


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("value", ["0.5", None, 1.0 + 2.0j], ids=["str", "none", "complex"])
def test_a_non_real_residual_leaves_an_existing_file_untouched(tmp_path, fmt, value):
    report = run_suite(ExperimentConfig(suite="per1", trials=3))
    bad = replace(report.records[-1], residuals={"direct": value})
    report = replace(report, records=(*report.records[:-1], bad))
    path = tmp_path / f"report.{fmt}"
    before = b"an earlier report\n\x00\xff"
    path.write_bytes(before)
    with pytest.raises(ValueError, match="every residual value must be real"):
        save_report(report, path, fmt)
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match="every residual value must be real"):
        (report_to_json if fmt == "json" else report_to_csv)(report)


def test_csv_keeps_accepting_what_json_alone_rejects():
    report = run_suite(ExperimentConfig(suite="per1", trials=2))
    record = replace(report.records[0], trial=np.int64(0), booleans={"x": np.bool_(True)})
    report = replace(report, records=(record, *report.records[1:]))
    assert report_to_csv(report).splitlines()[1].startswith("per1,0,0,")
    with pytest.raises(ValueError, match="integer field"):
        report_to_json(report)


# ---------------------------------------------------------------- conj


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_conj_equals_a_revalidated_conjugate_bit_for_bit(scale):
    values = random_symbol(17, 0.5, 2.0, (901, 0)).values * scale
    values[3] = 0.0
    m = new_symbol(values)
    got, want = conj(m), new_symbol(np.conj(m.values))
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
        assert type(a) is type(b)
    assert got.values.dtype == np.complex128 and not got.values.flags.writeable


# ------------------------------------------------------ one shape check each


def _count_shape_checks(monkeypatch):
    calls = []
    original = frames._check_shapes

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(frames, "_check_shapes", counting)
    monkeypatch.setattr(perturbation, "_check_shapes", counting)
    return calls


def test_each_companion_checks_its_shapes_once(monkeypatch):
    phi, psi = random_frame(3, 7, (902, 0)), random_frame(3, 7, (902, 1))
    m = random_symbol(7, 0.5, 2.0, (902, 2))
    phi_prime = random_frame_perturbation(phi, 1e-3, (902, 3))
    psi_prime = random_frame_perturbation(psi, 1e-3, (902, 4))
    mult = build(m, phi, psi)
    assert mult.inv_diag.invertible
    m_prime = new_symbol(m.values + 1e-3)
    calls = _count_shape_checks(monkeypatch)
    for run in (
        lambda: companion_per1(phi, psi, m, phi_prime),
        lambda: companion_per1_dual_side(phi, psi, m, psi_prime),
        lambda: companion_per2(phi, psi, m, phi_prime, mult),
        lambda: companion_per3(phi, psi, m, m_prime, mult),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def test_a_companion_shape_mismatch_keeps_its_message():
    phi, psi = random_frame(3, 7, (903, 0)), random_frame(3, 7, (903, 1))
    m = random_symbol(8, 0.5, 2.0, (903, 2))
    with pytest.raises(DimensionMismatch, match="lengths differ: symbols 8, frames 7"):
        companion_per1(phi, psi, m, phi)
